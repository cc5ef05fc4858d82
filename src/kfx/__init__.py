"""kfx: exact Kirchhoff/Wiener index toolkit for unicyclic graphs.

Exact rational arithmetic throughout (`fractions.Fraction`); no floating
point enters any computation. The package itself holds only the version;
import from the submodules (`kfx.metrics`, `kfx.search`, ...), so a
command loads only the modules it uses.
"""

__version__ = "0.1.0"
