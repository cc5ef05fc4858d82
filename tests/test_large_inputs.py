"""Inputs far deeper than the interpreter's recursion limit.

Each test starts with the call that a recursive tree walk would break, so
a regression fails fast with RecursionError rather than after slower
checks. Input graphs must not grow the shape caches, which only
enumeration fills.
"""
import json
import random
from fractions import Fraction

from kfx import unicyclic
from kfx.cli import main
from kfx.families import make_p3_extremal, make_path
from kfx.formulas import theorem_bound
from kfx.metrics import kf_decomposition, kirchhoff_index
from kfx.search import verify_theorem
from kfx.unicyclic import canonical_code, decompose_unicyclic, tree_canonical_code

N = 5000


def cache_sizes():
    return (len(unicyclic._code_cache), len(unicyclic._stats_cache), len(unicyclic._deg_cache))


def test_p3_extremal_with_long_tail():
    before = cache_sizes()
    g = make_p3_extremal(N, 5)
    u = decompose_unicyclic(g)
    code = canonical_code(u)
    assert kf_decomposition(u) == theorem_bound(N, 5)
    assert kirchhoff_index(g) == theorem_bound(N, 5)
    perm = list(range(N))
    random.Random(5000).shuffle(perm)
    assert canonical_code(decompose_unicyclic(g.relabel(perm))) == code
    assert cache_sizes() == before


def test_long_path():
    before = cache_sizes()
    g = make_path(N)
    assert tree_canonical_code(g).startswith(b"T2:")
    assert kirchhoff_index(g) == Fraction(N**3 - N, 6)
    assert cache_sizes() == before


def test_verify_theorem_formula_only_at_large_n():
    before = cache_sizes()
    rep = verify_theorem(N, 5)
    assert (rep.mode, rep.verdict) == ("formula-only", "match")
    assert cache_sizes() == before


def test_cli_verify_theorem_n_700(capsys):
    before = cache_sizes()
    rc = main(["verify", "--suite", "theorem", "--n", "700", "--delta", "5"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "match"
    assert cache_sizes() == before
