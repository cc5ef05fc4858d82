"""Test-only oracles for the enumeration in `kfx.search`: a labeled brute
force that never walks shape tuples, one representative per free-tree
class, a code-keyed view of `unicyclic_rows`, and the rooted-tree counts
as a literal table."""
from itertools import combinations

from kfx.graph import Graph
from kfx.search import unicyclic_rows
from kfx.unicyclic import (
    canonical_code,
    decompose_unicyclic,
    rooted_shapes,
    tree_canonical_code,
    unicyclic_from_shapes,
)

# A000081: rooted trees on k = 0..20 vertices
A000081 = [0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973, 87811,
           235381, 634847, 1721159, 4688676, 12826228]


def unicyclic_classes(*args, **kwargs) -> dict:
    """{code: (l, shapes)} for the rows `unicyclic_rows(*args, **kwargs)`
    lists, in the same order."""
    return {code: (l, shapes) for code, l, shapes, _ in unicyclic_rows(*args, **kwargs)}


def brute_force_unicyclic_codes(n: int) -> set[bytes]:
    """Canonical codes of all unicyclic graphs on n vertices, derived by
    filtering every labeled n-edge graph. Exponential; intended for n <= 7."""
    codes: set[bytes] = set()
    all_pairs = list(combinations(range(n), 2))
    for edge_set in combinations(all_pairs, n):
        g = Graph(n, edge_set)
        if not g.is_connected():
            continue
        codes.add(canonical_code(decompose_unicyclic(g)))
    return codes


def tree_classes(n: int, delta: int | None = None, exact: bool = True) -> dict[bytes, Graph]:
    """One representative per isomorphism class of free trees on n vertices."""
    if n < 1:
        return {}
    found: dict[bytes, Graph] = {}
    for shape, (_, _, _, root, inner) in rooted_shapes(n).items():
        deg = max(root, inner)
        if delta is not None and (deg != delta if exact else deg > delta):
            continue
        g, _ = unicyclic_from_shapes(1, [shape]).to_graph()
        code = tree_canonical_code(g)
        if code not in found:
            found[code] = g
    return dict(sorted(found.items()))
