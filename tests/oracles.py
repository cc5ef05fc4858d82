"""Test-only oracles for the enumeration in `kfx.search`: a labeled brute
force that never walks shape tuples, a brute force over every tree tuple
of one work unit, one representative per free-tree class, a code-keyed
view of `unicyclic_rows`, a class's Kf from its shape tuple, and the
rooted-tree counts as a literal table. Beside them, the graph helpers
only tests use: a free tree's canonical code, a relabeled copy, the tree
and unicyclic tests, and a key that compares two labeled graphs."""
from functools import cache
from itertools import combinations, product

from kfx.errors import NotConnectedError
from kfx.graph import Graph, orient
from kfx.metrics import kf_from_stats
from kfx.search import unicyclic_rows
from kfx.unicyclic import (
    canonical_code,
    code_parents,
    decompose_unicyclic,
    graph_from_shapes,
    rooted_shapes,
    shape_record,
    tree_code,
)

# A000081: rooted trees on k = 0..20 vertices
A000081 = [0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973, 87811,
           235381, 634847, 1721159, 4688676, 12826228]


def graph_key(g: Graph) -> tuple:
    """(n, sorted edges): equal for two graphs iff they are the same
    labeled graph."""
    return g.n, g.edges


def relabel(g: Graph, perm) -> Graph:
    """A copy of g with vertex v renamed to perm[v]."""
    return Graph(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and g.is_connected()


def is_unicyclic(g: Graph) -> bool:
    return g.m == g.n and g.is_connected()


def tree_canonical_code(g: Graph) -> bytes:
    """Canonical code for a free (unrooted) tree: "T1:" and its code rooted
    at its center, or "T2:" and the two codes of its halves, split at its
    central edge, in byte order.

    The centers are the middle of a longest path, found by two `orient`
    walks. The last vertex the walk from vertex 0 reaches is an end of a
    longest path, and the walk from that end reaches the other end last;
    its parents lead back along the path. A walk that misses a vertex
    raises NotConnectedError.
    """
    if g.m != g.n - 1:
        raise ValueError("not a tree")
    order = orient(g.adj, 0, [False] * g.n)[0]
    if len(order) != g.n:
        raise NotConnectedError(f"graph on {g.n} vertices is not connected")
    order, parent = orient(g.adj, order[-1], [False] * g.n)
    path = [g.n - 1]  # positions, from the far end back to the walk's root at 0
    for k in path:
        if k:
            path.append(parent[k])
    a, b = order[path[len(path) // 2]], order[path[(len(path) - 1) // 2]]
    del order, parent, path  # else each collection during tree_code walks them
    seen = [False] * g.n
    if a == b:
        return b"T1:" + tree_code(orient(g.adj, a, seen)[1])
    seen[b] = True  # split the tree at its central edge
    ca = tree_code(orient(g.adj, a, seen)[1])
    cb = tree_code(orient(g.adj, b, seen)[1])
    lo, hi = sorted([ca, cb])
    return b"T2:" + lo + hi


def unicyclic_classes(*args, **kwargs) -> dict:
    """{code: (l, shapes)} for the rows `unicyclic_rows(*args, **kwargs)`
    yields, in the same order."""
    return {code: (l, shapes) for code, l, shapes, _ in unicyclic_rows(*args, **kwargs)}


def kf_from_shapes(l: int, shapes):
    """Kf of the unicyclic graph given by an l-tuple of rooted-tree shapes,
    from their catalog records."""
    return kf_from_stats(l, [shape_record(s)[:3] for s in shapes])


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
        g = graph_from_shapes(1, [shape])
        code = tree_canonical_code(g)
        if code not in found:
            found[code] = g
    return dict(sorted(found.items()))


def _hanging_degree(code: bytes) -> int:
    """Largest graph degree in a tree hung from a cycle vertex by its root,
    counted from the code's parent positions."""
    parent = code_parents(code)
    children = [0] * len(parent)
    for p in parent[1:]:
        children[p] += 1
    return max([children[0] + 2] + [c + 1 for c in children[1:]])


@cache
def _canonical_tuples(n: int, l: int) -> list[tuple]:
    """(shapes, max degree, N = l * Kf) for every l-tuple of rooted trees on
    n vertices in all that is the least of its l rotations and l
    reflections, found by trying every size composition and every tuple."""
    found = []
    for cuts in combinations(range(1, n), l - 1):
        sizes = [b - a for a, b in zip((0, *cuts), (*cuts, n))]
        for shapes in product(*(list(rooted_shapes(s)) for s in sizes)):
            turns = [shapes[i:] + shapes[:i] for i in range(l)]
            if shapes != min(turns + [turn[::-1] for turn in turns]):
                continue
            num = l * kf_from_shapes(l, shapes)
            assert num.denominator == 1
            found.append((shapes, max(map(_hanging_degree, shapes)), int(num)))
    return found


def brute_force_unit(n: int, l: int, first: int, delta=None, exact: bool = True) -> list:
    """The rows of the work unit (l, first) of a run on n vertices, by
    brute force: the canonical tuples whose first tree has `first`
    vertices and whose max degree is exactly `delta` (at most `delta` with
    exact=False, any without), as sorted (code, l, shapes, N = l * Kf)."""
    return sorted(
        (b"%d:" % l + b"".join(shapes), l, shapes, num)
        for shapes, degree, num in _canonical_tuples(n, l)
        if len(shapes[0]) == 2 * first
        and (delta is None or (degree == delta if exact else degree <= delta))
    )
