"""Exact resistance distances, Kirchhoff index, and Wiener index.

Two independent engines compute effective resistances:

* the *oracle* engine works on any connected graph, through integer
  determinants of Laplacian minors (matrix-tree counts, fraction-free
  Bareiss elimination);
* the *structural* engine works on trees and unicyclic graphs only, by
  cut-vertex decomposition: tree distances in series with the two
  parallel cycle arcs. Its Kf is one O(n) pass that gives every hanging
  tree its (size, root depth sum, Wiener index), then one O(l) sum over
  the cycle (`kf_from_stats`); the same sum serves enumerated shape
  tuples (`kf_from_shapes`). `resistance_structural` answers single
  pairs, and `kf_vertex` and `resistance_table` are built from it.

Everything is exact: resistances are `fractions.Fraction`, distances are
plain ints. No floating point anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import EngineMismatchError, NotConnectedError
from .graph import Graph, is_tree, is_unicyclic
from .unicyclic import (
    UnicyclicRepr,
    decompose_unicyclic,
    orient,
    shape_stats,
    tree_stats,
)

__all__ = [
    "det_bareiss",
    "spanning_tree_count",
    "resistance_oracle",
    "resistance_structural",
    "kirchhoff_index",
    "kf_vertex",
    "kf_decomposition",
    "kf_from_shapes",
    "kf_from_stats",
    "PairTable",
    "resistance_table",
]


def det_bareiss(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination.

    All intermediate quantities stay integral; divisions are exact.
    """
    a = [row[:] for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[-1][-1] if n else 1


def _laplacian(g: Graph) -> list[list[int]]:
    lap = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        lap[u][v] -= 1
        lap[v][u] -= 1
        lap[u][u] += 1
        lap[v][v] += 1
    return lap


def _minor(mat: list[list[int]], drop: tuple[int, ...]) -> list[list[int]]:
    keep = [i for i in range(len(mat)) if i not in drop]
    return [[mat[i][j] for j in keep] for i in keep]


def spanning_tree_count(g: Graph) -> int:
    """Matrix-tree theorem: determinant of any principal Laplacian minor."""
    if g.n == 1:
        return 1
    return det_bareiss(_minor(_laplacian(g), (0,)))


def resistance_oracle(g: Graph, a: int, b: int) -> Fraction:
    """Effective resistance between a and b with unit resistors per edge.

    Equals (spanning 2-forests separating a and b) / (spanning trees),
    both obtained as Laplacian minor determinants.
    """
    if a == b:
        raise ValueError("resistance requires two distinct vertices")
    if not (0 <= a < g.n and 0 <= b < g.n):
        raise ValueError("vertex out of range")
    lap = _laplacian(g)
    trees = det_bareiss(_minor(lap, (a,)))
    if trees == 0:
        raise NotConnectedError("graph has no spanning tree")
    return Fraction(det_bareiss(_minor(lap, (a, b))), trees)


def resistance_structural(u: UnicyclicRepr, a: int, b: int) -> Fraction:
    """Resistance in a unicyclic graph from its cycle/tree decomposition.

    Trees contribute plain distances (cut vertices put them in series);
    two cycle vertices at cycle-distance d contribute d(l-d)/l from the
    parallel arcs.
    """
    if a == b:
        raise ValueError("resistance requires two distinct vertices")
    if a not in u.tree_index or b not in u.tree_index:
        raise ValueError("vertex not in graph")
    i, j = u.tree_index[a], u.tree_index[b]
    if i == j:
        return Fraction(u.tree_distance(a, b))
    d = u.cycle_distance(i, j)
    return u.depth[a] + u.depth[b] + Fraction(d * (u.l - d), u.l)


def _as_repr(g: Graph | UnicyclicRepr) -> UnicyclicRepr:
    return g if isinstance(g, UnicyclicRepr) else decompose_unicyclic(g)


def kirchhoff_index(g: Graph | UnicyclicRepr, engine: str = "auto") -> Fraction:
    """Sum of resistance distances over all unordered pairs.

    engine: "oracle" (any connected graph), "structural" (trees and
    unicyclic graphs), or "auto" (structural where applicable).
    """
    if engine not in ("auto", "oracle", "structural"):
        raise ValueError(f"unknown engine {engine!r}")
    if isinstance(g, UnicyclicRepr):
        if engine == "oracle":
            return kirchhoff_index(g.to_graph()[0], "oracle")
        return kf_decomposition(g)
    if engine in ("auto", "structural"):
        if is_tree(g):
            return Fraction(tree_stats(orient(g.adj, 0, [False] * g.n)[1])[2])
        if is_unicyclic(g):
            return kf_decomposition(decompose_unicyclic(g))
        if engine == "structural":
            raise EngineMismatchError("structural engine needs a tree or unicyclic graph")
    g.require_connected()
    lap = _laplacian(g)
    trees = det_bareiss(_minor(lap, (0,)))
    total = 0
    for a, b in combinations(range(g.n), 2):
        total_pair = det_bareiss(_minor(lap, (a, b)))
        total += total_pair
    return Fraction(total, trees)


def kf_vertex(g: Graph | UnicyclicRepr, v: int, engine: str = "auto") -> Fraction:
    """Transmission of v: sum of resistances from v to every other vertex."""
    if isinstance(g, UnicyclicRepr):
        if v not in g.tree_index:
            raise ValueError(f"vertex {v} not in graph")
        return sum(
            (resistance_structural(g, v, w) for w in g.vertices if w != v),
            Fraction(0),
        )
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if engine in ("auto", "structural"):
        if is_tree(g):
            return Fraction(sum(g.bfs_distances(v)))
        if is_unicyclic(g):
            u = _as_repr(g)
            return kf_vertex(u, v)
        if engine == "structural":
            raise EngineMismatchError("structural engine needs a tree or unicyclic graph")
    g.require_connected()
    lap = _laplacian(g)
    trees = det_bareiss(_minor(lap, (0,)))
    total = sum(det_bareiss(_minor(lap, (v, w))) for w in range(g.n) if w != v)
    return Fraction(total, trees)


def kf_from_stats(l: int, stats) -> Fraction:
    """Kirchhoff index of a unicyclic graph from the (size s_i, root depth
    sum D_i, Wiener index W_i) of the tree at each of its l cycle positions.

    Kf = sum_i [W_i + (n - s_i) D_i] + sum_{i<j} s_i s_j d (l - d) / l
    with d = j - i. Since d (l - d) = l d - d^2, the cross term is O(l)
    from prefix sums of s_i, i s_i and i^2 s_i over i < j.
    """
    n = sum(s for s, _, _ in stats)
    int_part = cross = 0
    a = b = c = 0  # sum of s_i, i s_i, i^2 s_i over i < j
    for j, (s, depth_sum, wien) in enumerate(stats):
        int_part += wien + (n - s) * depth_sum
        cross += s * (l * (j * a - b) - (j * j * a - 2 * j * b + c))
        a += s
        b += j * s
        c += j * j * s
    return Fraction(int_part * l + cross, l)


def kf_from_shapes(l: int, shapes) -> Fraction:
    """Kirchhoff index of the unicyclic graph given by an l-tuple of
    rooted-tree shapes."""
    return kf_from_stats(l, [shape_stats(s) for s in shapes])


def kf_decomposition(u: UnicyclicRepr) -> Fraction:
    """Kirchhoff index of a representation from its cycle/tree decomposition."""
    return kf_from_stats(u.l, [tree_stats(p) for p in u.tree_parents])


class PairTable:
    """Upper-triangular table of exact values indexed by unordered pairs."""

    def __init__(self, vertices, values: dict[tuple[int, int], Fraction]):
        self.vertices = tuple(vertices)
        self._values = values

    def get(self, a: int, b: int) -> Fraction:
        if a == b:
            raise KeyError("diagonal entries are not stored")
        if a > b:
            a, b = b, a
        return self._values[(a, b)]

    def pairs(self):
        return self._values.items()

    def __len__(self) -> int:
        return len(self._values)


def resistance_table(g: Graph | UnicyclicRepr, engine: str = "auto") -> PairTable:
    if isinstance(g, UnicyclicRepr) or engine == "structural" or (
        engine == "auto" and is_unicyclic(g)
    ):
        u = _as_repr(g)
        verts = u.vertices
        values = {
            (min(a, b), max(a, b)): resistance_structural(u, a, b)
            for a, b in combinations(verts, 2)
        }
        return PairTable(sorted(verts), values)
    g.require_connected()
    lap = _laplacian(g)
    trees = det_bareiss(_minor(lap, (0,)))
    values = {
        (a, b): Fraction(det_bareiss(_minor(lap, (a, b))), trees)
        for a, b in combinations(range(g.n), 2)
    }
    return PairTable(range(g.n), values)
