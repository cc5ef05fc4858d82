"""Exact resistance distances, Kirchhoff index, and Wiener index.

Two independent engines compute effective resistances, and
`engine_input(g, engine)` is the one place that picks between them: it
returns g as that engine reads it, a `UnicyclicRepr` or an `Adjugate`.
`kirchhoff_index`, `kf_vertex`, `wiener_index` and `resistance` take what
it returns (or a graph, which they pass through it under "auto") and
answer by its type, so several quantities of one graph share one
decomposition or one elimination.

* the *oracle* engine works on any connected graph: one fraction-free
  (Bareiss) elimination of the grounded Laplacian gives the spanning-tree
  count tau and the adjugate, whose entries give every resistance, so `kfx
  compute --engine oracle` serves connected graphs of a few hundred vertices.
  The elimination skips the rows whose multiplier is zero;
* the *structural* engine works on trees and unicyclic graphs only, by
  cut-vertex decomposition: tree distances in series with the two
  parallel cycle arcs. A `UnicyclicRepr` folds every hanging tree once
  into its (size, root depth sum, Wiener index); Kf is one O(l) sum over
  the cycle from those (`kf_from_stats`), the sum that enumeration folds
  from the shape catalog's records. `kf_vertex` reroots the same numbers
  at one vertex in O(n) (Klein & Randic, "Resistance distance", 1993).
  `resistance_numerator` answers single pairs as the integer l R(a, b)
  from their (tree, position) pairs, by climbing parent positions.
  A tree is the representation's l = 1 case, one tree rooted at vertex 0:
  every cross-tree term is zero, and resistance is distance.

`resistance(g, a, b)` is the one resistance function: l R over l from a
decomposition, tau R over tau from an adjugate.

The engine cross-check (`kfx.suites.engine_equivalence_suite`) compares
the two engines' integer numerators, l R from `resistance_numerator` and
tau R from `Adjugate.numerator`, by cross-multiplication:
(l R) tau = (tau R) l. That is exact without a fraction per pair, and
does not assume that tau equals l.

The Wiener index W follows the same split (`wiener_index`): on trees and
unicyclic graphs it comes from the same per-tree pass and one O(l) sum
over the cycle with cycle distances in place of resistances
(`wiener_from_stats`); the two cycle sums share their within-tree part.
An adjugate and every graph with a cycle count other than 0 or 1 keep
`graph.wiener`, a BFS from every vertex with no elimination, which is
also the tests' reference.

Everything is exact: resistances are `fractions.Fraction`, distances are
plain ints. No floating point anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .errors import EngineMismatchError, NotConnectedError, ParameterError
from .graph import Graph, orient, wiener
from .unicyclic import UnicyclicRepr, decompose_unicyclic

__all__ = [
    "Adjugate",
    "det_bareiss",
    "resistance",
    "resistance_numerator",
    "kirchhoff_index",
    "kf_vertex",
    "engine_input",
    "kf_from_stats",
    "wiener_index",
    "wiener_from_stats",
]


def det_bareiss(rows: list[list[int]], adjugate: list[list[int]] | None = None) -> int:
    """Determinant of a square integer matrix M by fraction-free elimination.

    All intermediate quantities stay integral; divisions are exact. A list
    given as `adjugate` is filled with adj(M) (unspecified if det M = 0):
    the identity goes through the same Gauss-Jordan steps beside M. `rows`
    is not modified.

    Identity column k joins the elimination at the step that pivots on M's
    row k, as `prev` in the pivot row: until then every step has only
    scaled it, and it is nonzero in M's row k alone.

    A row whose entry in the pivot column is already zero is only scaled by
    pivot / prev, and left alone when the two are equal.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    at = list(range(n))  # the row of M now at each position
    sign = prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    at[k], at[r] = at[r], at[k]
                    sign = -sign
                    break
            else:
                return 0
        if adjugate is not None:
            for i, row in enumerate(a):
                row.append(prev if i == k else 0)
        pivot = a[k][k]
        tail = a[k][k + 1:]
        for i, row in enumerate(a):
            if i == k:
                continue
            c = row[k]
            if c:
                row[k + 1:] = [(pivot * x - c * y) // prev for x, y in zip(row[k + 1:], tail)]
                row[k] = 0
            elif pivot != prev:
                row[k + 1:] = [pivot * x // prev for x in row[k + 1:]]
        prev = pivot
    if adjugate is not None:  # identity column at[i] sits at n + i
        cols = sorted(range(n), key=at.__getitem__)
        adjugate[:] = [[sign * row[n + i] for i in cols] for row in a]
    return sign * prev


def _grounded_laplacian(g: Graph) -> list[list[int]]:
    """The Laplacian of g without vertex 0's row and column."""
    lap = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        lap[u][v] -= 1
        lap[v][u] -= 1
        lap[u][u] += 1
        lap[v][v] += 1
    return [row[1:] for row in lap[1:]]


class Adjugate(NamedTuple):
    """A graph with its grounded adjugate, as `_grounded_adjugate` gives it:
    tau = det L0 counts the spanning trees of `graph` (L0 is its Laplacian
    without vertex 0) and `adj` is A = tau L0^-1 with a zero row and column
    back at vertex 0. A[a][b] counts the 2-tree spanning forests with 0 in
    one tree and a, b in the other, so R(a, b) = (A[a][a] + A[b][b] -
    2 A[a][b]) / tau (all-minors matrix-tree theorem), for vertices a, b
    of `graph`. The oracle engine reads it in place of the graph, so
    several quantities share one elimination."""

    graph: Graph
    tau: int
    adj: list[list[int]]

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    def numerator(self, a: int, b: int) -> int:
        """tau R(a, b) = A[a][a] + A[b][b] - 2 A[a][b]."""
        return self.adj[a][a] + self.adj[b][b] - 2 * self.adj[a][b]


def _grounded_adjugate(g: Graph | Adjugate) -> Adjugate:
    """g's grounded adjugate, from one Bareiss elimination (g itself if it
    is one already)."""
    if isinstance(g, Adjugate):
        return g
    adj: list[list[int]] = []
    tau = det_bareiss(_grounded_laplacian(g), adj)
    if tau == 0:
        raise NotConnectedError(f"graph on {g.n} vertices is not connected")
    return Adjugate(g, tau, [[0] * g.n] + [[0, *row] for row in adj])


def _position(g: Graph | UnicyclicRepr | Adjugate, v: int) -> tuple[int, int] | None:
    """Vertex v's (tree, position) in a decomposition, by scanning its trees;
    None in a graph or an adjugate. ParameterError if g has no vertex v."""
    if isinstance(g, UnicyclicRepr):
        for i, nodes in enumerate(g.tree_nodes):
            if v in nodes:
                return i, nodes.index(v)
    elif v in range(g.n):
        return None
    raise ParameterError(f"vertex {v} not in graph")


def engine_input(
    g: Graph | UnicyclicRepr | Adjugate, engine: str = "auto"
) -> UnicyclicRepr | Adjugate:
    """g as `engine` reads it: its cycle/tree decomposition where the
    structural engine answers, else its grounded adjugate. The one engine
    choice: the quantities below answer from what it returns.

    engine: "oracle" (any connected graph), "structural" (trees and
    unicyclic graphs), or "auto" (structural where applicable), under
    which a decomposition or an adjugate passes through unchanged. A graph
    with n - 1 or n edges goes to the structural engine untested: its
    decomposition raises NotConnectedError if it is not connected, within
    the passes it makes anyway. A disconnected graph the structural engine
    refuses raises NotConnectedError too. The oracle reads a graph or an
    adjugate, and raises EngineMismatchError on a decomposition.
    """
    if engine not in ("auto", "oracle", "structural"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine != "oracle":
        if isinstance(g, UnicyclicRepr):
            return g
        if isinstance(g, Graph) and g.m == g.n:
            return decompose_unicyclic(g)
        if isinstance(g, Graph) and g.m == g.n - 1:
            order, parent = orient(g.adj, 0, [False] * g.n)
            if len(order) != g.n:
                raise NotConnectedError(f"graph on {g.n} vertices is not connected")
            return UnicyclicRepr([0], [(order, parent)])
        if engine == "structural":
            if isinstance(g, Graph):
                g.require_connected()
            raise EngineMismatchError("structural engine needs a tree or unicyclic graph")
    if isinstance(g, UnicyclicRepr):
        raise EngineMismatchError("oracle engine needs a graph, not a decomposition")
    return _grounded_adjugate(g)


def resistance_numerator(u: UnicyclicRepr, a: tuple[int, int], b: tuple[int, int]) -> int:
    """l R(a, b), the structural resistance of two vertices of u over its
    cycle length l, as an integer; a and b are (tree, position) pairs.

    Trees contribute plain distances (cut vertices put them in series);
    two cycle vertices at cycle-distance d contribute d(l-d)/l from the
    parallel arcs. On a tree, l = 1 and this is the distance.
    """
    (i, ka), (j, kb) = a, b
    dist = 0
    if i != j:  # each climbs to its root; d (l - d) is the same either way round the cycle
        for parent, k in ((u.tree_parents[i], ka), (u.tree_parents[j], kb)):
            while k:
                k = parent[k]
                dist += 1
        return u.l * dist + abs(i - j) * (u.l - abs(i - j))
    parent = u.tree_parents[i]  # the later one steps up, as an ancestor comes earlier
    while ka != kb:
        if ka < kb:
            ka, kb = kb, ka
        ka = parent[ka]
        dist += 1
    return u.l * dist


def resistance(g: Graph | UnicyclicRepr | Adjugate, a: int, b: int) -> Fraction:
    """Effective resistance between vertices a and b with unit resistors
    per edge: `resistance_numerator` over l from a decomposition, or
    (spanning 2-forests separating a and b) / (spanning trees) from an
    adjugate."""
    if a == b:
        raise ValueError("resistance requires two distinct vertices")
    where = [_position(g, v) for v in (a, b)]
    u = engine_input(g)
    if isinstance(u, UnicyclicRepr):
        pa, pb = (w or _position(u, v) for w, v in zip(where, (a, b)))
        return Fraction(resistance_numerator(u, pa, pb), u.l)
    return Fraction(u.numerator(a, b), u.tau)


def kirchhoff_index(g: Graph | UnicyclicRepr | Adjugate) -> Fraction:
    """Sum of resistance distances over all unordered pairs, by the engine
    `engine_input` picks."""
    u = engine_input(g)
    if isinstance(u, UnicyclicRepr):
        return kf_from_stats(u.l, u.tree_stats)
    _, tau, adj = u  # Kf = (n tr A - 1'A1) / tau
    return Fraction(sum(len(adj) * row[i] - sum(row) for i, row in enumerate(adj)), tau)


def kf_vertex(g: Graph | UnicyclicRepr | Adjugate, v: int) -> Fraction:
    """Transmission of v: sum of resistances from v to every other vertex.

    The structural engine reroots the tree stats at v. For v at depth h in
    tree i (size s_i, root depth sum D_i), with d the cycle distance of
    trees i and j and sub(u) the size of u's subtree,
    T(v) = D_i + h s_i - 2 sum sub(u) + (n - s_i) h + sum_{j != i} [D_j + s_j d (l - d) / l],
    summed over the vertices u on the path from the root to v, root
    excluded: a step down to u brings s_i - sub(u) vertices of tree i one
    nearer and sub(u) one farther; the climb from v counts h. It is one
    O(n) pass, exact over l.
    """
    where = _position(g, v)
    u = engine_input(g)
    if isinstance(u, UnicyclicRepr):
        i, k = where or _position(u, v)
        parent = u.tree_parents[i]
        sub = [1] * len(parent)
        for c in range(len(parent) - 1, 0, -1):
            sub[parent[c]] += sub[c]
        # h s_i + (n - s_i) h = h n, and D_i joins the other D_j
        total = sum(d_j for _, d_j, _ in u.tree_stats)
        while k:
            total += u.n - 2 * sub[k]
            k = parent[k]
        cross = sum(s * abs(i - j) * (u.l - abs(i - j)) for j, (s, _, _) in enumerate(u.tree_stats))
        return Fraction(total * u.l + cross, u.l)
    _, tau, adj = u
    trace = sum(row[i] for i, row in enumerate(adj))
    return Fraction(len(adj) * adj[v][v] + trace - 2 * sum(adj[v]), tau)


def _within_trees(stats) -> int:
    """sum_i [W_i + (n - s_i) D_i] over the (size s_i, root depth sum
    D_i, Wiener index W_i) of the trees hanging from a cycle: the pairs
    inside each tree, plus each cross-tree pair's legs from the two
    vertices down to their roots. Kf and W share this part."""
    n = sum(s for s, _, _ in stats)
    return sum(wien + (n - s) * depth_sum for s, depth_sum, wien in stats)


def kf_from_stats(l: int, stats) -> Fraction:
    """Kirchhoff index of a unicyclic graph from the (size s_i, root depth
    sum D_i, Wiener index W_i) of the tree at each of its l cycle positions.

    Kf = sum_i [W_i + (n - s_i) D_i] + sum_{i<j} s_i s_j d (l - d) / l
    with d = j - i. Since d (l - d) = l d - d^2, the cross term is O(l)
    from prefix sums of s_i, i s_i and i^2 s_i over i < j.
    """
    within = _within_trees(stats)
    cross = 0
    a = b = c = 0  # sum of s_i, i s_i, i^2 s_i over i < j
    for j, (s, _, _) in enumerate(stats):
        cross += s * (l * (j * a - b) - (j * j * a - 2 * j * b + c))
        a += s
        b += j * s
        c += j * j * s
    return Fraction(within * l + cross, l)


def wiener_from_stats(l: int, stats) -> int:
    """Wiener index of a unicyclic graph from the same per-tree stats as
    `kf_from_stats`.

    W = sum_i [W_i + (n - s_i) D_i] + sum_{i<j} s_i s_j min(d, l - d)
    with d = j - i. For each j, the i < j with d <= l // 2 reach it one
    way round the cycle and the others the other way, so the cross term
    is O(l) from prefix sums of s_i and i s_i.
    """
    within = _within_trees(stats)
    sizes = [s for s, _, _ in stats]
    a = list(accumulate(sizes, initial=0))  # a[k]: sum of s_i over i < k
    b = list(accumulate((i * s for i, s in enumerate(sizes)), initial=0))  # of i s_i
    half = l // 2
    cross = 0
    for j, s in enumerate(sizes):
        w = max(j - half, 0)  # i in [w, j) lies at d = j - i, i < w at l - d
        cross += s * (j * (a[j] - a[w]) - (b[j] - b[w]) + (l - j) * a[w] + b[w])
    return within + cross


def wiener_index(g: Graph | UnicyclicRepr | Adjugate) -> int:
    """Sum of shortest-path distances over all unordered pairs: from the
    per-tree stats in O(n) where `engine_input` picks the structural
    engine, else (an adjugate too) `graph.wiener`, a BFS with no elimination."""
    if isinstance(g, Adjugate):
        return wiener(g.graph)
    if isinstance(g, Graph) and g.m not in (g.n - 1, g.n):
        return wiener(g)
    u = engine_input(g)
    return wiener_from_stats(u.l, u.tree_stats)
