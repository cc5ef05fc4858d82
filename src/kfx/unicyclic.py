"""Unicyclic decomposition, rooted-tree shapes, and canonical codes.

A *shape* is the label-free form of a rooted tree, held as its AHU code
(Aho, Hopcroft & Ullman): a vertex is "(" + its children's codes in
sorted order + ")", so `b"()"` is a single vertex and a code on k vertices
is 2k bytes long. `rooted_shapes(k)` is the catalog of all shapes on k
vertices, in byte order of their codes. It builds each shape by
largest-child attachment, one concatenation of two smaller shapes' codes,
and folds the shape's numbers from theirs as it goes; the lemma suite
reads them from there (`shape_record`), and its broom check reads the
whole catalog. The enumeration builds its own trees (`kfx.search`) and
loads no part of this module.

Labeled trees (the hanging trees of an input graph, or a whole input
tree) never enter the catalog. `orient`, the breadth-first walk that
lives in `kfx.graph`, turns one into a parents-first list of parent
positions, and `tree_stats` and `tree_code` fold that list bottom-up
into the same numbers and codes the catalog holds for its shape;
`code_parents` goes back from a code to parent positions. No step
recurses over a tree, so tree depth is not limited by the interpreter
stack, and `tree_code` orders subtrees by integer keys and writes each
byte of the code once, so a deep tree costs no more per vertex than a
shallow one.

A unicyclic graph is a `UnicyclicRepr`: its cycle and, per cycle vertex,
the hanging tree in that positional form, each tree folded once by
`tree_stats`. `decompose_unicyclic` builds it from a graph, by `orient`,
and is the one way to a decomposition. `graph_from_shapes` goes from a
tuple of shapes to its graph, by `code_parents`. A tree is the l = 1
case, its whole graph hanging from one vertex.

Canonical codes are ASCII byte strings: equal codes iff isomorphic
(within the tree / unicyclic class handled), totally ordered, stable
across runs. A unicyclic graph's code is its cycle length and the least
of the l rotations and l reflections of its trees' codes, found as two
least rotations (`_least_rotation`) in O(l) comparisons.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import deque
from functools import cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import NotConnectedError, NotUnicyclicError
from .graph import Graph, orient

Shape = bytes  # AHU code of a rooted tree
# (size, root depth sum, Wiener index, root child count,
#  largest degree among non-root vertices or 0 if there are none)
ShapeRecord = tuple[int, int, int, int, int]


def hanging_degree(record: ShapeRecord) -> int:
    """Largest graph degree in a hanging tree, from its catalog record: its
    root sits on the cycle, so the root's degree is its child count + 2."""
    _, _, _, root, inner = record
    return max(root + 2, inner)


def merge_stats(size: int, depth_sum: int, wien: int, cs: int, cd: int, cw: int):
    """(size, depth sum, Wiener) after hanging a subtree (cs, cd, cw) below
    the root; every new pair's path runs through the root."""
    below = cd + cs  # distances from this root into the subtree
    return size + cs, depth_sum + below, wien + cw + below * size + cs * depth_sum


def path_shape(k: int) -> Shape:
    """Path on k vertices rooted at one end."""
    return b"(" * k + b")" * k


@cache
def rooted_shapes(n: int) -> Mapping[Shape, ShapeRecord]:
    """All rooted trees on n vertices up to isomorphism, in byte order of
    their codes: code -> record. The trees hanging from a cycle vertex of
    a graph with max degree at most delta are those whose `hanging_degree`
    is at most delta.

    A tree is built by largest-child attachment (Beyer & Hedetniemi): its
    first child T, the least code and so the largest subtree in their
    level-sequence order, hangs beside R, the tree on the other vertices,
    whose children are all >= T. R's first child is its code's prefix after
    the "(", so R qualifies iff R >= "(" + T, a suffix of R's byte-ordered
    catalog, and the code is "(" + T + R[1:]. For one size of T these codes
    come in byte order, as the prefix-free T decides first; each record is
    folded from R's and T's. The mapping is read-only, since every caller
    shares it.
    """
    if n == 1:
        return MappingProxyType({b"()": (1, 0, 0, 0, 0)})
    runs = []
    for s in range(1, n):  # the size of T
        rest = list(rooted_shapes(n - s).items())
        codes = [code for code, _ in rest]
        for first, (fs, fd, fw, froot, finner) in rooted_shapes(s).items():
            head = b"(" + first
            deg = max(froot + 1, finner)
            runs += [(head + code[1:],
                      (*merge_stats(size, d, w, fs, fd, fw), root + 1, max(inner, deg)))
                     for code, (size, d, w, root, inner) in rest[bisect_left(codes, head):]]
    runs.sort()  # merges the sorted runs, one per size of T
    return MappingProxyType(dict(runs))


def shape_record(shape: Shape) -> ShapeRecord:
    """The catalog record of a shape (its size is half its code length)."""
    return rooted_shapes(len(shape) // 2)[shape]


def tree_stats(parent: Sequence[int]) -> tuple[int, int, int]:
    """(size, root depth sum, Wiener index) of the tree given by parent
    positions, parents first."""
    stats = [(1, 0, 0)] * len(parent)
    for k in range(len(parent) - 1, 0, -1):
        p = parent[k]
        stats[p] = merge_stats(*stats[p], *stats[k])
        stats[k] = None  # folded into its parent's
    return stats[0]


def tree_code(parent: Sequence[int]) -> Shape:
    """AHU code of the tree given by parent positions, parents first.

    Each byte is written once, after every vertex has a key that orders
    the subtrees' codes as bytes. A code of height h opens with h + 1 "("
    and then ")", so a higher subtree's code is the lesser. Codes of equal
    height compare as their children's key lists, and since no code is a
    prefix of another, a list that runs out first (its ")" meeting the
    other's "(") is the greater: each list ends in a key above all others.
    Heights are keyed in rising order, so every list holds keys already
    set. A vertex's code then starts 2 * (sizes of its earlier siblings)
    bytes after its parent's "(".
    """
    size = len(parent)
    if size == 1:
        return b"()"
    kids: list[list[int]] = [[] for _ in parent]
    height = [0] * size
    sub = [1] * size  # subtree sizes
    for k in range(size - 1, 0, -1):
        p = parent[k]
        kids[p].append(k)
        sub[p] += sub[k]
        if height[k] >= height[p]:
            height[p] = height[k] + 1
    levels: list[list[int]] = [[] for _ in range(height[0] + 1)]
    for v, h in enumerate(height):
        levels[h].append(v)
    key = height  # reused: height h keys lie in [-h(size + 1), -h(size + 1) + size)
    for h, level in enumerate(levels):
        base = -h * (size + 1)
        if len(level) == 1:
            v = level[0]
            kids[v].sort(key=key.__getitem__)
            key[v] = base
            continue
        lists = []
        for v in level:
            below = kids[v]
            below.sort(key=key.__getitem__)
            lists.append(tuple([key[c] for c in below]) + (size,))
        ranks = {x: base + r for r, x in enumerate(sorted(set(lists)))}
        for v, x in zip(level, lists):
            key[v] = ranks[x]
    out = bytearray(b")") * (2 * size)
    start = key  # reused: where each vertex's code starts
    start[0] = 0
    for v in range(size):
        at = start[v]
        out[at] = 40  # "("
        at += 1
        for c in kids[v]:
            start[c] = at
            at += 2 * sub[c]
    return bytes(out)


def code_parents(code: Shape) -> list[int]:
    """Parent positions, in preorder, of the tree with AHU code `code`
    (-1 for the root); the inverse of `tree_code`."""
    parent: list[int] = []
    open_at: list[int] = []  # positions of the vertices not yet closed
    for byte in code:
        if byte == 40:  # "("
            parent.append(open_at[-1] if open_at else -1)
            open_at.append(len(parent) - 1)
        else:
            open_at.pop()
    return parent


class UnicyclicRepr:
    """A unicyclic graph as its cycle plus one rooted tree per cycle vertex.

    A tree is the case l = 1: one "cycle" vertex and no cycle edge, its
    one hanging tree the whole graph. Every cross-tree term of a
    structural sum is then zero, so the sums serve trees unchanged.
    Vertex labels are arbitrary integers (whatever the source graph used).
    Tree i is rooted at `cycle[i]` and held by position: `tree_nodes[i]`
    lists its vertices parents first, root first, and `tree_parents[i]` the
    position of each one's parent (-1 for the root). No table maps a label
    to its (tree, position), and no depth is stored. `tree_stats[i]` is the
    tree's (size, root depth sum, Wiener index), folded once here; every
    structural quantity reads it.
    """

    def __init__(self, cycle: Sequence[int], trees: Sequence[tuple[Sequence[int], Sequence[int]]]):
        if len(cycle) in (0, 2):
            raise ValueError("cycle length must be 1 (a tree) or >= 3")
        if len(trees) != len(cycle):
            raise ValueError("need exactly one tree per cycle vertex")
        self.l = len(cycle)
        self.cycle = tuple(cycle)
        self.tree_nodes = tuple(nodes for nodes, _ in trees)
        self.tree_parents = tuple(parent for _, parent in trees)
        if any(nodes[0] != root for root, nodes in zip(self.cycle, self.tree_nodes)):
            raise ValueError("each tree must list its cycle vertex first")
        self.n = sum(map(len, self.tree_nodes))
        if len(set().union(*self.tree_nodes)) != self.n:
            raise ValueError("trees are not vertex-disjoint")
        self.tree_stats = tuple(map(tree_stats, self.tree_parents))

    @property
    def tree_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.tree_nodes))

    def __repr__(self) -> str:
        return f"UnicyclicRepr(l={self.l}, tree_sizes={self.tree_sizes})"


def decompose_unicyclic(g: Graph) -> UnicyclicRepr:
    """Split a connected unicyclic graph into cycle + hanging rooted trees.

    Connectivity is checked inside the passes made anyway: with m = n the
    graph is connected iff stripping its leaves leaves one cycle, every
    vertex of degree 2, and the trees hanging from that cycle reach every
    vertex.
    """
    if g.n < 3:
        raise NotUnicyclicError(f"n={g.n} < 3 admits no cycle")
    if g.m != g.n:
        raise NotUnicyclicError(f"{g.m} edges on {g.n} vertices: not unicyclic")
    disconnected = f"graph on {g.n} vertices is not connected"
    # 2-core by stripping degree-1 vertices; what remains is the unique cycle
    deg = [len(a) for a in g.adj]
    queue = deque(v for v in range(g.n) if deg[v] == 1)
    on_cycle = [True] * g.n
    while queue:
        v = queue.popleft()
        on_cycle[v] = False
        deg[v] = 0
        for w in g.adj[v]:
            if deg[w] > 0:
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)
    core = [v for v in range(g.n) if on_cycle[v]]
    if any(deg[v] != 2 for v in core):  # isolated, or joins two cycles
        raise NotConnectedError(disconnected)
    start = core[0]
    cycle = [start]
    prev = -1
    while True:
        nxt = next(w for w in g.adj[cycle[-1]] if on_cycle[w] and w != prev)
        if nxt == start:
            break
        prev = cycle[-1]
        cycle.append(nxt)
    # orient each hanging tree away from the cycle; the other cycle
    # vertices are already marked, so descent never crosses the cycle
    trees = [orient(g.adj, root, on_cycle) for root in cycle]
    if sum(len(order) for order, _ in trees) != g.n:  # a second cycle
        raise NotConnectedError(disconnected)
    return UnicyclicRepr(cycle, trees)


def graph_from_shapes(l: int, shapes: Sequence[Shape]) -> Graph:
    """The standard-numbered graph of an l-tuple of shapes: cycle vertices
    0..l-1 in cycle order, then each tree's other vertices in preorder.
    With l = 1 it is the tree of the one shape, rooted at vertex 0."""
    edges = [(i, (i + 1) % l) for i in range(l)] if l > 1 else []
    nxt = l
    for i, shape in enumerate(shapes):
        parent = code_parents(shape)
        vertex = [i, *range(nxt, nxt + len(parent) - 1)]
        edges += [(vertex[p], vertex[k]) for k, p in enumerate(parent) if k]
        nxt += len(parent) - 1
    return Graph(nxt, edges)


def _least_rotation(s: list) -> int:
    """Start of the least rotation of s, in O(len(s)) comparisons: of two
    candidate starts i and j that agree for k steps, a mismatch rules out
    the k + 1 starts from the larger one on (Booth, IPL 1980)."""
    l = len(s)
    ss = s + s
    i, j, k = 0, 1, 0
    while i < l and j < l and k < l:
        x, y = ss[i + k], ss[j + k]
        if x == y:
            k += 1
            continue
        if x > y:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def canonical_code(u: UnicyclicRepr) -> bytes:
    """Isomorphism-invariant code: minimal over tree relabelings and the
    2l dihedral symmetries of the cycle, that is the lesser of the least
    rotation of the trees' codes and the least rotation of their reversal."""
    codes = [tree_code(p) for p in u.tree_parents]
    best = []
    for seq in (codes, codes[::-1]):
        k = _least_rotation(seq)
        best.append(seq[k:] + seq[:k])
    return b"%d:" % u.l + b"".join(min(best))
