"""Unicyclic decomposition, rooted-tree shapes, and canonical codes.

A *shape* is the label-free form of a rooted tree, held as its AHU code
(Aho, Hopcroft & Ullman): a vertex is "(" + its children's codes in
sorted order + ")", so `b"()"` is a single vertex and a code on k vertices
is 2k bytes long. `rooted_shapes(k)` is the catalog of all shapes on k
vertices; it computes each shape's numbers once, as the shape is built,
and the enumeration reads them from there (`shape_record`).

Labeled trees (the hanging trees of an input graph, or a whole input
tree) never enter the catalog. `orient` turns one into a parents-first
list of parent positions, and `tree_stats` and `tree_code` fold that list
bottom-up into the same numbers and codes the catalog holds for its shape;
`code_parents` goes back from a code to parent positions. No step
recurses over a tree, so tree depth is not limited by the interpreter
stack.

Canonical codes are ASCII byte strings: equal codes iff isomorphic
(within the tree / unicyclic class handled), totally ordered, stable
across runs.
"""
from __future__ import annotations

from collections import deque
from functools import cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import NotUnicyclicError
from .graph import Graph

Shape = bytes  # AHU code of a rooted tree
# (size, root depth sum, Wiener index, root child count,
#  largest degree among non-root vertices or 0 if there are none)
ShapeRecord = tuple[int, int, int, int, int]


def _merge(size: int, depth_sum: int, wien: int, cs: int, cd: int, cw: int):
    """(size, depth sum, Wiener) after hanging a subtree (cs, cd, cw) below
    the root; every new pair's path runs through the root."""
    below = cd + cs  # distances from this root into the subtree
    return size + cs, depth_sum + below, wien + cw + below * size + cs * depth_sum


def path_shape(k: int) -> Shape:
    """Path on k vertices rooted at one end."""
    return b"(" * k + b")" * k


@cache
def rooted_shapes(n: int) -> Mapping[Shape, ShapeRecord]:
    """All rooted trees on n vertices up to isomorphism: code -> record.

    Codes come in a fixed order, and each record is folded from its
    children's records when the code is built. The mapping is read-only,
    since every caller shares it.
    """
    if n == 1:
        return MappingProxyType({b"()": (1, 0, 0, 0, 0)})
    pools = [()] + [tuple(rooted_shapes(s).items()) for s in range(1, n)]
    out: dict[Shape, ShapeRecord] = {}

    def extend(remaining: int, max_size: int, max_idx: int, acc: list[tuple]) -> None:
        if remaining == 0:
            size, depth_sum, wien, inner = 1, 0, 0, 0
            for _, (cs, cd, cw, c_root, c_inner) in acc:
                size, depth_sum, wien = _merge(size, depth_sum, wien, cs, cd, cw)
                inner = max(inner, c_root + 1, c_inner)
            code = b"(" + b"".join(sorted(c for c, _ in acc)) + b")"
            out[code] = (size, depth_sum, wien, len(acc), inner)
            return
        for s in range(min(remaining, max_size), 0, -1):
            pool = pools[s]
            for idx in range(max_idx if s == max_size else 0, len(pool)):
                acc.append(pool[idx])
                extend(remaining - s, s, idx, acc)
                acc.pop()

    extend(n - 1, n - 1, 0, [])
    return MappingProxyType(out)


def shape_record(shape: Shape) -> ShapeRecord:
    """The catalog record of a shape (its size is half its code length)."""
    return rooted_shapes(len(shape) // 2)[shape]


def orient(
    adj: Sequence[Sequence[int]], root: int, seen: list[bool]
) -> tuple[list[int], list[int]]:
    """Orient the tree around `root` away from it, breadth first.

    Descent stops at vertices already marked in `seen`; every vertex
    reached is marked. Returns the vertices in parents-first order and, for
    each position, the position of its parent (-1 for the root).
    """
    seen[root] = True
    order = [root]
    parent = [-1]
    for k, v in enumerate(order):
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                order.append(w)
                parent.append(k)
    return order, parent


def tree_stats(parent: Sequence[int]) -> tuple[int, int, int]:
    """(size, root depth sum, Wiener index) of the tree given by parent
    positions, parents first."""
    stats = [(1, 0, 0)] * len(parent)
    for k in range(len(parent) - 1, 0, -1):
        p = parent[k]
        stats[p] = _merge(*stats[p], *stats[k])
    return stats[0]


def tree_code(parent: Sequence[int]) -> Shape:
    """AHU code of the tree given by parent positions, parents first."""
    kids: list[list[bytes]] = [[] for _ in parent]
    for k in range(len(parent) - 1, 0, -1):
        codes = kids[k]
        codes.sort()
        kids[parent[k]].append(b"(" + b"".join(codes) + b")")
    codes = kids[0]
    codes.sort()
    return b"(" + b"".join(codes) + b")"


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

    Vertex labels are arbitrary integers (whatever the source graph used);
    `to_graph` relabels to the standard numbering: cycle vertices 0..l-1 in
    cycle order, then tree vertices in preorder per tree. `tree_parents[i]`
    holds, for the preorder `tree_nodes[i]`, each vertex's parent position.
    """

    def __init__(self, cycle: Sequence[int], children: dict[int, Sequence[int]]):
        if len(cycle) < 3:
            raise ValueError("cycle length must be >= 3")
        self.l = len(cycle)
        self.cycle = tuple(cycle)
        self.children = children
        parent: dict[int, int] = {}
        depth: dict[int, int] = {}
        tree_index: dict[int, int] = {}
        tree_nodes: list[tuple[int, ...]] = []
        tree_parents: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for i, root in enumerate(self.cycle):
            nodes = []
            positions = []
            stack = [(root, 0, -1)]
            while stack:
                v, d, p = stack.pop()
                if v in seen:
                    raise ValueError("trees are not vertex-disjoint")
                seen.add(v)
                k = len(nodes)
                nodes.append(v)
                positions.append(p)
                depth[v] = d
                tree_index[v] = i
                for c in reversed(children.get(v, ())):
                    parent[c] = v
                    stack.append((c, d + 1, k))
            tree_nodes.append(tuple(nodes))
            tree_parents.append(tuple(positions))
        self.parent = parent
        self.depth = depth
        self.tree_index = tree_index
        self.tree_nodes = tuple(tree_nodes)
        self.tree_parents = tuple(tree_parents)
        self.n = len(seen)

    @property
    def tree_sizes(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.tree_nodes)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(v for t in self.tree_nodes for v in t)

    def cycle_distance(self, i: int, j: int) -> int:
        d = abs(i - j)
        return min(d, self.l - d)

    def tree_distance(self, a: int, b: int) -> int:
        """Distance between two vertices of the same tree."""
        da, db = self.depth[a], self.depth[b]
        dist = 0
        while da > db:
            a = self.parent[a]
            da -= 1
            dist += 1
        while db > da:
            b = self.parent[b]
            db -= 1
            dist += 1
        while a != b:
            a = self.parent[a]
            b = self.parent[b]
            dist += 2
        return dist

    def to_graph(self) -> tuple[Graph, dict[int, int]]:
        """Reassemble with standard numbering; returns (graph, old->new map)."""
        relabel: dict[int, int] = {}
        for i, root in enumerate(self.cycle):
            relabel[root] = i
        nxt = self.l
        for nodes in self.tree_nodes:
            for v in nodes:
                if v not in relabel:
                    relabel[v] = nxt
                    nxt += 1
        edges = [(i, (i + 1) % self.l) for i in range(self.l)]
        for v, p in self.parent.items():
            edges.append((relabel[p], relabel[v]))
        return Graph(self.n, edges), relabel

    def __repr__(self) -> str:
        return f"UnicyclicRepr(l={self.l}, tree_sizes={self.tree_sizes})"


def decompose_unicyclic(g: Graph) -> UnicyclicRepr:
    """Split a connected unicyclic graph into cycle + hanging rooted trees."""
    if g.n < 3:
        raise NotUnicyclicError(f"n={g.n} < 3 admits no cycle")
    if g.m != g.n:
        raise NotUnicyclicError(f"{g.m} edges on {g.n} vertices: not unicyclic")
    g.require_connected()
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
    start = next(v for v in range(g.n) if on_cycle[v])
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
    children: dict[int, list[int]] = {}
    for root in cycle:
        order, parent = orient(g.adj, root, on_cycle)
        for k in range(1, len(order)):
            children.setdefault(order[parent[k]], []).append(order[k])
    return UnicyclicRepr(cycle, children)


def unicyclic_from_shapes(l: int, shapes: Sequence[Shape]) -> UnicyclicRepr:
    """Build the standard-numbered representative for an l-tuple of shapes."""
    if len(shapes) != l:
        raise ValueError("need exactly one shape per cycle vertex")
    children: dict[int, list[int]] = {}
    nxt = l
    for i, shape in enumerate(shapes):
        parent = code_parents(shape)
        label = [i, *range(nxt, nxt + len(parent) - 1)]
        nxt += len(parent) - 1
        for k in range(1, len(parent)):
            children.setdefault(label[parent[k]], []).append(label[k])
    return UnicyclicRepr(range(l), children)


def dihedral_min(codes: Sequence[bytes]) -> tuple[bytes, ...]:
    """Lexicographic minimum of an l-tuple over rotations and reflections."""
    l = len(codes)
    seqs = [tuple(codes), tuple(reversed(codes))]
    best = None
    for seq in seqs:
        for k in range(l):
            cand = seq[k:] + seq[:k]
            if best is None or cand < best:
                best = cand
    return best


def canonical_code_from_shapes(l: int, shapes: Sequence[Shape]) -> bytes:
    return b"%d:" % l + b"".join(dihedral_min(shapes))


def canonical_code(u: UnicyclicRepr) -> bytes:
    """Isomorphism-invariant code: minimal over tree relabelings and the
    2l dihedral symmetries of the cycle."""
    codes = [tree_code(p) for p in u.tree_parents]
    return b"%d:" % u.l + b"".join(dihedral_min(codes))


def tree_centers(g: Graph) -> list[int]:
    if g.n <= 2:
        return list(range(g.n))
    deg = [len(a) for a in g.adj]
    leaves = [v for v in range(g.n) if deg[v] == 1]
    remaining = g.n
    while remaining > 2:
        remaining -= len(leaves)
        nxt = []
        for v in leaves:
            deg[v] = 0
            for w in g.adj[v]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        leaves = nxt
    return sorted(leaves)


def tree_canonical_code(g: Graph) -> bytes:
    """Canonical code for a free (unrooted) tree, via its center(s)."""
    if g.m != g.n - 1:
        raise ValueError("not a tree")
    g.require_connected()
    centers = tree_centers(g)
    seen = [False] * g.n
    if len(centers) == 1:
        return b"T1:" + tree_code(orient(g.adj, centers[0], seen)[1])
    a, b = centers
    seen[b] = True  # split the tree at its central edge
    ca = tree_code(orient(g.adj, a, seen)[1])
    cb = tree_code(orient(g.adj, b, seen)[1])
    lo, hi = sorted([ca, cb])
    return b"T2:" + lo + hi
