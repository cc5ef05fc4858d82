"""Unicyclic decomposition, rooted-tree shapes, and canonical codes.

A *shape* is the label-free form of a rooted tree: a nested tuple whose
entries are the shapes of the root's subtrees, sorted by their encoded
byte string. `()` is a single vertex. Shapes double as dictionary keys
throughout the enumeration machinery.

Labeled trees (the hanging trees of an input graph, or a whole input
tree) never become shapes. `orient` turns one into a parents-first list of
parent positions, and `tree_stats` and `tree_code` fold that list bottom-up
into the same statistics and codes that `shape_stats` and `shape_code`
give the corresponding shape. No step recurses, so tree depth is not
limited by the interpreter stack.

Canonical codes are ASCII byte strings: equal codes iff isomorphic
(within the tree / unicyclic class handled), totally ordered, stable
across runs.
"""
from __future__ import annotations

from collections import deque
from functools import cache
from typing import Sequence

from .errors import NotUnicyclicError
from .graph import Graph

Shape = tuple  # recursive: tuple of child Shapes

_code_cache: dict[Shape, bytes] = {(): b"()"}


def shape_code(shape: Shape) -> bytes:
    """Nested-parenthesis encoding; children appear in sorted order."""
    code = _code_cache.get(shape)
    if code is None:
        code = b"(" + b"".join(shape_code(c) for c in shape) + b")"
        _code_cache[shape] = code
    return code


def canon_shape(children: Sequence[Shape]) -> Shape:
    return tuple(sorted(children, key=shape_code))


_stats_cache: dict[Shape, tuple[int, int, int]] = {}


def _merge(size: int, depth_sum: int, wien: int, cs: int, cd: int, cw: int):
    """(size, depth sum, Wiener) after hanging a subtree (cs, cd, cw) below
    the root; every new pair's path runs through the root."""
    below = cd + cs  # distances from this root into the subtree
    return size + cs, depth_sum + below, wien + cw + below * size + cs * depth_sum


def shape_stats(shape: Shape) -> tuple[int, int, int]:
    """(size, sum of depths from root, Wiener index) of the rooted tree."""
    cached = _stats_cache.get(shape)
    if cached is None:
        cached = (1, 0, 0)
        for child in shape:
            cached = _merge(*cached, *shape_stats(child))
        _stats_cache[shape] = cached
    return cached


def shape_size(shape: Shape) -> int:
    return shape_stats(shape)[0]


_deg_cache: dict[Shape, tuple[int, int]] = {}


def shape_degrees(shape: Shape) -> tuple[int, int]:
    """(root child count, max degree among non-root vertices; 0 if none)."""
    cached = _deg_cache.get(shape)
    if cached is not None:
        return cached
    inner = 0
    for child in shape:
        c_root, c_inner = shape_degrees(child)
        inner = max(inner, c_root + 1, c_inner)
    result = (len(shape), inner)
    _deg_cache[shape] = result
    return result


def path_shape(k: int) -> Shape:
    """Path on k vertices rooted at one end."""
    s: Shape = ()
    for _ in range(k - 1):
        s = (s,)
    return s


@cache
def rooted_shapes(n: int) -> tuple[Shape, ...]:
    """All rooted trees on n vertices up to isomorphism."""
    if n == 1:
        return ((),)
    out: list[Shape] = []

    def extend(remaining: int, max_size: int, max_idx: int, acc: list[Shape]) -> None:
        if remaining == 0:
            out.append(canon_shape(acc))
            return
        top = min(remaining, max_size)
        for s in range(top, 0, -1):
            pool = rooted_shapes(s)
            start = max_idx if s == max_size else 0
            for idx in range(start, len(pool)):
                acc.append(pool[idx])
                extend(remaining - s, s, idx, acc)
                acc.pop()

    extend(n - 1, n - 1, 0, [])
    return tuple(out)


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
    """`shape_stats` of the tree given by parent positions, parents first."""
    stats = [(1, 0, 0)] * len(parent)
    for k in range(len(parent) - 1, 0, -1):
        p = parent[k]
        stats[p] = _merge(*stats[p], *stats[k])
    return stats[0]


def tree_code(parent: Sequence[int]) -> bytes:
    """`shape_code` of the tree given by parent positions, parents first
    (AHU: a vertex's code wraps its children's codes in sorted order)."""
    kids: list[list[bytes]] = [[] for _ in parent]
    for k in range(len(parent) - 1, 0, -1):
        codes = kids[k]
        codes.sort()
        kids[parent[k]].append(b"(" + b"".join(codes) + b")")
    codes = kids[0]
    codes.sort()
    return b"(" + b"".join(codes) + b")"


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
    children: dict[int, tuple[int, ...]] = {}
    counter = l
    for i, shape in enumerate(shapes):
        stack = [(i, shape)]
        while stack:
            v, s = stack.pop()
            if not s:
                continue
            kids = []
            for child in s:
                kids.append(counter)
                counter += 1
            children[v] = tuple(kids)
            stack.extend(zip(children[v], s))
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
    codes = [shape_code(s) for s in shapes]
    return b"%d:" % l + b"".join(dihedral_min(codes))


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
