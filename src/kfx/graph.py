"""Simple undirected graphs and the shared edge-list text format.

Vertices are integers 0..n-1. Edges are unordered pairs; loops and
parallel edges are rejected at construction. Connectivity is a
precondition of individual operations, not an invariant of the container.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from .errors import GraphParseError, NotConnectedError


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        nbr: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        # edges are sorted, so every neighbour list comes out sorted
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, nbr))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == self.n

    def require_connected(self) -> None:
        if not self.is_connected():
            raise NotConnectedError(f"graph on {self.n} vertices is not connected")

    def bfs_distances(self, source: int) -> list[int]:
        """Distances from `source`; -1 for unreachable vertices."""
        dist = [-1] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def relabel(self, perm: dict[int, int] | list[int]) -> "Graph":
        """New graph with vertex v renamed to perm[v]."""
        return Graph(self.n, ((perm[u], perm[v]) for u, v in self.edges))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def max_degree(g: Graph) -> int:
    return max(len(a) for a in g.adj)


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and g.is_connected()


def is_unicyclic(g: Graph) -> bool:
    return g.m == g.n and g.is_connected()


def wiener(g: Graph) -> int:
    """Sum of shortest-path distances over unordered pairs."""
    g.require_connected()
    total = 0
    for v in range(g.n):
        dist = g.bfs_distances(v)
        total += sum(dist[w] for w in range(v + 1, g.n))
    return total


def wiener_vertex(g: Graph, v: int) -> int:
    """Sum of shortest-path distances from v to every other vertex."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    g.require_connected()
    return sum(g.bfs_distances(v))


def parse_edge_list(text: str) -> Graph:
    """Parse the artifact's edge-list format.

    First data line is `n m`, then m lines `u v` (0-based). `#` starts a
    comment; blank lines are ignored.
    """
    lines: Iterator[list[str]] = (
        stripped.split()
        for raw in text.splitlines()
        if (stripped := raw.split("#", 1)[0].strip())
    )
    try:
        header = next(lines)
    except StopIteration:
        raise GraphParseError("empty input") from None
    if len(header) != 2:
        raise GraphParseError(f"expected header 'n m', got {' '.join(header)!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphParseError(f"non-integer header {' '.join(header)!r}") from None
    edges = []
    for fields in lines:
        if len(fields) != 2:
            raise GraphParseError(f"expected edge 'u v', got {' '.join(fields)!r}")
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise GraphParseError(f"non-integer edge {' '.join(fields)!r}") from None
    if len(edges) != m:
        raise GraphParseError(f"header announced {m} edges, found {len(edges)}")
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphParseError(str(exc)) from None


def format_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"
