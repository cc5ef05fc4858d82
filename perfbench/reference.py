"""Independent exact references for checking kfx output.

Nothing here calls kfx: the benchmark uses these functions to decide
whether an operation's stdout is right. Every value is an exact int or
Fraction.

* Wiener index and transmissions by breadth-first search.
* Kirchhoff index of a unicyclic graph from Wiener data: for vertices in
  the trees hanging at cycle positions i != j at cycle distance d, the
  graph distance is depth_a + depth_b + d and the resistance is
  depth_a + depth_b + d(l-d)/l, so each such pair contributes d*d/l less
  to Kf than to W; pairs inside one tree have R = distance.
* Kirchhoff index of any connected graph from one exact inverse of the
  grounded Laplacian (Gauss-Jordan over Fractions), which is a different
  method from kfx's Bareiss determinant oracle.
* Counts of unlabeled unicyclic graphs per cycle length from the dihedral
  cycle index applied to the rooted-tree series (Polya).
* Canonical codes in kfx's documented format (AHU parenthesis codes of the
  hanging trees, dihedral minimum over the cycle), computed without
  recursion, and the inverse: a code back to a graph.
"""
from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd

# OEIS A001429: connected unicyclic graphs on n nodes, n = 3..14.
A001429 = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657,
           11: 1806, 12: 5026, 13: 13999, 14: 39260}


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs(adj, source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def transmissions(adj) -> list[int]:
    """Sum of distances from each vertex to all others."""
    return [sum(bfs(adj, v)) for v in range(len(adj))]


def cycle_positions(adj) -> tuple[list[int], list[int]]:
    """(cycle, pos) for a connected unicyclic graph: the cycle's vertices in
    order, and for every vertex v the cycle index of the tree holding v."""
    n = len(adj)
    deg = [len(a) for a in adj]
    on_cycle = [True] * n
    queue = deque(v for v in range(n) if deg[v] == 1)
    while queue:
        v = queue.popleft()
        on_cycle[v] = False
        for w in adj[v]:
            if on_cycle[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)
    start = on_cycle.index(True)
    cycle, prev, cur = [start], -1, start
    while True:
        nxt = next(w for w in adj[cur] if on_cycle[w] and w != prev)
        if nxt == start:
            break
        cycle.append(nxt)
        prev, cur = cur, nxt
    pos = [-1] * n
    queue = deque()
    for i, v in enumerate(cycle):
        pos[v] = i
        queue.append(v)
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if pos[w] < 0:
                pos[w] = pos[u]
                queue.append(w)
    return cycle, pos


def unicyclic_kf(adj, trans: list[int], vertex: int | None = None):
    """(Kf, Kf_v or None) of a connected unicyclic graph."""
    cycle, pos = cycle_positions(adj)
    l = len(cycle)
    sizes = [0] * l
    for p in pos:
        sizes[p] += 1

    def d2(i: int, j: int) -> int:
        d = abs(i - j)
        d = min(d, l - d)
        return d * d

    cross = sum(sizes[i] * sizes[j] * d2(i, j) for i in range(l) for j in range(i + 1, l))
    kf = Fraction(sum(trans), 2) - Fraction(cross, l)
    kfv = None
    if vertex is not None:
        i = pos[vertex]
        kfv = trans[vertex] - Fraction(sum(sizes[j] * d2(i, j) for j in range(l)), l)
    return kf, kfv


def general_kf(n: int, edges) -> Fraction:
    """Kf = n tr(M) - 1'M1 with M the inverse of the Laplacian grounded at
    vertex 0 (row and column 0 of M are zero)."""
    k = n - 1
    lap = [[Fraction(0)] * k for _ in range(k)]
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            if a:
                lap[a - 1][a - 1] += 1
                if b:
                    lap[a - 1][b - 1] -= 1
    inv = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for c in range(k):
        p = next(r for r in range(c, k) if lap[r][c] != 0)
        lap[c], lap[p] = lap[p], lap[c]
        inv[c], inv[p] = inv[p], inv[c]
        piv = lap[c][c]
        lap[c] = [x / piv for x in lap[c]]
        inv[c] = [x / piv for x in inv[c]]
        for r in range(k):
            f = lap[r][c]
            if r != c and f != 0:
                lap[r] = [x - f * y for x, y in zip(lap[r], lap[c])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[c])]
    trace = sum(inv[i][i] for i in range(k))
    total = sum(sum(row) for row in inv)
    return n * trace - total


def rooted_tree_counts(n: int) -> list[int]:
    """r[k] = rooted unlabeled trees on k vertices (OEIS A000081), r[0] = 0."""
    r = [0] * (n + 1)
    if n >= 1:
        r[1] = 1
    for m in range(1, n):
        total = 0
        for k in range(1, m + 1):
            total += sum(d * r[d] for d in range(1, k + 1) if k % d == 0) * r[m - k + 1]
        r[m + 1] = total // m
    return r


def _series_power(base: list[int], e: int, n: int) -> list[int]:
    out = [1] + [0] * n
    for _ in range(e):
        nxt = [0] * (n + 1)
        for i, a in enumerate(out):
            if a:
                for j in range(1, n - i + 1):
                    if base[j]:
                        nxt[i + j] += a * base[j]
        out = nxt
    return out


def unicyclic_count(n: int, l: int) -> int:
    """Unlabeled connected unicyclic graphs on n vertices with cycle length l:
    Z(D_l) evaluated at x_k = R(z^k), coefficient of z^n."""
    r = rooted_tree_counts(n)

    def x(k: int) -> list[int]:
        s = [0] * (n + 1)
        for j in range(1, n // k + 1):
            s[j * k] = r[j]
        return s

    def term(*factors: tuple[int, int]) -> int:
        prod = [1] + [0] * n
        for k, e in factors:
            if e:
                p = _series_power(x(k), e, n)
                prod = [sum(prod[i] * p[m - i] for i in range(m + 1)) for m in range(n + 1)]
        return prod[n]

    phi = lambda d: sum(1 for i in range(1, d + 1) if gcd(i, d) == 1)
    rot = sum(phi(d) * term((d, l // d)) for d in range(1, l + 1) if l % d == 0)
    if l % 2:
        refl = l * term((1, 1), (2, (l - 1) // 2))
    else:
        refl = (l // 2) * (term((2, l // 2)) + term((1, 2), (2, l // 2 - 1)))
    count, rem = divmod(rot + refl, 2 * l)
    if rem:
        raise ArithmeticError(f"cycle index sum not divisible by {2 * l}")
    return count


def _tree_codes(adj, roots: list[int], blocked: set[int]) -> list[bytes]:
    """AHU code of the tree hanging at each root, children sorted by code."""
    parent = {r: -1 for r in roots}
    order = list(roots)
    for u in order:
        for w in adj[u]:
            if w not in parent and w not in blocked:
                parent[w] = u
                order.append(w)
    kids: dict[int, list[bytes]] = {}
    code: dict[int, bytes] = {}
    for v in reversed(order):
        code[v] = b"(" + b"".join(sorted(kids.pop(v, []))) + b")"
        if parent[v] >= 0:
            kids.setdefault(parent[v], []).append(code[v])
    return [code[r] for r in roots]


def unicyclic_code(adj) -> bytes:
    """Canonical code "l:" + dihedral-minimal concatenation of tree codes."""
    cycle, _ = cycle_positions(adj)
    codes = _tree_codes(adj, cycle, set(cycle))
    best = min(seq[k:] + seq[:k] for seq in (codes, codes[::-1]) for k in range(len(seq)))
    return b"%d:" % len(cycle) + b"".join(best)


def graph_from_code(code: bytes) -> tuple[int, list[tuple[int, int]]]:
    """Inverse of `unicyclic_code`: cycle 0..l-1, trees numbered after."""
    head, body = code.split(b":", 1)
    l = int(head)
    edges = [(i, (i + 1) % l) for i in range(l)]
    n = l
    stack: list[int] = []
    root = 0
    for ch in body:
        if ch == ord("("):
            if not stack:
                v = root
                root += 1
            else:
                v = n
                n += 1
                edges.append((stack[-1], v))
            stack.append(v)
        else:
            stack.pop()
    if root != l or stack:
        raise ValueError(f"malformed code {code[:40]!r}")
    return n, edges


def decimal_str(value: Fraction, digits: int) -> str:
    """Half-even rounding of a non-negative rational to `digits` places."""
    q, r = divmod(value.numerator * 10**digits, value.denominator)
    if 2 * r > value.denominator or (2 * r == value.denominator and q % 2):
        q += 1
    if not digits:
        return str(q)
    whole, frac = divmod(q, 10**digits)
    return f"{whole}.{frac:0{digits}d}"


def rat(value: Fraction | int) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"
