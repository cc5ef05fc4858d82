"""Isomorphism-free enumeration of unicyclic graphs and trees, plus the
extremal verification and conjecture-probing machinery built on it.

Enumeration works directly in decomposition space: a unicyclic graph is
its cycle length l and the l-tuple of rooted-tree shapes (AHU codes from
the shape catalog) hanging from the cycle. Each class is generated once,
as its canonical tuple, the least of the tuple's l rotations and l
reflections, so nothing is deduplicated. The space partitions into
disjoint work units by (l, size of the first tree), which is also the
multiprocessing boundary; results are deterministic regardless of worker
count.

Each unit computes every class's Kf as it is generated, as the exact
integer N = l * Kf, and reduces its classes in place: it returns its class
count and its least and greatest N with the codes reaching them. The
search, conjecture and theorem paths merge these reductions
(`unicyclic_extremes`), so their memory does not grow with the class
count; only `unicyclic_rows` and `unicyclic_classes` list every class.

The enumeration cap counts classes. Every run compares one number with
it, before any tree catalog is built: the exact class count from the
dihedral cycle index (`class_count`), with the cycle-length filter and
before any degree filter, so it bounds every degree-filtered run.
"""
from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .errors import DEFAULT_CAP, CapExceededError, ParameterError
from .families import make_p3_extremal, make_p_family_member, make_t_n_delta
from .formulas import (
    conj_ii_x_range,
    conj_min_formula_i,
    conj_min_formula_ii,
    theorem_bound,
    wiener_broom_formula,
)
from .graph import Graph
from .metrics import kf_from_shapes, kirchhoff_index
from .unicyclic import (
    Shape,
    ShapeRecord,
    canonical_code,
    code_parents,
    decompose_unicyclic,
    path_shape,
    rooted_shapes,
    shape_record,
    tree_canonical_code,
    unicyclic_from_shapes,
)

ClassMap = dict[bytes, tuple[int, tuple[Shape, ...]]]


# ---------------------------------------------------------------------------
# enumeration

def _hanging_degree(record: ShapeRecord) -> int:
    """Largest graph degree in a hanging tree, from its catalog record: its
    root sits on the cycle, so the root's degree is its child count + 2."""
    _, _, _, root, inner = record
    return max(root + 2, inner)


@lru_cache(maxsize=1)
def _alphabet(n: int, delta: int | None, exact: bool, top: int):
    """The hanging trees of sizes 1..top allowed under `delta`, in byte
    order: (codes, their ranks grouped by size, the ranks of the trees of
    degree exactly `delta` or None when any tuple qualifies, those ranks
    grouped by size, and per rank the term W + (n - s) D that a tree on s
    vertices with Wiener index W and root depth sum D adds to Kf on n
    vertices, as in `kf_from_stats`).

    Under `delta` the trees come from the bounded catalog
    `rooted_shapes(k, delta - 1, delta - 2)`, whose root has at most
    delta - 2 children and every other vertex at most delta - 1, so no
    tree past the bound is built. Rank order is code order, so comparing
    rank tuples compares code tuples. The last code is b"()", the
    one-vertex tree, whose degree 2 is the least a hanging tree has, so it
    is allowed whenever any tree is. Built once per call; forked pool
    workers inherit it.
    """
    bound = () if delta is None else (delta - 1, delta - 2)
    catalog = {}
    for k in range(1, top + 1):
        catalog.update(rooted_shapes(k, *bound))
    codes = sorted(catalog)
    records = list(map(catalog.__getitem__, codes))
    by_size: list[list[int]] = [[] for _ in range(top + 1)]
    for rank, (s, _, _, _, _) in enumerate(records):
        by_size[s].append(rank)
    hubs = hubs_by_size = None
    if delta is not None and exact:
        # every admissible tree has degree <= delta, so a tuple's max degree
        # is exactly delta iff one of its trees reaches it
        hubs = frozenset(r for r, rec in enumerate(records) if _hanging_degree(rec) == delta)
        hubs_by_size = [[r for r in ranks if r in hubs] for ranks in by_size]
    terms = [w + (n - s) * d for s, d, w, _, _ in records]
    return codes, by_size, hubs, hubs_by_size, terms


Row = tuple[bytes, int, tuple[Shape, ...], int]  # code, l, shapes, N = l * Kf


class UnitResult(NamedTuple):
    """What one work unit found: its cycle length, its class count, the
    least and greatest Kf numerator N = l * Kf with the codes reaching
    each, and a (code, l, shapes, N) row per class when rows were asked."""

    l: int
    count: int
    low: int | None
    low_codes: list[bytes]
    high: int | None
    high_codes: list[bytes]
    rows: list[Row]


def _last_tree_bounds(a: list[int], t: int) -> tuple[int, list[int]] | None:
    """Which last ranks r = a[t] >= a[0] make the necklace a[:t + 1]
    canonical, as far as the copies of a[0] in a[:t] decide it: (the least
    r that can pass, and ranks r that fail all the same), or None when no
    r passes.

    The reversal's rotation that starts at the copy a[j] reads a[j], ...,
    a[0], r, a[t - 1], ..., a[j + 1]. If a[:j + 1] is no palindrome, its
    first mismatch decides for every r; if it is one, r is compared with
    a[j + 1], and at r = a[j + 1] the rest of a decides. An r equal to
    a[0] is one more copy, which the caller checks in full.
    """
    x = a[0]
    least = x
    bad = []
    for j in range(t):
        if a[j] != x:
            continue
        k = 0
        while k < j and a[j - k] == a[k]:
            k += 1
        if a[j - k] != a[k]:
            if a[j - k] < a[k]:
                return None
            continue
        if j == t - 1:  # the rotation is a itself
            continue
        m = 0
        while j + 2 + m < t and a[t - 1 - m] == a[j + 2 + m]:
            m += 1
        if j + 2 + m < t and a[t - 1 - m] < a[j + 2 + m]:
            bad.append(a[j + 1])
        least = max(least, a[j + 1])
    return least, bad


def _unit(args) -> UnitResult:
    """The classes whose canonical tuple has length l and starts with a tree
    on `first` vertices; the canonical tuple is the class's representative.

    A canonical tuple is the least of its l rotations and l reflections.
    Tuples of ranks are grown as prenecklaces (Fredricksen, Kessler &
    Maiorana): each a[t] >= a[t - p], where p is the period of a[:t], and a
    larger a[t] makes the prefix aperiodic (p = t + 1). A full tuple is a
    necklace, least of its rotations, iff p divides l; it is canonical if
    also no rotation of its reversal is smaller. Each position takes at
    least one vertex, so sizes are pruned to leave one for every position
    still open. Once the vertices left equal the positions left, each of
    those positions takes the one-vertex tree, and the tuple is completed
    at once. When one position is left, its size is the vertices left, and
    its candidates are tried in place, greatest rank first, the order in
    which they would leave the stack; `_last_tree_bounds` settles the
    reversal test for all of them at once, so the walk stops at the least
    candidate that can pass.

    Each kept tuple's Kf is the integer N = l * Kf that `kf_from_stats`
    folds. With sizes s_i and prefix sums P_k = s_0 + ... + s_k, the pairs
    i < j sum s_i s_j (j - i) to sum_k P_k (n - P_k), and s_i s_j (j - i)^2
    to n sum_i i^2 s_i - (sum_i i s_i)^2, so
    N = l (sum_i term_i + sum_k P_k (n - P_k)) - n sum_i i^2 s_i
    + (sum_i i s_i)^2. Every stack entry carries the first part and
    sum_i i s_i over its prefix, each placed tree adding its share, so a
    kept tuple costs a few additions. The one-vertex trees of the fill have
    no tree term, and their part of each sum is in closed form, as is a
    last tree's beside its term. In exact-delta runs an entry also carries
    whether its prefix holds a tree of degree delta (a hub): a prefix
    without one takes only hubs once no later tree can be as large as the
    least hub, the last tree of such a prefix must be a hub, and such a
    prefix is dropped before its fill.
    """
    n, l, first, delta, exact, top, keep_rows = args
    codes, by_size, hubs, hubs_by_size, terms = _alphabet(n, delta, exact, top)
    one = len(codes) - 1  # the rank of b"()"
    ones = [one] * l
    # with one-vertex trees at positions t..l-1: their part of the first
    # sum (prefix sums n - v, v < m = l - t) and of sum_i i s_i
    fill_num = [l * m * (m - 1) * (3 * n - 2 * m + 1) // 6
                - n * ((l - 1) * l * (2 * l - 1) - (t - 1) * t * (2 * t - 1)) // 6
                for t, m in ((t, l - t) for t in range(l))]
    fill_s1 = [(l * (l - 1) - t * (t - 1)) // 2 for t in range(l)]
    hub_size = 0 if hubs is None else next((k for k, rs in enumerate(hubs_by_size) if rs), n + 1)
    a = [0] * l
    count = 0
    low = high = None
    lows: list[list[int]] = []
    highs: list[list[int]] = []
    rows: list[Row] = []

    def keep(num: int) -> None:
        nonlocal count, low, lows, high, highs
        count += 1
        if low is None or num < low:
            low, lows = num, [a[:]]
        elif num == low:
            lows.append(a[:])
        if high is None or num > high:
            high, highs = num, [a[:]]
        elif num == high:
            highs.append(a[:])
        if keep_rows:
            shapes = tuple(map(codes.__getitem__, a))
            rows.append((b"%d:" % l + b"".join(shapes), l, shapes, num))

    def canonical() -> bool:
        # a is a necklace and a[0] its least rank, so only rotations of the
        # reversal that start at a copy of a[0] can be smaller than a
        b = a[::-1]
        x = a[0]
        i = -1
        for _ in range(b.count(x)):
            i = b.index(x, i + 1)
            if b[i:] + b[:i] < a:
                return False
        return True

    # (position, rank, period of the tuple up to it, vertices left after it,
    #  l * (sum of terms + sum_k P_k (n - P_k)) - n sum_i i^2 s_i and
    #  sum_i i s_i up to it, whether it holds a tree of degree delta)
    rest = n - first
    c = l * first * rest
    stack = [(0, r, 1, rest, c + l * terms[r], 0, hubs is None or r in hubs)
             for r in by_size[first]]
    while stack:
        t, rank, p, left, num, s1, hub = stack.pop()
        a[t] = rank
        t += 1
        if left > l - t:
            low_rank = a[t - p]
            if t == l - 1:
                # the last tree has `left` vertices and prefix sum n
                s1 += t * left
                base = num - n * t * t * left + s1 * s1
                bounds = _last_tree_bounds(a, t)
                if bounds is None:
                    continue
                least, bad = bounds
                ranks = by_size[left] if hub else hubs_by_size[left]
                i = bisect_left(ranks, max(least, low_rank))
                for j in range(len(ranks) - 1, i - 1, -1):
                    r = ranks[j]
                    if r in bad or (r == low_rank and l % p):
                        continue
                    a[t] = r
                    if r != a[0] or canonical():
                        keep(base + l * terms[r])
                continue
            for k in range(1, left - l + t + 2):
                rest = left - k
                # a prefix without a hub needs one here when no later tree
                # can be as large as the least hub
                ranks = by_size[k] if hub or rest - l + t + 2 >= hub_size else hubs_by_size[k]
                c = num + l * (n - rest) * rest - n * t * t * k
                c1 = s1 + t * k
                i = bisect_left(ranks, low_rank)
                if i < len(ranks) and ranks[i] == low_rank:
                    stack.append((t, low_rank, p, rest, c + l * terms[low_rank], c1,
                                  hub or low_rank in hubs))
                    i += 1
                stack.extend([(t, r, t + 1, rest, c + l * terms[r], c1, hub or r in hubs)
                              for r in ranks[i:]])
            continue
        # positions t..l-1, at least one, take the one-vertex tree, which
        # is a hub only at delta = 2, where every tree is that tree
        if not hub:
            continue
        # `one` is the largest rank: the period survives the fill iff each
        # filled place matches the one a period back
        a[t:] = ones[t:]
        if min(a[t - p:l - p]) < one:
            p = l
        if l % p == 0 and canonical():
            keep(num + fill_num[t] + (s1 + fill_s1[t]) ** 2)

    def key(ranks: list[int]) -> bytes:
        return b"%d:" % l + b"".join(map(codes.__getitem__, ranks))

    return UnitResult(l, count, low, list(map(key, lows)), high, list(map(key, highs)), rows)


def _units(n: int, ls: list[int]) -> list[tuple[int, int]]:
    """Work units (l, size of the first tree of the canonical tuple)."""
    return [(l, first) for l in ls for first in range(1, n - l + 2)]


def _run_units(n, delta, l_filter, exact, cap, workers, keep_rows):
    """Yield every work unit's result, in unit order.

    The run's class count, before any degree filter, is compared with `cap`
    once, before any catalog is built: more classes raise CapExceededError.
    With a degree filter the count is an upper bound, so nothing later can
    pass the cap.
    """
    if class_count(n, l_filter, cap) > cap:
        raise CapExceededError(f"more than {cap} isomorphism classes")
    # no class of max degree exactly delta has l > n - delta + 2 (`verify_theorem`)
    l_max = min(n, n - delta + 2) if delta is not None and exact else n
    ls = [l for l in ([l_filter] if l_filter is not None else range(3, n + 1)) if 3 <= l <= l_max]
    if not ls:
        return
    top = n - ls[0] + 1
    _alphabet(n, delta, exact, top)  # before a pool started here forks
    args = [(n, l, first, delta, exact, top, keep_rows) for l, first in _units(n, ls)]
    with worker_pool(workers) as imap:
        yield from imap(_unit, args)


def Pool(processes: int):
    """A `multiprocessing.Pool`, imported when the first pool starts, so
    runs that stay in one process never load `multiprocessing`."""
    from multiprocessing import Pool

    return Pool(processes)


_slot: list | None = None  # [the pool or None] while a `worker_pool` block is open


@contextmanager
def worker_pool(workers: int):
    """Yield an `imap(fn, items)` that runs on `workers` processes, sharing
    one process pool among every enumeration inside the outermost block.

    Blocks nest: the outermost owns the pool and terminates it on exit,
    exceptions included, and inner blocks (each `_run_units` opens one)
    reuse it, with the worker count it started with. The pool starts at the
    first imap of more than one item with more than one worker, so its
    workers inherit that run's `_alphabet`; later runs' workers rebuild
    theirs through the `_alphabet` cache.
    """
    global _slot
    owner = _slot is None
    if owner:
        _slot = [None]
    slot = _slot

    def imap(fn, items: list):
        if workers < 2 or len(items) < 2:
            return map(fn, items)
        if slot[0] is None:
            slot[0] = Pool(workers)
        return slot[0].imap(fn, items)

    try:
        yield imap
    finally:
        if owner:
            _slot = None
            if slot[0] is not None:
                slot[0].terminate()
                slot[0].join()


def unicyclic_rows(
    n: int,
    delta: int | None = None,
    l_filter: int | None = None,
    exact: bool = True,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> list[Row]:
    """A (code, l, shapes, N = l * Kf) row per isomorphism class, sorted by
    canonical code; the shapes are the class's canonical tuple."""
    rows = [row for result in _run_units(n, delta, l_filter, exact, cap, workers, True)
            for row in result.rows]
    rows.sort()
    return rows


def unicyclic_classes(
    n: int,
    delta: int | None = None,
    l_filter: int | None = None,
    exact: bool = True,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> ClassMap:
    """One (l, shapes) representative per isomorphism class, keyed and
    sorted by canonical code.

    Each class is generated once, as its canonical tuple: the least of the
    tuple's rotations and reflections, which is also its key's tree list.
    Units hold disjoint classes, so their rows are concatenated as they
    arrive. Runs with more than `cap` classes before the degree filter
    (`class_count(n, l_filter)`) raise CapExceededError before any tree
    catalog is built.
    """
    return {code: (l, shapes) for code, l, shapes, _ in unicyclic_rows(
        n, delta, l_filter, exact, cap, workers)}


class Extremes(NamedTuple):
    """A class count with the least and greatest Kf over those classes and
    the sorted codes reaching each (None and [] when there is no class)."""

    count: int
    low: Fraction | None
    low_codes: list[str]
    high: Fraction | None
    high_codes: list[str]


def _merge(results) -> Extremes:
    """Fold work-unit results into one Extremes; units of different cycle
    lengths compare their numerators as Kf = N / l."""
    count = 0
    low = high = None
    lows: list[bytes] = []
    highs: list[bytes] = []
    for r in results:
        if not r.count:
            continue
        count += r.count
        kf = Fraction(r.low, r.l)
        if low is None or kf < low:
            low, lows = kf, list(r.low_codes)
        elif kf == low:
            lows += r.low_codes
        kf = Fraction(r.high, r.l)
        if high is None or kf > high:
            high, highs = kf, list(r.high_codes)
        elif kf == high:
            highs += r.high_codes
    return Extremes(
        count, low, sorted(c.decode("ascii") for c in lows),
        high, sorted(c.decode("ascii") for c in highs),
    )


def unicyclic_extremes(
    n: int,
    delta: int | None = None,
    l_filter: int | None = None,
    exact: bool = True,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> Extremes:
    """The class count and the least and greatest Kf of the classes
    `unicyclic_classes` would list, with their codes. Each work unit
    reduces its own classes, so no class map is built."""
    return _merge(_run_units(n, delta, l_filter, exact, cap, workers, False))


def enumerate_unicyclic(
    n: int,
    delta: int | None = None,
    l_filter: int | None = None,
    exact: bool = True,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
):
    """Yield one standard-numbered representative per isomorphism class of
    connected unicyclic graphs on n vertices (max degree exactly `delta`
    when given, or at most `delta` with exact=False)."""
    for l, shapes in unicyclic_classes(n, delta, l_filter, exact, cap, workers).values():
        yield unicyclic_from_shapes(l, shapes)


def shape_to_tree(shape: Shape) -> Graph:
    """Tree graph for a rooted shape, preorder numbering with root 0."""
    parent = code_parents(shape)
    return Graph(len(parent), [(parent[k], k) for k in range(1, len(parent))])


def tree_classes(n: int, delta: int | None = None, exact: bool = True) -> dict[bytes, Graph]:
    """One representative per isomorphism class of free trees on n vertices."""
    if n < 1:
        return {}
    found: dict[bytes, Graph] = {}
    for shape, (_, _, _, root, inner) in rooted_shapes(n).items():
        deg = max(root, inner)
        if delta is not None and (deg != delta if exact else deg > delta):
            continue
        g = shape_to_tree(shape)
        code = tree_canonical_code(g)
        if code not in found:
            found[code] = g
    return dict(sorted(found.items()))


def enumerate_trees(n: int, delta: int | None = None, exact: bool = True):
    yield from tree_classes(n, delta, exact).values()


def random_unicyclic(n: int, rng: random.Random) -> Graph:
    """Random connected unicyclic graph: Pruefer tree plus one extra edge."""
    if n < 3:
        raise ParameterError(f"need n >= 3, got {n}")
    if n == 3:
        edges = [(0, 1), (1, 2)]
    else:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        deg = [1] * n
        for v in seq:
            deg[v] += 1
        edges = []
        leaves = [v for v in range(n) if deg[v] == 1]
        heapq.heapify(leaves)
        for v in seq:
            leaf = heapq.heappop(leaves)
            edges.append((leaf, v))
            deg[v] -= 1
            if deg[v] == 1:
                heapq.heappush(leaves, v)
        u, w = heapq.heappop(leaves), heapq.heappop(leaves)
        edges.append((u, w))
    present = {tuple(sorted(e)) for e in edges}
    non_edges = [e for e in combinations(range(n), 2) if e not in present]
    edges.append(rng.choice(non_edges))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# size: the one class count that every enumeration is checked against

def _rooted_tree_counts(n: int, cap: int | None = None) -> list[int]:
    """r[k] = number of rooted trees on k vertices (r[0] = 0).

    With `cap`, returns r[0..k] as soon as some r[k] exceeds it.
    """
    r = [0] * (n + 1)
    if n >= 1:
        r[1] = 1
    for m in range(2, n + 1):
        total = 0
        for k in range(1, m):
            s = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += s * r[m - k]
        r[m] = total // (m - 1)
        if cap is not None and r[m] > cap:
            return r[: m + 1]
    return r


def _power(q: list[int], j: int, deg: int) -> list[int]:
    """Q^j up to z^deg, for a series with q[0] = 1 (J. C. P. Miller's
    recurrence k p_k = sum_i ((j + 1) i - k) q_i p_{k-i}; each division is
    exact)."""
    p = [1] + [0] * deg
    for k in range(1, deg + 1):
        p[k] = sum(((j + 1) * i - k) * q[i] * p[k - i] for i in range(1, k + 1)) // k
    return p


def class_count(n: int, l_filter: int | None = None, cap: int | None = None) -> int:
    """The number of unicyclic classes on n vertices, with an `l_filter`
    cycle when given: the coefficient of z^n in the dihedral cycle index
    Z(D_l) with x_k = R(z^k), R the rooted-tree series (Harary & Palmer,
    *Graphical Enumeration*), summed over the cycle lengths l.

    Every term of Z(D_l) is z^l times a product of Q(z^k) = R(z^k) / z^k,
    so only degrees up to n - l are needed. With `cap`, a count past it
    returns as soon as it is settled: when r[n - l_min + 1] passes the cap
    (each of those rooted trees, hung from one vertex of the shortest
    cycle, is a class of its own), or when the running sum does.
    """
    ls = [l for l in ([l_filter] if l_filter is not None else range(3, n + 1)) if 3 <= l <= n]
    if not ls:
        return 0
    r = _rooted_tree_counts(n - ls[0] + 1, cap)
    if cap is not None and r[-1] > cap:
        return r[-1]
    q = r[1:]
    total = 0
    for l in ls:
        m = n - l

        def x(a: list[int], k: int, j: int) -> int:  # [z^m] of a(z) Q(z^k)^j
            p = _power(q, j, m // k)
            return sum(a[m - k * i] * p[i] for i in range(m // k + 1) if m - k * i < len(a))

        # 4l Z(D_l): rotations give 2 sum_{d | l} phi(d) x_d^(l/d); reflections
        # give 2l x_1 x_2^((l-1)/2) for odd l, l (x_2^(l/2) + x_1^2 x_2^(l/2-1)) for even l
        scaled = 2 * sum(sum(gcd(i, d) == 1 for i in range(d)) * x([1], d, l // d)
                         for d in range(1, l + 1) if l % d == 0)
        if l % 2:
            scaled += 2 * l * x(q, 2, l // 2)
        else:
            scaled += l * (x([1], 2, l // 2) + x(_power(q, 2, m), 2, l // 2 - 1))
        total += scaled // (4 * l)
        if cap is not None and total > cap:
            return total
    return total


# ---------------------------------------------------------------------------
# reports

def _rat(value: Fraction | None) -> str | None:
    if value is None:
        return None
    return f"{value.numerator}/{value.denominator}"


class ExtremalReport:
    """Outcome of one exhaustive extremal run, or a formula-only fallback."""

    def __init__(
        self,
        kind: str,
        n: int,
        delta: int,
        objective: str,
        mode: str,  # "enumerated" | "formula-only"
        graph_count: int,
        extremal_value: Fraction | None,
        argext_codes: list[str],
        formula_value: Fraction | None,
        verdict: str,  # "match" | "mismatch" | "not-applicable"
        l_filter: int | None = None,
        branch: str | None = None,
        expected_code: str | None = None,
        notes: list[str] | None = None,
    ):
        self.kind = kind
        self.n = n
        self.delta = delta
        self.objective = objective
        self.mode = mode
        self.graph_count = graph_count
        self.extremal_value = extremal_value
        self.argext_codes = argext_codes
        self.formula_value = formula_value
        self.verdict = verdict
        self.l_filter = l_filter
        self.branch = branch
        self.expected_code = expected_code
        self.notes = [] if notes is None else notes

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "delta": self.delta,
            "l_filter": self.l_filter,
            "objective": self.objective,
            "mode": self.mode,
            "branch": self.branch,
            "graph_count": self.graph_count,
            "extremal_value": _rat(self.extremal_value),
            "argext_codes": self.argext_codes,
            "expected_code": self.expected_code,
            "formula_value": _rat(self.formula_value),
            "verdict": self.verdict,
            "notes": self.notes,
        }


def verify_theorem(
    n: int, delta: int, cap: int = DEFAULT_CAP, workers: int = 1
) -> ExtremalReport:
    """Check that the Kf maximum over unicyclic graphs with max degree
    exactly `delta` (cycle lengths satisfying n >= l+delta-2) equals the
    closed-form bound, attained uniquely by the triangle extremal graph.

    Runs past the enumeration cap compare the constructed extremal graph
    with the bound instead (formula-only mode)."""
    if delta < 3 or n < delta + 1:
        raise ParameterError(f"need delta >= 3 and n >= delta+1, got n={n}, delta={delta}")
    bound = theorem_bound(n, delta)
    extremal = decompose_unicyclic(make_p3_extremal(n, delta))
    expected_code = canonical_code(extremal).decode("ascii")
    notes: list[str] = []
    try:
        # a hub on the cycle needs delta - 2 tree vertices and one off it
        # delta + 1, so every class of max degree exactly delta has
        # l <= n - delta + 2 and lies in the theorem's scope
        found = unicyclic_extremes(n, delta, cap=cap, workers=workers)
    except CapExceededError:
        best = kirchhoff_index(extremal, "structural")
        mode, count, arg = "formula-only", 1, [expected_code]
        notes.append("parameter space beyond the enumeration cap; compared the"
                     " constructed extremal graph against the closed-form bound")
    else:
        mode, count, best, arg = "enumerated", found.count, found.high, found.high_codes
    verdict = (
        "match"
        if best == bound and arg == [expected_code]
        else ("not-applicable" if best is None else "mismatch")
    )
    return ExtremalReport(
        kind="theorem",
        n=n,
        delta=delta,
        objective="max",
        mode=mode,
        graph_count=count,
        extremal_value=best,
        argext_codes=arg,
        formula_value=bound,
        verdict=verdict,
        expected_code=expected_code,
        notes=notes,
    )


def conjecture_branch(n: int, delta: int) -> str:
    if n <= 10 or (n == 11 and delta >= 5):
        return "i"
    return "ii"


def probe_conjecture(
    n: int, delta: int, cap: int = DEFAULT_CAP, workers: int = 1
) -> ExtremalReport:
    """Brute-force minimum Kf over unicyclic graphs with max degree
    exactly `delta`, compared against the conjectured closed form.
    Mismatches are reported, never suppressed."""
    if delta < 3 or n < delta + 1:
        raise ParameterError(f"need delta >= 3 and n >= delta+1, got n={n}, delta={delta}")
    found = unicyclic_extremes(n, delta, cap=cap, workers=workers)
    best, arg = found.low, found.low_codes
    branch = conjecture_branch(n, delta)
    notes: list[str] = []
    formula: Fraction | None = None
    if branch == "i":
        formula = conj_min_formula_i(n, delta)
    else:
        candidates = []
        for x in conj_ii_x_range(n, delta):
            try:
                candidates.append(conj_min_formula_ii(n, delta, x))
            except ParameterError:
                continue
        if candidates:
            formula = min(candidates)
        else:
            notes.append("no admissible x for branch (ii)")
    if best is None or formula is None:
        verdict = "not-applicable"
    else:
        verdict = "match" if best == formula else "mismatch"
        if verdict == "mismatch":
            notes.append(f"brute-force minimum attained by: {', '.join(arg)}")
            # the formula may still hit the minimum at a hub count outside
            # the conjecture's stated range; report that separately
            x = 1
            while n - x * (delta - 2) >= max(3, x):
                if conj_min_formula_ii(n, delta, x) == best:
                    notes.append(
                        f"consecutive-hub formula reproduces the minimum at x={x},"
                        " outside the conjectured x-range"
                    )
                x += 1
    return ExtremalReport(
        kind="conjecture",
        n=n,
        delta=delta,
        objective="min",
        mode="enumerated",
        branch=branch,
        graph_count=found.count,
        extremal_value=best,
        argext_codes=arg,
        formula_value=formula,
        verdict=verdict,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# lemma property suite

def _hub_candidates(degrees: list[int]) -> list[int]:
    """Indices of the trees, given their `_hanging_degree`s, that contain a
    vertex of overall maximum degree."""
    overall = max(degrees)
    return [i for i, d in enumerate(degrees) if d == overall]


def _pendant_tadpoles(n: int, l: int, delta: int):
    """Yield (hub_pos, graph) for each distinct member of the pendant-tadpole
    family `make_p_family_member(n, l, delta, hub_pos)`, for n >= l + delta - 2.

    The last position, max_pos = n - l - delta + 2, is left out: for
    max_pos >= 2 it builds the same graph as max_pos - 1 (the tail's last
    vertex is one more pendant of the hub), and for max_pos = 1 the degree
    is unreachable there.
    """
    for hub_pos in range(max(n - l - delta + 2, 1)):
        yield hub_pos, make_p_family_member(n, l, delta, hub_pos)


def check_lemma_properties(
    n_max: int,
    tree_n_max: int = 11,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> dict:
    """Empirical sweep of the structural lemmas over all enumerable
    instances up to n_max (unicyclic) and tree_n_max (trees).

    Returns a report dict; `ok` is True iff no lemma saw a violation.
    """
    report: dict = {}

    # path replacement of non-hub trees never decreases Kf; each n is
    # enumerated once, and its classes' Kf are kept by (max degree, l)
    checked = 0
    violations: list[str] = []
    non_strict = 0
    kf_by_n: dict[int, dict[tuple[int, int], dict[bytes, Fraction]]] = {}
    for n in range(4, n_max + 1):
        groups = kf_by_n[n] = {}
        for code, l, shapes, num in unicyclic_rows(n, cap=cap, workers=workers):
            kf = Fraction(num, l)
            degrees = [_hanging_degree(shape_record(s)) for s in shapes]
            groups.setdefault((max(degrees), l), {})[code] = kf
            for h in _hub_candidates(degrees):
                replaced = tuple(
                    s if i == h else path_shape(len(s) // 2) for i, s in enumerate(shapes)
                )
                changed = replaced != shapes
                kf2 = kf_from_shapes(l, replaced)
                checked += 1
                if kf2 < kf:
                    violations.append(code.decode("ascii"))
                elif changed and kf2 == kf:
                    non_strict += 1
    report["path_replacement"] = {
        "checked": checked,
        "violations": violations,
        "non_strict_changes": non_strict,
    }

    # within each (n, l, delta) class, every Kf maximizer has its pendants
    # on a single tail vertex of the tadpole
    checked = 0
    violations = []
    for n in range(4, n_max + 1):
        for delta in range(3, n):
            for l in range(3, n - delta + 3):
                classes = kf_by_n[n].get((delta, l))
                if not classes:
                    continue
                members = {canonical_code(decompose_unicyclic(g))
                           for _, g in _pendant_tadpoles(n, l, delta)}
                best = max(classes.values())
                argmax = {code for code, kf in classes.items() if kf == best}
                checked += 1
                if not argmax <= members:
                    violations.append(f"n={n} l={l} delta={delta}")
    report["maximizer_in_pendant_tadpoles"] = {"checked": checked, "violations": violations}

    # among trees with max degree exactly delta, Wiener is uniquely
    # maximized by the broom; a rooted tree's W and max degree do not depend
    # on its root, so the catalog's rooted trees reach the free trees' maximum,
    # and only the rooted trees reaching it are canonicalized
    checked = 0
    violations = []
    for n in range(4, tree_n_max + 1):
        top: dict[int, tuple[int, list[Shape]]] = {}  # max degree -> (greatest W, shapes)
        for shape, (_, _, wien, root, inner) in rooted_shapes(n).items():
            deg = max(root, inner)
            if deg not in top or wien > top[deg][0]:
                top[deg] = (wien, [shape])
            elif wien == top[deg][0]:
                top[deg][1].append(shape)
        for delta in range(3, n):
            if delta not in top:
                continue
            wien, shapes = top[delta]
            argmax = {tree_canonical_code(shape_to_tree(s)) for s in shapes}
            checked += 1
            if (wien != wiener_broom_formula(n, delta)
                    or argmax != {tree_canonical_code(make_t_n_delta(n, delta))}):
                violations.append(f"n={n} delta={delta}")
    report["wiener_broom_maximizer"] = {"checked": checked, "violations": violations}

    # within the pendant-tadpole family, Kf is maximized with the hub on
    # the cycle junction
    checked = 0
    violations = []
    ties = 0
    for n in range(5, n_max + 1):
        for delta in range(3, n):
            for l in range(3, n - delta + 3):
                values = {hub_pos: kirchhoff_index(g, "structural")
                          for hub_pos, g in _pendant_tadpoles(n, l, delta)}
                if len(values) < 2:
                    continue
                checked += 1
                best = max(values.values())
                if values[0] < best:
                    violations.append(f"n={n} l={l} delta={delta}")
                elif sum(1 for v in values.values() if v == best) > 1:
                    ties += 1
    report["hub_on_cycle_maximizes"] = {
        "checked": checked,
        "violations": violations,
        "ties": ties,
    }

    report["ok"] = all(
        not section["violations"] for key, section in report.items() if key != "ok"
    )
    return report


# ---------------------------------------------------------------------------
# engine cross-validation

def engine_equivalence_suite(n_max: int, samples: int, seed: int, cap: int = DEFAULT_CAP) -> dict:
    """Structural vs determinant-oracle resistances on every pair, and
    decomposition-formula Kf vs the pairwise sum; exhaustive over all
    classes up to n_max plus seeded random unicyclic graphs at n = 9..12.
    All comparisons are exact."""
    from .metrics import kf_decomposition, resistance_structural, resistance_table

    checked_pairs = 0
    graphs = 0
    mismatches: list[str] = []

    def check(g: Graph, label: str) -> None:
        nonlocal checked_pairs, graphs
        graphs += 1
        u = decompose_unicyclic(g)
        total = Fraction(0)
        ok = True
        for (a, b), ro in resistance_table(g, "oracle").pairs():
            checked_pairs += 1
            if resistance_structural(u, a, b) != ro:
                ok = False
            total += ro
        if kf_decomposition(u) != total:
            ok = False
        if not ok:
            mismatches.append(label)

    for n in range(3, n_max + 1):
        for code, (l, shapes) in unicyclic_classes(n, cap=cap).items():
            g, _ = unicyclic_from_shapes(l, shapes).to_graph()
            check(g, f"n={n} {code.decode('ascii')}")
    rng = random.Random(seed)
    for k in range(samples):
        n = rng.randrange(9, 13)
        check(random_unicyclic(n, rng), f"random sample {k} (n={n})")
    return {
        "graphs": graphs,
        "pairs": checked_pairs,
        "seed": seed,
        "violations": mismatches,
    }


# ---------------------------------------------------------------------------
# independent completeness oracle (labeled brute force)

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
