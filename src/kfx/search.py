"""Isomorphism-free enumeration of unicyclic graphs, and the exact class
count every enumeration is checked against. The suites that check the
paper's claims on these classes are in `kfx.suites`.

Enumeration works directly in decomposition space: a unicyclic graph is
its cycle length l and the l-tuple of rooted-tree shapes (AHU codes from
an alphabet of hanging trees) hanging from the cycle. Each class is
generated once, as its canonical tuple, the least of the tuple's l
rotations and l reflections, so nothing is deduplicated. The space
partitions into disjoint work units by (l, size of the first tree). A unit
walks its tuples as run-length encoded blocks, each a tree of two vertices
or more and the run of one-vertex trees after it (Sawada, "Generating
bracelets in constant amortized time", SIAM J. Comput. 31, 2001), so a
tuple costs its blocks, not l.

A unit is a walk: it computes every class's Kf as it is generated, as
the exact integer N = l * Kf, and hands the tuple and N to the `keep` of
its run, which owns what is kept. A run builds its alphabet once and
walks its units in the calling process, one at a time as its reader
asks. One walk over child multisets builds every alphabet
(`_hanging_trees`), with no tree catalog, so this module imports no
other kfx layer than its errors. `unicyclic_rows` walks every allowed
tree and yields each unit's rows as it ends. `unicyclic_extremes` answers
one objective, the least or the greatest Kf: it walks only the trees of
that objective's extreme term per size, since only their tuples can reach
that extreme, and folds each unit's extreme N into one extreme.

The enumeration cap counts classes, and `class_count` is where a run
meets it, before any alphabet is built: it returns the run's exact class
count, from the dihedral cycle index, or raises CapExceededError as soon
as it knows that the run passes the cap, either because its classes do or
because a row run's alphabet would hold more trees of one size than the
cap.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple

from .errors import DEFAULT_CAP, CapExceededError, ParameterError

# ---------------------------------------------------------------------------
# enumeration

def _hanging_trees(n: int, delta: int | None, exact: bool, top: int,
                   objective: str | None) -> dict[bytes, tuple[int, bool]]:
    """The hanging trees on 1..top vertices allowed under `delta` that a run
    on n vertices can use, built with no catalog: code -> (term, whether it
    has a vertex of degree `delta`, a hub). With no `objective`, every
    allowed tree; with "min" or "max", only the trees a class of least or
    greatest Kf can hold.

    A tree's term W + (n - s) D is the sum, over its non-root vertices v,
    of s_v (n - s_v), s_v the size of v's subtree; so it is the sum, over
    the root's children c, of c's own term plus s_c (n - s_c). A vertex
    has at most delta - 1 children, delta - 2 at the root, and is a hub
    with exactly that many. A tree is a root over a multiset of planted
    trees, which a walk takes in size order, so each tree comes once. For
    each size, a DP over child multisets finds the least sign * term of
    the admissible trees (sign -1 for "max", else 1) and, in an
    exactly-delta run, of the hub trees; the walk takes a child only while
    the DP can fill the rest of the root's vertices.

    With an objective, a tree reaching either extreme has only such extreme
    trees as children: a child swapped for a better one of its size, a hub
    if it was the tree's only one, would leave a better tree. So only the
    extreme planted trees are children, and the multisets are pruned by the
    DP's best rest, for every tree reaching each extreme, ties included;
    while a hub tree's chosen children hold no hub, its best rest holds a
    hub or saturates the root. With none, nothing is pruned by its term,
    and every planted tree is a child.
    """
    planted_max, root_max = (top, top) if delta is None else (delta - 1, delta - 2)
    every = objective is None
    sign = -1 if objective == "max" else 1
    hubbed = delta is not None and exact
    searches = (False, True) if hubbed and not every else (False,)  # without and with a hub
    widest = max(0, min(planted_max, top - 1))  # the most children a vertex can have here

    def least(values):
        return min((v for v in values if v is not None), default=None)

    found: dict[bytes, tuple[int, bool]] = {}
    # the planted trees a child can be, as (size k, code, sign * (term + k (n - k)),
    # hub), and per k that value at its best and at its best over hubs
    items: list[tuple[int, bytes, int, bool]] = []
    start = [0, 0]  # start[k]: the index of the first item on k or more vertices
    best: list[int | None] = [None] * top
    best_hub: list[int | None] = [None] * top
    # [j][s]: the least sum of best values of exactly j, of at most j, and
    # of at most j one of which is a hub, planted children on s vertices
    exactly = [[0] + [None] * (top - 1)] + [[None] * top for _ in range(widest)]
    most = [[0] + [None] * (top - 1) for _ in range(widest + 1)]
    most_hub = [[None] * top for _ in range(widest + 1)]

    def extreme(children: int, s: int, hub: bool) -> tuple[int | None, dict]:
        """The best sign * term of the trees on s + 1 vertices whose
        root has at most `children` children (hub trees with `hub`), and
        code -> (sign * term, root child count, whether a child holds a
        hub) of every tree reaching it, or of every tree with no
        objective."""
        if children < 0:
            return None, {}
        if not hub:
            target = most[min(children, widest)][s]
        else:  # the root saturated, or a hub child beside the best rest
            target = least([exactly[children][s] if children <= widest else None,
                            most_hub[min(children, widest)][s]])
        trees: dict[bytes, tuple[int, int, bool]] = {}
        chosen: list[bytes] = []  # the codes of the children taken, in byte order

        def walk(i: int, left: int, total: int, held: bool) -> None:
            # held: a chosen child holds a hub
            free = children - len(chosen) - 1  # the children still open after one more
            if free < 0:
                return
            room = min(free, widest)
            need = hub and not held
            # children come in size order, so each leaves no vertex or at
            # least its own size: sizes up to left / 2, then size `left`
            last = range(max(i, start[left]), start[left + 1])
            for x in (*range(i, start[left // 2 + 1]), *last):
                k, code, v, h = items[x]
                rest = left - k
                bound = most[room][rest]
                if need and not h:  # the rest must hold a hub or saturate the root
                    bound = least([most_hub[room][rest],
                                   exactly[free][rest] if free <= widest else None])
                if bound is None or not (every or total + v + bound <= target):
                    continue
                if rest:
                    at = bisect_right(chosen, code)
                    chosen.insert(at, code)
                    walk(x, rest, total + v, held or h)
                    del chosen[at]
                elif (every or total + v == target) and (not need or h or not free):
                    # the last child: the tree's code lists its children's in byte order
                    at = bisect_right(chosen, code)
                    trees[b"(" + b"".join(chosen[:at]) + code + b"".join(chosen[at:]) + b")"] = (
                        total + v, len(chosen) + 1, held or h)

        if target is not None:
            if s:
                walk(0, s, 0, False)
            else:  # the one-vertex tree
                trees[b"()"] = (0, 0, False)
        return target, trees

    for k in range(1, top + 1):
        planted: dict[bytes, tuple[int, int, bool]] = {}
        for hub in searches if k < top else ():
            target, trees = extreme(planted_max, k - 1, hub)
            if target is not None:
                (best_hub if hub else best)[k] = target + sign * k * (n - k)
            planted.update(trees)
        for hub in searches:
            # with no objective, the hanging trees are the planted ones
            # whose root has at most delta - 2 children
            trees = planted if every and k < top else extreme(root_max, k - 1, hub)[1]
            found.update((code, (sign * v, hubbed and (count == root_max or held)))
                         for code, (v, count, held) in trees.items() if count <= root_max)
        if k == top:
            break
        items += [(k, code, v + sign * k * (n - k), hubbed and (count == planted_max or held))
                  for code, (v, count, held) in sorted(planted.items())]
        start.append(len(items))
        # column k of the sums, now that the planted trees on k vertices are known
        for j in range(1, widest + 1):
            exactly[j][k] = least(exactly[j - 1][k - c] + best[c] for c in range(1, k + 1)
                                  if best[c] is not None and exactly[j - 1][k - c] is not None)
            most[j][k] = least([most[j - 1][k], exactly[j][k]])
            if hubbed:
                most_hub[j][k] = least(best_hub[c] + most[j - 1][k - c] for c in range(1, k + 1)
                                       if best_hub[c] is not None and most[j - 1][k - c] is not None)
    return found


def _alphabet(n: int, delta: int | None, exact: bool, top: int, objective: str | None):
    """The hanging trees of sizes 1..top allowed under `delta`, in byte
    order: (codes, their ranks grouped by size, the ranks of the trees of
    degree exactly `delta` or None when any tuple qualifies, those ranks
    grouped by size, and per rank the term W + (n - s) D that a tree on s
    vertices with Wiener index W and root depth sum D adds to Kf on n
    vertices, as in `kf_from_stats`).

    `_hanging_trees` builds them, with no catalog: with no `objective`, the
    alphabet of row runs, every tree whose vertices have at most delta - 1
    children and whose root has at most delta - 2; with objective "min" or
    "max", the alphabet of an extremes run, only the trees of that
    objective's extreme term per size, and in an exactly-delta run the hub
    trees of extreme term among hubs, ties included: mostly one tree per
    size. The sizes are merged in byte order, so rank order is code order
    and comparing rank tuples compares code tuples. The last code is b"()",
    the one-vertex tree, whose degree 2 is the least a hanging tree has,
    so it is allowed whenever any tree is. A run builds it once.
    """
    trees = _hanging_trees(n, delta, exact, top, objective)
    codes = sorted(trees)
    terms = [trees[code][0] for code in codes]
    by_size: list[list[int]] = [[] for _ in range(top + 1)]
    for rank, code in enumerate(codes):
        by_size[len(code) >> 1].append(rank)
    hubs = hubs_by_size = None
    if delta is not None and exact:
        # every admissible tree has degree <= delta, so a tuple's max degree
        # is exactly delta iff one of its trees reaches it
        hubs = frozenset(r for r, code in enumerate(codes) if trees[code][1])
        hubs_by_size = [[r for r in ranks if r in hubs] for ranks in by_size]
    return codes, by_size, hubs, hubs_by_size, terms


Row = tuple[bytes, int, tuple[bytes, ...], int]  # code, l, shapes, N = l * Kf


def _reversal_order(words: list[int], back: list[int], known: int) -> int:
    """How the rotations of a tuple's reversal that start at its first
    `known` trees compare with the tuple: -1 if one is less, 0 if none is
    and one is equal, else 1. The tuple is given as its words, keys
    r * l + j of a tree r and the run of j ones after it, and as their
    reversed keys, back[i] being tree i with the run before it: the
    rotation that starts at tree i reads back[i], back[i - 1], ...,
    back[0], back[-1], ..., back[i + 1]. With `known` below the number of
    words, only back[:known] is read, so each rotation is read up to
    back[0]. Only a rotation whose first key equals words[0] needs more
    than its first key compared, as a slice of blocks.
    """
    x = words[0]
    head = back[:known]
    if min(head) < x:
        return -1
    order = 1
    i = -1
    for _ in range(head.count(x)):
        i = head.index(x, i + 1)
        read = head[i::-1] + head[:i:-1] if known == len(words) else head[i::-1]
        if read < words[:len(read)]:
            return -1
        order = min(order, int(read != words[:len(read)]))
    return order


def _unit(n: int, l: int, first: int, alphabet, keep) -> None:
    """Walk the classes on n vertices whose canonical tuple has length l
    and starts with a tree on `first` vertices, all of whose trees are in
    `alphabet`, as `_alphabet` builds it, and call keep(a, N) for each: a
    is the class's canonical tuple, as ranks into the alphabet's codes, and
    N = l * Kf. The walk reuses a, so a keep that holds on to it copies it.
    The canonical tuple is the class's representative.

    A canonical tuple is the least of its l rotations and l reflections.
    The one-vertex tree has the greatest rank, `one`, and every other tree
    has two vertices or more, so a tuple other than the cycle's is a
    sequence of words, each a tree r < one followed by a run of j ones, at
    most n - l of them. The walk grows tuples word by word, as run-length
    encoded prenecklaces (Sawada, "Generating bracelets in constant
    amortized time", SIAM J. Comput. 31, 2001): comparing two rotations
    that start at trees compares their words by the key r * l + j, a
    longer run of ones being the greater, and a rotation that starts at a
    one is never the least, so a tuple is a necklace iff its word sequence
    is one. The words are grown as prenecklaces (Fredricksen, Kessler &
    Maiorana): each word's key is at least the key a period p back, an
    equal key keeps p and a greater one makes the words aperiodic, and a
    full sequence is a necklace iff p divides its length. The reversal,
    read from a tree, pairs each tree with the run before it, so a
    necklace is canonical iff no rotation of those reversed keys is less
    (`_reversal_order`). That test reads the prefix once per last word's
    place, and its last tree only where the prefix ties, or where the tree
    is the one a period back; and since the reversal read from the first
    tree meets the last run where the tuple has its first run, earlier
    words leave the last word at least that run. A word takes its tree's vertices and one per
    one; each later word needs a tree of two vertices or more, so the word
    that takes the last extra vertex is the last, its run reaching the
    end. That last word is evaluated where it is found, with no stack
    entry; the unit's own tuple, a tree on `first` = n - l + 1 vertices
    followed by ones, is such a last word, and so is the cycle's.

    Each tuple's Kf is the integer N = l * Kf that `kf_from_stats`
    folds. With sizes s_i and prefix sums P_k = s_0 + ... + s_k, the pairs
    i < j sum s_i s_j (j - i) to sum_k P_k (n - P_k), and s_i s_j (j - i)^2
    to n sum_i i^2 s_i - (sum_i i s_i)^2, so
    N = l (sum_i term_i + sum_k P_k (n - P_k)) - n sum_i i^2 s_i
    + (sum_i i s_i)^2. Write s_i = 1 + e_i: the cycle alone gives each sum
    a closed form, and a word whose tree at position t has e extra
    vertices, Q of them up to it, and whose run is j adds l (term +
    Q (j + 1) (n - Q - 2t - j - 2)) - n t^2 e to the first part and t e to
    sum_i i s_i. Every stack entry carries both over its prefix, so a
    tuple costs a few additions, whatever its runs. In exact-delta runs an
    entry also carries whether its prefix holds a tree of degree delta (a
    hub): a prefix without one takes only hubs once no later tree can be
    as large as the least hub, which its last word always is.
    """
    codes, by_size, hubs, hubs_by_size, terms = alphabet
    one = len(codes) - 1  # the rank of b"()"
    if first == 1 and n > l:  # a tuple that starts with a one is the cycle
        return
    hub_size = 0 if hubs is None else next((k for k, rs in enumerate(hubs_by_size) if rs), n + 1)
    a = [one] * l
    # the words placed: their trees' positions, their keys and reversed keys
    at: list[int] = []
    words: list[int] = []
    back: list[int] = []

    # (word index, its tree's position, rank, run, period of the words up
    #  to it, extra vertices left after it, l * (sum of terms + sum_k P_k
    #  (n - P_k)) - n sum_i i^2 s_i and sum_i i s_i up to it, whether it
    #  holds a tree of degree delta); the first entry is the empty prefix
    stack = [(-1, 0, one, -1, 1, n - l,
              l * (n * l * (l + 1) // 2 - l * (l + 1) * (2 * l + 1) // 6)
              - n * (l - 1) * l * (2 * l - 1) // 6, l * (l - 1) // 2, hubs is None)]
    while stack:
        c, t, r, j, p, e, num, s1, hub = stack.pop()
        if c >= 0:
            for x in at[c + 1:]:  # the trees of the branch walked before
                a[x] = one
            del at[c:], words[c:], back[c:]
            a[t] = r
            at.append(t)
            words.append(r * l + j)
            back.append(r * l + words[c - 1] % l if c else 0)  # back[0] needs the last run
        t += j + 1  # the next word's tree
        c += 1
        left = l - t  # the positions from it on
        low = low_run = -1
        need = 0
        if c:
            low, low_run = divmod(words[c - p], l)  # the key a period back
            # the reversal read from the first tree meets the last run where
            # the tuple has its first run, and where it has its second when
            # the second tree is the first's, so the last run is no shorter
            first_rank, need = divmod(words[0], l)
            if c > 1 and words[1] // l == first_rank:
                need = words[1] % l
        for k in range(2, e + 2) if c else (first,):
            last = k == e + 1  # the word that takes the last extra vertex
            ranks = by_size[k] if hub or (not last and e - k + 2 >= hub_size) else hubs_by_size[k]
            i = bisect_left(ranks, low)
            if i == len(ranks):
                continue
            q = n - l - e + k - 1  # the extra vertices up to this word
            cut = num - n * t * t * (k - 1)
            c1 = s1 + t * (k - 1)
            if last:
                run = left - 1
                base = cut - l * q * left * (t + 1) + c1 * c1
                order = 1
                if c:
                    words.append(0)
                    back.append(0)
                    back[0] = words[0] - words[0] % l + run
                    order = _reversal_order(words, back, c)
                for r in ranks[i:] if order >= 0 else ():
                    # past the key a period back, the words are aperiodic, and
                    # with no tie in the reversal before the last tree, canonical
                    if c and (r == low or not order):
                        key = words[c] = r * l + run
                        back[c] = r * l + words[c - 1] % l
                        if key < words[c - p] or key == words[c - p] and (c + 1) % p \
                                or _reversal_order(words, back, c + 1) < 0:
                            continue
                    a[t] = r
                    keep(a, base + l * terms[r])
                a[t] = one
                if c:
                    words.pop()
                    back.pop()
                continue
            # each run leaves a position for a later word, and the last no fewer than `need`
            cuts = [cut + l * q * (run + 1) * (n - q - 2 * t - run - 2)
                    for run in range(left - 1 - need)]
            # runs shorter than the one a period back take only greater trees
            for run in range(low_run if ranks[-1] == low else 0, len(cuts)):
                lo = i
                if ranks[i] == low and run <= low_run:
                    lo += 1
                    if run == low_run:  # the key a period back keeps the period
                        stack.append((c, t, low, run, p, e - k + 1, cuts[run] + l * terms[low], c1,
                                      hub or low in hubs))
                stack += [(c, t, r, run, c + 1, e - k + 1, cuts[run] + l * terms[r], c1, hub or r in hubs)
                          for r in ranks[lo:]]


def _units(n: int, ls: range) -> list[tuple[int, int]]:
    """Work units (l, size of the first tree of the canonical tuple)."""
    return [(l, first) for l in ls for first in range(1, n - l + 2)]


def unicyclic_rows(
    n: int,
    delta: int | None = None,
    l_filter: int | None = None,
    exact: bool = True,
    cap: int = DEFAULT_CAP,
) -> Iterator[Row]:
    """Yield a (code, l, shapes, N = l * Kf) row per isomorphism class of
    connected unicyclic graphs on n vertices (max degree exactly `delta`
    when given, or at most `delta` with exact=False), one work unit's rows
    at a time, in unit order and unsorted; the shapes are the class's
    canonical tuple, and `unicyclic.graph_from_shapes` builds its graph.
    A run past `cap`, as `class_count` rules, raises CapExceededError
    before any alphabet is built, and one within it builds its alphabet
    once."""
    class_count(n, delta, exact, l_filter, cap)
    ls = _cycle_lengths(n, delta, exact, l_filter)
    if not ls:
        return
    alphabet = _alphabet(n, delta, exact, n - ls[0] + 1, None)
    codes = alphabet[0]

    def keep(a: list[int], num: int) -> None:
        shapes = tuple(map(codes.__getitem__, a))
        rows.append((b"%d:" % l + b"".join(shapes), l, shapes, num))

    for l, first in _units(n, ls):
        rows: list[Row] = []
        _unit(n, l, first, alphabet, keep)
        yield from rows


class Extremes(NamedTuple):
    """A class count, the least or greatest Kf over those classes, and the
    sorted codes reaching it (None and [] when there is no class)."""

    count: int
    value: Fraction | None
    codes: list[str]


def unicyclic_extremes(
    n: int,
    delta: int | None = None,
    l_filter: int | None = None,
    exact: bool = True,
    cap: int = DEFAULT_CAP,
    *,
    objective: str,
) -> Extremes:
    """The class count and the least (objective "min") or greatest ("max")
    Kf of the classes `unicyclic_rows` would yield, with their codes.

    The count is `class_count`'s, which meets `cap`. The extreme comes
    from the work units walked, in this process, over the alphabet of the
    trees of the objective's extreme term per size: with its cycle length
    and tree sizes fixed, a class's N = l * Kf is l times the sum of its
    trees' terms plus a function of the sizes alone, so a class of least N
    holds only trees of least term for their sizes, bar one hub of least
    term among hubs where the degree must be exactly `delta`, and a class
    of greatest N likewise. A tuple is canonical or not whatever the
    alphabet, so the units over that sub-alphabet generate exactly the
    classes all of whose trees are in it, every extreme class among them.
    The run builds that alphabet once, keeps each unit's extreme N with
    the tuples reaching it, and compares units as Kf = N / l.
    """
    if objective not in ("min", "max"):
        raise ParameterError(f"objective must be 'min' or 'max', got {objective!r}")
    count = class_count(n, delta, exact, l_filter, cap)
    low = objective == "min"
    ls = _cycle_lengths(n, delta, exact, l_filter)
    alphabet = _alphabet(n, delta, exact, n - ls[0] + 1, objective) if ls else None

    def keep(a: list[int], num: int) -> None:
        nonlocal best, reaching
        if num == best:
            reaching.append(a[:])
        elif best is None or (num < best) == low:
            best, reaching = num, [a[:]]

    value = None
    codes: list[bytes] = []
    for l, first in _units(n, ls):
        best, reaching = None, []  # the unit's extreme N and the tuples reaching it
        _unit(n, l, first, alphabet, keep)
        if best is None:
            continue
        kf = Fraction(best, l)
        found = [b"%d:" % l + b"".join(map(alphabet[0].__getitem__, a)) for a in reaching]
        if kf == value:
            codes += found
        elif value is None or (kf < value) == low:
            value, codes = kf, found
    return Extremes(count, value, sorted(c.decode("ascii") for c in codes))


# ---------------------------------------------------------------------------
# size: the one class count that every enumeration is checked against

def _cycle_lengths(n: int, delta: int | None, exact: bool, l_filter: int | None) -> range:
    """The cycle lengths a run enumerates, in increasing order."""
    # under delta = 2 every hanging tree is the one-vertex tree, so l = n;
    # a hub on the cycle needs delta - 2 tree vertices and one off it
    # delta + 1, so no class of max degree exactly delta has l > n - delta + 2
    l_min = 3 if delta is None or delta > 2 else n if delta == 2 else n + 1
    l_max = min(n, n - delta + 2) if delta is not None and exact else n
    if l_filter is not None:
        l_min, l_max = max(l_min, l_filter), min(l_max, l_filter)
    return range(max(3, l_min), l_max + 1)


def _tree_counts(delta: int | None):
    """Yield (planted, hanging) for k = 1, 2, ...: the rooted trees on k
    vertices whose every vertex has at most delta - 1 children, and those
    of them whose root has at most delta - 2, the trees that `_alphabet`
    hangs from a cycle vertex (no bound without delta).

    Both are a root over a multiset of planted trees, and the multisets of
    j planted trees, f_j = Z(S_j; A), satisfy j f_j(z) = sum_{i=1..j}
    A(z^i) f_{j-i}(z) (Harary & Palmer, *Graphical Enumeration*, ch. 3).
    Column k of f needs A up to z^k only, so the series grow one size at a
    time, and f never has more than min(k, delta - 1) + 1 rows.
    """
    c = None if delta is None else delta - 1
    a = [0]  # a[k]: planted trees on k vertices
    f = [[1]]  # f[j][s]: multisets of j planted trees on s vertices in all
    k = 0
    while True:
        k += 1
        a.append(sum(row[k - 1] for row in f))
        yield a[k], a[k] - (f[c][k - 1] if c is not None and c < len(f) else 0)
        f[0].append(0)
        if c is None or k <= c:
            f.append([0] * k)
        for j in range(1, len(f)):
            f[j].append(sum(a[t] * f[j - i][k - i * t]
                            for i in range(1, j + 1) for t in range(1, k // i + 1)) // j)


def _power(q: list[int], j: int, deg: int) -> list[int]:
    """Q^j up to z^deg, for a series with q[0] = 1 (J. C. P. Miller's
    recurrence k p_k = sum_i ((j + 1) i - k) q_i p_{k-i}; each division is
    exact)."""
    p = [1] + [0] * deg
    for k in range(1, deg + 1):
        p[k] = sum(((j + 1) * i - k) * q[i] * p[k - i] for i in range(1, k + 1)) // k
    return p


def _divisor_totients(l: int) -> list[tuple[int, int]]:
    """(d, phi(d)) for every divisor d of l, from l's prime factors found by
    trial division up to sqrt(l)."""
    pairs, p = [(1, 1)], 2
    while l > 1:
        p = p if p * p <= l else l  # past sqrt(l), what is left is prime
        powers = [(1, 1)]  # (p^k, phi(p^k))
        while l % p == 0:
            l //= p
            powers.append((powers[-1][0] * p, powers[-1][0] * (p - 1)))
        if len(powers) > 1:
            pairs = [(d * q, phi * u) for d, phi in pairs for q, u in powers]
        p += 1
    return pairs


def _cycle_index_count(n: int, ls: range, h: list[int]) -> int:
    """The coefficient of z^n in Z(D_l) with x_k = H(z^k), summed over the
    cycle lengths l in ls, for a hanging-tree series h = [0, h_1, ...] up to
    z^(n - ls[0] + 1).

    Every term of Z(D_l) is z^l times a product of Q(z^k) = H(z^k) / z^k,
    so only degrees up to n - l are needed.
    """
    q = h[1:]
    total = 0
    for l in ls:
        m = n - l

        def x(a: list[int], k: int, j: int) -> int:  # [z^m] of a(z) Q(z^k)^j
            p = _power(q, j, m // k)
            return sum(a[m - k * i] * p[i] for i in range(m // k + 1) if m - k * i < len(a))

        # 4l Z(D_l): rotations give 2 sum_{d | l} phi(d) x_d^(l/d); reflections
        # give 2l x_1 x_2^((l-1)/2) for odd l, l (x_2^(l/2) + x_1^2 x_2^(l/2-1)) for even l
        scaled = 2 * sum(phi * x([1], d, l // d) for d, phi in _divisor_totients(l))
        if l % 2:
            scaled += 2 * l * x(q, 2, l // 2)
        else:
            scaled += l * (x([1], 2, l // 2) + x(_power(q, 2, m), 2, l // 2 - 1))
        total += scaled // (4 * l)
    return total


def class_count(
    n: int,
    delta: int | None = None,
    exact: bool = True,
    l_filter: int | None = None,
    cap: int | None = None,
) -> int:
    """The number of classes `unicyclic_rows` yields: unicyclic graphs on n
    vertices with max degree exactly `delta` (at most `delta` with
    exact=False, any without `delta`), on an `l_filter` cycle when given.

    Max degree at most delta on an l-cycle is the coefficient of z^n in the
    dihedral cycle index Z(D_l) with x_k = H(z^k), H the series of the
    hanging trees under delta (`_tree_counts`); exactly delta is at most
    delta less at most delta - 1.

    With `cap`, the count returned is exact: a run known to pass the cap
    raises CapExceededError at once. With l the shortest cycle and
    top = n - l + 1, each tree on k <= top vertices that may hang from a
    cycle vertex is a class of its own, with the other tree vertices as a
    path hung next to it; for exactly delta so is each planted tree on
    k <= top - delta + 2 vertices under a root with delta - 3 more leaves.
    An exactly-delta run is also refused when its hanging trees on a
    larger k pass the cap, the alphabet-size guard: its row-run alphabet
    would hold them all, and its count could take series as long as its
    largest tree.
    Each of those trees is a class without delta, so the run had more than
    `cap` classes by that count too.
    """
    ls = _cycle_lengths(n, delta, exact, l_filter)
    total = len(ls)  # no cycle length, or under delta < 3 the n-cycle alone
    if total and (delta is None or delta > 2):
        top = n - ls[0] + 1
        hub = delta is not None and exact
        h = [0]
        for k, (planted, hanging) in zip(range(1, top + 1), _tree_counts(delta)):
            h.append(hanging)
            own = not hub or k <= top - delta + 2  # these trees are classes of their own
            if cap is not None and (planted if hub and own else hanging) > cap:
                raise CapExceededError(f"more than {cap} " + (
                    "isomorphism classes" if own else f"rooted trees on {k} vertices"))
        total = _cycle_index_count(n, ls, h)
        if hub:
            below = [0, *(hanging for _, hanging in islice(_tree_counts(delta - 1), top))]
            total -= _cycle_index_count(n, ls, below)
    if cap is not None and total > cap:
        raise CapExceededError(f"more than {cap} isomorphism classes")
    return total
