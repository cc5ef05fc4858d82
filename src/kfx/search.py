"""Isomorphism-free enumeration of unicyclic graphs and trees, plus the
extremal verification and conjecture-probing machinery built on it.

Enumeration works directly in decomposition space: for each cycle length
l, every l-tuple of rooted-tree shapes with sizes summing to n is
assembled and deduplicated by canonical code. The space partitions into
independent work units by (l, size composition), which is also the
multiprocessing boundary; merged results are deterministic regardless of
worker count.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from multiprocessing import Pool

from .errors import CapExceededError, ParameterError
from .families import make_p3_extremal, make_p_family_member, make_t_n_delta
from .formulas import (
    conj_ii_x_range,
    conj_min_formula_i,
    conj_min_formula_ii,
    theorem_bound,
    wiener_broom_formula,
)
from .graph import Graph, max_degree, wiener
from .metrics import kf_from_shapes, kirchhoff_index
from .unicyclic import (
    Shape,
    UnicyclicRepr,
    canonical_code,
    canonical_code_from_shapes,
    decompose_unicyclic,
    path_shape,
    rooted_shapes,
    shape_degrees,
    shape_size,
    tree_canonical_code,
    unicyclic_from_shapes,
)

DEFAULT_CAP = 5_000_000

ClassMap = dict[bytes, tuple[int, tuple[Shape, ...]]]


# ---------------------------------------------------------------------------
# enumeration

def _compositions(total: int, parts: int):
    """Ordered compositions of `total` into `parts` positive parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _admissible_shapes(size: int, delta: int | None) -> tuple[Shape, ...]:
    """Rooted shapes usable as a hanging tree under a max-degree bound.

    The root sits on the cycle, so its graph degree is child count + 2.
    """
    shapes = rooted_shapes(size)
    if delta is None:
        return shapes
    return tuple(
        s
        for s in shapes
        if (d := shape_degrees(s))[0] + 2 <= delta and d[1] <= delta
    )


def _tuple_max_degree(shapes: tuple[Shape, ...]) -> int:
    best = 2
    for s in shapes:
        root, inner = shape_degrees(s)
        best = max(best, root + 2, inner)
    return best


def _unit_classes(args) -> ClassMap:
    """All isomorphism classes arising from one (n, l, composition) unit."""
    l, comp, delta, exact = args
    pools = [_admissible_shapes(size, delta) for size in comp]
    found: ClassMap = {}
    for shapes in product(*pools):
        if delta is not None and exact and _tuple_max_degree(shapes) != delta:
            continue
        code = canonical_code_from_shapes(l, shapes)
        if code not in found:
            found[code] = (l, shapes)
    return found


def _units(n: int, l_filter: int | None):
    ls = [l_filter] if l_filter is not None else range(3, n + 1)
    for l in ls:
        if not 3 <= l <= n:
            continue
        for comp in _compositions(n, l):
            yield (l, comp)


def unicyclic_classes(
    n: int,
    delta: int | None = None,
    l_filter: int | None = None,
    exact: bool = True,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> ClassMap:
    """One (l, shapes) representative per isomorphism class, keyed and
    sorted by canonical code."""
    if n < 3:
        return {}
    args = [(l, comp, delta, exact) for l, comp in _units(n, l_filter)]
    merged: ClassMap = {}
    if workers > 1 and len(args) > 1:
        with Pool(workers) as pool:
            partials = pool.map(_unit_classes, args, chunksize=max(1, len(args) // (4 * workers)))
    else:
        partials = map(_unit_classes, args)
    for part in partials:
        merged.update(part)
        if len(merged) > cap:
            raise CapExceededError(f"more than {cap} isomorphism classes")
    return dict(sorted(merged.items()))


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
    edges = []
    counter = 1
    stack = [(0, shape)]
    while stack:
        v, s = stack.pop()
        for child in s:
            edges.append((v, counter))
            stack.append((counter, child))
            counter += 1
    return Graph(counter, edges)


def tree_classes(n: int, delta: int | None = None, exact: bool = True) -> dict[bytes, Graph]:
    """One representative per isomorphism class of free trees on n vertices."""
    if n < 1:
        return {}
    found: dict[bytes, Graph] = {}
    for shape in rooted_shapes(n):
        root, inner = shape_degrees(shape)
        deg = max(len(shape), inner)
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
# size estimation, for the enumerate-vs-formula-only decision

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


def estimated_tuple_count(n: int, l_max: int | None = None, cap: int | None = None) -> int:
    """Upper bound on enumeration work: labeled-position shape tuples.

    Sums the coefficient of z^n in R(z)^l over cycle lengths l, where R
    generates rooted trees by size. Stops early once `cap` is exceeded.
    """
    top = n if l_max is None else min(l_max, n)
    if cap is not None and top >= 3:
        # r[k] does not decrease with k, and the triangles with trees of
        # sizes (n-2, 1, 1) alone give r[n-2] tuples: an r[k] past the cap
        # at some k <= n-2 settles the answer without the O(n^3) count
        r = _rooted_tree_counts(n - 2, cap)
        if r[-1] > cap:
            return r[-1]
    r = _rooted_tree_counts(n)
    conv = [0] * (n + 1)
    conv[0] = 1
    total = 0
    for l in range(1, top + 1):
        nxt = [0] * (n + 1)
        for i in range(n):
            if conv[i]:
                ci = conv[i]
                for k in range(1, n - i + 1):
                    if r[k]:
                        nxt[i + k] += ci * r[k]
        conv = nxt
        if l >= 3:
            total += conv[n]
            if cap is not None and total > cap:
                return total
    return total


# ---------------------------------------------------------------------------
# reports

def _rat(value: Fraction | None) -> str | None:
    if value is None:
        return None
    return f"{value.numerator}/{value.denominator}"


@dataclass
class ExtremalReport:
    """Outcome of one exhaustive extremal run, or a formula-only fallback."""

    kind: str
    n: int
    delta: int
    objective: str
    mode: str  # "enumerated" | "formula-only"
    graph_count: int
    extremal_value: Fraction | None
    argext_codes: list[str]
    formula_value: Fraction | None
    verdict: str  # "match" | "mismatch" | "not-applicable"
    l_filter: int | None = None
    branch: str | None = None
    expected_code: str | None = None
    notes: list[str] = field(default_factory=list)

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
    closed-form bound, attained uniquely by the triangle extremal graph."""
    if delta < 3 or n < delta + 1:
        raise ParameterError(f"need delta >= 3 and n >= delta+1, got n={n}, delta={delta}")
    bound = theorem_bound(n, delta)
    extremal = make_p3_extremal(n, delta)
    expected_code = canonical_code(decompose_unicyclic(extremal)).decode("ascii")
    l_max = n - delta + 2
    if estimated_tuple_count(n, cap=cap) > cap:
        kf = kirchhoff_index(extremal, "structural")
        verdict = "match" if kf == bound else "mismatch"
        return ExtremalReport(
            kind="theorem",
            n=n,
            delta=delta,
            objective="max",
            mode="formula-only",
            graph_count=1,
            extremal_value=kf,
            argext_codes=[expected_code],
            formula_value=bound,
            verdict=verdict,
            expected_code=expected_code,
            notes=["parameter space beyond the enumeration cap; compared the"
                   " constructed extremal graph against the closed-form bound"],
        )
    classes = unicyclic_classes(n, delta, cap=cap, workers=workers)
    in_scope = {c: v for c, v in classes.items() if v[0] <= l_max}
    best: Fraction | None = None
    arg: list[str] = []
    for code, (l, shapes) in in_scope.items():
        kf = kf_from_shapes(l, shapes)
        if best is None or kf > best:
            best, arg = kf, [code.decode("ascii")]
        elif kf == best:
            arg.append(code.decode("ascii"))
    notes = []
    for code, (l, shapes) in classes.items():
        if l > l_max and best is not None and kf_from_shapes(l, shapes) > best:
            notes.append(f"out-of-hypothesis graph (l={l}) exceeds the bound: {code.decode('ascii')}")
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
        mode="enumerated",
        graph_count=len(in_scope),
        extremal_value=best,
        argext_codes=sorted(arg),
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
    if estimated_tuple_count(n, cap=cap) > cap:
        raise CapExceededError(f"estimated enumeration size exceeds cap {cap}")
    classes = unicyclic_classes(n, delta, cap=cap, workers=workers)
    best: Fraction | None = None
    arg: list[str] = []
    for code, (l, shapes) in classes.items():
        kf = kf_from_shapes(l, shapes)
        if best is None or kf < best:
            best, arg = kf, [code.decode("ascii")]
        elif kf == best:
            arg.append(code.decode("ascii"))
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
            notes.append(f"brute-force minimum attained by: {', '.join(sorted(arg))}")
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
        graph_count=len(classes),
        extremal_value=best,
        argext_codes=sorted(arg),
        formula_value=formula,
        verdict=verdict,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# lemma property suite

def _hub_candidates(shapes: tuple[Shape, ...]) -> list[int]:
    """Indices of trees containing a vertex of overall maximum degree."""
    overall = _tuple_max_degree(shapes)
    out = []
    for i, s in enumerate(shapes):
        root, inner = shape_degrees(s)
        if max(root + 2, inner) == overall:
            out.append(i)
    return out


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

    # path replacement of non-hub trees never decreases Kf
    checked = 0
    violations: list[str] = []
    non_strict = 0
    for n in range(4, n_max + 1):
        for code, (l, shapes) in unicyclic_classes(n, cap=cap, workers=workers).items():
            kf = kf_from_shapes(l, shapes)
            for h in _hub_candidates(shapes):
                replaced = tuple(
                    s if i == h else path_shape(shape_size(s)) for i, s in enumerate(shapes)
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
                classes = unicyclic_classes(n, delta, l_filter=l, cap=cap, workers=workers)
                if not classes:
                    continue
                members = set()
                for hub_pos in range(0, n - l - delta + 3):
                    try:
                        g = make_p_family_member(n, l, delta, hub_pos)
                    except ParameterError:
                        continue
                    members.add(canonical_code(decompose_unicyclic(g)))
                if not members:
                    continue
                best = max(kf_from_shapes(cl, cs) for cl, cs in classes.values())
                argmax = {
                    code
                    for code, (cl, cs) in classes.items()
                    if kf_from_shapes(cl, cs) == best
                }
                checked += 1
                if not argmax <= members:
                    violations.append(f"n={n} l={l} delta={delta}")
    report["maximizer_in_pendant_tadpoles"] = {"checked": checked, "violations": violations}

    # among trees with max degree exactly delta, Wiener is uniquely
    # maximized by the broom
    checked = 0
    violations = []
    for n in range(4, tree_n_max + 1):
        for delta in range(3, n):
            trees = tree_classes(n, delta)
            if not trees:
                continue
            broom = make_t_n_delta(n, delta)
            broom_code = tree_canonical_code(broom)
            target = wiener_broom_formula(n, delta)
            best = max(wiener(t) for t in trees.values())
            argmax = {c for c, t in trees.items() if wiener(t) == best}
            checked += 1
            if best != target or argmax != {broom_code}:
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
                values = {}
                for hub_pos in range(0, n - l - delta + 3):
                    try:
                        g = make_p_family_member(n, l, delta, hub_pos)
                    except ParameterError:
                        continue
                    values[hub_pos] = kirchhoff_index(g, "structural")
                if len(values) < 2 or 0 not in values:
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

def engine_equivalence_suite(n_max: int, samples: int, seed: int) -> dict:
    """Structural vs determinant-oracle resistances on every pair, and
    decomposition-formula Kf vs the pairwise sum; exhaustive over all
    classes up to n_max plus seeded random unicyclic graphs at n = 9..12.
    All comparisons are exact."""
    from .metrics import kf_decomposition, resistance_oracle, resistance_structural

    checked_pairs = 0
    graphs = 0
    mismatches: list[str] = []

    def check(g: Graph, label: str) -> None:
        nonlocal checked_pairs, graphs
        graphs += 1
        u = decompose_unicyclic(g)
        total = Fraction(0)
        ok = True
        for a, b in combinations(sorted(u.tree_index), 2):
            ro = resistance_oracle(g, a, b)
            checked_pairs += 1
            if resistance_structural(u, a, b) != ro:
                ok = False
            total += ro
        if kf_decomposition(u) != total:
            ok = False
        if not ok:
            mismatches.append(label)

    for n in range(3, n_max + 1):
        for code, (l, shapes) in unicyclic_classes(n).items():
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
