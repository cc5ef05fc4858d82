"""The suites that check the paper's claims against the enumeration in
`kfx.search`: the theorem's maximiser (`verify_theorem`), the conjectured
minimisers (`probe_conjecture`), the supporting lemmas
(`check_lemma_properties`) and the structural engine against the
determinant oracle (`engine_equivalence_suite`). Mismatches are reported,
never suppressed. Each suite imports the layers it runs, so `conjecture`
loads no graph, catalog or Kf engine module.
"""
from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import DEFAULT_CAP, CapExceededError, ParameterError
from .search import unicyclic_extremes, unicyclic_rows

if TYPE_CHECKING:  # the annotations' names; each suite imports what it runs
    import random

    from .graph import Graph
    from .unicyclic import Shape, ShapeRecord


# ---------------------------------------------------------------------------
# graphs the suites check

def random_unicyclic(n: int, rng: random.Random) -> Graph:
    """Random connected unicyclic graph: Pruefer tree plus one extra edge."""
    import heapq
    from itertools import combinations

    from .graph import Graph

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
# reports

def _rat(value: Fraction | None) -> str | None:
    if value is None:
        return None
    return f"{value.numerator}/{value.denominator}"


class ExtremalReport(NamedTuple):
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
    notes: list[str]
    branch: str | None = None
    expected_code: str | None = None

    def to_dict(self) -> dict:
        """The JSON payload: rationals as "p/q", and a null `l_filter`, since
        the suites range over every cycle length."""
        return self._asdict() | {
            "l_filter": None,
            "extremal_value": _rat(self.extremal_value),
            "formula_value": _rat(self.formula_value),
        }


def verify_theorem(n: int, delta: int, cap: int = DEFAULT_CAP) -> ExtremalReport:
    """Check that the Kf maximum over unicyclic graphs with max degree
    exactly `delta` (cycle lengths satisfying n >= l+delta-2) equals the
    closed-form bound, attained uniquely by the triangle extremal graph.

    The maximiser's canonical code is written from its trees: vertex 0 of
    the triangle carries a path on n - delta vertices and delta - 3
    pendants, and the other two are bare. Runs past the enumeration cap
    compare the bound with the Kf folded from those trees' numbers instead
    (formula-only mode): the path's, hung under vertex 0, then each
    pendant's. That builds no graph and reads no code."""
    from .formulas import theorem_bound
    from .unicyclic import merge_stats, path_shape

    bound = theorem_bound(n, delta)  # raises ParameterError outside its range
    shapes = (b"(" + path_shape(n - delta) + b"()" * (delta - 3) + b")", b"()", b"()")
    expected_code = "3:" + b"".join(shapes).decode("ascii")
    notes: list[str] = []
    try:
        found = unicyclic_extremes(n, delta, cap=cap, objective="max")
    except CapExceededError:
        from .metrics import kf_from_stats

        k = n - delta  # the path's size, root depth sum and Wiener index, as in `_path_gain`
        hub = merge_stats(1, 0, 0, k, k * (k - 1) // 2, (k**3 - k) // 6)
        for _ in range(delta - 3):
            hub = merge_stats(*hub, 1, 0, 0)
        best = kf_from_stats(3, [hub, (1, 0, 0), (1, 0, 0)])
        mode, count, arg = "formula-only", 1, [expected_code]
        notes.append("parameter space beyond the enumeration cap; compared the"
                     " constructed extremal graph against the closed-form bound")
    else:
        mode, count, best, arg = "enumerated", found.count, found.value, found.codes
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


def probe_conjecture(n: int, delta: int, cap: int = DEFAULT_CAP) -> ExtremalReport:
    """Brute-force minimum Kf over unicyclic graphs with max degree
    exactly `delta`, compared against the conjectured closed form.
    Mismatches are reported, never suppressed."""
    from .formulas import conj_ii_x_range, conj_min_formula_i, conj_min_formula_ii

    if delta < 3 or n < delta + 1:
        raise ParameterError(f"need delta >= 3 and n >= delta+1, got n={n}, delta={delta}")
    count, best, arg = unicyclic_extremes(n, delta, cap=cap, objective="min")
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
        graph_count=count,
        extremal_value=best,
        argext_codes=arg,
        formula_value=formula,
        verdict=verdict,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# lemma property suite

def _pendant_tadpoles(n: int, l: int, delta: int):
    """Yield each distinct member of the pendant-tadpole family
    `make_p_family_member(n, l, delta, hub_pos)`, for n >= l + delta - 2,
    in hub position order from the cycle junction, hub_pos = 0.

    The last position, max_pos = n - l - delta + 2, is left out: for
    max_pos >= 2 it builds the same graph as max_pos - 1 (the tail's last
    vertex is one more pendant of the hub), and for max_pos = 1 the degree
    is unreachable there.
    """
    from .families import make_p_family_member

    for hub_pos in range(max(n - l - delta + 2, 1)):
        yield make_p_family_member(n, l, delta, hub_pos)


def _path_gain(n: int, record: ShapeRecord) -> int:
    """What a hanging tree with this catalog record, in a graph on n vertices,
    adds to Kf when replaced by a path rooted at one end. Only its term of
    `kf_from_stats` changes: W + (n - s) D becomes (s^3 - s)/6 + (n - s) s(s - 1)/2."""
    s, d, w, _, _ = record
    return (s**3 - s) // 6 + (n - s) * (s * (s - 1) // 2 - d) - w


def check_lemma_properties(
    n_max: int,
    tree_n_max: int = 11,
    cap: int = DEFAULT_CAP,
) -> dict:
    """Empirical sweep of the structural lemmas over all enumerable
    instances up to n_max (unicyclic) and tree_n_max (trees).

    Each n's rows are folded as they stream in, keeping only the greatest
    Kf and its codes per (max degree, l) and the violations, sorted by code
    within each n; each pendant tadpole is built and decomposed once.
    Returns a report dict; `ok` is True iff no lemma saw a violation.
    """
    from .families import make_t_n_delta
    from .formulas import wiener_broom_formula
    from .graph import orient
    from .metrics import kirchhoff_index
    from .unicyclic import (
        canonical_code,
        decompose_unicyclic,
        hanging_degree,
        path_shape,
        rooted_shapes,
        shape_record,
        tree_code,
    )

    path: dict = {"checked": 0, "violations": [], "non_strict_changes": 0}
    tadpole: dict = {"checked": 0, "violations": []}
    hub: dict = {"checked": 0, "violations": [], "ties": 0}
    for n in range(4, n_max + 1):
        # path replacement of non-hub trees never decreases Kf
        trees: dict[Shape, tuple[int, int, bool]] = {}  # degree, `_path_gain`, not a path
        greatest: dict[tuple[int, int], tuple[int, set[bytes]]] = {}  # greatest l Kf, its codes
        violations: list[str] = []
        for code, l, shapes, num in unicyclic_rows(n, cap=cap):
            for s in shapes:
                if s not in trees:
                    rec = shape_record(s)
                    trees[s] = (hanging_degree(rec), _path_gain(n, rec), s != path_shape(rec[0]))
            degrees, gains, bent = zip(*map(trees.__getitem__, shapes))
            key, total = (max(degrees), l), sum(gains)
            if key not in greatest or num > greatest[key][0]:
                greatest[key] = (num, {code})
            elif num == greatest[key][0]:
                greatest[key][1].add(code)
            for degree, gain, not_path in zip(degrees, gains, bent):  # keep this tree only
                if degree != key[0]:
                    continue
                path["checked"] += 1
                if total < gain:
                    violations.append(code.decode("ascii"))
                elif total == gain and sum(bent) > not_path:
                    path["non_strict_changes"] += 1
        path["violations"] += sorted(violations)

        for delta in range(3, n):
            for l in range(3, n - delta + 3):
                codes, values = set(), []
                for g in _pendant_tadpoles(n, l, delta):
                    u = decompose_unicyclic(g)
                    codes.add(canonical_code(u))
                    values.append(kirchhoff_index(u))
                # within each (n, l, delta) class, every Kf maximizer has
                # its pendants on a single tail vertex of the tadpole
                if (delta, l) in greatest:
                    tadpole["checked"] += 1
                    if not greatest[delta, l][1] <= codes:
                        tadpole["violations"].append(f"n={n} l={l} delta={delta}")
                # within the pendant-tadpole family, Kf is maximized with
                # the hub on the cycle junction
                if len(values) < 2:
                    continue
                hub["checked"] += 1
                best = max(values)
                if values[0] < best:
                    hub["violations"].append(f"n={n} l={l} delta={delta}")
                elif values.count(best) > 1:
                    hub["ties"] += 1

    # among trees with max degree exactly delta, Wiener is uniquely
    # maximized by the broom; a rooted tree's W and max degree do not depend
    # on its root, so the rooted trees reaching the free trees' greatest W
    # are the broom's rootings iff the broom alone reaches it
    broom: dict = {"checked": 0, "violations": []}
    for n in range(4, tree_n_max + 1):
        top: dict[int, tuple[int, list[Shape]]] = {}  # max degree -> (greatest W, shapes)
        for shape, (_, _, wien, root, inner) in rooted_shapes(n).items():
            deg = max(root, inner)
            if deg not in top or wien > top[deg][0]:
                top[deg] = (wien, [shape])
            elif wien == top[deg][0]:
                top[deg][1].append(shape)
        for delta in (d for d in range(3, n) if d in top):
            wien, shapes = top[delta]
            g = make_t_n_delta(n, delta)
            rootings = {tree_code(orient(g.adj, v, [False] * n)[1]) for v in range(n)}
            broom["checked"] += 1
            if wien != wiener_broom_formula(n, delta) or set(shapes) != rootings:
                broom["violations"].append(f"n={n} delta={delta}")

    report = {
        "path_replacement": path,
        "maximizer_in_pendant_tadpoles": tadpole,
        "wiener_broom_maximizer": broom,
        "hub_on_cycle_maximizes": hub,
    }
    report["ok"] = not any(section["violations"] for section in report.values())
    return report


# ---------------------------------------------------------------------------
# engine cross-validation

def engine_equivalence_suite(n_max: int, samples: int, seed: int, cap: int = DEFAULT_CAP) -> dict:
    """Structural vs determinant-oracle resistances on every pair, and
    decomposition-formula Kf vs the pairwise sum; exhaustive over all
    classes up to n_max plus seeded random unicyclic graphs at n = 9..12.

    Each pair compares the integer numerators l R (structural, l the cycle
    length) and tau R (oracle, tau the spanning-tree count) by
    cross-multiplication, and Kf times tau is compared with the sum of the
    tau R: exact, with one fraction per graph, and tau = l is not assumed."""
    import random
    from itertools import combinations

    from .metrics import engine_input, kirchhoff_index, resistance_numerator
    from .unicyclic import decompose_unicyclic, graph_from_shapes

    checked_pairs = 0
    graphs = 0
    mismatches: list[str] = []

    def check(g: Graph, label: str) -> None:
        nonlocal checked_pairs, graphs
        graphs += 1
        u = decompose_unicyclic(g)
        oracle = engine_input(g, "oracle")
        total = 0
        ok = True
        at = [((i, k), v) for i, nodes in enumerate(u.tree_nodes) for k, v in enumerate(nodes)]
        for (pa, a), (pb, b) in combinations(at, 2):
            ro = oracle.numerator(a, b)
            checked_pairs += 1
            if resistance_numerator(u, pa, pb) * oracle.tau != ro * u.l:
                ok = False
            total += ro
        if kirchhoff_index(u) * oracle.tau != total:
            ok = False
        if not ok:
            mismatches.append(label)

    for n in range(3, n_max + 1):
        first = len(mismatches)
        for code, l, shapes, _ in unicyclic_rows(n, cap=cap):
            check(graph_from_shapes(l, shapes), f"n={n} {code.decode('ascii')}")
        mismatches[first:] = sorted(mismatches[first:])  # by code, as the report lists them
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
