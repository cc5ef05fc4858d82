import random
from fractions import Fraction
from itertools import islice

import pytest

from kfx.errors import DEFAULT_CAP, CapExceededError, ParameterError
from kfx.families import make_cycle, make_t_n_delta
from kfx.formulas import theorem_bound
from kfx.graph import max_degree
from kfx.search import _tree_counts, class_count, unicyclic_extremes, unicyclic_rows
from kfx.suites import (
    check_lemma_properties,
    engine_equivalence_suite,
    probe_conjecture,
    random_unicyclic,
    verify_theorem,
)
from kfx.unicyclic import UnicyclicRepr, canonical_code, decompose_unicyclic
from oracles import (
    A000081,
    brute_force_unicyclic_codes,
    brute_force_unit,
    graph_key,
    is_tree,
    is_unicyclic,
    tree_canonical_code,
    tree_classes,
    unicyclic_classes,
)

F = Fraction

# unlabeled connected unicyclic graphs on n = 3..8 vertices
UNICYCLIC_COUNTS = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89}


def test_class_counts():
    for n, expected in UNICYCLIC_COUNTS.items():
        assert len(unicyclic_classes(n)) == expected


def test_matches_labeled_brute_force():
    for n in range(3, 7):
        assert set(unicyclic_classes(n)) == brute_force_unicyclic_codes(n)


def test_degree_filters():
    only_c5 = unicyclic_classes(5, delta=2)
    assert set(only_c5) == {canonical_code(decompose_unicyclic(make_cycle(5)))}
    assert len(unicyclic_classes(4)) == 2
    at_most = unicyclic_classes(6, delta=3, exact=False)
    exact = unicyclic_classes(6, delta=3, exact=True)
    assert set(exact) < set(at_most)
    for l, shapes in exact.values():
        from kfx.unicyclic import graph_from_shapes

        g = graph_from_shapes(l, shapes)
        assert max_degree(g) == 3


def test_l_filter():
    triangles_only = unicyclic_classes(6, l_filter=3)
    for l, _ in triangles_only.values():
        assert l == 3
    assert sum(
        len(unicyclic_classes(6, l_filter=l)) for l in range(3, 7)
    ) == UNICYCLIC_COUNTS[6]


def test_enumeration_soundness():
    from kfx.unicyclic import graph_from_shapes

    for code, (l, shapes) in unicyclic_classes(7).items():
        g = graph_from_shapes(l, shapes)
        assert is_unicyclic(g)
        assert canonical_code(decompose_unicyclic(g)) == code


def test_determinism_and_worker_independence():
    a = unicyclic_classes(8)
    b = unicyclic_classes(8)
    assert list(a.items()) == list(b.items())


def test_tree_classes():
    assert len(tree_classes(4)) == 2
    assert len(tree_classes(6)) == 6
    assert len(tree_classes(7)) == 11
    star = tree_classes(7, delta=6)
    assert list(star.values())[0].n == 7
    assert set(star) == {tree_canonical_code(make_t_n_delta(7, 6))}
    for t in tree_classes(8).values():
        assert is_tree(t)


def test_cap_enforced():
    with pytest.raises(CapExceededError):
        unicyclic_classes(8, cap=10)
    with pytest.raises(CapExceededError):
        probe_conjecture(10, 3, cap=5)


def test_random_unicyclic():
    rng = random.Random(42)
    for _ in range(30):
        g = random_unicyclic(rng.randrange(3, 12), rng)
        assert is_unicyclic(g)
    same_seed = [graph_key(random_unicyclic(8, random.Random(7))) for _ in range(2)]
    assert same_seed[0] == same_seed[1]
    with pytest.raises(ParameterError):
        random_unicyclic(2, rng)


def test_verify_theorem_small():
    rep = verify_theorem(5, 3)
    assert rep.verdict == "match"
    assert rep.mode == "enumerated"
    assert rep.extremal_value == theorem_bound(5, 3) == F(44, 3)
    assert rep.argext_codes == [rep.expected_code]
    rep4 = verify_theorem(4, 3)
    assert rep4.verdict == "match" and rep4.graph_count == 1


def test_verify_theorem_formula_only_fallback():
    rep = verify_theorem(100, 96, cap=10_000)
    assert rep.mode == "formula-only"
    assert rep.verdict == "match"
    assert rep.formula_value == F(30925, 3)


def test_verify_theorem_rejects_bad_params():
    with pytest.raises(ParameterError):
        verify_theorem(4, 2)
    with pytest.raises(ParameterError):
        verify_theorem(3, 3)


def test_probe_conjecture_small():
    rep = probe_conjecture(5, 3)
    assert rep.branch == "i" and rep.verdict == "match"
    assert rep.extremal_value == F(23, 2)
    rep4 = probe_conjecture(4, 3)
    assert rep4.verdict == "match" and rep4.extremal_value == F(19, 3)


def test_probe_conjecture_reports_mismatch_with_witnesses():
    rep = probe_conjecture(12, 4)
    assert rep.branch == "ii"
    # brute-force minimum undercuts the conjectured closed form here
    assert rep.verdict == "mismatch"
    assert rep.extremal_value == F(261, 2)
    assert rep.extremal_value < rep.formula_value
    assert rep.argext_codes
    assert any("x=3" in note for note in rep.notes)


def test_report_serialization():
    d = verify_theorem(6, 3).to_dict()
    assert d["verdict"] == "match"
    assert d["extremal_value"].count("/") == 1
    assert isinstance(d["argext_codes"], list)


def test_check_lemma_properties_small():
    report = check_lemma_properties(6, tree_n_max=7)
    assert report["ok"] is True
    for key, section in report.items():
        if key == "ok":
            continue
        assert section["checked"] > 0
        assert section["violations"] == []


def test_path_gain_is_the_kf_change_of_a_path_replacement():
    """The lemma suite's integer gain against a Kf recomputed from the
    replaced shape tuple, for every tree of every class up to n = 10."""
    from kfx.suites import _path_gain
    from kfx.unicyclic import path_shape, shape_record
    from oracles import kf_from_shapes

    for n in range(3, 11):
        for _, l, shapes, num in unicyclic_rows(n):
            for i, s in enumerate(shapes):
                replaced = shapes[:i] + (path_shape(len(s) // 2),) + shapes[i + 1:]
                assert kf_from_shapes(l, replaced) - F(num, l) == _path_gain(n, shape_record(s))


def test_engine_equivalence_suite_small():
    result = engine_equivalence_suite(6, samples=5, seed=123)
    assert result["violations"] == []
    assert result["graphs"] == sum(UNICYCLIC_COUNTS[n] for n in (3, 4, 5, 6)) + 5
    assert result["seed"] == 123


def _suite_with_one_wrong_class(monkeypatch, name, corrupt):
    """Run engine_equivalence_suite(5, 0, 1) with `kfx.metrics.<name>`
    answering corrupt(answer, *args) on one n = 5 class and rightly on the
    others; return that class's label and the suite's violations."""
    import kfx.metrics

    code = sorted(unicyclic_rows(5))[2][0]
    original = getattr(kfx.metrics, name)

    def patched(g, *args):
        answer = original(g, *args)
        u = g if isinstance(g, UnicyclicRepr) else decompose_unicyclic(g)
        return corrupt(answer, *args) if canonical_code(u) == code else answer

    monkeypatch.setattr(kfx.metrics, name, patched)
    return f"n=5 {code.decode('ascii')}", engine_equivalence_suite(5, 0, 1)["violations"]


def test_engine_suite_reports_one_wrong_pair(monkeypatch):
    label, violations = _suite_with_one_wrong_class(
        monkeypatch, "resistance_numerator",
        lambda r, a, b: r + 1 if (a, b) == ((0, 0), (1, 0)) else r)  # (tree, position) pairs
    assert violations == [label]


def test_engine_suite_reports_a_wrong_kirchhoff_index(monkeypatch):
    label, violations = _suite_with_one_wrong_class(
        monkeypatch, "kirchhoff_index", lambda kf: kf + F(1, 5))
    assert violations == [label]


def test_engine_suite_reports_an_oracle_with_a_wrong_tree_count(monkeypatch):
    """tau doubled but A kept halves every oracle resistance, which a check
    assuming tau = l (comparing l R with tau R directly) would miss. Only
    the oracle's input is corrupted: `kirchhoff_index` also calls
    `engine_input`, for the structural engine."""
    label, violations = _suite_with_one_wrong_class(
        monkeypatch, "engine_input",
        lambda adj, engine="auto": adj._replace(tau=2 * adj.tau) if engine == "oracle" else adj)
    assert violations == [label]


# A001429: unlabeled connected unicyclic graphs on n = 3..20 vertices
A001429 = [1, 2, 5, 13, 33, 89, 240, 657, 1806, 5026, 13999, 39260, 110381, 311465,
           880840, 2497405, 7093751, 20187313]


def _closed_form_counts(n: int, l: int) -> int:
    """Unicyclic classes on n vertices with an l-cycle: the coefficient of
    z^n in Z(D_l) with x_k = R(z^k), R the rooted-tree series (Harary &
    Palmer). Computed with integer series, scaled by 4l before dividing."""
    from math import gcd

    r = A000081[: n + 1]

    def mul(a, b):
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai:
                for j in range(n + 1 - i):
                    out[i + j] += ai * b[j]
        return out

    def x(k, power):  # R(z^k) ** power, truncated after z^n
        term = [0] * (n + 1)
        for size in range(1, n // k + 1):
            term[size * k] = r[size]
        out = [1] + [0] * n
        for _ in range(power):
            out = mul(out, term)
        return out

    def phi(d):
        return sum(1 for i in range(1, d + 1) if gcd(i, d) == 1)

    # 4l Z(D_l): rotations give 2 sum_{d | l} phi(d) x_d^(l/d); reflections
    # give 2l x_1 x_2^((l-1)/2) for odd l, l (x_2^(l/2) + x_1^2 x_2^(l/2-1)) for even l
    total = 2 * sum(phi(d) * x(d, l // d)[n] for d in range(1, l + 1) if l % d == 0)
    if l % 2:
        total += 2 * l * mul(x(1, 1), x(2, (l - 1) // 2))[n]
    else:
        total += l * (x(2, l // 2)[n] + mul(x(1, 2), x(2, l // 2 - 1))[n])
    assert total % (4 * l) == 0
    return total // (4 * l)


def test_class_counts_match_cycle_index_per_cycle_length():
    for n in range(3, 14):
        for l in range(3, n + 1):
            assert len(unicyclic_classes(n, l_filter=l)) == _closed_form_counts(n, l), (n, l)
    for n, expected in enumerate(A001429[:12], start=3):
        assert sum(_closed_form_counts(n, l) for l in range(3, n + 1)) == expected
    assert len(unicyclic_classes(14)) == A001429[11]


def test_class_count_matches_the_test_local_cycle_index():
    for n in range(3, 14):
        for l in range(3, n + 1):
            assert class_count(n, l_filter=l) == _closed_form_counts(n, l), (n, l)
    assert [class_count(n) for n in range(3, 21)] == A001429
    assert class_count(2) == class_count(6, l_filter=2) == class_count(6, l_filter=7) == 0


def _filters(n: int):
    """(delta, exact) for every degree filter on n vertices."""
    yield None, True
    for delta in range(2, n + 2):
        yield delta, True
        yield delta, False


def test_class_count_is_the_enumerated_count():
    # the rows count the catalog enumeration; an extremes run reports
    # `class_count` itself
    def rows(*args):
        return sum(1 for _ in unicyclic_rows(*args))

    for n in range(3, 12):
        for delta, exact in _filters(n):
            for l_filter in (None, *range(3, n + 1)):
                found = rows(n, delta, l_filter, exact)
                assert class_count(n, delta, exact, l_filter) == found, (n, delta, exact, l_filter)
    for n in range(12, 15):
        for delta, exact in _filters(n):
            assert class_count(n, delta, exact) == rows(n, delta, None, exact)
    # the runs named in the README, and the cap decisions that read them
    assert (class_count(19, 4), class_count(20, 4), class_count(22, 3)) == (2787168, 7641518, 4497283)
    assert (class_count(14, 3), class_count(14, 4), class_count(15, 4)) == (4765, 17799, 49053)
    assert class_count(100000, 2) == class_count(100000, 2, False) == 1


def test_class_count_early_exit_keeps_cap_decisions():
    # with a cap, the count is exact or CapExceededError is raised: every
    # cycle length up to n = 29 without a degree filter; with every degree
    # filter and exactness, every cycle length below n = 18, the shortest
    # two and longest two up to n = 25
    grid = [(n, None, True, l) for n in range(1, 30) for l in (None, *range(3, n + 1))]
    grid += [(n, delta, exact, l) for n in range(1, 26) for delta, exact in _filters(n)
             for l in ((None, *range(3, n + 1)) if n < 18 else (None, 3, 4, n - 1, n))]
    for n, delta, exact, l_filter in grid:
        full = class_count(n, delta, exact, l_filter)
        for cap in (0, 10, 10**3, 10**6):
            case = (n, delta, exact, l_filter, cap)
            try:
                assert class_count(n, delta, exact, l_filter, cap) == full <= cap, case
            except CapExceededError as exc:
                if str(exc) == f"more than {cap} isomorphism classes":
                    assert full > cap, case
                    continue
                # exactly delta, refused by the catalog: some catalog size
                # holds more trees than the cap, and the run had more
                # classes without delta
                assert str(exc).startswith(f"more than {cap} rooted trees on "), case
                assert exact and delta is not None, case
                top = n - (l_filter or 3) + 1
                sizes = [h for _, h in islice(_tree_counts(delta), top)]
                assert max(sizes) > cap, case
                assert class_count(n, l_filter=l_filter) > cap, case


def test_a_catalog_past_the_cap_is_refused_only_where_the_classes_were():
    # an exactly-delta run whose hanging trees of one size pass the cap is
    # refused up front; each such run also had more than `cap` classes
    # before any degree filter
    for n, delta, cap in ((10, 7, 100), (14, 10, 4000), (25, 20, DEFAULT_CAP)):
        assert class_count(n, delta) <= cap < class_count(n)
        with pytest.raises(CapExceededError, match=f"more than {cap} rooted trees on "):
            class_count(n, delta, cap=cap)
    with pytest.raises(CapExceededError, match="rooted trees"):
        class_count(100000, 99990, cap=DEFAULT_CAP)
    assert verify_theorem(25, 20).mode == "formula-only"


def test_cap_counts_the_classes_of_the_degree_filter():
    # the cap is the exact count of the classes delta keeps
    count = class_count(10, 4)
    assert count == len(unicyclic_classes(10, 4)) < class_count(10)
    assert probe_conjecture(10, 4, cap=count).graph_count == count
    with pytest.raises(CapExceededError, match=f"more than {count - 1} isomorphism classes"):
        probe_conjecture(10, 4, cap=count - 1)
    assert verify_theorem(10, 4, cap=count).mode == "enumerated"
    assert verify_theorem(10, 4, cap=count - 1).mode == "formula-only"


def test_no_class_of_max_degree_delta_has_a_longer_cycle_than_n_minus_delta_plus_2():
    from kfx.unicyclic import graph_from_shapes

    for n in range(4, 13):
        for code, (l, shapes) in unicyclic_classes(n).items():
            assert l <= n - max_degree(graph_from_shapes(l, shapes)) + 2, code
        for delta in range(3, n):
            assert all(l <= n - delta + 2 for l, _ in unicyclic_classes(n, delta).values())


def test_degree_filters_match_max_degree_of_every_class():
    from kfx.unicyclic import graph_from_shapes

    for n in range(3, 12):
        degree = {
            code: max_degree(graph_from_shapes(l, shapes))
            for code, (l, shapes) in unicyclic_classes(n).items()
        }
        for delta in range(2, n):
            assert set(unicyclic_classes(n, delta)) == {c for c, d in degree.items() if d == delta}
            assert set(unicyclic_classes(n, delta, exact=False)) == {
                c for c, d in degree.items() if d <= delta
            }


def test_representatives_are_canonical_tuples():
    from kfx.unicyclic import graph_from_shapes

    for args in [(n,) for n in range(3, 11)] + [(11, 4), (12, 3, 5)]:
        for code, (l, shapes) in unicyclic_classes(*args).items():
            assert code == b"%d:" % l + b"".join(shapes)
            assert canonical_code(decompose_unicyclic(graph_from_shapes(l, shapes))) == code


def test_worker_count_keeps_filtered_items():
    # a cycle-length filter keeps the classes of that length, in order
    every = [(code, c) for code, c in unicyclic_classes(11, 4).items() if c[0] == 4]
    assert list(unicyclic_classes(11, 4, l_filter=4).items()) == every


def test_long_cycle_enumeration():
    # 2 + floor(l/2) classes: one tree on 3 vertices (2 shapes), or two
    # pendant vertices at cycle distance 1..floor(l/2)
    assert len(unicyclic_classes(600, l_filter=598)) == 301


def test_least_rotation_against_all_rotations():
    from kfx.unicyclic import _least_rotation

    rng = random.Random(5)
    for _ in range(3000):
        s = [rng.randrange(3) for _ in range(rng.randrange(1, 13))]
        k = _least_rotation(s)
        assert s[k:] + s[:k] == min(s[i:] + s[:i] for i in range(len(s))), s


def _reference_extremes(classes: dict, objective: str) -> tuple:
    """Count, the objective's extreme Kf and its codes, from materialized
    classes through `kf_from_shapes`."""
    from oracles import kf_from_shapes

    kf = {code.decode("ascii"): kf_from_shapes(l, shapes) for code, (l, shapes) in classes.items()}
    if not kf:
        return 0, None, []
    best = (min if objective == "min" else max)(kf.values())
    return len(kf), best, sorted(c for c, v in kf.items() if v == best)


def test_unit_reductions_match_materialized_classes():
    """The least and the greatest Kf of every run, each walked over its own
    objective's term-extreme trees alone, equal those of its classes from
    the rows over the whole catalog, for every degree filter and cycle
    length at n <= 12, in well under 60 s (about 3.5 s on a 2-core x86-64
    host)."""
    import time

    from kfx.search import unicyclic_extremes
    from kfx.unicyclic import graph_from_shapes

    start = time.monotonic()
    for n in range(3, 13):
        classes = unicyclic_classes(n)
        degree = {
            code: max_degree(graph_from_shapes(l, shapes))
            for code, (l, shapes) in classes.items()
        }
        filters = [(None, True)] + [(d, e) for d in range(0, n + 2) for e in (True, False)]
        for delta, exact in filters:
            for l_filter in [None, *range(2, n + 2)]:
                kept = {
                    code: (l, shapes) for code, (l, shapes) in classes.items()
                    if (l_filter is None or l == l_filter)
                    and (delta is None or (degree[code] == delta if exact else degree[code] <= delta))
                }
                for objective in ("min", "max"):
                    got = unicyclic_extremes(n, delta, l_filter, exact, objective=objective)
                    assert tuple(got) == _reference_extremes(kept, objective), (
                        n, delta, exact, l_filter, objective)
    assert time.monotonic() - start < 60
    for args in [(12,), (12, 4), (11, 4, None, False), (12, None, 5), (10, 3, 6, False)]:
        for objective in ("min", "max"):
            one = unicyclic_extremes(*args, objective=objective)
            assert tuple(one) == _reference_extremes(unicyclic_classes(*args), objective)


def test_class_rows_carry_exact_kf_numerators():
    from oracles import kf_from_shapes
    from kfx.search import unicyclic_rows

    for n in range(3, 12):
        rows = list(unicyclic_rows(n))
        assert [(code, (l, shapes)) for code, l, shapes, _ in rows] == list(unicyclic_classes(n).items())
        for code, l, shapes, num in rows:
            assert num == l * kf_from_shapes(l, shapes), code


@pytest.mark.parametrize("n, l, count", [(1003, 1000, 84337), (10002, 10000, 5002),
                                         (100002, 100000, 50002)])
def test_long_cycles_walk_every_class_and_both_extremes(n, l, count):
    """The row walk of a long cycle, every allowed tree, keeps `class_count`
    tuples, and the greatest and least N it keeps are what
    `unicyclic_extremes` returns there, so two keeps cross-check one walk,
    in well under 60 s each (about 2 s for (1003, 1000) on a 2-core x86-64
    host)."""
    import time

    from kfx.search import _alphabet, _unit, _units

    start = time.monotonic()
    alphabet = _alphabet(n, None, True, n - l + 1, None)
    nums = []

    def keep(a, num):
        nums.append(num)

    for cycle, first in _units(n, range(l, l + 1)):
        _unit(n, cycle, first, alphabet, keep)
    assert len(nums) == class_count(n, None, True, l) == count
    for objective, pick in (("max", max), ("min", min)):
        assert unicyclic_extremes(n, None, l, objective=objective).value == Fraction(pick(nums), l)
    assert time.monotonic() - start < 60


def test_long_cycle_fill_keeps_counts():
    # as above: 2 + floor(1198/2) classes
    assert len(unicyclic_classes(1200, l_filter=1198)) == 601


def test_cap_is_exact_at_the_class_count():
    # the up-front bound refuses no run that fits, and the units stop at
    # the first class past the cap
    for n in range(3, 12):
        for l in range(3, n + 1):
            count = len(unicyclic_classes(n, l_filter=l))
            assert len(unicyclic_classes(n, l_filter=l, cap=count)) == count
            with pytest.raises(CapExceededError):
                unicyclic_classes(n, l_filter=l, cap=count - 1)


def test_hub_on_cycle_fails_to_maximize_at_n_12():
    # a finding, not a defect: within the pendant-tadpole family the hub at
    # the cycle junction is beaten by one further down the tail at n = 12,
    # and the two engines agree on the values
    from kfx.families import make_p_family_member
    from kfx.metrics import engine_input, kirchhoff_index

    report = check_lemma_properties(12)
    assert report == {
        "path_replacement": {"checked": 10806, "violations": [], "non_strict_changes": 0},
        "maximizer_in_pendant_tadpoles": {"checked": 165, "violations": []},
        "wiener_broom_maximizer": {"checked": 36, "violations": []},
        "hub_on_cycle_maximizes": {
            "checked": 84,
            "violations": ["n=12 l=5 delta=5", "n=12 l=6 delta=5", "n=12 l=5 delta=6"],
            "ties": 4,
        },
        "ok": False,
    }
    assert list(report) == ["path_replacement", "maximizer_in_pendant_tadpoles",
                            "wiener_broom_maximizer", "hub_on_cycle_maximizes", "ok"]
    for hub_pos, kf in ((0, 185), (4, 188)):
        g = make_p_family_member(12, 5, 5, hub_pos)
        structural, oracle = engine_input(g, "structural"), engine_input(g, "oracle")
        assert kirchhoff_index(structural) == kirchhoff_index(oracle) == kf


def _wiener_broom_from_free_trees(tree_n_max):
    """The Wiener-broom section, recomputed over one graph per free tree."""
    from kfx.formulas import wiener_broom_formula
    from kfx.metrics import wiener_index

    checked, violations = 0, []
    for n in range(4, tree_n_max + 1):
        for delta in range(3, n):
            trees = tree_classes(n, delta)
            if not trees:
                continue
            w = {code: wiener_index(t) for code, t in trees.items()}
            best = max(w.values())
            checked += 1
            broom = tree_canonical_code(make_t_n_delta(n, delta))
            if best != wiener_broom_formula(n, delta) or {c for c, v in w.items() if v == best} != {broom}:
                violations.append(f"n={n} delta={delta}")
    return {"checked": checked, "violations": violations}


def test_wiener_broom_section_matches_free_trees():
    for tree_n_max in range(3, 12):
        report = check_lemma_properties(3, tree_n_max=tree_n_max)
        assert report["wiener_broom_maximizer"] == _wiener_broom_from_free_trees(tree_n_max)


def test_pendant_tadpoles_are_distinct():
    # every member has its own canonical code, and together they are every
    # graph the family builds at some hub position
    from kfx.families import make_p_family_member
    from kfx.suites import _pendant_tadpoles

    for n in range(4, 13):
        for delta in range(3, n):
            for l in range(3, n - delta + 3):
                codes = [canonical_code(decompose_unicyclic(g))
                         for g in _pendant_tadpoles(n, l, delta)]
                assert len(set(codes)) == len(codes), (n, l, delta)
                built = set()
                for hub_pos in range(n - l - delta + 3):
                    try:
                        g = make_p_family_member(n, l, delta, hub_pos)
                    except ParameterError:
                        continue
                    built.add(canonical_code(decompose_unicyclic(g)))
                assert set(codes) == built, (n, l, delta)


def test_lemma_suite_builds_each_pendant_tadpole_once(monkeypatch):
    # one decomposition of each member serves both tadpole checks
    import kfx.families

    real = kfx.families.make_p_family_member
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kfx.families, "make_p_family_member", counted)
    check_lemma_properties(8)
    assert len(set(calls)) == len(calls) == 50


def test_formula_only_theorem_builds_no_graph(monkeypatch):
    import kfx.graph
    import kfx.metrics
    import kfx.suites
    import kfx.unicyclic

    calls = []
    real_init = kfx.graph.Graph.__init__

    def counted_init(self, *args):
        calls.append("Graph")
        real_init(self, *args)

    for module in (kfx.unicyclic, kfx.metrics, kfx.suites):
        for name in ("decompose_unicyclic", "code_parents", "tree_stats"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    monkeypatch.setattr(kfx.graph.Graph, "__init__", counted_init)
    rep = verify_theorem(700, 5)
    assert rep.mode == "formula-only" and rep.verdict == "match"
    assert calls == []


def test_theorem_code_and_kf_come_from_the_extremal_trees():
    # formula-only (cap 0) writes the maximiser's code from its trees and
    # folds its Kf from them; both equal those of the built graph
    from kfx.families import make_p3_extremal
    from kfx.metrics import kirchhoff_index

    for n in range(4, 41):
        for delta in range(3, n):
            u = decompose_unicyclic(make_p3_extremal(n, delta))
            rep = verify_theorem(n, delta, cap=0)
            assert rep.mode == "formula-only" and rep.verdict == "match"
            assert rep.expected_code == canonical_code(u).decode("ascii")
            assert rep.extremal_value == kirchhoff_index(u)


def test_divisor_totients_match_a_scan_of_every_divisor():
    from math import gcd

    from kfx.search import _divisor_totients

    for l in range(1, 401):
        pairs = _divisor_totients(l)
        reference = {d: sum(gcd(i, d) == 1 for i in range(d))
                     for d in range(1, l + 1) if l % d == 0}
        assert len(pairs) == len(reference) and dict(pairs) == reference


def test_a_long_cycle_is_counted_without_scanning_its_length():
    import time

    # a scan of every d <= l took 0.56 s at l = 999,999
    t = time.perf_counter()
    assert class_count(10**9 + 1, None, True, 10**9) == 1
    assert class_count(10**6, None, True, 999_999) == 1
    assert time.perf_counter() - t < 1.0


def test_alphabet_reads_the_bounded_catalog():
    """The row-run alphabet the multiset walk builds is the full catalog
    filtered by each record's hanging degree, with the records' terms and
    hub marks, for every delta, None included, exactly and at most."""
    from kfx.search import _alphabet
    from kfx.unicyclic import hanging_degree, rooted_shapes, shape_record

    for n, top in [(5, 3), (8, 6), (10, 8), (12, 10), (14, 12)]:
        full = sorted(code for k in range(1, top + 1) for code in rooted_shapes(k))
        for delta in (None, *range(0, top + 3)):
            for exact in (True, False):
                codes, by_size, hubs, hubs_by_size, terms = _alphabet(n, delta, exact, top, None)
                degree = [hanging_degree(shape_record(c)) for c in codes]
                assert codes == [c for c in full
                                 if delta is None or hanging_degree(shape_record(c)) <= delta]
                assert by_size == [[r for r, c in enumerate(codes) if len(c) == 2 * k]
                                   for k in range(top + 1)]
                assert terms == [w + (n - s) * d for s, d, w, _, _ in map(shape_record, codes)]
                if exact and delta is not None:
                    assert hubs == {r for r, d in enumerate(degree) if d == delta}
                    assert hubs_by_size == [[r for r in ranks if r in hubs] for ranks in by_size]
                else:
                    assert hubs is None and hubs_by_size is None


def test_the_extremal_alphabet_is_the_catalog_trees_of_extreme_term():
    """Each objective's DP alphabet holds, per size, exactly the full
    catalog's trees, filtered by hanging degree, of that objective's
    extreme term, and in an exactly-delta run also the hub trees of that
    extreme term among hubs, ties included, with the terms and hub marks of
    the catalog's records, for every top <= 14, delta, None included, and
    exactness."""
    from kfx.search import _alphabet
    from kfx.unicyclic import hanging_degree, rooted_shapes

    for top in range(1, 15):
        n = top + 2  # the alphabet's top size in a run whose shortest cycle is a triangle
        degree = {code: hanging_degree(rec) for k in range(1, top + 1)
                  for code, rec in rooted_shapes(k).items()}
        term = {code: w + (n - s) * d for k in range(1, top + 1)
                for code, (s, d, w, _, _) in rooted_shapes(k).items()}
        for delta in (None, *range(0, top + 3)):
            allowed = [[c for c in rooted_shapes(k) if delta is None or degree[c] <= delta]
                       for k in range(1, top + 1)]
            for exact in (True, False):
                hubbed = delta is not None and exact
                hub = {c for size in allowed for c in size if hubbed and degree[c] == delta}
                for objective, pick in (("min", min), ("max", max)):
                    kept = set()
                    for size in allowed:
                        for group in (size, [c for c in size if c in hub]):
                            if group:
                                end = pick(term[c] for c in group)
                                kept.update(c for c in group if term[c] == end)
                    expected = sorted(kept)
                    got = _alphabet(n, delta, exact, top, objective)
                    case = (n, delta, exact, objective)
                    assert got[0] == expected, case
                    assert got[4] == [term[c] for c in expected], case
                    assert got[2] == ({i for i, c in enumerate(expected) if c in hub}
                                      if hubbed else None), case


def test_the_hub_search_prunes_by_hubs():
    """While a hub tree's chosen children hold no hub, the search bounds the
    rest by a completion that holds one or saturates the root: at n = 40,
    delta = 30 the greatest-Kf alphabet takes 347 walk calls, where a bound
    blind to hubs took 966,686."""
    import sys

    from kfx.search import _alphabet, _cycle_lengths

    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "walk":
            calls += 1

    top = 40 - _cycle_lengths(40, 30, True, None)[0] + 1
    sys.setprofile(count)
    try:
        _alphabet(40, 30, True, top, "max")
    finally:
        sys.setprofile(None)
    assert 0 < calls <= 2000


def test_the_theorem_is_enumerated_at_a_large_delta():
    import time

    # 0.2 s on a 2-core x86-64 host; a hub search blind to hubs took 93 s
    t = time.perf_counter()
    rep = verify_theorem(60, 50, cap=None)
    assert (rep.mode, rep.verdict) == ("enumerated", "match")
    assert time.perf_counter() - t < 10


@pytest.mark.parametrize("args, low, low_codes, high, high_codes", [
    ((14,), F(479, 3), ["3:(()()()()()()()()()()())()()"],
     F(1304, 3), ["3:(((((((((((())))))))))))()()"]),
    ((16,), F(643, 3), ["3:(()()()()()()()()()()()()())()()"],
     F(1969, 3), ["3:(((((((((((((())))))))))))))()()"]),
    ((18, 4), F(723, 2), ["6:(()())(()())(()())(()())(()())(()())"],
     F(914), ["3:((((((((((((((())))))))))))))())()()"]),
])
def test_pinned_extremes(args, low, low_codes, high, high_codes):
    # values and codes of the full enumeration before the extremal alphabet
    count = class_count(*args)
    assert tuple(unicyclic_extremes(*args, objective="min")) == (count, low, low_codes)
    assert tuple(unicyclic_extremes(*args, objective="max")) == (count, high, high_codes)


def test_an_unknown_objective_is_refused():
    with pytest.raises(ParameterError):
        unicyclic_extremes(8, objective="minimum")


def test_rows_match_a_per_class_recomputation():
    """Every degree- and cycle-filtered run lists exactly the unfiltered
    rows that pass its filters, each with N = l * kf_from_shapes."""
    from oracles import kf_from_shapes
    from kfx.search import unicyclic_rows
    from kfx.unicyclic import hanging_degree, shape_record

    for n in range(3, 13):
        rows = sorted(unicyclic_rows(n))
        for code, l, shapes, num in rows:
            assert num == l * kf_from_shapes(l, shapes), code
        degree = {row[0]: max(hanging_degree(shape_record(s)) for s in row[2]) for row in rows}
        filters = [(None, True)] + [(d, e) for d in range(0, n + 2) for e in (True, False)]
        for delta, exact in filters:
            for l_filter in [None, *range(2, n + 2)]:
                expected = [
                    row for row in rows
                    if (l_filter is None or row[1] == l_filter)
                    and (delta is None
                         or (degree[row[0]] == delta if exact else degree[row[0]] <= delta))
                ]
                assert sorted(unicyclic_rows(n, delta, l_filter, exact)) == expected, (
                    n, delta, l_filter, exact)


def test_a_last_rank_that_keeps_the_period_needs_it_to_divide_l():
    # a last rank equal to the one a period back leaves a necklace only if
    # the period divides l; the reversal test almost always rejects such a
    # tuple anyway, and the first run found where it does not is (17, 4)
    # on a 7-cycle, past the brute force's reach
    assert sum(1 for _ in unicyclic_rows(17, 4, 7)) == class_count(17, 4, True, 7) == 25265


def test_units_match_a_brute_force_over_every_tuple():
    """Every work unit's rows, collected by a keep passed to the walk,
    equal those of a brute force that tries every tree tuple of the unit,
    for every degree filter at n <= 12."""
    from kfx.search import _alphabet, _unit

    for n in range(3, 13):
        top = n - 2  # the catalog of a run whose shortest cycle is a triangle
        filters = [(None, True)] + [(d, e) for d in range(2, n + 1) for e in (True, False)]
        for delta, exact in filters:
            alphabet = _alphabet(n, delta, exact, top, None)
            for l in range(3, n + 1):
                for first in range(1, n - l + 2):
                    rows = []

                    def keep(a, num):
                        shapes = tuple(alphabet[0][r] for r in a)
                        rows.append((b"%d:" % l + b"".join(shapes), l, shapes, num))

                    assert _unit(n, l, first, alphabet, keep) is None
                    assert sorted(rows) == brute_force_unit(n, l, first, delta, exact), (
                        n, l, first, delta, exact)


@pytest.mark.parametrize("run", [
    lambda: unicyclic_extremes(12, objective="min"),
    lambda: list(unicyclic_rows(9)),
], ids=["extremes", "rows"])
def test_a_run_builds_its_alphabet_once(monkeypatch, run):
    import kfx.search

    real = kfx.search._alphabet
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kfx.search, "_alphabet", counted)
    run()
    assert len(calls) == 1


def check_block_reversal_test(ends_in_ones):
    """Over ranks 0..2, with 2 the one-vertex tree, every tuple of length
    up to 9 that starts with a tree, and ends in a one iff `ends_in_ones`,
    written as its words (a tree and the run of ones after it, key
    r * l + j) and its reversed keys (each tree with the run before it),
    counts as canonical, its words a necklace and `_reversal_order` not
    negative, iff none of its rotations or reflections is less than it.
    Read from its first `known` trees only, `_reversal_order` says -1 of
    no canonical tuple, so the walk may prune on a prefix of words."""
    from itertools import product

    from kfx.search import _reversal_order

    one = 2
    for l in range(1, 10):
        for a in map(list, product(range(one + 1), repeat=l)):
            if a[0] == one or (a[-1] == one) != ends_in_ones:
                continue
            at = [i for i, r in enumerate(a) if r != one]
            runs = [b - i - 1 for i, b in zip(at, at[1:] + [l])]
            words = [a[i] * l + j for i, j in zip(at, runs)]
            back = [a[i] * l + j for i, j in zip(at, runs[-1:] + runs)]
            k = len(words)
            necklace = all(words[i:] + words[:i] >= words for i in range(k))
            b = a[::-1]
            canonical = all(min(s[i:] + s[:i] for i in range(l)) >= a for s in (a, b))
            assert (necklace and _reversal_order(words, back, k) >= 0) == canonical, a
            if canonical:
                assert all(_reversal_order(words, back, known) >= 0 for known in range(1, k)), a


def test_last_tree_bounds_against_the_reversal_test():
    """Tuples whose last vertex hangs a tree of two vertices or more: their
    last word has no run of ones."""
    check_block_reversal_test(False)


def test_fill_bound_against_the_reversal_test():
    """Tuples that end in a fill, a tree followed by one or more one-vertex
    trees: their last word carries the run."""
    check_block_reversal_test(True)
