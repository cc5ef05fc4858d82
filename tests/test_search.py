import random
from fractions import Fraction

import pytest

from kfx.errors import CapExceededError, ParameterError
from kfx.families import make_cycle, make_t_n_delta
from kfx.formulas import theorem_bound
from kfx.graph import is_tree, is_unicyclic, max_degree
from kfx.search import (
    brute_force_unicyclic_codes,
    check_lemma_properties,
    engine_equivalence_suite,
    estimated_tuple_count,
    probe_conjecture,
    random_unicyclic,
    tree_classes,
    unicyclic_classes,
    verify_theorem,
)
from kfx.unicyclic import canonical_code, decompose_unicyclic, tree_canonical_code

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
        from kfx.unicyclic import unicyclic_from_shapes

        g, _ = unicyclic_from_shapes(l, shapes).to_graph()
        assert max_degree(g) == 3


def test_l_filter():
    triangles_only = unicyclic_classes(6, l_filter=3)
    for l, _ in triangles_only.values():
        assert l == 3
    assert sum(
        len(unicyclic_classes(6, l_filter=l)) for l in range(3, 7)
    ) == UNICYCLIC_COUNTS[6]


def test_enumeration_soundness():
    from kfx.search import enumerate_unicyclic

    for u in enumerate_unicyclic(7):
        g, _ = u.to_graph()
        assert is_unicyclic(g)
        assert canonical_code(decompose_unicyclic(g)) == canonical_code(u)


def test_determinism_and_worker_independence():
    a = unicyclic_classes(8)
    b = unicyclic_classes(8)
    c = unicyclic_classes(8, workers=2)
    assert list(a.items()) == list(b.items()) == list(c.items())


def test_tree_classes():
    assert len(tree_classes(4)) == 2
    assert len(tree_classes(6)) == 6
    assert len(tree_classes(7)) == 11
    star = tree_classes(7, delta=6)
    assert list(star.values())[0].n == 7
    assert set(star) == {tree_canonical_code(make_t_n_delta(7, 6))}
    for t in tree_classes(8).values():
        assert is_tree(t)


def test_estimated_tuple_count():
    # exact tuple counts dominate the class counts
    for n, expected in UNICYCLIC_COUNTS.items():
        assert estimated_tuple_count(n) >= expected
    assert estimated_tuple_count(100, cap=1000) > 1000


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
    assert random_unicyclic(8, random.Random(7)) == random_unicyclic(8, random.Random(7))
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


def test_engine_equivalence_suite_small():
    result = engine_equivalence_suite(6, samples=5, seed=123)
    assert result["violations"] == []
    assert result["graphs"] == sum(UNICYCLIC_COUNTS[n] for n in (3, 4, 5, 6)) + 5
    assert result["seed"] == 123


def test_estimated_tuple_count_early_exit_keeps_cap_decisions():
    for n in range(1, 30):
        for l_max in (None, 2, 3, 5):
            full = estimated_tuple_count(n, l_max)
            for cap in (0, 10, 10**3, 10**6):
                assert (estimated_tuple_count(n, l_max, cap) > cap) == (full > cap)
