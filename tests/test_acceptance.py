"""End-to-end acceptance checks.

Each test prints one "ACCEPTANCE <k>: PASS" line on success so the
pytest -v log doubles as an acceptance report. All comparisons are
exact; timed checks use wall-clock bounds.
"""
import json
import time
from fractions import Fraction

from kfx.cli import main
from kfx.families import (
    make_conj_min_i,
    make_conj_min_ii,
    make_graph_a,
    make_graph_b,
    make_p3_extremal,
)
from kfx.errors import ParameterError
from kfx.formulas import (
    kf_a_formula,
    kf_a_minus_b,
    kf_b_formula,
    theorem_bound,
)
from kfx.metrics import kirchhoff_index
from kfx.suites import (
    check_lemma_properties,
    engine_equivalence_suite,
    probe_conjecture,
    verify_theorem,
)
from oracles import brute_force_unicyclic_codes, unicyclic_classes

F = Fraction
TARGET = F(30925, 3)


def test_acceptance_1_worked_example(capsys, tmp_path):
    t0 = time.monotonic()
    assert main(["formula", "--name", "theorem-bound", "--n", "100",
                 "--delta", "96", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["value"] == "30925/3"
    formula_s = time.monotonic() - t0

    t0 = time.monotonic()
    path = tmp_path / "extremal.edges"
    assert main(["family", "--name", "p3", "--n", "100", "--delta", "96",
                 "--output", str(path)]) == 0
    assert main(["compute", "--input", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["kf"] == "30925/3"
    compute_s = time.monotonic() - t0

    assert kirchhoff_index(make_p3_extremal(100, 96)) == TARGET
    assert formula_s < 5 and compute_s < 5
    print("ACCEPTANCE 1: PASS")


def test_acceptance_2_theorem_sweep():
    t0 = time.monotonic()
    for n in range(4, 10):
        for delta in range(3, n):
            rep = verify_theorem(n, delta)
            assert rep.mode == "enumerated"
            assert rep.verdict == "match", (n, delta, rep)
            assert rep.extremal_value == theorem_bound(n, delta)
            assert rep.argext_codes == [rep.expected_code]
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print("ACCEPTANCE 2: PASS")


def test_acceptance_3_engine_equivalence():
    result = engine_equivalence_suite(8, samples=200, seed=20240817)
    assert result["violations"] == []
    assert result["graphs"] == 1 + 2 + 5 + 13 + 33 + 89 + 200
    print("ACCEPTANCE 3: PASS")


def test_acceptance_4_closed_form_grid():
    sign_exceptions = []
    for l in range(3, 9):
        for delta in range(3, 7):
            for n in range(l + delta - 2, 15):
                a = kf_a_formula(n, l, delta)
                assert kirchhoff_index(make_graph_a(n, l, delta)) == a
                b = kf_b_formula(n, l, delta, "validated")
                if n >= l + delta:
                    assert kirchhoff_index(make_graph_b(n, l, delta)) == b
                diff = kf_a_minus_b(n, l, delta)
                assert diff == a - b
                if delta == 3 and n > 3:
                    assert diff > 0
                if delta > 3 and diff <= 0:
                    # the source's positivity claim fails here; the graphs
                    # confirm the difference polynomial, not the claim
                    sign_exceptions.append((n, l, delta, diff))
                gap = theorem_bound(n, delta) - a
                assert gap >= 0
                assert (gap == 0) == (l == 3)
    print(f"ACCEPTANCE 4: PASS"
          f" ({len(sign_exceptions)} reported sign exceptions, all delta>3:"
          f" {[(n, l, d) for n, l, d, _ in sign_exceptions[:5]]}...)")


def test_acceptance_5_conjecture_probes():
    for n in range(4, 11):
        for delta in range(3, n):
            rep = probe_conjecture(n, delta)
            assert rep.verdict in ("match", "mismatch")
            if rep.verdict == "mismatch":
                assert rep.argext_codes  # witness codes always reported
            kf_i = kirchhoff_index(make_conj_min_i(n, delta))
            from kfx.formulas import conj_min_formula_i
            assert kf_i == conj_min_formula_i(n, delta)
    mismatch_log = []
    for n, delta in [(12, 4), (12, 5)]:
        rep = probe_conjecture(n, delta)
        assert rep.branch == "ii"
        assert rep.verdict in ("match", "mismatch")
        if rep.verdict == "mismatch":
            assert rep.argext_codes
            mismatch_log.append((n, delta, rep.argext_codes))
        from kfx.formulas import conj_ii_x_range, conj_min_formula_ii
        for x in conj_ii_x_range(n, delta):
            try:
                g = make_conj_min_ii(n, delta, x)
            except ParameterError:
                continue
            assert kirchhoff_index(g) == conj_min_formula_ii(n, delta, x)
    for n, delta, codes in mismatch_log:
        print(f"ACCEPTANCE 5: reported mismatch at (n={n}, delta={delta}),"
              f" witnesses {codes}")
    print("ACCEPTANCE 5: PASS")


def test_acceptance_6_lemma_suite():
    report = check_lemma_properties(8, tree_n_max=11)
    assert report["ok"] is True
    assert report["wiener_broom_maximizer"]["violations"] == []
    assert report["hub_on_cycle_maximizes"]["violations"] == []
    assert report["maximizer_in_pendant_tadpoles"]["violations"] == []
    assert report["path_replacement"]["violations"] == []
    print("ACCEPTANCE 6: PASS")


def test_acceptance_7_counts_and_determinism():
    expected = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89}
    for n in range(3, 8):
        codes = brute_force_unicyclic_codes(n)
        assert len(codes) == expected[n]
        assert set(unicyclic_classes(n)) == codes
    assert len(unicyclic_classes(8)) == expected[8]
    # determinism: repeated runs produce identical ordered output
    runs = [unicyclic_classes(8) for _ in range(3)]
    assert list(runs[0].items()) == list(runs[1].items()) == list(runs[2].items())
    print("ACCEPTANCE 7: PASS")
