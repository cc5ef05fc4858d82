from fractions import Fraction
from math import comb

import pytest

from kfx.errors import ParameterError
from kfx.families import make_conj_min_i, make_conj_min_ii, make_graph_a, make_graph_b
from kfx.formulas import (
    FORMULA_DISCREPANCIES,
    conj_ii_x_range,
    conj_min_formula_i,
    conj_min_formula_ii,
    kf_a_formula,
    kf_a_minus_b,
    kf_b_formula,
    kf_cycle_formula,
    kfv_cycle_formula,
    theorem_bound,
    wiener_broom_formula,
)
from kfx.metrics import kirchhoff_index

F = Fraction


def test_cycle_formulas():
    assert kf_cycle_formula(3) == 2
    assert kf_cycle_formula(4) == 5
    assert kf_cycle_formula(5) == 10
    assert kfv_cycle_formula(3) == F(4, 3)
    assert kfv_cycle_formula(5) == 4
    assert kfv_cycle_formula(7) == 8
    with pytest.raises(ParameterError):
        kf_cycle_formula(2)


def test_wiener_broom():
    assert wiener_broom_formula(4, 3) == 9
    assert wiener_broom_formula(7, 3) == 52
    for n in range(3, 10):
        assert wiener_broom_formula(n, 2) == comb(n + 1, 3)  # degenerates to a path


def test_theorem_bound_values():
    assert theorem_bound(100, 96) == F(30925, 3)
    assert theorem_bound(5, 3) == F(44, 3)
    assert theorem_bound(4, 3) == F(19, 3)


def test_kf_a_coincides_with_bound_at_l_3():
    for n, delta in [(6, 3), (7, 4), (10, 5)]:
        assert kf_a_formula(n, 3, delta) == theorem_bound(n, delta)


def test_kf_a_and_b_match_their_graphs():
    assert kf_a_formula(8, 4, 3) == kirchhoff_index(make_graph_a(8, 4, 3))
    assert kf_b_formula(8, 4, 3) == kirchhoff_index(make_graph_b(8, 4, 3))


def test_printed_kf_b_variant_is_recorded_as_discrepant():
    # the printed final line disagrees with the graph except when l = 1
    # would make the coefficients coincide (never admissible)
    assert "kf-b" in FORMULA_DISCREPANCIES
    assert kf_b_formula(8, 3, 3, "printed") != kf_b_formula(8, 3, 3, "validated")
    assert kf_b_formula(8, 3, 3, "validated") == kirchhoff_index(make_graph_b(8, 3, 3))
    with pytest.raises(ValueError):
        kf_b_formula(8, 3, 3, "guessed")


def test_difference_polynomial():
    for n in range(4, 12):
        assert kf_a_minus_b(n, 3, 3) == n - 3
    for l in range(3, 7):
        for delta in range(3, 6):
            for n in range(l + delta - 2, 13):
                diff = kf_a_formula(n, l, delta) - kf_b_formula(n, l, delta)
                assert diff == kf_a_minus_b(n, l, delta)
                # the hub-on-cycle variant only provably dominates at delta=3;
                # for delta>3 the sign flips once n grows (e.g. n=14, l=4,
                # delta=5 gives -1), matching direct graph computation
                if n > 3 and delta == 3:
                    assert diff > 0


def test_difference_sign_flips_for_large_n():
    assert kf_a_minus_b(14, 4, 5) == -1
    a = kirchhoff_index(make_graph_a(14, 4, 5))
    b = kirchhoff_index(make_graph_b(14, 4, 5))
    assert a - b == -1


def test_bound_dominates_kf_a_with_equality_at_l_3():
    for l in range(3, 8):
        for delta in range(3, 6):
            for n in range(max(l + delta - 2, delta + 1), 13):
                gap = theorem_bound(n, delta) - kf_a_formula(n, l, delta)
                assert gap >= 0
                assert (gap == 0) == (l == 3)


def test_conjecture_formula_i():
    assert conj_min_formula_i(5, 3) == F(23, 2)
    assert conj_min_formula_i(4, 3) == F(19, 3)
    for n in range(5, 12):
        for delta in range(3, n):
            assert conj_min_formula_i(n, delta) == kirchhoff_index(make_conj_min_i(n, delta))


def test_conjecture_formula_ii():
    # empty hub-pair sum at x = 1: single-hub closed form
    for n, delta in [(7, 4), (9, 5)]:
        l = n - (delta - 2)
        single = (
            F(l**3 - l, 12)
            + (delta - 2) * (delta - 3)
            + (delta - 2) * (F(l * l - 1, 6) + l)
        )
        assert conj_min_formula_ii(n, delta, 1) == single
    assert conj_min_formula_ii(12, 4, 2) == kirchhoff_index(make_conj_min_ii(12, 4, 2))
    for x in (2, 3):
        assert conj_min_formula_ii(11, 3, x) == kirchhoff_index(make_conj_min_ii(11, 3, x))


def test_conjecture_formula_ii_matches_its_hub_pair_sum():
    # the closed form against the hub-pair sum written as a loop
    for delta in (3, 4, 7):
        p = delta - 2
        for l in range(3, 40):
            for x in range(1, l + 1):
                value = (
                    F(l**3 - l, 12)
                    + x * p * (delta - 3)
                    + x * p * (F(l * l - 1, 6) + l)
                    + x * (x - 1) * p * p
                    + F(p * p * sum(i * (l - i) * (x - i) for i in range(1, x)), l)
                )
                assert conj_min_formula_ii(l + x * p, delta, x) == value, (l, x, delta)


def test_conj_ii_x_range():
    assert list(conj_ii_x_range(12, 4)) == [4]
    assert list(conj_ii_x_range(12, 5)) == [3]


def test_parameter_validation():
    with pytest.raises(ParameterError):
        theorem_bound(4, 4)
    with pytest.raises(ParameterError):
        kf_a_formula(4, 3, 4)  # n < l+delta-2
    with pytest.raises(ParameterError):
        wiener_broom_formula(3, 3)
    with pytest.raises(ParameterError):
        conj_min_formula_ii(12, 4, 5)  # l would drop below 3
