"""Exact evaluators for the closed-form index expressions.

Every formula is transcribed as printed in its source derivation and
evaluated over exact rationals. Where the source text carries two
inconsistent readings of the same expression, both are addressable via
the `variant` argument ("printed" vs "validated"); the validated reading
is the one that matches direct graph computation, which the test suite
enforces. Currently the only known discrepancy is the coefficient of
(l^2-1)/6 in the tail-end-hub formula `kf_b_formula`: the final printed
line has (n-1) where the term-by-term sum gives (n-l).
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import ParameterError

__all__ = [
    "kf_cycle_formula",
    "kfv_cycle_formula",
    "wiener_broom_formula",
    "kf_a_formula",
    "kf_b_formula",
    "kf_a_minus_b",
    "theorem_bound",
    "conj_min_formula_i",
    "conj_min_formula_ii",
    "conj_ii_x_range",
    "FORMULAS",
    "FORMULA_DISCREPANCIES",
]

# formulas whose printed and validated readings differ, with the term at fault
FORMULA_DISCREPANCIES = {
    "kf-b": "coefficient of (l^2-1)/6: printed (n-1), validated (n-l)",
}


def _check_l(l: int) -> None:
    if l < 3:
        raise ParameterError(f"need l >= 3, got {l}")


def kf_cycle_formula(l: int) -> Fraction:
    """Kf(C_l) = (l^3 - l)/12."""
    _check_l(l)
    return Fraction(l**3 - l, 12)


def kfv_cycle_formula(l: int) -> Fraction:
    """Transmission of a cycle vertex: (l^2 - 1)/6."""
    _check_l(l)
    return Fraction(l * l - 1, 6)


def wiener_broom_formula(n: int, delta: int) -> int:
    """Wiener index of the broom on n vertices with hub degree delta."""
    if delta < 2 or n < delta + 1:
        raise ParameterError(f"broom needs n >= delta+1 >= 3, got n={n}, delta={delta}")
    return (
        comb(n - delta + 2, 3)
        + (delta - 1) * (n - delta + 1) * (n - delta + 2) // 2
        + (delta - 1) * (delta - 2)
    )


def _check_abl(n: int, l: int, delta: int) -> None:
    if l < 3 or delta < 3:
        raise ParameterError(f"need l >= 3 and delta >= 3, got l={l}, delta={delta}")
    if n < l + delta - 2:
        raise ParameterError(f"need n >= l+delta-2, got n={n}, l={l}, delta={delta}")


def kf_a_formula(n: int, l: int, delta: int) -> Fraction:
    """Kf of the hub-on-cycle extreme graph (pendants at the junction)."""
    _check_abl(n, l, delta)
    t = n - l - delta  # recurring offset
    return (
        Fraction(l**3 - l, 12)
        + Fraction((t + 5) * (t + 4) * (n - l + 2 * delta - 6), 6)
        + Fraction((n - l) * (l * l - 1), 6)
        + (delta - 2) * (l - 1)
        + (delta - 3) * (delta - 4)
        + Fraction((l - 1) * (t + 2) * (t + 5), 2)
    )


def kf_b_formula(n: int, l: int, delta: int, variant: str = "validated") -> Fraction:
    """Kf of the tail-end-hub extreme graph (pendants at the tail end).

    variant "printed" keeps the (n-1) coefficient of the source's final
    line; "validated" uses (n-l), which matches the graph value.
    """
    _check_abl(n, l, delta)
    if variant not in ("printed", "validated"):
        raise ValueError(f"unknown variant {variant!r}")
    t = n - l - delta
    coeff = n - 1 if variant == "printed" else n - l
    return (
        Fraction(l**3 - l, 12)
        + Fraction((t + 2) * (t + 3) * (n - l + 2 * delta - 2), 6)
        + Fraction(coeff * (l * l - 1), 6)
        + (delta - 1) * (delta - 2)
        + (t + 2) * (delta - 1) * (l - 1)
        + Fraction((l - 1) * (t + 1) * (t + 2), 2)
    )


def kf_a_minus_b(n: int, l: int, delta: int) -> Fraction:
    """Simplified difference polynomial between the two extreme graphs."""
    _check_abl(n, l, delta)
    return Fraction(
        (delta - 3) * l * l
        + (delta - 3) * (delta - n - 4) * l
        - 8 * n
        + 12 * delta
        + 3 * n * delta
        - 3 * delta * delta
        - 12
    )


def theorem_bound(n: int, delta: int) -> Fraction:
    """Sharp upper bound on Kf over unicyclic graphs with max degree delta;
    attained exactly by the triangle-plus-broom extremal graph."""
    if delta < 3 or n < delta + 1:
        raise ParameterError(f"need delta >= 3 and n >= delta+1, got n={n}, delta={delta}")
    d = n - delta
    return (
        Fraction((d + 1) * (d + 2) * (n + 2 * delta - 9), 6)
        + (delta - 3) * (delta - Fraction(2, 3))
        + d * d
        + Fraction(7 * d, 3)
        + 2
    )


def conj_min_formula_i(n: int, delta: int) -> Fraction:
    """Conjectured minimum Kf, small-n branch (single pendant hub)."""
    if delta < 3 or n < delta + 1:
        raise ParameterError(f"need delta >= 3 and n >= delta+1, got n={n}, delta={delta}")
    return Fraction((n + delta - 2) * (n - delta + 3) * (n - delta + 1), 12) + (delta - 2) * (
        n - 1
    )


def conj_ii_x_range(n: int, delta: int) -> range:
    """Admissible hub counts x for the large-n branch."""
    if delta < 3:
        raise ParameterError(f"need delta >= 3, got {delta}")
    lo = -((-(n - delta + 2)) // (delta - 1))  # ceil division
    hi = n // (delta - 1)
    lo = max(lo, 1)
    return range(lo, hi + 1)


def conj_min_formula_ii(n: int, delta: int, x: int) -> Fraction:
    """Conjectured minimum Kf, large-n branch: x consecutive pendant hubs
    on a cycle of length l = n - x(delta-2).

    Any feasible hub count is accepted; the conjecture's own candidate
    range is `conj_ii_x_range`, which the probe minimizes over.
    """
    if delta < 3:
        raise ParameterError(f"need delta >= 3, got {delta}")
    if x < 1:
        raise ParameterError(f"need x >= 1, got {x}")
    l = n - x * (delta - 2)
    if l < 3 or x > l:
        raise ParameterError(f"cycle length l={l} too short for x={x} hubs")
    p = delta - 2
    value = (
        Fraction(l**3 - l, 12)
        + x * p * (delta - 3)
        + x * p * (Fraction(l * l - 1, 6) + l)
        + x * (x - 1) * p * p
    )
    # sum_{i=1..x-1} i (l - i) (x - i) = l x S1 - (l + x) S2 + S3, with the
    # power sums S1, S2 and S3 = S1^2 of 1..x-1
    s1 = x * (x - 1) // 2
    s2 = (x - 1) * x * (2 * x - 1) // 6
    value += Fraction(p * p * (l * x * s1 - (l + x) * s2 + s1 * s1), l)
    return value


FORMULAS = {
    "kf-cycle": (kf_cycle_formula, ("l",)),
    "kfv-cycle": (kfv_cycle_formula, ("l",)),
    "wiener-broom": (wiener_broom_formula, ("n", "delta")),
    "kf-a": (kf_a_formula, ("n", "l", "delta")),
    "kf-b": (kf_b_formula, ("n", "l", "delta")),
    "kf-a-minus-b": (kf_a_minus_b, ("n", "l", "delta")),
    "theorem-bound": (theorem_bound, ("n", "delta")),
    "conj-min-i": (conj_min_formula_i, ("n", "delta")),
    "conj-min-ii": (conj_min_formula_ii, ("n", "delta", "x")),
}
