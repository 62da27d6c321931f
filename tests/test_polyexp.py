"""Exact polynomial arithmetic and the exp-weighted moment evaluator."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from kricci import polyexp
from kricci.polyexp import (
    as_rational,
    build_shifted_product,
    moments,
    poly_antiderivative,
    poly_derivative,
    poly_eval,
    poly_from_coeffs,
    poly_mul,
    poly_shift,
    sign_changes,
)

# Frozen oracles for M(m, kappa, upper) = integral of x^m e^{-kappa x} over
# [0, upper], computed with 50-digit arbitrary-precision quadrature and
# rounded to shortest double.  The points are chosen to land in every
# evaluation branch: positive-series Kummer, closed form with factorial
# head, the all-positive series for kappa < 0, and tiny |kappa*upper| on
# both series, where the scalar evaluator once had a Taylor branch.
MOMENT_ORACLES = [
    (0, 1.0, 1.0, 0.6321205588285577),
    (5, 0.3, 2.0, 6.396062247131931),
    (12, 2.5, 10.0, 3204.4184644903615),
    (25, 0.004, 3.0, 96640863230.51670),
    (7, -3.0, 9.0, 6.693613641326137e+17),
    (3, 40.0, 2.0, 2.34375e-06),
    (18, -2e-05, 1.5, 116.67900004387107),
    (10, 150.0, 1.0, 4.195262917238226e-18),
    (6, -80.0, 4.0, 4.736002043630208e+140),
]


@pytest.mark.parametrize("m,kappa,upper,expected", MOMENT_ORACLES)
def test_moment_against_frozen_oracles(m, kappa, upper, expected):
    got = moments(kappa, [upper], m + 1)[m, 0]
    assert got == pytest.approx(expected, rel=5e-13)


def test_every_branch_in_one_call():
    """One call whose columns take every branch (the all-positive series,
    the Kummer series, the closed form) and one whose sum overflows: the
    overflowed column leaves the loop at once as +inf, with no warning."""
    m, kappa, upper, expected = (list(col) for col in zip(*MOMENT_ORACLES, (2, -1e8, 1.0, math.inf)))
    start = time.perf_counter()
    got = moments(kappa, upper, max(m) + 1)
    assert time.perf_counter() - start < 1.0
    z = [k * x for k, x in zip(kappa, upper)]
    assert min(z) < 0.0 and any(0.0 < zi < len(got) + 30 for zi in z) and max(z) >= len(got) + 30
    for col, (order, want) in enumerate(zip(m, expected)):
        assert got[order, col] == pytest.approx(want, rel=5e-13)


def test_moment_power_rule_at_zero():
    assert moments(0.0, [2.0], 1)[0, 0] == pytest.approx(2.0, rel=1e-15)
    assert moments(0.0, [3.0], 5)[4, 0] == pytest.approx(3.0**5 / 5.0, rel=1e-15)


def test_moment_table_satisfies_recurrence():
    # Each order is computed by the stable branches; the
    # integration-by-parts recurrence is then a nontrivial cross-check.
    kappa, upper = 0.7, 3.0
    table = moments(kappa, [upper], 12)[:, 0]
    tail = math.exp(-kappa * upper)
    for m in range(1, 12):
        rhs = (m * table[m - 1] - upper**m * tail) / kappa
        assert table[m] == pytest.approx(rhs, rel=1e-12)


def test_build_shifted_product_expansion():
    # (x + 3/2)^2 (x - 3)^2 x, expanded by hand.
    p = build_shifted_product([(Fraction(3, 2), 2), (Fraction(-3), 2), (Fraction(0), 1)])
    assert p == [
        Fraction(0),
        Fraction(81, 4),
        Fraction(27, 2),
        Fraction(-27, 4),
        Fraction(-3),
        Fraction(1),
    ]


def test_exact_zero_integral_is_a_fraction():
    """At kappa = 0 the integral is the antiderivative's difference, an
    exact Fraction, as futaki_integral takes it."""
    p = build_shifted_product([(Fraction(3, 2), 2), (Fraction(-3), 2), (Fraction(0), 1)])
    anti = poly_antiderivative(p)
    val = poly_eval(anti, Fraction(2)) - poly_eval(anti, Fraction(0))
    assert val == Fraction(1229, 30)
    # the moments at kappa = 0 are the power rule, and agree with it
    weights = moments(0.0, [2.0], len(p))[:, 0]
    assert sum(float(c) * m for c, m in zip(p, weights)) == pytest.approx(float(val), rel=1e-14)


def test_sign_changes():
    assert sign_changes([Fraction(1), Fraction(0), Fraction(-2), Fraction(0), Fraction(3)]) == 2
    assert sign_changes([Fraction(-1), Fraction(-5)]) == 0
    with pytest.raises(ValueError):
        sign_changes([Fraction(0), Fraction(0)])


def test_as_rational_accepts_fraction_strings():
    assert as_rational("3/2") == Fraction(3, 2)
    assert as_rational(4) == Fraction(4)
    assert as_rational(Fraction(-7, 3)) == Fraction(-7, 3)


def test_poly_trim_and_degree():
    p = poly_from_coeffs([1, 2, 0, 0])
    assert p == [Fraction(1), Fraction(2)]
    assert polyexp.poly_degree(p) == 1


rational = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
small_poly = st.lists(rational, min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(p=small_poly, h=rational)
def test_poly_shift_roundtrip_is_exact(p, h):
    p = poly_from_coeffs(p)
    assert poly_shift(poly_shift(p, h), -h) == p


@settings(max_examples=80, deadline=None)
@given(p=small_poly, x=rational)
def test_shift_agrees_with_evaluation(p, x):
    p = poly_from_coeffs(p)
    h = Fraction(5, 7)
    assert poly_eval(poly_shift(p, h), x) == poly_eval(p, x + h)


@settings(max_examples=80, deadline=None)
@given(p=small_poly)
def test_antiderivative_inverts_derivative(p):
    p = poly_from_coeffs(p)
    recon = poly_antiderivative(poly_derivative(p))
    # agrees with p up to the lost constant term
    assert poly_from_coeffs([Fraction(0)] + list(p[1:])) == recon or (
        len(p) == 1 and recon == [Fraction(0)]
    )


@settings(max_examples=80, deadline=None)
@given(a=small_poly, b=small_poly, x=rational)
def test_poly_mul_agrees_with_evaluation(a, b, x):
    a, b = poly_from_coeffs(a), poly_from_coeffs(b)
    assert poly_eval(poly_mul(a, b), x) == poly_eval(a, x) * poly_eval(b, x)


@pytest.mark.parametrize("kappa", [-3.0, -0.8, 0.8, 3.0])
def test_small_batches_sum_as_large_ones(kappa):
    """A small batch sums its series in blocks sized by its largest |z|, a
    4,096-point one in blocks of 8 terms: the same points' moments agree to
    4 ulps either way, on both series."""
    rng = np.random.default_rng(7)
    x = np.linspace(1.2, 3.0, 16)
    crowd = np.concatenate([rng.uniform(0.0, 12.0, 4096 - len(x)), x])
    alone, among = moments(kappa, x, 12), moments(kappa, crowd, 12)[:, -len(x):]
    assert np.all(np.abs(alone - among) <= 4.0 * np.spacing(np.abs(among)))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=10),
    kappa=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    upper=st.floats(min_value=0.05, max_value=12.0, allow_nan=False),
)
def test_moment_matches_adaptive_quadrature(m, kappa, upper):
    ref, err = quad(
        lambda x: x**m * math.exp(-kappa * x), 0.0, upper,
        epsabs=0.0, epsrel=1e-10, limit=200,
    )
    assert moments(kappa, [upper], m + 1)[m, 0] == pytest.approx(ref, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    kappa=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    split=st.floats(min_value=0.3, max_value=2.7, allow_nan=False),
)
def test_moment_sums_are_additive(kappa, split):
    """int_0^3 P(x) e^{-kappa x} dx from one column of moments is the sum of
    the integrals over [0, split] and [split, 3], the second from P shifted
    to its left end, across the moments' branches."""
    p = poly_from_coeffs([Fraction(1), Fraction(-3), Fraction(2)])

    def integral(q, upper):
        return sum(float(c) * m for c, m in zip(q, moments(kappa, [upper], len(q))[:, 0]))

    parts = integral(p, split) \
        + math.exp(-kappa * split) * integral(poly_shift(p, Fraction(split)), 3.0 - split)
    assert parts == pytest.approx(integral(p, 3.0), rel=1e-9, abs=1e-12)
