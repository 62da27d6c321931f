"""Existence conditions: the obstruction integral and the moment polynomial.

Root oracles were frozen from 50-digit arbitrary-precision bisection of the
obstruction integral built independently from the weighted boundary
polynomial; the package must match them to 1e-14.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fraction_polys import fractions, obstruction_data, v_psi_polys
from kricci import acceptance as acc
from kricci.model import (
    BoundaryStructure,
    Collapse,
    CompactEnd,
    FanoFactor,
    derive_config,
    exact_core,
    validate,
    with_kappa1,
)
from kricci.profiles import build_profile
from kricci.obstruction import (
    chi_poly,
    find_kappa1_compact,
    find_kappa1_noncompact,
    futaki_integral,
    futaki_sweep,
    symmetry_identity_check,
)

ROOT_ORACLES = {
    "mixed-charges": 0.39368379919727464,
    "equal-charges": 1.5752233896573089,
    "two-blowdowns": 0.70943865122594011,
}

EXACT_AT_ZERO = {
    "mixed-charges": Fraction(39, 5),
    "equal-charges": Fraction(1368, 7),
    "two-blowdowns": Fraction(-7680, 7),
}


def test_exact_values_at_zero():
    for name, builder in acc.COMPACT_SUITE.items():
        ev = futaki_integral(builder(), 0)
        assert ev.exact_value == EXACT_AT_ZERO[name]
        assert ev.value == pytest.approx(float(EXACT_AT_ZERO[name]), rel=1e-15)


def test_float_value_away_from_zero():
    ev = futaki_integral(acc.compact_mixed_charges(), 0.5)
    assert ev.exact_value is None
    assert ev.value == pytest.approx(-0.7289221039962626, rel=1e-12)


def test_sweep_gives_the_bits_of_one_integral_per_point():
    """The sweep builds w and its end rows once; each value is still
    futaki_integral's, bit for bit, on both ends and at an exact zero."""
    kappas = [-3.7, -1.0, -0.25, -0.0, 0.0, 1e-300, 0.5, 2.0, 40.0]
    for builder in acc.COMPACT_SUITE.values():
        config = builder()
        sweep = futaki_sweep(config, kappas)
        assert list(map(repr, sweep)) == [repr(futaki_integral(config, k).value)
                                          for k in kappas]


def test_integral_matches_direct_quadrature():
    # independent reconstruction: 2^{-(sum n + 2)} * integral over [0, s*]
    # of e^{-kappa y} (y - 2N0 - 2) prod (y + sigma_i)^{n_i}
    cfg = acc.compact_mixed_charges()
    sig = [float(s) for s in cfg.sigmas]
    total_n = sum(f.n for f in cfg.factors)

    def integrand(y, kappa):
        prod = 1.0
        for fac, s in zip(cfg.factors, sig):
            prod *= (y + s) ** fac.n
        return math.exp(-kappa * y) * (y - 2.0) * prod

    for kappa in (0.0, 0.5, -0.3, 1.7):
        ref, _ = quad(integrand, 0.0, float(cfg.s_star), args=(kappa,),
                      epsabs=0.0, epsrel=1e-12)
        ref /= 2.0 ** (total_n + 2)
        assert futaki_integral(cfg, kappa).value == pytest.approx(ref, rel=1e-10)


def test_compact_roots_match_frozen_oracles():
    for name, builder in acc.COMPACT_SUITE.items():
        rr = find_kappa1_compact(builder())
        assert abs(rr.kappa1 - ROOT_ORACLES[name]) <= 1e-14
        assert rr.residual <= 1e-9
        assert rr.uniqueness_certificate == 1
        assert all(math.isfinite(end) for end in rr.bracket)
        assert rr.bracket[0] < rr.kappa1 < rr.bracket[1]
        assert abs(futaki_integral(builder(), rr.kappa1).value) <= 1e-9


def test_weight_changing_sign_has_no_certificate():
    # the middle root p/q = -1/2 lies inside (-N0-1, N*+1) = (-1, 1)
    cfg = derive_config(
        epsilon=-1,
        factors=[FanoFactor(0, 1, -1), FanoFactor(1, 1, -2), FanoFactor(0, 1, 1)],
        boundary=BoundaryStructure(Collapse.FACTOR, CompactEnd(Collapse.FACTOR)),
        kappa1=0,
    )
    with pytest.raises(ValueError, match="no uniqueness certificate"):
        find_kappa1_compact(cfg)


@st.composite
def compact_shrinkers(draw):
    """Admissible compact shrinkers: projective unit-charge ends of dimension
    N0 and N* and 1-3 middle factors with p > max(-(N0+1)q, (N*+1)q).  Each
    middle factor is a Fano manifold of dimension n <= 3 with c_1 = p a, a
    indivisible, so p <= n + 1 (Kobayashi-Ochiai)."""
    n0, n_star = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    options = [FanoFactor(n, p, q) for n in (1, 2, 3) for p in range(1, n + 2)
               for q in (-3, -2, -1, 1, 2, 3) if p > max(-(n0 + 1) * q, (n_star + 1) * q)]
    middle = draw(st.lists(st.sampled_from(options), min_size=1, max_size=3))
    return derive_config(
        epsilon=-1,
        factors=[FanoFactor(n0, n0 + 1, -1), *middle, FanoFactor(n_star, n_star + 1, 1)],
        boundary=BoundaryStructure(Collapse.FACTOR, CompactEnd(Collapse.FACTOR)),
        kappa1=0,
    )


@st.composite
def rational_compact_shrinkers(draw):
    """Admissible compact shrinkers with rational charges and the strict
    unit charge off: ends with p/q = -(N0+1) and N*+1, and 1-3 middle
    factors with p from 1 to 2n + 4, so p > n + 1 is drawn too."""
    n0, n_star = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    charge = st.fractions(min_value=Fraction(1, 4), max_value=Fraction(3), max_denominator=4)
    q0, q1 = -draw(charge), draw(charge)
    middle = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 3))
        p = draw(st.fractions(min_value=1, max_value=2 * n + 4, max_denominator=3))
        # -(N0+1) q < p and (N*+1) q < p; q = +-1/4 always qualifies
        q = draw(st.sampled_from([q for q in (Fraction(a, b) for a in range(-12, 13) if a
                                              for b in range(1, 5))
                                  if -(n0 + 1) * q < p and (n_star + 1) * q < p]))
        middle.append(FanoFactor(n, p, q))
    return derive_config(
        epsilon=-1,
        factors=[FanoFactor(n0, -(n0 + 1) * q0, q0), *middle,
                 FanoFactor(n_star, (n_star + 1) * q1, q1)],
        boundary=BoundaryStructure(Collapse.FACTOR, CompactEnd(Collapse.FACTOR),
                                   strict_unit_charge=False),
        kappa1=0,
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(rational_compact_shrinkers())
def test_integer_core_is_the_fraction_reference(cfg):
    """The exact core's float end rows, the sign of w and the exact I(0)
    are, bit for bit, those of w built in Fractions and shifted to each end
    by poly_shift.  Its v and Psi are those of v_psi_polys, and so are the
    mirror's, which the profile at the root reflects from the parent's."""
    assert validate(cfg).admissible
    core = exact_core(cfg)
    rows, sign, at_zero = obstruction_data(cfg)
    assert (core.sign, core.at_zero) == (sign, at_zero)
    for side in (1, -1):
        assert core.rows[side].tobytes() == rows[side].tobytes()
    assert (fractions(core.v, core.den), fractions(core.psi, core.den)) == \
        v_psi_polys(cfg, cfg.E_star)
    prof = build_profile(with_kappa1(cfg, find_kappa1_compact(cfg).kappa1))
    mirror = prof.mirror
    assert mirror is not None and prof.config.core is core
    assert (fractions(mirror.v_poly, mirror.poly_den), fractions(mirror.psi_poly, mirror.poly_den)) \
        == v_psi_polys(mirror.config, mirror.E_eff)


def _mp_obstruction(cfg, kappa):
    """I(kappa) = int_0^L e^{-a y} P(y) dy, a = 2 kappa, with P the x-form in
    y = x + N0 + 1, from its exact antiderivative
    sum_k (P^(k)(0) - e^{-a L} P^(k)(L)) / a^(k+1), with enough extra digits
    to absorb the cancellation of that sum at small a."""
    coeffs = [Fraction(-(cfg.n_zero + 1)), Fraction(1)]  # x
    for fac in cfg.factors:
        for _ in range(fac.n):  # times (y - (N0 + 1) - p/q)
            root = cfg.n_zero + 1 + fac.p / fac.q
            coeffs = [b - root * a for a, b in zip(coeffs + [0], [0] + coeffs)]
    upper = cfg.n_zero + cfg.n_star + 2
    at_zero, at_upper = [], []
    while coeffs:
        at_zero.append(coeffs[0])
        at_upper.append(sum(c * upper ** m for m, c in enumerate(coeffs)))
        coeffs = [m * c for m, c in enumerate(coeffs)][1:]
    rate = 2 * mp.mpf(kappa)
    if rate == 0:
        exact = sum((pl - p0) * Fraction(upper) ** (k + 1) / math.factorial(k + 1)
                    for k, (p0, pl) in enumerate(zip(at_zero, at_upper)))
        return mp.mpf(exact.numerator) / exact.denominator
    extra = 10 + len(at_zero) * max(0, int(-mp.log10(abs(rate))))
    with mp.extradps(extra):
        decay = mp.exp(-rate * upper)
        return +mp.fsum((mp.mpf(p0.numerator) / p0.denominator
                         - decay * mp.mpf(pl.numerator) / pl.denominator) / rate ** (k + 1)
                        for k, (p0, pl) in enumerate(zip(at_zero, at_upper)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(compact_shrinkers())
def test_compact_root_is_certified_and_matches_mpmath(cfg):
    assert validate(cfg).admissible
    rr = find_kappa1_compact(cfg)
    assert rr.uniqueness_certificate == 1
    assert rr.bracket[0] <= rr.kappa1 <= rr.bracket[1]
    with mp.workdps(30):
        delta = 1e-6 * max(1.0, abs(rr.kappa1))
        lo, hi = mp.mpf(rr.kappa1) - delta, mp.mpf(rr.kappa1) + delta
        below = _mp_obstruction(cfg, lo)
        assert below * _mp_obstruction(cfg, hi) < 0
        for _ in range(64):  # bisect the 30-digit I down to 2^-64 of the bracket
            mid = (lo + hi) / 2
            if _mp_obstruction(cfg, mid) * below > 0:
                lo = mid
            else:
                hi = mid
        assert abs(lo - rr.kappa1) <= 1e-12 * max(1, abs(lo))


def test_negative_root_residual_is_summed_at_the_leaning_end():
    """For kappa1 < 0 the measure leans towards x = N*+1, and I is summed
    in that end's moments, as the root is: at the root of this shrinker
    (kappa1 ~ -1.8169) the reported residual is within 1e-13 (the 30-digit
    I is ~2e-14 there), where sums at the left end left 4.4e-11."""
    cfg = derive_config(
        epsilon=-1,
        factors=[FanoFactor(0, 1, -1), FanoFactor(2, 3, 2), FanoFactor(3, 3, 2), FanoFactor(0, 1, 1)],
        boundary=BoundaryStructure(Collapse.FACTOR, CompactEnd(Collapse.FACTOR)),
        kappa1=0,
    )
    rr = find_kappa1_compact(cfg)
    assert rr.kappa1 == pytest.approx(-1.8169, abs=1e-4)
    assert rr.residual <= 1e-13
    with mp.workdps(30):
        assert abs(_mp_obstruction(cfg, mp.mpf(rr.kappa1))) <= 1e-13


def test_reflection_identity():
    cfg = acc.compact_mixed_charges()
    for kappa in (0.0, 0.3, -0.7):
        lhs, rhs = symmetry_identity_check(cfg, kappa)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_reflection_identity_needs_equal_collapse_dimensions():
    cfg = derive_config(
        epsilon=-1,
        factors=[FanoFactor(1, 2, -1), FanoFactor(2, 3, -1), FanoFactor(0, 1, 1)],
        boundary=BoundaryStructure(Collapse.FACTOR, CompactEnd(Collapse.FACTOR)),
        kappa1=0.3,
    )
    with pytest.raises(ValueError, match="equal collapsing dimensions"):
        symmetry_identity_check(cfg, 0.3)


def test_futaki_requires_a_compact_shrinker(steady_profile):
    with pytest.raises(ValueError):
        futaki_integral(steady_profile.config, 0.0)


def test_noncompact_root_is_the_hand_value(noncompact_root):
    # chi(y) = 4 - 2y + higher orders collapses here to an exactly solvable
    # linear polynomial scaled by the factor data; the root is 1/sqrt(2)
    assert abs(noncompact_root.kappa1 - 1.0 / math.sqrt(2.0)) <= 1e-12
    assert noncompact_root.uniqueness_certificate == 1
    assert noncompact_root.residual <= 1e-12


def test_gaussian_root_is_one_half():
    cfg = derive_config(
        epsilon=-1,
        factors=[FanoFactor(0, 1, -1)],
        boundary=BoundaryStructure(Collapse.FACTOR),
        kappa1=1.0,
    )
    rr = find_kappa1_noncompact(cfg)
    assert rr.kappa1 == pytest.approx(0.5, abs=1e-13)
    assert rr.uniqueness_certificate == 1


def test_chi_poly_of_the_small_shrinker():
    cfg = acc.noncompact_shrinker_small()
    # Psi = (2 - x)(x + 2) has a_0 = 4, a_1 = 0, a_2 = -1; with N0 = 0 the
    # factorial weights give chi = [4, 0, -2]
    assert chi_poly(cfg) == [Fraction(4), Fraction(0), Fraction(-2)]


def test_descartes_certificate_failure_raises():
    cfg = derive_config(
        epsilon=-1,
        factors=[FanoFactor(0, 1, -1), FanoFactor(2, 1, -2)],
        boundary=BoundaryStructure(Collapse.FACTOR),
        kappa1=1.0,
    )
    with pytest.raises(ValueError, match="3 coefficient sign changes"):
        find_kappa1_noncompact(cfg)


def test_noncompact_solver_rejects_wrong_classes():
    with pytest.raises(ValueError, match="noncompact shrinking"):
        find_kappa1_noncompact(acc.compact_mixed_charges())
    with pytest.raises(ValueError, match="noncompact shrinking"):
        find_kappa1_noncompact(acc.steady_representative())
