"""Closed-form profile assembly: alpha, its series at collapsed ends, sampling.

The strongest checks here are hand-derived closed forms for alpha obtained by
integrating the defining first-order equation directly:

  steady representative      alpha = 2 (s^2 + 2s + 2 - 2 e^{-s}) / (s + 2)^2
  expanding representative   alpha = (s^3 + 9s/4 - 7/4 + (7/4) e^{-s}) / (s + 1/2)^2
  calibrated small shrinker  alpha = sqrt(2) s (s + 2 sqrt(2)) / (s + 2)

(the last one uses kappa1 = 1/sqrt(2), where the two constant terms of the
tail integral cancel exactly).  They exercise the moment-based evaluation at
both signs of kappa1 and far out on the domain.
"""

import math

import numpy as np
import pytest

from kricci import acceptance as acc
from kricci import polyexp
from kricci.profiles import alpha_series_at_collapse, build_profile, sample

S_POINTS = (1e-3, 0.5, 2.0, 5.0, 50.0, 500.0, 5000.0)


def test_flat_profile_is_exactly_linear(flat_profile):
    for s in np.linspace(0.0, 20.0, 41):
        smp = sample(flat_profile, float(s))
        assert smp.alpha == pytest.approx(2.0 * s, abs=1e-12)
        assert smp.dalpha == pytest.approx(2.0, abs=1e-12)
        assert smp.d2alpha == pytest.approx(0.0, abs=1e-12)


def test_cigar_profile_closed_form(cigar_profile):
    for s in np.linspace(0.0, 20.0, 41):
        smp = sample(cigar_profile, float(s))
        assert smp.alpha == pytest.approx(2.0 * (1.0 - math.exp(-s)), abs=1e-12)


def test_gaussian_shrinker_is_flat():
    prof = build_profile(acc.gaussian_config())
    for s in (0.0, 0.5, 3.0, 40.0, 400.0):
        assert sample(prof, s).alpha == pytest.approx(2.0 * s, rel=1e-12, abs=1e-12)
    assert prof.t0_snapped


def test_steady_alpha_closed_form(steady_profile):
    for s in S_POINTS:
        ref = 2.0 * (s * s + 2.0 * s + 2.0 - 2.0 * math.exp(-s)) / (s + 2.0) ** 2
        assert sample(steady_profile, s).alpha == pytest.approx(ref, rel=1e-12)


def test_expanding_alpha_closed_form(expanding_profile):
    for s in S_POINTS:
        ref = (s**3 + 2.25 * s - 1.75 + 1.75 * math.exp(-s)) / (s + 0.5) ** 2
        assert sample(expanding_profile, s).alpha == pytest.approx(ref, rel=5e-13)


def test_calibrated_shrinker_alpha_closed_form(noncompact_profile):
    rt2 = math.sqrt(2.0)
    assert noncompact_profile.kappa1 == pytest.approx(1.0 / rt2, abs=1e-12)
    for s in S_POINTS:
        ref = rt2 * s * (s + 2.0 * rt2) / (s + 2.0)
        assert sample(noncompact_profile, s).alpha == pytest.approx(ref, rel=1e-11)
    assert noncompact_profile.t0_snapped


def test_uncalibrated_shrinker_keeps_its_exponential_term():
    prof = build_profile(acc.noncompact_shrinker_small(0.9))
    assert not prof.t0_snapped
    # away from the calibrated slope, alpha deviates from the cone form
    rt2 = math.sqrt(2.0)
    s = 50.0
    cone = rt2 * s * (s + 2.0 * rt2) / (s + 2.0)
    assert abs(sample(prof, s).alpha - cone) > 1.0


def test_boundary_slope_at_zero(steady_profile, expanding_profile, mixed_profile,
                                noncompact_profile):
    for prof in (steady_profile, expanding_profile, mixed_profile, noncompact_profile):
        smp = sample(prof, 0.0)
        assert smp.alpha == pytest.approx(0.0, abs=1e-12)
        assert smp.dalpha == pytest.approx(2.0, abs=1e-10)


def test_series_at_both_collapsed_ends(two_blowdowns_profile, mixed_profile):
    low = alpha_series_at_collapse(two_blowdowns_profile, "zero")
    assert low[0] == pytest.approx(0.0, abs=1e-12)
    assert low[1] == pytest.approx(2.0, abs=1e-10)
    # a CP^1 star end, and a point star end where v(s*) != 0
    for prof in (two_blowdowns_profile, mixed_profile):
        high = alpha_series_at_collapse(prof, "star")
        assert high[0] == pytest.approx(0.0, abs=1e-12)
        assert high[1] == pytest.approx(2.0, abs=1e-10)


def test_series_matches_samples_near_the_ends(two_blowdowns_profile):
    prof = two_blowdowns_profile
    s_star = float(prof.s_domain[1])
    low = alpha_series_at_collapse(prof, "zero")
    high = alpha_series_at_collapse(prof, "star")
    for delta in (1e-5, 1e-4):
        expect = sum(c * delta**k for k, c in enumerate(low))
        assert sample(prof, delta).alpha == pytest.approx(expect, rel=1e-8)
        expect = sum(c * delta**k for k, c in enumerate(high))
        assert sample(prof, s_star - delta).alpha == pytest.approx(expect, rel=1e-8)


def test_series_requires_a_vanishing_v(flat_profile, steady_profile):
    with pytest.raises(ValueError, match="nonvanishing"):
        alpha_series_at_collapse(flat_profile, "zero")
    with pytest.raises(ValueError, match="nonvanishing"):
        alpha_series_at_collapse(steady_profile, "zero")


def test_star_series_rejects_an_uncalibrated_kappa1():
    prof = build_profile(acc.compact_two_blowdowns(0.25))
    with pytest.raises(ValueError, match="singular at s_star"):
        alpha_series_at_collapse(prof, "star")


def test_star_window_is_sized_by_the_radius_of_convergence(
        mixed_profile, two_blowdowns_profile, flat_profile, steady_profile):
    from kricci.model import BoundaryStructure, Collapse, CompactEnd, FanoFactor, derive_config

    # rho = distance from s* to the nearest other zero of v
    assert mixed_profile.star_window == pytest.approx(4.0 / 30.0, rel=1e-15)
    assert two_blowdowns_profile.star_window == pytest.approx(8.0 / 30.0, rel=1e-15)
    # v without zeros: the window is capped at half the interval
    sym = build_profile(derive_config(
        epsilon=-1,
        factors=[FanoFactor(0, 1, -1), FanoFactor(0, 1, 1)],
        boundary=BoundaryStructure(Collapse.FACTOR, compact_end=CompactEnd(Collapse.FACTOR)),
        kappa1=0,
    ))
    assert sym.star_window == 0.5 * float(sym.s_domain[1])
    for prof in (flat_profile, steady_profile):
        assert prof.star_window == 0.0


def _across_star_window_edge(prof):
    """The last s inside the star window and the first one outside it."""
    hi, width = float(prof.s_domain[1]), prof.star_window
    s_in = hi - width
    while hi - s_in > width:
        s_in = math.nextafter(s_in, math.inf)
    s_out = math.nextafter(s_in, -math.inf)
    assert hi - s_out > width
    return s_in, s_out


@pytest.mark.parametrize(("fixture", "rel"), [
    ("mixed_profile", 1e-12),          # point star end
    ("two_blowdowns_profile", 1e-9),   # CP^1 star end
])
def test_alpha_is_continuous_across_the_star_window_edge(request, fixture, rel):
    """Inside the window alpha is the star series, the solution that vanishes
    at s_star; outside it is J/v, the one that vanishes at s = 0.  At a
    numerically solved kappa1 the two differ by exactly the footprint of the
    root's residual, e^{kappa1 s} I(kappa1)/v(s); what is left is evaluation
    error.  J/v sums moment terms far larger than J near a CP^1 star end and
    keeps only ~1e-10 there."""
    prof = request.getfixturevalue(fixture)
    s_in, s_out = _across_star_window_edge(prof)
    inner, outer = sample(prof, s_in), sample(prof, s_out)
    residual = polyexp.exp_poly_integral(prof.psi_poly, prof.kappa1, 0, prof.config.s_star)
    footprint = math.exp(prof.kappa1 * s_out) * residual / outer.v
    assert outer.alpha - inner.alpha == pytest.approx(footprint, abs=rel * inner.alpha)
    assert sample(prof, float(prof.s_domain[1])).alpha == 0.0


def test_singular_star_end_is_recorded_once(monkeypatch):
    prof = build_profile(acc.compact_two_blowdowns(0.25))
    calls = []
    real = polyexp.exp_poly_integral
    monkeypatch.setattr(polyexp, "exp_poly_integral",
                        lambda *a: calls.append(a) or real(*a))
    s_star = float(prof.s_domain[1])
    values = [sample(prof, s_star - d).alpha for d in (0.2, 0.1, 0.01)]
    assert len(calls) == 2  # the existence integral and its majorant, once
    assert all(math.isfinite(a) for a in values)
    with pytest.raises(ValueError, match="singular at s_star"):
        alpha_series_at_collapse(prof, "star")
    assert len(calls) == 2


def test_compact_alpha_vanishes_at_both_ends(mixed_profile):
    s_star = float(mixed_profile.s_domain[1])
    assert sample(mixed_profile, 0.0).alpha == pytest.approx(0.0, abs=1e-12)
    assert sample(mixed_profile, s_star).alpha == pytest.approx(0.0, abs=1e-9)
    # interior positivity
    for s in np.linspace(0.05, s_star - 0.05, 30):
        assert sample(mixed_profile, float(s)).alpha > 0.0


def test_sample_derivatives_match_finite_differences(steady_profile, mixed_profile):
    h = 1e-5
    for prof, pts in ((steady_profile, (0.5, 3.0, 20.0)), (mixed_profile, (0.5, 2.0, 3.5))):
        for s in pts:
            up, dn, mid = sample(prof, s + h), sample(prof, s - h), sample(prof, s)
            fd1 = (up.alpha - dn.alpha) / (2.0 * h)
            fd2 = (up.alpha - 2.0 * mid.alpha + dn.alpha) / (h * h)
            assert mid.dalpha == pytest.approx(fd1, rel=1e-7, abs=1e-7)
            assert mid.d2alpha == pytest.approx(fd2, rel=1e-4, abs=1e-4)


def test_linear_data_is_exact(mixed_profile):
    cfg = mixed_profile.config
    smp = sample(mixed_profile, 1.25)
    for fac, sig, b, db in zip(cfg.factors, cfg.sigmas, smp.beta, smp.dbeta):
        assert b == pytest.approx(float(-fac.q) * (1.25 + float(sig)), rel=1e-15)
        assert db == pytest.approx(float(-fac.q), rel=1e-15)
    assert smp.phi == pytest.approx(mixed_profile.kappa1 * 1.25)
    assert smp.dphi == pytest.approx(mixed_profile.kappa1)


def test_kappa0_shifts_the_potential():
    from kricci.model import BoundaryStructure, Collapse, FanoFactor, derive_config

    cfg = derive_config(
        epsilon=0,
        factors=[FanoFactor(0, 1, -1), FanoFactor(2, 3, -3)],
        boundary=BoundaryStructure(Collapse.FACTOR),
        kappa1=-1,
        kappa0=2.5,
        sigmas=(0, 2),
    )
    smp = sample(build_profile(cfg), 1.0)
    assert smp.phi == pytest.approx(-1.0 * (1.0 + 2.5))
    assert smp.dphi == pytest.approx(-1.0)


def test_sample_rejects_out_of_domain_points(steady_profile, mixed_profile):
    with pytest.raises(ValueError, match="outside the profile domain"):
        sample(steady_profile, -1.0)
    with pytest.raises(ValueError, match="outside the profile domain"):
        sample(mixed_profile, float(mixed_profile.s_domain[1]) + 0.5)


def test_structurally_broken_configs_do_not_build():
    from kricci.model import BoundaryStructure, Collapse, FanoFactor, derive_config

    cfg = derive_config(
        epsilon=-1,
        factors=[FanoFactor(0, 1, 1), FanoFactor(1, 2, -1)],
        boundary=BoundaryStructure(Collapse.FACTOR),
        kappa1=0.7,
    )
    with pytest.raises(ValueError, match="inadmissible configuration"):
        build_profile(cfg)
