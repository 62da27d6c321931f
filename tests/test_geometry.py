"""Arclength reparametrization, completeness classification, and the flow map.

Arclength oracles were frozen from 60-digit tanh-sinh quadrature of
1/sqrt(alpha) with the exact closed-form alpha (quadrature error estimates
below 1e-30).  The compact diameter is held to 2e-15, about two ulps: on
the star half alpha comes from the mirror profile, which vanishes exactly at
s* whatever the residual of the solved kappa1, and the computed diameter is
within one ulp (8.9e-16) of the oracle.
scipy's adaptive quadrature, which the program does not use, is the
independent oracle of t(s) on every admissible config.
"""

import json
import math
import pathlib

import numpy as np
import pytest
from scipy.integrate import quad

from kricci import acceptance as acc
from kricci import cli, geometry, profiles
from kricci.geometry import (
    CompletenessClass,
    completeness_report,
    flow_trajectory,
    metric_functions,
    potential_rate,
    s_of_t,
    t_of_s,
    volume_growth_exponent,
)
from kricci.profiles import alpha_series_at_collapse, build_profile, sample

# mixed-charge compact shrinker at its solved kappa1
T_AT_2 = 2.457131873715860956435
T_AT_STAR = 4.83608644226425512632

# cigar profile, alpha = 2(1 - e^{-s})
CIGAR_T_AT_HALF = 1.0421404662311674485
CIGAR_T_AT_3 = 3.0836380629317585883


def test_flat_arclength_is_sqrt(flat_profile):
    for s in (1e-4, 0.5, 3.0, 100.0):
        assert t_of_s(flat_profile, s) == pytest.approx(math.sqrt(2.0 * s), rel=1e-10)


def test_cigar_arclength_oracles(cigar_profile):
    assert t_of_s(cigar_profile, 0.5) == pytest.approx(CIGAR_T_AT_HALF, abs=1e-9)
    assert t_of_s(cigar_profile, 3.0) == pytest.approx(CIGAR_T_AT_3, abs=1e-9)


def test_compact_arclength_oracles(mixed_profile):
    assert t_of_s(mixed_profile, 2.0) == pytest.approx(T_AT_2, abs=1e-10)
    s_star = float(mixed_profile.s_domain[1])
    assert t_of_s(mixed_profile, s_star) == pytest.approx(T_AT_STAR, abs=2e-15)


def test_arclength_round_trips(steady_profile, expanding_profile, mixed_profile,
                               noncompact_profile):
    for prof in (steady_profile, expanding_profile, noncompact_profile):
        for s in np.geomspace(1e-4, 50.0, 12):
            t = t_of_s(prof, float(s))
            assert s_of_t(prof, t) == pytest.approx(float(s), rel=1e-13)
    s_star = float(mixed_profile.s_domain[1])
    for s in np.linspace(0.01, s_star - 0.01, 12):
        t = t_of_s(mixed_profile, float(s))
        assert s_of_t(mixed_profile, t) == pytest.approx(float(s), rel=1e-13)


def test_queries_take_arrays(mixed_profile, steady_profile):
    """An array argument gives an array of the same shape, each entry equal
    to the float query (the batch shares its Newton iterations)."""
    s = np.array([[0.5, 1.0], [2.0, 3.9]])
    t = t_of_s(mixed_profile, s)
    assert t.shape == s.shape
    assert isinstance(t_of_s(mixed_profile, 2.0), float)
    for si, ti in zip(s.ravel(), t.ravel()):
        assert ti == pytest.approx(t_of_s(mixed_profile, float(si)), rel=1e-15)
    assert s_of_t(mixed_profile, t) == pytest.approx(s, rel=1e-13)
    xi = flow_trajectory(steady_profile, 0.3, t)
    assert xi.shape == s.shape
    for ti, xj in zip(t.ravel(), xi.ravel()):
        assert xj == pytest.approx(flow_trajectory(steady_profile, 0.3, float(ti)), rel=1e-13)


def _admissible_configs():
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    return sorted(p for p in root.glob("*.json") if p.name != "invalid-positive-charge.json")


def _quad_arclength(prof, s):
    """t(s) by adaptive quadrature in w with x = w^2 from each collapsed end,
    on sample()'s alpha."""
    def from_zero(w):
        return 2.0 * w / math.sqrt(sample(prof, w * w).alpha)

    def from_star(w):
        return 2.0 * w / math.sqrt(sample(prof, s_star - w * w).alpha)

    s_star = float(prof.s_domain[1])
    half = min(s, 0.5 * s_star)
    t = quad(from_zero, 0.0, math.sqrt(half), epsabs=0.0, epsrel=1e-13, limit=200)[0]
    if s > half:
        t += quad(from_star, math.sqrt(s_star - s), math.sqrt(s_star - half),
                  epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return t


@pytest.mark.parametrize("path", _admissible_configs(), ids=lambda p: p.name)
def test_arclength_matches_adaptive_quadrature(path):
    doc = json.loads(path.read_text())
    config, _, _ = cli._admissible_config(doc, doc["kappa1"] == "solve")
    prof = build_profile(config)
    hi = prof.s_domain[1]
    points = (1e-6, 0.3, 2.0, 20.0, 300.0) if math.isinf(hi) \
        else tuple(f * hi for f in (1e-6, 0.1, 0.5, 0.8, 0.99))
    t = t_of_s(prof, np.array(points))
    for s, ts in zip(points, t):
        assert ts == pytest.approx(_quad_arclength(prof, s), rel=1e-12)


def test_arclength_is_monotone(mixed_profile):
    s_grid = np.linspace(0.0, float(mixed_profile.s_domain[1]), 40)
    t_vals = [t_of_s(mixed_profile, float(s)) for s in s_grid]
    assert all(a < b for a, b in zip(t_vals, t_vals[1:]))


def test_s_of_t_rejects_unreachable_points(mixed_profile):
    t_star = t_of_s(mixed_profile, float(mixed_profile.s_domain[1]))
    with pytest.raises(ValueError, match="beyond the end of the compact interval"):
        s_of_t(mixed_profile, t_star + 0.5)


def test_metric_functions_on_the_flat_profile(flat_profile):
    t = np.array([0.5, 1.0, 2.0])
    mf = metric_functions(flat_profile, t)
    assert mf.f == pytest.approx(t, rel=1e-10)
    assert mf.g[0] == pytest.approx(t / math.sqrt(2.0), rel=1e-10)
    assert mf.g[1] == pytest.approx(np.sqrt(t * t / 2.0 + 1.0), rel=1e-10)
    assert mf.u == pytest.approx(np.zeros(3), abs=1e-12)
    assert mf.s_of_t == pytest.approx(t * t / 2.0, rel=1e-10)


def test_completeness_classes(steady_profile, expanding_profile, mixed_profile,
                              noncompact_profile, flat_profile):
    assert completeness_report(steady_profile).completeness_class \
        is CompletenessClass.CIGAR_PARABOLOID
    assert completeness_report(expanding_profile).completeness_class \
        is CompletenessClass.ASYMPTOTICALLY_CONICAL
    rep = completeness_report(mixed_profile)
    assert rep.completeness_class is CompletenessClass.COMPACT
    assert rep.geodesic_length == pytest.approx(T_AT_STAR, abs=2e-15)
    assert completeness_report(noncompact_profile).completeness_class \
        is CompletenessClass.ASYMPTOTICALLY_CONICAL
    flat = completeness_report(flat_profile)
    assert flat.completeness_class is CompletenessClass.ASYMPTOTICALLY_CONICAL
    assert "Einstein" in flat.note


def test_wrong_sign_slopes_are_incomplete():
    prof = build_profile(acc.steady_representative(kappa1=1))
    rep = completeness_report(prof)
    assert rep.completeness_class is CompletenessClass.INCOMPLETE
    assert math.isfinite(rep.geodesic_length)

    prof = build_profile(acc.noncompact_shrinker_small(0.9))
    assert completeness_report(prof).completeness_class is CompletenessClass.INCOMPLETE


def test_volume_growth_exponents(steady_profile, expanding_profile, noncompact_profile):
    # hypersurface volume f*v against t: bounded fibre with sqrt-growth base
    # gives sum(n), cone ends give 2*sum(n) + 1
    assert volume_growth_exponent(steady_profile) == pytest.approx(2.0, abs=0.1)
    assert volume_growth_exponent(expanding_profile) == pytest.approx(5.0, abs=0.1)
    assert volume_growth_exponent(noncompact_profile) == pytest.approx(3.0, abs=0.1)


def test_flow_is_the_identity_at_tau_zero(steady_profile, expanding_profile,
                                         noncompact_profile, mixed_profile):
    """The inverse of F stops at a relative tolerance, so the identity holds
    to rounding from the tip out (on a compact profile, up to 0.99 T)."""
    for prof in (steady_profile, expanding_profile, noncompact_profile, mixed_profile):
        ts = np.geomspace(1e-6, 10.0, 40)
        if prof.is_compact:
            ts = ts[ts < 0.99 * t_of_s(prof, prof.s_domain[1])]
        assert flow_trajectory(prof, 0.0, ts) == pytest.approx(ts, rel=1e-13)
        assert flow_trajectory(prof, 0.0, 4.0 if not prof.is_compact else 2.0) \
            == pytest.approx(4.0 if not prof.is_compact else 2.0, rel=1e-13)


def test_flow_is_trivial_for_a_constant_potential(flat_profile):
    for tau in (-0.5, 0.0, 2.0):
        assert flow_trajectory(flat_profile, tau, 1.5) == pytest.approx(1.5, rel=1e-12)


def test_flow_satisfies_its_defining_equation(steady_profile, mixed_profile,
                                              expanding_profile):
    h = 1e-4
    cases = (
        (steady_profile, (2.0, 5.0, 9.0), 0.3),
        (expanding_profile, (2.0, 5.0, 9.0), 0.3),
        (mixed_profile, (1.0, 2.4, 3.8), 0.2),
    )
    for prof, ts, tau in cases:
        eps = float(prof.config.epsilon)
        for t in ts:
            xi = flow_trajectory(prof, tau, t)
            dxi = (flow_trajectory(prof, tau + h, t)
                   - flow_trajectory(prof, tau - h, t)) / (2.0 * h)
            assert dxi == pytest.approx(potential_rate(prof, xi) / (1.0 + eps * tau),
                                        rel=1e-5, abs=1e-6)


def test_flow_composes_like_a_group_in_the_steady_case(steady_profile):
    # with eps = 0 the time shifts add
    t0 = 5.0
    one = flow_trajectory(steady_profile, 0.9, flow_trajectory(steady_profile, 0.4, t0))
    two = flow_trajectory(steady_profile, 1.3, t0)
    assert one == pytest.approx(two, rel=1e-10)


def test_cold_compact_tables_stay_cheap(mixed_profile, monkeypatch):
    """One 8-point Gauss-Legendre panel per node interval, checked by
    doubling, costs 24 alpha points a panel: about 10.5k for each cold table
    of the mixed-charge shrinker, counted at the public
    alpha_and_condition, inside which the mirror serves the star half."""
    points = []
    kernel = profiles.alpha_and_condition
    monkeypatch.setattr(profiles, "alpha_and_condition",
                        lambda p, s, d=None: points.append(np.size(s)) or kernel(p, s, d))
    for build_table in (geometry._arclength, geometry._flow_potential):
        points.clear()
        build_table(build_profile(mixed_profile.config))
        assert 0 < sum(points) <= 12_000


def test_flow_near_the_compact_diameter(mixed_profile):
    """Past the last node F continues in u = log(s* - s), so the flow works
    up to the diameter T, which it fixes.  At tau = 0.2 the flow relation
    F(Xi) - F(t) = shift is checked against an oracle on the star series
    (the mirror's zero series), alpha = sum c_k delta^k, with delta from s*
    found by quadrature."""
    prof = mixed_profile
    k1 = prof.kappa1
    diameter = t_of_s(prof, prof.s_domain[1])
    assert flow_trajectory(prof, 0.2, diameter) == diameter
    coeffs = alpha_series_at_collapse(prof, "star")

    def alpha(delta):
        return sum(c * delta**j for j, c in enumerate(coeffs))

    def delta_at(t):
        # T - t = int_0^delta ddelta/sqrt(alpha), in w = sqrt(delta)
        def gap(w):
            return quad(lambda x: 2.0 * x / math.sqrt(alpha(x * x)), 0.0, w,
                        epsabs=0.0, epsrel=1e-13)[0] - (T_AT_STAR - t)
        w_lo, w_hi = 0.5 * (T_AT_STAR - t) / math.sqrt(2.0), 2.0 * (T_AT_STAR - t)
        for _ in range(80):
            w_mid = 0.5 * (w_lo + w_hi)
            w_lo, w_hi = (w_mid, w_hi) if gap(w_mid) < 0.0 else (w_lo, w_mid)
        return (0.5 * (w_lo + w_hi)) ** 2

    eps = float(prof.config.epsilon)
    shift = math.log1p(eps * 0.2) / eps
    for gap_t in (1e-5, 1e-3):
        t = diameter - gap_t
        assert flow_trajectory(prof, 0.0, t) == pytest.approx(t, rel=1e-12)
        xi = flow_trajectory(prof, 0.2, t)
        assert 0.0 < xi <= diameter
        d_here, d_there = delta_at(t), delta_at(xi)
        f_gap = quad(lambda v: math.exp(v) / (k1 * alpha(math.exp(v))),
                     math.log(d_there), math.log(d_here), epsabs=0.0, epsrel=1e-13)[0]
        assert f_gap == pytest.approx(shift, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_flow_near_the_tip(steady_profile, expanding_profile, tau):
    """The s = 0 tip is fixed by the flow.  Just off it alpha ~ 2s, so
    F ~ log(s)/(2 kappa1) and the flow scales t by exp(kappa1 * shift)."""
    for prof in (steady_profile, expanding_profile):
        assert flow_trajectory(prof, tau, 0.0) == 0.0
        eps = float(prof.config.epsilon)
        shift = math.log1p(eps * tau) / eps if eps else tau
        xi = flow_trajectory(prof, tau, 1e-5)
        assert xi == pytest.approx(1e-5 * math.exp(prof.kappa1 * shift), rel=1e-9)


def test_flow_rejects_times_outside_the_domain(mixed_profile):
    with pytest.raises(ValueError, match="outside the flow's time domain"):
        flow_trajectory(mixed_profile, 2.0, 2.0)


def test_potential_rate_matches_the_chain_rule(steady_profile):
    for t in (1.0, 4.0):
        s = s_of_t(steady_profile, t)
        expected = steady_profile.kappa1 * math.sqrt(sample(steady_profile, s).alpha)
        assert potential_rate(steady_profile, t) == pytest.approx(expected, rel=1e-10)
