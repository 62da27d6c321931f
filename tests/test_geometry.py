"""Arclength reparametrization, completeness classification, and the flow map.

Arclength oracles were frozen from 60-digit tanh-sinh quadrature of
1/sqrt(alpha) with the exact closed-form alpha (quadrature error estimates
below 1e-30).  The compact diameter is held to 2e-15, about two ulps: on
the star half alpha comes from the mirror profile, which vanishes exactly at
s* whatever the residual of the solved kappa1, and the computed diameter,
a compensated sum of the table's leaves, is 2.0e-16 from the oracle, the
nearest float.
scipy's adaptive quadrature, which the program does not use, is the
independent oracle of t(s) on every admissible config.
"""

import functools
import itertools
import json
import math
import pathlib
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
)
from kricci.profiles import build_profile, sample

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
    # below the end node t is the end rule's closed form in y = log(s), which
    # never forms s, down to the smallest subnormal; there one float spacing
    # of y is 1.1e-13 of s
    for s in (1e-305, 1e-308, 1e-309, 5e-324):
        t = t_of_s(steady_profile, s)
        assert t == pytest.approx(math.sqrt(2.0 * s), rel=1e-13)
        assert s_of_t(steady_profile, t) == pytest.approx(s, rel=1e-13)
    s = s_of_t(steady_profile, 1e-150)
    assert s == pytest.approx(5e-301, rel=1e-13)
    assert t_of_s(steady_profile, s) == pytest.approx(1e-150, rel=1e-13)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_arclength_round_trips_across_the_fold(mixed_profile, two_blowdowns_profile, data):
    """The table coordinate folds at s*/2; s_of_t(t_of_s(s)) returns s to
    1e-13 of its distance from the nearer end on both sides of the fold, at
    its neighbouring floats, and up to s* - 1e-15.  t is monotone, and
    strictly increasing between points more than 1e-12 apart (adjacent
    floats may share a t, whose own ulp is larger).  Draws stay above
    s = 1e-299: below it one float spacing of y exceeds 1e-13 of delta."""
    for prof in (mixed_profile, two_blowdowns_profile):
        s_star = prof.s_domain[1]
        half = 0.5 * s_star
        special = [half, math.nextafter(half, 0.0), math.nextafter(half, s_star)]
        special += [s_star - 10.0 ** -k for k in range(1, 16)]
        anywhere = st.floats(1e-299, s_star, exclude_max=True)
        s = np.unique(data.draw(st.lists(st.one_of(st.sampled_from(special), anywhere),
                                         min_size=2, max_size=16)))
        t = t_of_s(prof, s)
        assert np.all(np.abs(s_of_t(prof, t) - s) <= 1e-13 * np.minimum(s, s_star - s))
        assert np.all(np.diff(t) >= 0.0)
        assert np.all(np.diff(t)[np.diff(s) > 1e-12] > 0.0)


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


def test_arclength_near_the_ends_matches_mpmath(steady_profile, mixed_profile, mp_alpha):
    """Below the end node t is the end rule's closed form.  Near s = 0 it
    matches a 30-digit quadrature of alpha^-1/2 in w = sqrt(s) to 2e-15 on
    both sides of the end node: on the steady profile and on the mixed-
    charge shrinker (point ends), and on steady.json with a second zero of
    v at -1e-9, whose series reach 3.3e-11 sets the end node, and at
    s = 1e-300.  Near s* the diameter less that quadrature on the mirror's
    alpha matches t to 2e-15."""
    doc = json.loads((pathlib.Path(__file__).resolve().parents[1] / "configs"
                      / "steady.json").read_text())
    close = build_profile(cli._admissible_config(dict(doc, sigmas=[0, "1/1000000000"]),
                                                 False)[0])
    assert close.series_reach < 1e-10

    def arclength(alpha, delta):
        return mp.quad(lambda w: 2 * w / mp.sqrt(alpha(w * w)), [0, mp.sqrt(delta)])

    with mp.workdps(30):
        for prof in (steady_profile, close, mixed_profile):
            exact = mp_alpha(prof)
            for delta in (1e-14, 1e-11, 1e-9, 1e-8, 1e-6):
                assert t_of_s(prof, delta) == pytest.approx(float(arclength(exact, delta)),
                                                            rel=2e-15)
            assert t_of_s(prof, 1e-300) == pytest.approx(float(arclength(exact, 1e-300)),
                                                         rel=2e-15)
        s_star, exact = mixed_profile.s_domain[1], mp_alpha(mixed_profile.mirror)
        for delta in (2.0 ** -45, 2.0 ** -27, 2.0 ** -20):  # s* - delta is a float
            ref = mp.mpf("4.83608644226425512632") - arclength(exact, delta)
            assert t_of_s(mixed_profile, s_star - delta) == pytest.approx(float(ref), abs=2e-15)


def test_arclength_below_the_end_node_reads_s_itself(steady_profile, mixed_profile):
    """Below the s = 0 end node t_of_s evaluates the end rule from s itself,
    sqrt(s) in place of e^(y/2), which would carry only |log s| * 2^-53 of
    relative precision: t is 2 sqrt(s/c1) to 2e-16 relative, down to the
    smallest subnormal, on point ends with c1 = 2."""
    for prof in (steady_profile, mixed_profile):
        c1 = prof.zero_series[1]
        assert c1 == 2.0
        for s in (1e-100, 1e-300, 1e-305, 5e-324):
            exact = 2 * mp.sqrt(mp.mpf(s) / c1)
            assert abs(t_of_s(prof, s) - exact) <= 2e-16 * exact


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


def test_uncalibrated_compact_profile_has_no_tables():
    """Off the existence condition alpha is singular at s*: no mirror is
    glued on, and the tables refuse the profile."""
    prof = build_profile(acc.compact_mixed_charges(0.5))
    assert prof.mirror is None
    with pytest.raises(ValueError, match="singular at s_star"):
        completeness_report(prof)


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
    def volume_growth_exponent(profile, t_large=1.0e3):
        # two-point log-log slope of f*v against t
        smp = sample(profile, s_of_t(profile, np.array([0.1 * t_large, t_large])))
        lo, hi = np.log(np.sqrt(smp.alpha) * smp.v)
        return float(hi - lo) / (math.log(t_large) - math.log(0.1 * t_large))

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


@pytest.mark.parametrize("tau", [40.0, 50.0, 150.0, 300.0])
def test_cigar_flow_matches_its_closed_form(cigar_profile, tau):
    """alpha = 2(1 - e^-s) gives t = sqrt(2) asinh(sqrt(e^s - 1)) and F =
    -log(e^s - 1)/2, so Xi = sqrt(2) asinh(sqrt((e^s - 1) e^(-2 tau))).
    At these times Xi's s lies within e^(-2 tau + 50) of the tip, where |y|
    is large enough that Newton must stop at the float spacing of y."""
    s = np.linspace(0.05, 50.0, 40)
    t = math.sqrt(2.0) * np.arcsinh(np.sqrt(np.expm1(s)))
    exact = math.sqrt(2.0) * np.arcsinh(np.sqrt(np.expm1(s) * math.exp(-2.0 * tau)))
    assert flow_trajectory(cigar_profile, tau, t) == pytest.approx(exact, rel=2e-13)


@pytest.mark.parametrize("tau", [0.999999, 1.0 - 1e-9])
def test_noncompact_flow_past_the_last_node(noncompact_profile, tau):
    """Past the last node (s = 1e5) F continues in y.  On this shrinker F =
    log(s)/sqrt(2) + (1 - 1/sqrt(2)) log(s + 2 sqrt(2)) in closed form, and
    F(s') - F(s) = -log(1 - tau) with s' out to 5e10."""
    r2 = math.sqrt(2.0)

    def closed_form(s):
        return np.log(s) / r2 + (1.0 - 1.0 / r2) * np.log(s + 2.0 * r2)

    s = np.linspace(0.05, 50.0, 40)
    moved = s_of_t(noncompact_profile,
                   flow_trajectory(noncompact_profile, tau, t_of_s(noncompact_profile, s)))
    assert moved.max() > 1e5
    assert closed_form(moved) - closed_form(s) == pytest.approx(
        np.full(s.shape, -math.log1p(-tau)), rel=0.0, abs=1e-13)


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


def _cold_table_points(prof, monkeypatch):
    """The alpha points that a cold t table and a cold F table of the
    profile's config each cost, counted at the public alpha_and_condition,
    inside which the mirror serves the star half of a compact profile."""
    points, counts = [], []
    kernel = profiles.alpha_and_condition
    monkeypatch.setattr(profiles, "alpha_and_condition",
                        lambda p, s, d=None: points.append(np.size(s)) or kernel(p, s, d))
    for build_table in (geometry._arclength, geometry._flow_potential):
        points.clear()
        build_table(build_profile(prof.config))
        counts.append(sum(points))
    return counts


def test_cold_compact_tables_stay_cheap(mixed_profile, monkeypatch):
    """One 8-point Gauss-Legendre panel per node interval, checked by
    doubling, costs 24 alpha points a panel, and one pass serves t and F:
    3,816 points for either cold table of the mixed-charge shrinker (159
    panels, none bisected).  The budget is that count plus 10%."""
    assert all(0 < n <= 4_200 for n in _cold_table_points(mixed_profile, monkeypatch))


def test_cold_open_tables_stay_cheap(steady_profile, monkeypatch):
    """The same budget on an open profile: 4,800 points (200 panels, none
    bisected) for either cold table of the steady soliton, plus 10%."""
    assert all(0 < n <= 5_300 for n in _cold_table_points(steady_profile, monkeypatch))


def test_warm_queries_evaluate_no_alpha(steady_profile, mixed_profile, monkeypatch):
    """Once its tables are built, a query between the end nodes is the
    prefix plus a leaf's polynomial, and Newton runs on that polynomial: no
    query calls the alpha kernel."""
    kernel = profiles.alpha_and_condition
    calls = []
    for prof in (steady_profile, mixed_profile):
        s_star = prof.s_domain[1]
        s = np.linspace(0.05, 50.0, 200) if math.isinf(s_star) \
            else np.linspace(0.05, 0.95, 200) * s_star
        t = t_of_s(prof, s)
        for tau in (0.3, -0.2):
            flow_trajectory(prof, tau, t)
        monkeypatch.setattr(profiles, "alpha_and_condition",
                            lambda p, x, d=None: calls.append(np.size(x)) or kernel(p, x, d))
        assert s_of_t(prof, t_of_s(prof, s)) == pytest.approx(s, rel=1e-13)
        for tau in (0.3, -0.2):
            flow_trajectory(prof, tau, t)
        monkeypatch.setattr(profiles, "alpha_and_condition", kernel)
    assert calls == []


def test_flow_table_reads_the_arclength_tables_alpha(mixed_profile, steady_profile,
                                                     flat_profile, monkeypatch):
    """t and F are integrated in one pass, from the same alpha, so whichever
    table is asked for first builds both: the other calls no kernel, and
    the two share their leaves exactly.  At kappa1 = 0 only t is built, and
    the flow potential is refused."""
    kernel = profiles.alpha_and_condition
    points = []
    monkeypatch.setattr(profiles, "alpha_and_condition",
                        lambda p, s, d=None: points.append(np.size(s)) or kernel(p, s, d))
    for config in (mixed_profile.config, steady_profile.config):
        for first, second in ((geometry._arclength, geometry._flow_potential),
                              (geometry._flow_potential, geometry._arclength)):
            prof = build_profile(config)
            first(prof)
            points.clear()
            second(prof)
            assert points == []
            assert np.array_equal(geometry._arclength(prof).edges,
                                  geometry._flow_potential(prof).edges)
    prof = build_profile(flat_profile.config)
    geometry._arclength(prof)
    assert set(prof._integrals) == {"t"}
    with pytest.raises(ValueError, match="kappa1 != 0"):
        geometry._flow_potential(prof)


def test_running_sum_is_neumaiers():
    """The prefix's compensated cumulative sum, done by array operations, is
    Neumaier's loop to the bit, and each partial sum is within an ulp of the
    exactly rounded math.fsum where the plain cumsum is not.  Its carry is
    what the rounding of each partial sum left out: the two add up to the
    exact sum within 2^-40 of an ulp."""
    rng = np.random.default_rng(11)
    terms = rng.standard_normal(900) * 10.0 ** rng.uniform(-6.0, 6.0, 900)
    reference, total, carry = [], 0.0, 0.0
    for term in terms:
        new = total + term
        carry += (total - new) + term if abs(total) >= abs(term) else (term - new) + total
        total = new
        reference.append(total + carry)
    got, carry = geometry._running_sum(terms)
    assert got.tolist() == reference
    exact = np.array([math.fsum(terms[:k + 1]) for k in range(len(terms))])
    assert np.all(np.abs(got - exact) <= np.spacing(np.abs(exact)))
    assert np.any(np.abs(np.cumsum(terms) - exact) > np.spacing(np.abs(exact)))
    for rounded, rest, sum_ in zip(got, carry, itertools.accumulate(map(Fraction, terms))):
        assert abs(Fraction(rounded) + Fraction(rest) - sum_) \
            <= Fraction(np.spacing(abs(float(sum_)))) / 2 ** 40


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_interpolated_tables_match_fresh_quadrature(steady_profile, noncompact_profile,
                                                    mixed_profile, two_blowdowns_profile,
                                                    data):
    """Between the end nodes G is read from the leaves' polynomials.  It
    agrees with a fresh certified quadrature from the table node below y to
    1e-14 of the largest |G| between that node and the next (F vanishes at
    its middle node): for t and F, on open and glued compact profiles,
    across the route switches, at the fold s*/2 and its neighbouring
    floats, and at the edges of the leaves."""
    for prof in (steady_profile, noncompact_profile, mixed_profile, two_blowdowns_profile):
        nodes = geometry._nodes(prof)
        for table in (geometry._arclength(prof), geometry._flow_potential(prof)):
            special = list(table.breaks) + data.draw(st.lists(st.sampled_from(table.edges),
                                                              min_size=2, max_size=4))
            if prof.is_compact:
                special.append(math.log(0.5 * prof.s_domain[1]))
            special += [math.nextafter(y, way) for y in special for way in (-math.inf, math.inf)]
            special += [y + gap for y in table.breaks for gap in (-1e-9, 1e-9, -1e-3, 1e-3)]
            anywhere = st.floats(float(nodes[0]), float(nodes[-1]))
            y = np.array(data.draw(st.lists(st.one_of(st.sampled_from(special), anywhere),
                                            min_size=1, max_size=16)))
            y = y[(y >= nodes[0]) & (y <= nodes[-1])]
            k = np.minimum(np.searchsorted(nodes, y, side="right") - 1, len(nodes) - 2)
            at_node, at_next = table.prefix[np.searchsorted(table.edges, nodes[[k, k + 1]])]
            rate = functools.partial(geometry._integrand, prof, table.power, table.factor)
            fresh = at_node + np.array([geometry._integrate(rate, a, b, table.breaks)[3].sum()
                                        for a, b in zip(nodes[k], y)])
            scale = np.maximum(np.abs(fresh), np.maximum(np.abs(at_node), np.abs(at_next)))
            assert np.all(np.abs(table.value(prof, y)[0] - fresh) <= 1e-14 * scale)


def test_open_tables_invert_as_far_as_the_target(flat_profile):
    """Past the last node an open table grows block by block until it holds
    the target: on the flat cone s = t^2/2 out to t = 1e65 (s = 5e129).
    The bracket that doubled in y up to the target once left Newton short
    of its iterations at t = 1e60."""
    t = np.array([1e3, 1e7, 1e9, 1e12, 1e60, 1e65])
    assert s_of_t(flat_profile, t) == pytest.approx(0.5 * t * t, rel=1e-13)


@pytest.mark.parametrize("fixture", ["steady_profile", "expanding_profile", "flat_profile",
                                     "noncompact_profile"])
def test_far_queries_do_not_depend_on_the_batch(request, fixture):
    """Past the last node an open table grows by blocks of node intervals,
    each integrated on its own and kept, so a point gets the same float
    alone, in a batch that reaches farther, and after that batch."""
    prof = request.getfixturevalue(fixture)
    config = prof.config
    s = np.array([2e5, 1e6, 3e8])
    t, far_t = t_of_s(build_profile(config), s), t_of_s(build_profile(config), 1e12)
    queries = [(t_of_s, s, 1e12), (s_of_t, t, far_t)]
    if prof.kappa1 != 0.0:
        queries += [(lambda p, x, tau=tau: flow_trajectory(p, tau, x), t, far_t)
                    for tau in (0.5, 0.9)]
    for query, near, far in queries:
        alone = [query(build_profile(config), np.array([x]))[0] for x in near]
        warm = build_profile(config)
        assert query(warm, np.append(near, far))[:-1].tolist() == alone
        assert [query(warm, np.array([x]))[0] for x in near] == alone


def test_unreachable_targets_stop_where_alpha_leaves_the_floats():
    """With kappa1 > 0 alpha grows like e^(kappa1 s) and overflows to inf,
    so t is bounded; a larger t is beyond the reachable range."""
    prof = build_profile(acc.steady_representative(kappa1=1))
    length = completeness_report(prof).geodesic_length
    assert s_of_t(prof, 0.999 * length) < 1e5
    with pytest.raises(ValueError, match="beyond the reachable range"):
        s_of_t(prof, 1.001 * length)


@pytest.mark.parametrize("fixture, s, asymptote", [
    ("flat_profile", 1e307, lambda s: math.sqrt(2.0 * s)),
    ("flat_profile", 8.9e307, lambda s: math.sqrt(2.0 * s)),
    ("expanding_profile", 2.2e102, lambda s: 2.0 * math.sqrt(s)),
    ("steady_profile", 2.5e153, lambda s: s / math.sqrt(2.0)),
])
def test_t_of_s_reaches_as_far_as_alpha_is_a_float(request, fixture, s, asymptote):
    """A far block runs about 11x in s.  Where alpha leaves the floats
    inside the block that holds s (flat: alpha = 2s overflows at 9e307;
    expanding at 2.24e102; steady at 2.9e153), t is integrated from the
    block's start up to s alone, the same float in a batch.  t meets its
    asymptote: sqrt(2s) on the flat cone, 2 sqrt(s) with alpha ~ s, and
    s/sqrt(2) with alpha ~ 2."""
    config = request.getfixturevalue(fixture).config
    t = t_of_s(build_profile(config), s)
    assert t == pytest.approx(asymptote(s), rel=1e-13)
    assert t_of_s(build_profile(config), np.array([2e5, s]))[1] == t


@pytest.mark.parametrize("zero", [3e5, 9.9e5])
def test_t_of_s_stops_short_of_a_zero_of_alpha_past_the_last_node(steady_profile, monkeypatch,
                                                                  zero):
    """completeness_report takes t just short of the first zero of alpha,
    which it looks for up to s = 1e6, inside the first far block.  Here the
    steady profile's alpha is made -1 from ``zero`` on.  t just short of it
    reads no alpha past it, and is the unchanged profile's t."""
    s = zero * (1.0 - 1e-9)
    expected = t_of_s(build_profile(steady_profile.config), s)
    kernel = profiles.alpha_and_condition

    def with_a_zero(p, x, d=None):
        a, cond = kernel(p, x, d)
        return np.where(x < zero, a, -1.0), cond

    monkeypatch.setattr(profiles, "alpha_and_condition", with_a_zero)
    prof = build_profile(steady_profile.config)
    assert geometry._alpha_zero_crossing(prof) == pytest.approx(zero, rel=1e-12)
    assert t_of_s(prof, s) == pytest.approx(expected, rel=1e-14)


def test_flow_near_the_compact_diameter(mixed_profile):
    """Past the last node F continues in y = 2 log(s*/2) - log(s* - s), so
    the flow works up to the diameter T, which it fixes.  At tau = 0.2 the
    flow relation F(Xi) - F(t) = shift is checked against an oracle on the
    star series (the mirror's zero series), alpha = sum c_k delta^k, with
    delta from s* found by quadrature."""
    prof = mixed_profile
    k1 = prof.kappa1
    diameter = t_of_s(prof, prof.s_domain[1])
    assert flow_trajectory(prof, 0.2, diameter) == diameter
    coeffs = prof.mirror.zero_series

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


@pytest.mark.parametrize("tau", [0.0, 0.3, 500.0, 1e6])
def test_flow_near_the_tip(steady_profile, expanding_profile, tau):
    """The s = 0 tip is fixed by the flow.  Just off it alpha ~ 2s, so
    F ~ log(s)/(2 kappa1) and the flow scales t by exp(kappa1 * shift),
    which the end rule's F, linear in y, keeps to any depth: on the steady
    profile 1e-5 goes to 7e-223 at tau = 500 and underflows to 0 at 1e6."""
    for prof in (steady_profile, expanding_profile):
        assert flow_trajectory(prof, tau, 0.0) == 0.0
        eps = float(prof.config.epsilon)
        shift = math.log1p(eps * tau) / eps if eps else tau
        xi = flow_trajectory(prof, tau, 1e-5)
        assert xi == pytest.approx(1e-5 * math.exp(prof.kappa1 * shift), rel=1e-9)


@pytest.mark.parametrize("fixture, s", [
    ("steady_profile", math.nan), ("steady_profile", math.inf), ("steady_profile", -1.0),
    ("mixed_profile", math.nan), ("mixed_profile", math.inf),
])
def test_t_of_s_rejects_points_outside_the_domain(request, fixture, s):
    """Every comparison with NaN is false, and s = inf is not beyond the
    end of an open profile; both are refused, alone or in an array, by
    t_of_s and by the alpha kernel under sample."""
    prof = request.getfixturevalue(fixture)
    for query in (t_of_s, sample):
        with pytest.raises(ValueError, match="outside the profile domain"):
            query(prof, s)
        with pytest.raises(ValueError, match="outside the profile domain"):
            query(prof, np.array([1.0, s]))


def test_flow_rejects_times_outside_the_domain(mixed_profile):
    with pytest.raises(ValueError, match="outside the flow's time domain"):
        flow_trajectory(mixed_profile, 2.0, 2.0)


def test_potential_rate_matches_the_chain_rule(steady_profile):
    for t in (1.0, 4.0):
        s = s_of_t(steady_profile, t)
        expected = steady_profile.kappa1 * math.sqrt(sample(steady_profile, s).alpha)
        assert potential_rate(steady_profile, t) == pytest.approx(expected, rel=1e-10)
