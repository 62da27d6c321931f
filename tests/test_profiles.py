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

import json
import math
import pathlib
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import moment_reference
from fraction_polys import fractions, poly_neg, poly_shift, v_psi_polys
from kricci import acceptance as acc
from kricci import polyexp, profiles
from kricci.geometry import t_of_s
from kricci.obstruction import find_kappa1_noncompact
from kricci.profiles import (
    SERIES_WINDOW,
    alpha,
    alpha_and_condition,
    build_profile,
    route_switches,
    sample,
)

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
    from kricci.model import BoundaryStructure, Collapse, FanoFactor, derive_config

    # one point factor, shrinking, at kappa1 = 1/2: the flat Gaussian soliton
    prof = build_profile(derive_config(epsilon=-1, factors=[FanoFactor(0, 1, -1)],
                                       boundary=BoundaryStructure(Collapse.FACTOR),
                                       kappa1=Fraction(1, 2)))
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


def test_series_at_both_collapsed_ends(two_blowdowns_profile, mixed_profile, steady_profile,
                                      flat_profile):
    # a CP^1 zero end, and point zero ends where v(0) != 0
    for prof in (two_blowdowns_profile, steady_profile, flat_profile):
        low = prof.zero_series
        assert low[0] == 0.0
        assert low[1] == pytest.approx(2.0, abs=1e-10)
    # a CP^1 star end, and a point star end where v(s*) != 0: the series in
    # s* - s is the mirror's zero series
    for prof in (two_blowdowns_profile, mixed_profile):
        high = prof.mirror.zero_series
        assert high[0] == pytest.approx(0.0, abs=1e-12)
        assert high[1] == pytest.approx(2.0, abs=1e-10)


def test_series_matches_samples_near_the_ends(two_blowdowns_profile):
    prof = two_blowdowns_profile
    s_star = float(prof.s_domain[1])
    low = prof.zero_series
    high = prof.mirror.zero_series
    for delta in (1e-5, 1e-4):
        expect = sum(c * delta**k for k, c in enumerate(low))
        assert sample(prof, delta).alpha == pytest.approx(expect, rel=1e-8)
        expect = sum(c * delta**k for k, c in enumerate(high))
        assert sample(prof, s_star - delta).alpha == pytest.approx(expect, rel=1e-8)


def test_series_requires_a_vanishing_v(flat_profile, steady_profile, two_blowdowns_profile):
    """The kernel takes alpha from the zero series only where v vanishes at
    s = 0.  At a point end (v(0) != 0) the series exists for the geometry
    tables' end rule, but alpha stays J/v down to s = 0."""
    for prof in (flat_profile, steady_profile):
        assert prof.v_poly[0] != 0
        assert prof.series_window == 0.0
    assert two_blowdowns_profile.series_window > 0.0
    # steady representative: alpha = 2 (s^2 + 2s + 2 - 2 e^{-s}) / (s + 2)^2
    for s in (0.0, 1e-12, 1e-6, 1e-3):
        exact = 2.0 * (s * s + 2.0 * s - 2.0 * math.expm1(-s)) / (s + 2.0) ** 2
        assert sample(steady_profile, s).alpha == pytest.approx(exact, rel=1e-10, abs=1e-300)


def test_star_series_rejects_an_uncalibrated_kappa1():
    prof = build_profile(acc.compact_two_blowdowns(0.25))
    assert prof.mirror is None
    with pytest.raises(ValueError, match="singular at s_star"):
        t_of_s(prof, 1.0)


def test_mirror_window_is_sized_by_the_radius_of_convergence(
        mixed_profile, two_blowdowns_profile, flat_profile, steady_profile):
    from kricci.model import BoundaryStructure, Collapse, CompactEnd, FanoFactor, derive_config

    # rho = distance from s* to the nearest other zero of v
    assert mixed_profile.mirror.series_window == pytest.approx(4.0 / 30.0, rel=1e-15)
    assert two_blowdowns_profile.mirror.series_window == pytest.approx(8.0 / 30.0, rel=1e-15)
    # v without zeros: the window is capped at half the interval
    sym = build_profile(derive_config(
        epsilon=-1,
        factors=[FanoFactor(0, 1, -1), FanoFactor(0, 1, 1)],
        boundary=BoundaryStructure(Collapse.FACTOR, compact_end=CompactEnd(Collapse.FACTOR)),
        kappa1=0,
    ))
    assert sym.mirror.series_window == 0.5 * float(sym.s_domain[1])
    for prof in (flat_profile, steady_profile):
        assert prof.mirror is None


def test_mirror_is_the_reflected_configuration(mixed_profile, two_blowdowns_profile):
    """The mirror, built from the mirrored configuration at -kappa1, is the
    parent reflected to delta = s* - s, exactly: its v is v(s* - delta), its
    Psi is -Psi(s* - delta) (Psi changes sign with d/ds), and its P is
    P(s* - delta), with P = -Q from _q_poly (the signs of Psi and kappa1
    cancel); its floats are theirs rounded once, and T0 = -P(0).  Its v and
    Psi are those the mirrored configuration gives in Fractions."""
    for prof in (mixed_profile, two_blowdowns_profile):
        mirror = prof.mirror
        s_star = prof.config.s_star

        def reflect(p):
            return [c if j % 2 == 0 else -c for j, c in enumerate(poly_shift(p, s_star))]

        v, psi = _exact(prof)
        assert mirror.kappa1 == -prof.kappa1
        assert mirror.s_domain == prof.s_domain
        assert _exact(mirror) == (reflect(v), poly_neg(reflect(psi)))
        assert _exact(mirror) == tuple(v_psi_polys(mirror.config, mirror.E_eff))
        p_hat = reflect(poly_neg(_q_poly(psi, Fraction(prof.kappa1))))
        assert mirror.p_alpha == tuple(float(c) for c in p_hat)
        assert mirror.t0 == float(-p_hat[0])


@pytest.fixture(scope="module")
def suite_and_config_profiles():
    """The acceptance suite's profiles and those of every admissible
    configs/*.json, kappa1 solved where the config asks for it."""
    from kricci import cli

    profiles = dict(acc.full_suite_profiles())
    for path in sorted((pathlib.Path(__file__).resolve().parents[1] / "configs").glob("*.json")):
        if path.name != "invalid-positive-charge.json":
            doc = json.loads(path.read_text())
            profiles[path.name] = build_profile(
                cli._admissible_config(doc, doc["kappa1"] == "solve")[0])
    return profiles


def test_particular_polynomial_is_the_quadratic_sum(suite_and_config_profiles):
    """Every unsnapped P and T0, of a profile or of its mirror, is bit for
    bit the rounding of the exact P = -Q summed by _q_poly, and of T0 =
    -P(0): the linear recurrence build_profile runs is exact."""
    checked = 0
    for name, parent in suite_and_config_profiles.items():
        for prof in (parent, parent.mirror):
            if prof is None or prof.kappa1 == 0.0 or prof.t0_snapped:
                continue
            Q = _q_poly(_exact(prof)[1], Fraction(prof.kappa1))
            assert prof.p_alpha == tuple(float(-c) for c in Q), name
            assert prof.t0 == float(Q[0]), name
            checked += 1
    assert checked >= 10


def test_only_open_profiles_snap_t0(suite_and_config_profiles):
    """Snapping T0 is the noncompact existence condition: no compact
    profile and no mirror reports a snapped T0, while the calibrated
    noncompact shrinkers do."""
    profiles = suite_and_config_profiles.values()
    compact = [p for p in profiles if p.is_compact]
    assert len(compact) >= 5 and all(p.mirror is not None for p in compact)
    for prof in compact:
        assert not prof.t0_snapped and not prof.mirror.t0_snapped
    assert suite_and_config_profiles["noncompact-shrinker.json"].t0_snapped
    assert suite_and_config_profiles["shrinking-noncompact"].t0_snapped


@pytest.mark.parametrize("fixture", ["mixed_profile", "two_blowdowns_profile"])
def test_alpha_steps_by_the_footprint_at_the_glue(request, fixture):
    """Up to s*/2 alpha is J/v, the solution that vanishes at s = 0; past
    it, the mirror's, the one that vanishes at s*.  At a numerically solved
    kappa1 the two differ by exactly the footprint of the root's residual,
    e^{kappa1 s} I(kappa1)/v(s), to 1e-14 plus the rounding each side
    reports (its condition times 2^-52)."""
    prof = request.getfixturevalue(fixture)
    half = 0.5 * float(prof.s_domain[1])
    s = np.array([half, math.nextafter(half, math.inf)])
    values, cond = alpha_and_condition(prof, s)
    # I(kappa1) from the moments at s*, as build_profile sums it (row 0 is Psi)
    residual = prof.taylor_table[0] @ polyexp.moments(prof.kappa1, [prof.s_domain[1]],
                                                      len(prof.psi_poly))[:, 0]
    footprint = math.exp(prof.kappa1 * half) * residual / sample(prof, half).v
    tol = (1e-14 + cond.sum() * 2.0 ** -52) * values[0]
    assert values[0] - values[1] == pytest.approx(footprint, abs=tol)
    assert sample(prof, float(prof.s_domain[1])).alpha == 0.0


@pytest.mark.parametrize("fixture", ["mixed_profile", "two_blowdowns_profile"])
def test_star_half_matches_the_mpmath_closed_form(request, fixture):
    """On (s*/2, s*) alpha is the 50-digit closed form anchored at s* to
    1e-13 relative, at a point star end (mixed charges) and at a CP^1 one."""
    prof = request.getfixturevalue(fixture)
    hi = float(prof.s_domain[1])
    s = np.concatenate([np.linspace(0.5 * hi, hi, 200)[1:-1],
                        hi - np.geomspace(1e-8, 1e-2, 20), [math.nextafter(0.5 * hi, hi)]])
    for x, a, ref in zip(s, alpha(prof, s), _closed_form_alpha(prof, s)):
        assert abs(a - ref) <= 1e-13 * abs(ref), (x, a, mp.nstr(ref, 20))


@pytest.mark.parametrize("middle, ends", [
    ([(2, 3, 1), (2, 3, -2)], (0, 0)),   # mixed charges, point ends
    ([(3, 4, -1)], (0, 1)),              # a CP^1 star end under a negative charge
    ([(1, 2, 1)], (1, 0)),               # a CP^1 at s = 0 under a positive charge
], ids=["mixed-charges", "cp1-star-end", "cp1-zero-end"])
def test_star_half_is_well_conditioned(middle, ends):
    """The terms summed for alpha on (s*/2, s*) stay within 100 times
    |alpha|: J/v, anchored at s = 0, summed terms thousands of times larger
    there on these shrinkers."""
    from kricci.model import BoundaryStructure, Collapse, CompactEnd, FanoFactor, derive_config
    from kricci.obstruction import find_kappa1_compact

    n0, n_star = ends
    factors = [FanoFactor(n0, n0 + 1, -1)] + [FanoFactor(*f) for f in middle] \
        + [FanoFactor(n_star, n_star + 1, 1)]

    def config(kappa1):
        return derive_config(epsilon=-1, factors=factors, kappa1=kappa1, boundary=BoundaryStructure(
            Collapse.FACTOR, compact_end=CompactEnd(Collapse.FACTOR)))
    prof = build_profile(config(find_kappa1_compact(config(0)).kappa1))
    hi = float(prof.s_domain[1])
    _, cond = alpha_and_condition(prof, np.linspace(0.5 * hi, hi, 4002)[1:-1])
    assert cond.max() <= 100.0


def test_singular_star_end_is_recorded_once(monkeypatch):
    points = []
    real = polyexp.moments
    monkeypatch.setattr(polyexp, "moments",
                        lambda kappa, x, count: points.append(list(x)) or real(kappa, x, count))
    prof = build_profile(acc.compact_two_blowdowns(0.25))
    assert prof.mirror is None
    s_star = float(prof.s_domain[1])
    values = [sample(prof, s_star - d).alpha for d in (0.2, 0.1, 0.01)]
    # the existence integral and its majorant, from one call at s_star, once;
    # J's moment route makes the other calls, at the sample points
    assert points.count([s_star]) == 1
    assert all(math.isfinite(a) for a in values)
    with pytest.raises(ValueError, match="singular at s_star"):
        t_of_s(prof, s_star - 0.2)
    assert points.count([s_star]) == 1


@pytest.mark.parametrize("kappa1", [-200.0, 200.0])
def test_existence_check_far_from_the_root(kappa1):
    """At |kappa1| s* = 800 the weight e^{-kappa1 x} overflows the moments
    of the existence integral (kappa1 < 0) or makes them vanish: no mirror
    either way, and no numerical warning."""
    assert build_profile(acc.compact_mixed_charges(kappa1)).mirror is None


def test_compact_alpha_vanishes_at_both_ends(mixed_profile):
    s_star = float(mixed_profile.s_domain[1])
    assert sample(mixed_profile, 0.0).alpha == pytest.approx(0.0, abs=1e-12)
    assert sample(mixed_profile, s_star).alpha == pytest.approx(0.0, abs=1e-9)
    # interior positivity
    for s in np.linspace(0.05, s_star - 0.05, 30):
        assert sample(mixed_profile, float(s)).alpha > 0.0


def test_sample_derivatives_match_finite_differences(steady_profile, mixed_profile):
    """5-point stencils at h = 1e-3: truncation O(h^4) ~ 1e-12, and the
    ~3e-14 rounding of alpha = J/v grows by 1/h^2 to ~1e-7 in the second
    difference.  The mixed-charge shrinker is also rebuilt at the last
    digits of two other roots, the frozen true one among them, where an
    h = 1e-5 second difference missed 1e-4."""
    cases = [(steady_profile, (0.5, 3.0, 20.0)), (mixed_profile, (0.5, 2.0, 3.5))]
    for kappa1 in (0.39368379919727464, 0.3936837991972745):
        cases.append((build_profile(acc.compact_mixed_charges(kappa1)), (0.5, 2.0, 3.5)))
    h = 1e-3
    for prof, pts in cases:
        for s in pts:
            a = [sample(prof, s + j * h).alpha for j in (-2, -1, 0, 1, 2)]
            fd1 = (a[0] - 8.0 * a[1] + 8.0 * a[3] - a[4]) / (12.0 * h)
            fd2 = (-a[0] + 16.0 * a[1] - 30.0 * a[2] + 16.0 * a[3] - a[4]) / (12.0 * h * h)
            mid = sample(prof, s)
            assert mid.dalpha == pytest.approx(fd1, rel=1e-9, abs=1e-9)
            assert mid.d2alpha == pytest.approx(fd2, rel=1e-6, abs=1e-6)


def _route_probe_points(prof):
    """Points on every side of every route switch of the profile, and a
    spread over the domain."""
    hi = prof.s_domain[1]
    pts = list(np.geomspace(1e-8, 0.999 * hi if math.isfinite(hi) else 1e5, 60))
    for end, dist in route_switches(prof):
        edge = dist if end == "zero" else hi - dist
        below = edge
        for _ in range(3):
            below = math.nextafter(below, -math.inf)
        pts += [below, edge, math.nextafter(edge, math.inf), 0.9 * edge, 1.1 * edge]
    return np.array([x for x in pts if 0.0 < x < hi])


def _mpq(c):
    return mp.mpf(c.numerator) / c.denominator


def _exact(prof):
    """The profile's v and Psi as Fraction polynomials."""
    return fractions(prof.v_poly, prof.poly_den), fractions(prof.psi_poly, prof.poly_den)


def _q_poly(psi_poly, k):
    """Q = sum_m Psi^(m)/k^(m+1) = -P exactly, summed derivative by
    derivative in O(deg^2) Fraction operations."""
    Q, der, power = [Fraction(0)] * len(psi_poly), list(psi_poly), k
    while der:
        for j, c in enumerate(der):
            Q[j] += c / power
        der, power = [j * c for j, c in enumerate(der)][1:], power * k
    return Q


def _zero_order(prof):
    """The order to which v vanishes at s = 0."""
    return next(j for j, c in enumerate(prof.v_poly) if c)


def _closed_form_alpha(prof, points):
    """alpha = J/v at each point, at 50 digits, from the exact rational
    v_poly and psi_poly and the exact value of the float kappa1.

    J is the integral of Psi(x) e^{kappa1 (s - x)} from the end the route
    anchors the solution at: s* on the star half of a glued profile (the
    solution that vanishes there), infinity on the split route of a snapped
    profile, s = 0 elsewhere.  With Q = sum_m Psi^(m)/kappa1^(m+1), whose
    d/dx [-e^{-kappa1 x} Q] is Psi e^{-kappa1 x}, those are
    Q(a) e^{kappa1 (s - a)} - Q(s) for a = s*, 0, and -Q(s).  A snapped
    profile is calibrated: its -Q is taken at the root of T0 = Q(0) that one
    exact Newton step from the float kappa1 reaches, where the coefficients
    of Q below the order to which J vanishes at s = 0 are zero.  For
    kappa1 = 0, Q is minus the antiderivative of Psi and the exponential
    is 1."""
    glued = prof.mirror is not None
    k = Fraction(prof.kappa1)
    v, psi = _exact(prof)
    if k == 0:
        Q = [Fraction(0)] + [-c / (j + 1) for j, c in enumerate(psi)]
        calibrated = Q
    else:
        Q = _q_poly(psi, k)
        # Q(0) = sum_m m! psi_m / k^(m+1), so dQ(0)/dk = -sum_m (m+1)! psi_m / k^(m+2)
        dq0 = -sum(math.factorial(m + 1) * c / k ** (m + 2) for m, c in enumerate(psi))
        calibrated = [Fraction(0) if j <= _zero_order(prof) else c
                      for j, c in enumerate(_q_poly(psi, k - Q[0] / dq0))]
    hi = prof.s_domain[1]
    with mp.workdps(50):
        def horner(coeffs, x):
            acc = mp.mpf(0)
            for c in reversed(coeffs):
                acc = acc * x + _mpq(c)
            return acc

        out = []
        for x in map(float, points):
            xs = mp.mpf(x)
            if glued and x > 0.5 * hi:
                anchor = _mpq(prof.config.s_star)
                j = horner(Q, anchor) * mp.exp(_mpq(k) * (xs - anchor)) - horner(Q, xs)
            elif prof.t0_snapped and x > prof.split_from:
                j = -horner(calibrated, xs)
            else:
                j = horner(Q, 0) * mp.exp(_mpq(k) * xs) - horner(Q, xs)
            out.append(j / horner(v, xs))
        return out


@pytest.fixture(scope="module")
def steep_shrinker_profile():
    """A snapped noncompact shrinker whose float root leaves a large residue
    T0: uncorrected, its P read 3.5e-14 off alpha at small |kappa1| s."""
    from kricci.model import BoundaryStructure, Collapse, FanoFactor, derive_config

    def config(kappa1):
        return derive_config(epsilon=-1, factors=[FanoFactor(1, 2, -1), FanoFactor(5, 5, -2)],
                             boundary=BoundaryStructure(Collapse.FACTOR), kappa1=kappa1,
                             kappa0=1)
    return build_profile(config(find_kappa1_noncompact(config(0)).kappa1))


@pytest.mark.parametrize("fixture", [
    "steady_profile", "expanding_profile", "noncompact_profile", "mixed_profile",
    "two_blowdowns_profile", "flat_profile", "cigar_profile", "steep_shrinker_profile"])
def test_sample_alpha_matches_the_mpmath_closed_form(request, fixture):
    """sample()'s alpha on every side of every route switch (|kappa1| s =
    30, or the measured split_from of a snapped profile, SERIES_WINDOW at a
    zero end where v vanishes, the glue and the mirror's switches) is the
    closed form to
    1e-14 plus 8 ulps times the condition the kernel reports."""
    prof = request.getfixturevalue(fixture)
    s = _route_probe_points(prof)
    values, cond = alpha_and_condition(prof, s)
    assert np.array_equal(values, sample(prof, s).alpha)
    assert np.array_equal(values, alpha(prof, s))
    for x, a, c, ref in zip(s, values, cond, _closed_form_alpha(prof, s)):
        tol = 1e-14 + 8.0 * c * 2.0 ** -52
        assert abs(a - ref) <= tol * abs(ref), (x, a, mp.nstr(ref, 20), c)
    if _zero_order(prof):
        assert any(d == SERIES_WINDOW for _, d in route_switches(prof))


@pytest.mark.parametrize("sigma", ["1/1000000000", "1/1000"])
def test_zero_series_serves_inside_its_radius_of_convergence(mp_alpha, sigma):
    """Over the factors (1,2,-1) twice with sigmas (0, sigma), v = s (s +
    sigma) has a second zero at -sigma, so the zero series converges only
    out to sigma.  It serves within sigma/30, not SERIES_WINDOW (there at
    sigma = 1e-9 it read alpha ~1e68), and alpha is the 30-digit J/v to
    1e-14 plus 8 ulps times its condition from s = 1e-15, across the
    window's edge, out to s = 40."""
    from kricci.model import BoundaryStructure, Collapse, FanoFactor, derive_config

    prof = build_profile(derive_config(
        epsilon=0, factors=[FanoFactor(1, 2, -1), FanoFactor(1, 2, -1)],
        boundary=BoundaryStructure(Collapse.FACTOR), kappa1=-1, sigmas=(0, Fraction(sigma))))
    assert prof.series_window == float(Fraction(sigma)) / 30.0
    s = np.concatenate([np.geomspace(1e-15, 40.0, 60),
                        prof.series_window * np.array([0.999, 1.0, 1.001])])
    values, cond = alpha_and_condition(prof, s)
    exact = mp_alpha(prof)
    with mp.workdps(30):
        for x, a, c in zip(s, values, cond):
            ref = exact(x)
            assert abs(a - ref) <= (1e-14 + 8.0 * c * 2.0 ** -52) * abs(ref), (x, a, ref)


def test_alpha_kernel_on_other_routes():
    """kappa1 > 0 without a calibrated tail (the split route with
    e^{kappa1 s} T0 up to overflow), and an uncalibrated compact profile,
    whose star end is singular and left to J/v, against the closed form.
    The kernel caps the exponent 1e-9 short of where e^{kappa1 s} T0
    overflows and reads inf from there on.  Up there the rounding of the
    exponent kappa1*s alone moves e^{kappa1 s} by up to |kappa1 s| ulps,
    which the tolerance adds."""
    for cfg in (acc.steady_representative(kappa1=1), acc.noncompact_shrinker_small(0.9),
                acc.compact_two_blowdowns(0.25)):
        prof = build_profile(cfg)
        s = _route_probe_points(prof)
        overflow = max(d for _, d in route_switches(prof))
        values, cond = alpha_and_condition(prof, s)
        for x, a, c, ref in zip(s, values, cond, _closed_form_alpha(prof, s)):
            if math.isinf(a):
                assert x * prof.kappa1 >= overflow * prof.kappa1 - 1e-9
            else:
                tol = 1e-14 + (8.0 * c + abs(prof.kappa1 * x)) * 2.0 ** -52
                assert abs(a - ref) <= tol * abs(ref), (x, a, ref)


def test_snapped_split_route_starts_where_it_is_better_conditioned(noncompact_profile):
    """On a snapped noncompact shrinker the moment route hands over to the
    polynomial P, whose coefficients below the order of J's zero at s = 0
    are snapped with T0, at the measured crossover below |kappa1| s = 10,
    and alpha's condition stays small on both sides."""
    prof = noncompact_profile
    assert prof.t0_snapped and prof.kappa1 * prof.split_from < 10.0
    order = _zero_order(prof)
    assert prof.p_alpha[:order + 1] == (0.0,) * (order + 1)
    assert ("zero", prof.split_from) in route_switches(prof)
    _, cond = alpha_and_condition(prof, np.geomspace(1e-3, 1e4, 4000))
    assert cond.max() <= 10.0


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
    """A positive first charge, and a compact interval at epsilon != -1,
    where the mirrored configuration is not the reflected one."""
    from kricci.model import BoundaryStructure, Collapse, CompactEnd, FanoFactor, derive_config

    cfg = derive_config(
        epsilon=-1,
        factors=[FanoFactor(0, 1, 1), FanoFactor(1, 2, -1)],
        boundary=BoundaryStructure(Collapse.FACTOR),
        kappa1=0.7,
    )
    with pytest.raises(ValueError, match="inadmissible configuration"):
        build_profile(cfg)
    cfg = derive_config(
        epsilon=Fraction(-1, 2),
        factors=[FanoFactor(0, 1, -1), FanoFactor(2, 3, 1), FanoFactor(2, 3, -2)],
        boundary=BoundaryStructure(Collapse.FACTOR, compact_end=CompactEnd(Collapse.CIRCLE)),
        kappa1=0.39368379919727475,
    )
    with pytest.raises(ValueError, match="inadmissible configuration: .*closes alpha only at "
                                         "epsilon = -1"):
        build_profile(cfg)


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([-2.0, -0.5, 0.47, 2.2]),
    count=st.integers(min_value=1, max_value=12),
    points=st.sampled_from([0, 1, 24, 3600]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_moment_sum_is_the_reference_bit_for_bit(k, count, points, seed):
    """The moment route's in-place Horner pass and products give J and its
    term size in the same bits as the out-of-place reference, on tables of
    mixed signs and on the Gauss-point batches of a cold table."""
    rng = np.random.default_rng(seed)
    table = np.triu(rng.normal(0.0, 10.0, (count, count))[:, ::-1])[:, ::-1]
    x = rng.uniform(0.0, 40.0 / abs(k), points)
    got = profiles._moment_sum(k, table, x)
    want = moment_reference.moment_sum(k, table, x)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
