"""Curvature-system residuals, the first integral, the Bianchi quantity,
and the cross-coordinate check against the t-coordinate reference."""

import dataclasses
import math

import numpy as np
import pytest

from kricci import acceptance as acc
from kricci.geometry import metric_functions
from kricci.profiles import build_profile, sample
from kricci.residuals import default_grid, soliton_residuals
from t_coordinate_reference import t_coordinate_residuals


def _max_eq_residual(res):
    vals = [np.max(np.abs(res.r_t)), np.max(np.abs(res.r_fibre))]
    if res.r_base.size:
        vals.append(np.max(np.abs(res.r_base)))
    return float(max(vals))


def test_residuals_vanish_on_every_class(steady_profile, expanding_profile,
                                         mixed_profile, noncompact_profile):
    for prof in (steady_profile, expanding_profile, mixed_profile, noncompact_profile):
        res = soliton_residuals(prof, sample(prof, default_grid(prof)))
        assert _max_eq_residual(res) < 1e-9
        assert float(np.max(res.c_values) - np.min(res.c_values)) < 1e-9


def _first_integral(prof, s):
    return soliton_residuals(prof, sample(prof, s)).c_values


def test_first_integral_equals_the_derived_constant(steady_profile, mixed_profile,
                                                    noncompact_profile):
    for prof in (steady_profile, mixed_profile, noncompact_profile):
        c = float(prof.config.c)
        for s in (0.3, 1.0, 2.5):
            assert _first_integral(prof, s) == pytest.approx(c, rel=1e-10, abs=1e-10)
        values = _first_integral(prof, np.array([0.3, 1.0, 2.5]))
        assert values == pytest.approx([c] * 3, rel=1e-10, abs=1e-10)


def _mu(beta, dbeta, d2beta, q):
    """mu = beta''/beta - (beta'/beta)^2/2 + q^2/(2 beta^2): the per-factor
    quantity that the admissible beta branches annihilate."""
    return d2beta / beta - 0.5 * (dbeta / beta) ** 2 + 0.5 * q * q / (beta * beta)


def test_mu_vanishes_for_the_linear_family():
    # beta = -q (s + sigma) makes the curvature combination vanish identically
    q, sigma = -2.0, 1.5
    for s in (0.1, 1.0, 7.0):
        beta = -q * (s + sigma)
        assert _mu(beta, -q, 0.0, q) == pytest.approx(0.0, abs=1e-14)


def test_mu_vanishes_for_the_shifted_parabola():
    # beta = A (s+s0)^2 - q^2/(4A) is the other exact zero of the combination
    A, s0, q = 0.7, 0.3, 1.3
    s = 2.0
    beta = A * (s + s0) ** 2 - q * q / (4.0 * A)
    assert _mu(beta, 2.0 * A * (s + s0), 2.0 * A, q) == pytest.approx(0.0, abs=1e-14)


def test_mu_general_reference_value():
    # beta = s^2 with q = 1 at s = 1: 2/1 - (2/1)^2/2 + 1/(2*1) = 1/2
    assert _mu(1.0, 2.0, 2.0, 1.0) == pytest.approx(0.5, rel=1e-15)


def test_mu_values_on_a_profile(steady_profile):
    # the sampled beta_i of a profile are linear (beta'' = 0), one row per factor
    q = np.array([float(fac.q) for fac in steady_profile.config.factors])

    def mu_values(smp):
        return _mu(smp.beta, smp.dbeta, 0.0, q.reshape((-1,) + (1,) * np.ndim(smp.s)))

    vals = mu_values(sample(steady_profile, 1.7))
    assert len(vals) == len(steady_profile.config.factors)
    for v in vals:
        assert v == pytest.approx(0.0, abs=1e-12)
    grid = mu_values(sample(steady_profile, np.array([0.5, 1.7, 9.0])))
    assert grid.shape == (len(steady_profile.config.factors), 3)
    assert np.abs(grid).max() < 1e-12


def test_bianchi_quantity_vanishes(steady_profile, mixed_profile):
    for prof, pts in ((steady_profile, (0.5, 2.0, 10.0)), (mixed_profile, (0.5, 2.0, 3.5))):
        for s in pts:
            bianchi = soliton_residuals(prof, sample(prof, s)).bianchi
            assert bianchi == pytest.approx(0.0, abs=1e-8)
        bianchi = soliton_residuals(prof, sample(prof, np.array(pts))).bianchi
        assert np.abs(bianchi).max() < 1e-8


def test_detuned_profile_shifts_the_first_integral():
    # an exact offset in the source constant moves the conserved value by
    # kappa1 * shift and by nothing else
    shift = 0.25
    prof = build_profile(acc.steady_representative(), e_star_shift=shift)
    expected = float(prof.config.c) + prof.kappa1 * shift
    vals = _first_integral(prof, np.linspace(0.4, 9.0, 25))
    assert max(vals) - min(vals) < 1e-10
    assert vals[0] == pytest.approx(expected, rel=1e-12)


def test_detuned_profile_fails_the_field_equations():
    prof = build_profile(acc.steady_representative(), e_star_shift=0.25)
    res = soliton_residuals(prof, sample(prof, default_grid(prof)))
    assert _max_eq_residual(res) > 1e-4


class _CorruptedSampler:
    """A sampler that reports alpha with a constant bump."""

    def __init__(self, bump):
        self._bump = bump

    def __call__(self, profile, s):
        smp = sample(profile, s)
        return dataclasses.replace(smp, alpha=smp.alpha + self._bump)


def test_checkers_detect_a_corrupted_sampler(steady_profile):
    corrupted = _CorruptedSampler(0.01)
    res = soliton_residuals(steady_profile, corrupted(steady_profile, default_grid(steady_profile)))
    assert float(np.max(np.abs(res.r_t))) > 1e-4
    assert float(np.max(np.abs(res.r_base))) > 1e-4


def test_t_coordinate_residuals_on_sampled_data(steady_profile):
    t = np.linspace(0.5, 2.5, 81)
    h = float(t[1] - t[0])
    mf = metric_functions(steady_profile, t)
    res = t_coordinate_residuals(h, mf.f, mf.g, mf.u,
                                 steady_profile.config.factors,
                                 steady_profile.config.epsilon)
    worst = max(float(np.max(np.abs(res.r_t))),
                float(np.max(np.abs(res.r_fibre))),
                float(np.max(np.abs(res.r_base))))
    assert worst < 1e-5


def test_t_coordinate_residuals_converge_at_fourth_order(steady_profile):
    worsts = []
    for n in (41, 81):
        t = np.linspace(0.5, 2.5, n)
        h = float(t[1] - t[0])
        mf = metric_functions(steady_profile, t)
        res = t_coordinate_residuals(h, mf.f, mf.g, mf.u,
                                     steady_profile.config.factors,
                                     steady_profile.config.epsilon)
        worsts.append(max(float(np.max(np.abs(res.r_t))),
                          float(np.max(np.abs(res.r_fibre))),
                          float(np.max(np.abs(res.r_base)))))
    # halving h should shrink the residual by about 2^4; allow slack for
    # the quadrature noise floor underneath the stencil error
    assert worsts[0] / worsts[1] > 8.0


def test_t_coordinate_residuals_detect_wrong_data(steady_profile):
    t = np.linspace(0.5, 2.5, 41)
    h = float(t[1] - t[0])
    mf = metric_functions(steady_profile, t)
    res = t_coordinate_residuals(h, mf.f * 1.01, mf.g, mf.u,
                                 steady_profile.config.factors,
                                 steady_profile.config.epsilon)
    # the fibre/f scaling cancels out of the ratio terms, so the error
    # surfaces through the bundle curvature term in the base equations
    assert float(np.max(np.abs(res.r_base))) > 1e-4


def test_t_coordinate_residuals_input_guards():
    with pytest.raises(ValueError, match="at least 5"):
        t_coordinate_residuals(0.1, [1, 2, 3], [[1, 2, 3]], [0, 0, 0],
                               acc.flat_config().factors[:1], 0.0)
    with pytest.raises(ValueError, match="share the grid"):
        t_coordinate_residuals(0.1, [1] * 6, [[1] * 6], [0] * 5,
                               acc.flat_config().factors[:1], 0.0)
    with pytest.raises(ValueError, match="positive"):
        t_coordinate_residuals(0.0, [1] * 6, [[1] * 6], [0] * 6,
                               acc.flat_config().factors[:1], 0.0)
    with pytest.raises(ValueError, match="one sampled g_i per factor"):
        t_coordinate_residuals(0.1, [1] * 6, [[1] * 6, [1] * 6], [0] * 6,
                               acc.flat_config().factors[:1], 0.0)


def test_default_grid_respects_the_domain(mixed_profile, steady_profile):
    g = default_grid(mixed_profile)
    assert g[0] >= 1e-3 and g[-1] <= float(mixed_profile.s_domain[1])
    g = default_grid(steady_profile, n=50, s_max=200.0)
    assert len(g) == 50 and g[-1] <= 200.0
