"""Verification that profiles solve the curvature system.

Everything here is a *check*: the three equation families of the
cohomogeneity-one gradient soliton system in the s-coordinate, the conserved
first integral, the per-factor quantity mu_i that the linear ansatz
annihilates, the contracted-Bianchi conservation quantity in t-coordinates,
and an independent finite-difference checker for the original t-coordinate
system that accepts arbitrary sampled functions.

Residuals are raw LHS - RHS (the equations are O(1) at admissible points;
relative scaling would hide sign errors near zeros of alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from kricci.profiles import Profile, ProfileSample

DEFAULT_GRID_POINTS = 200
DEFAULT_S_MAX = 1.0e4


def _propagating():
    """Let overflow and inf - inf pass as non-finite values, as plain floats
    did: alpha blowing up on an uncalibrated profile, or the weight
    alpha*v^2 at large dimension.  The caller's finiteness gate (solve's)
    reports them."""
    return np.errstate(over="ignore", invalid="ignore")


def _factor_columns(profile, smp: ProfileSample):
    """n_i, p_i and q_i as columns against the samples' (factor, point)
    arrays."""
    col = (-1,) + (1,) * np.ndim(smp.s)
    factors = profile.config.factors
    return (np.reshape([float(f.n) for f in factors], col),
            np.reshape([float(f.p) for f in factors], col),
            np.reshape([float(f.q) for f in factors], col))


def _log_v_derivatives(profile, smp: ProfileSample):
    """(log v)' and sum n_i (beta_i'/beta_i)^2 = -(log v)'', over the
    factors that v carries (n_i > 0)."""
    n = _factor_columns(profile, smp)[0]
    live = n.reshape(-1) > 0
    ratio = smp.dbeta[live] / smp.beta[live]
    return np.sum(n[live] * ratio, axis=0), np.sum(n[live] * ratio * ratio, axis=0)


@dataclass
class ResidualGrid:
    """Residuals of the full diagnostic battery on a common s-grid.

    r_base is a matrix with one row per factor.
    """

    r_t: np.ndarray
    r_fibre: np.ndarray
    r_base: np.ndarray
    c_values: np.ndarray
    bianchi: np.ndarray


def default_grid(profile: Profile, n: int = DEFAULT_GRID_POINTS,
                 s_max: float = DEFAULT_S_MAX) -> np.ndarray:
    """Log-spaced interior grid avoiding the collapse singularities."""
    lo, hi = profile.s_domain
    upper = 0.999 * hi if math.isfinite(hi) else s_max
    lower = max(1.0e-3, lo)
    return np.geomspace(lower, upper, n)


@_propagating()
def soliton_residuals(profile, smp: ProfileSample) -> ResidualGrid:
    """Evaluate the three equation families (and the other diagnostics) at
    every point of the samples ``smp``, as residuals LHS - eps/2.

    The samples are an argument, so a check can be fed data from any
    sampler.  The t-equation, fibre equation, and per-factor base equations
    are evaluated exactly as printed, with beta'' = 0 and phi'' = 0 from the
    linear ansatz, as array expressions over (factor, point).
    """
    eps = float(profile.config.epsilon)
    n, p, q = _factor_columns(profile, smp)
    q2 = q * q
    a, da, d2a, dphi = smp.alpha, smp.dalpha, smp.d2alpha, smp.dphi
    b = smp.beta
    ratio = smp.dbeta / b
    lv1, sq_sum = _log_v_derivatives(profile, smp)
    live = n.reshape(-1) > 0
    fib_sum = np.sum((n * q2 / (b * b))[live], axis=0)   # sum n_i q_i^2 / beta_i^2

    r_t = 0.5 * d2a + 0.5 * da * lv1 - 0.5 * a * sq_sum - 0.5 * da * dphi - 0.5 * eps
    r_fibre = 0.5 * d2a + 0.5 * da * lv1 - 0.5 * da * dphi - 0.5 * a * fib_sum - 0.5 * eps
    r_base = (0.5 * da * ratio - 0.5 * a * ratio * ratio
              + 0.5 * a * ratio * lv1 - 0.5 * a * ratio * dphi
              - p / b + 0.5 * q2 * a / (b * b) - 0.5 * eps)
    return ResidualGrid(
        r_t=r_t,
        r_fibre=r_fibre,
        r_base=r_base,
        c_values=_first_integral_from(smp, lv1, eps),
        bianchi=_bianchi_from(smp, lv1, sq_sum, eps),
    )


def _first_integral_from(smp: ProfileSample, lv1, eps: float):
    # alpha*phi'' + alpha'*phi' + alpha*phi'*(log v)' - alpha*phi'^2 - eps*phi,
    # with phi'' = 0 for the ansatz
    a, da, dphi, phi = smp.alpha, smp.dalpha, smp.dphi, smp.phi
    return da * dphi + a * dphi * lv1 - a * dphi * dphi - eps * phi


@_propagating()
def first_integral(profile, smp: ProfileSample):
    """The conserved combination at the samples ``smp``; equals
    kappa1*(E_star - eps*kappa0) on solutions, independent of s."""
    lv1, _ = _log_v_derivatives(profile, smp)
    return _first_integral_from(smp, lv1, float(profile.config.epsilon))


def mu_general(beta, dbeta, d2beta, q):
    """mu = beta''/beta - (beta'/beta)^2/2 + q^2/(2 beta^2) for arbitrary
    injected values; the quantity the admissible beta branches annihilate."""
    return d2beta / beta - 0.5 * (dbeta / beta) ** 2 + 0.5 * q * q / (beta * beta)


def mu_values(profile, smp: ProfileSample) -> np.ndarray:
    """Per-factor mu at the samples ``smp``, one row per factor (beta'' = 0
    on the linear ansatz)."""
    return mu_general(smp.beta, smp.dbeta, 0.0, _factor_columns(profile, smp)[2])


def _bianchi_from(smp: ProfileSample, lv1, sq_sum, eps: float):
    # v_full^2 * (-tr(Ldot) - tr(L^2) + u_ddot + eps/2) with v_full = f*v,
    # so v_full^2 = alpha*v^2.  All t-derivatives converted via d/dt = f d/ds:
    #   tr L      = alpha'/(2 sqrt a) + sqrt(a) * (log v)'
    #   tr(Ldot)  = alpha''/2 - alpha'^2/(4 alpha) + (alpha'/2)(log v)' + alpha*(log v)''
    #   tr(L^2)   = alpha'^2/(4 alpha) + (alpha/2) * sum n_i (beta_i'/beta_i)^2
    #   u_ddot    = alpha'*phi'/2   (phi'' = 0)
    # and (log v)'' = -sum n_i (beta_i'/beta_i)^2 on the linear ansatz
    a, da, d2a = smp.alpha, smp.dalpha, smp.d2alpha
    quarter = da * da / (4.0 * a)
    tr_ldot = 0.5 * d2a - quarter + 0.5 * da * lv1 - a * sq_sum
    tr_lsq = quarter + 0.5 * a * sq_sum
    u_ddot = 0.5 * da * smp.dphi
    return a * smp.v * smp.v * (-tr_ldot - tr_lsq + u_ddot + 0.5 * eps)


@_propagating()
def bianchi_quantity(profile, smp: ProfileSample):
    """The contracted-Bianchi conservation quantity at the samples ``smp``.

    Vanishes on solutions of the full system; for a profile solving only the
    fibre/base families it is still constant in s (that constancy is the
    conservation law being checked)."""
    lv1, sq_sum = _log_v_derivatives(profile, smp)
    return _bianchi_from(smp, lv1, sq_sum, float(profile.config.epsilon))


@dataclass
class TCoordinateResiduals:
    """Residuals of the t-coordinate system on the interior of a uniform
    grid (two points trimmed at each end by the 4th-order stencils)."""

    r_t: np.ndarray
    r_fibre: np.ndarray
    r_base: np.ndarray


def _fd1(y: np.ndarray, h: float) -> np.ndarray:
    return (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * h)


def _fd2(y: np.ndarray, h: float) -> np.ndarray:
    return (-y[4:] + 16.0 * y[3:-1] - 30.0 * y[2:-2] + 16.0 * y[1:-3] - y[:-4]) \
        / (12.0 * h * h)


def t_coordinate_residuals(h: float, f: Sequence[float],
                           g: Sequence[Sequence[float]], u: Sequence[float],
                           factors, epsilon: float) -> TCoordinateResiduals:
    """Check arbitrary sampled functions f(t), g_i(t), u(t) against the
    t-coordinate system, using 4th-order centered differences.

    ``factors`` supplies (n_i, p_i, q_i) per base factor, matching the rows
    of ``g``; this is an independent cross-check of the s-coordinate
    machinery and accepts functions from any source.
    """
    if h <= 0:
        raise ValueError("grid spacing must be positive")
    f = np.asarray(f, dtype=float)
    u = np.asarray(u, dtype=float)
    g = [np.asarray(gi, dtype=float) for gi in g]
    npts = len(f)
    if npts < 5:
        raise ValueError("need at least 5 grid points for the interior stencils")
    if len(u) != npts or any(len(gi) != npts for gi in g):
        raise ValueError("all sampled functions must share the grid")
    if len(g) != len(factors):
        raise ValueError("one sampled g_i per factor required")

    eps = float(epsilon)
    mid = slice(2, npts - 2)
    fm = f[mid]
    df, d2f = _fd1(f, h), _fd2(f, h)
    du, d2u = _fd1(u, h), _fd2(u, h)
    dg = [_fd1(gi, h) for gi in g]
    d2g = [_fd2(gi, h) for gi in g]
    gm = [gi[mid] for gi in g]

    ns = [int(fac.n) for fac in factors]
    ps = [float(fac.p) for fac in factors]
    qs = [float(fac.q) for fac in factors]

    ddf_over_f = d2f / fm
    sum_ddg = sum(2 * n * d2gi / gmi for n, d2gi, gmi in zip(ns, d2g, gm))
    sum_cross_f = sum(2 * n * df * dgi / (fm * gmi)
                      for n, dgi, gmi in zip(ns, dg, gm))
    sum_bundle = sum(0.5 * n * q * q * fm ** 2 / gmi ** 4
                     for n, q, gmi in zip(ns, qs, gm))

    r_t = ddf_over_f + sum_ddg - d2u - 0.5 * eps
    r_fibre = ddf_over_f + sum_cross_f - du * df / fm - sum_bundle - 0.5 * eps

    r_base = np.empty((len(g), npts - 4))
    for i in range(len(g)):
        ratio = dg[i] / gm[i]
        cross = sum(2 * n * ratio * dgj / gmj
                    for n, dgj, gmj in zip(ns, dg, gm))
        r_base[i] = (d2g[i] / gm[i] - ratio ** 2 + df * ratio / fm + cross
                     - du * ratio - ps[i] / gm[i] ** 2
                     + 0.5 * qs[i] ** 2 * fm ** 2 / gm[i] ** 4 - 0.5 * eps)

    return TCoordinateResiduals(r_t=r_t, r_fibre=r_fibre, r_base=r_base)
