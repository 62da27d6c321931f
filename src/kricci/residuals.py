"""Verification that profiles solve the curvature system.

Everything here is a *check*: one battery evaluates, at every point of a
sample, the three equation families of the cohomogeneity-one gradient
soliton system in the s-coordinate, the conserved first integral and the
contracted-Bianchi conservation quantity.

Residuals are raw LHS - RHS (the equations are O(1) at admissible points;
relative scaling would hide sign errors near zeros of alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kricci.profiles import Profile, ProfileSample

DEFAULT_GRID_POINTS = 200
DEFAULT_S_MAX = 1.0e4


def _factor_columns(profile, smp: ProfileSample):
    """n_i, p_i and q_i as columns against the samples' (factor, point)
    arrays."""
    col = (-1,) + (1,) * np.ndim(smp.s)
    factors = profile.config.factors
    return (np.reshape([float(f.n) for f in factors], col),
            np.reshape([float(f.p) for f in factors], col),
            np.reshape([float(f.q) for f in factors], col))


@dataclass
class ResidualGrid:
    """Residuals of the full diagnostic battery on a common s-grid.

    r_base is a matrix with one row per factor.  c_values is the first
    integral, kappa1*(E_star - eps*kappa0) on solutions, independent of s.
    bianchi is the contracted-Bianchi conservation quantity: zero on
    solutions of the full system, and still constant in s on a profile
    that solves only the fibre and base families.
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


# overflow and inf - inf pass as non-finite values, as plain floats did:
# alpha blowing up on an uncalibrated profile, or the weight alpha*v^2 at
# large dimension; the caller's finiteness gate (solve's) reports them
@np.errstate(over="ignore", invalid="ignore")
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
    # (log v)' and sum n_i (beta_i'/beta_i)^2 = -(log v)'', over the factors
    # that v carries (n_i > 0)
    live = n.reshape(-1) > 0
    lv1 = np.sum(n[live] * ratio[live], axis=0)
    sq_sum = np.sum(n[live] * ratio[live] * ratio[live], axis=0)
    fib_sum = np.sum((n * q2 / (b * b))[live], axis=0)   # sum n_i q_i^2 / beta_i^2

    r_t = 0.5 * d2a + 0.5 * da * lv1 - 0.5 * a * sq_sum - 0.5 * da * dphi - 0.5 * eps
    r_fibre = 0.5 * d2a + 0.5 * da * lv1 - 0.5 * da * dphi - 0.5 * a * fib_sum - 0.5 * eps
    r_base = (0.5 * da * ratio - 0.5 * a * ratio * ratio
              + 0.5 * a * ratio * lv1 - 0.5 * a * ratio * dphi
              - p / b + 0.5 * q2 * a / (b * b) - 0.5 * eps)
    # first integral: alpha*phi'' + alpha'*phi' + alpha*phi'*(log v)'
    # - alpha*phi'^2 - eps*phi, with phi'' = 0 for the ansatz
    c_values = da * dphi + a * dphi * lv1 - a * dphi * dphi - eps * smp.phi
    # Bianchi: v_full^2 * (-tr(Ldot) - tr(L^2) + u_ddot + eps/2) with
    # v_full = f*v, so v_full^2 = alpha*v^2.  All t-derivatives converted
    # via d/dt = f d/ds:
    #   tr L      = alpha'/(2 sqrt a) + sqrt(a) * (log v)'
    #   tr(Ldot)  = alpha''/2 - alpha'^2/(4 alpha) + (alpha'/2)(log v)' + alpha*(log v)''
    #   tr(L^2)   = alpha'^2/(4 alpha) + (alpha/2) * sum n_i (beta_i'/beta_i)^2
    #   u_ddot    = alpha'*phi'/2   (phi'' = 0)
    # and (log v)'' = -sum n_i (beta_i'/beta_i)^2 on the linear ansatz
    quarter = da * da / (4.0 * a)
    tr_ldot = 0.5 * d2a - quarter + 0.5 * da * lv1 - a * sq_sum
    tr_lsq = quarter + 0.5 * a * sq_sum
    u_ddot = 0.5 * da * dphi
    bianchi = a * smp.v * smp.v * (-tr_ldot - tr_lsq + u_ddot + 0.5 * eps)
    return ResidualGrid(r_t=r_t, r_fibre=r_fibre, r_base=r_base,
                        c_values=c_values, bianchi=bianchi)
