"""Reconstruction of the t-coordinate metric data, completeness
classification, and the self-similarity diffeomorphism of the flow.

The transverse geodesic coordinate is t = int_0^s dx/sqrt(alpha).  The
integrand behaves like 1/sqrt(2x) at a collapsed end.  Below the first
table node (s < 1e-8) quadrature is done in the substituted variable
x = w^2 from the s = 0 end; at a compact star end the last 1e-8 before s*
is covered by a Taylor model of alpha instead (see _arclength).  Inversion
s(t) is by bracketed monotone root-finding (Brent) on the quadrature itself
— cumulative node tables only supply the initial bracket and are never
interpolated.

The flow diffeomorphism is Xi(tau, t) = F^{-1}(shift(tau) + F(t)) with
F'(t) = 1/u_dot(t) and shift = log(1+eps*tau)/eps (or tau when eps = 0).
In the s-coordinate F' = 1/(kappa1*alpha), so F is tabulated once on a
fixed s-grid (anchored to 0 at the middle node: F diverges at both ends, so
no endpoint anchor exists) and evaluated between nodes by local quadrature.

t(s) and F(s) are two tables of one cumulative-integral type, cached on the
profile; they differ in their rate and in the end models they carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from kricci.profiles import Profile, sample

_S_BISECT_TOL = 1.0e-12
_F_BISECT_TOL = 1.0e-13
_NODES = 420
_S_MIN = 1.0e-8
_S_MAX = 1.0e5


def _quad(fn, a: float, b: float) -> float:
    """Adaptive quadrature to relative tolerance 1e-11; an IntegrationWarning
    from scipy is left to reach the caller."""
    val, _ = quad(fn, a, b, epsabs=0.0, epsrel=1.0e-11, limit=200)
    return val


class CompletenessClass(str, Enum):
    CIGAR_PARABOLOID = "CigarParaboloid"
    ASYMPTOTICALLY_CONICAL = "AsymptoticallyConical"
    COMPACT = "Compact"
    INCOMPLETE = "Incomplete"


@dataclass
class MetricFunctions:
    t_grid: np.ndarray
    f: np.ndarray
    u: np.ndarray
    g: np.ndarray          # one row per factor
    s_of_t: np.ndarray


@dataclass
class CompletenessReport:
    completeness_class: CompletenessClass
    slope_estimates: Dict[str, float]
    geodesic_length: float
    note: str = ""


def _alpha_at(profile: Profile, x: float) -> float:
    a = sample(profile, x).alpha
    if a <= 0.0:
        raise ValueError(f"alpha({x}) = {a} <= 0 along the integration path")
    return a


def _node_grid(profile: Profile) -> np.ndarray:
    """Fixed s-nodes for cumulative tables: log-spaced from each collapsed end."""
    hi = profile.s_domain[1]
    if profile.is_compact:
        hi = float(hi)
        inner = np.geomspace(_S_MIN, 0.5 * hi, _NODES // 2)
        outer = hi - np.geomspace(_S_MIN, 0.5 * hi, _NODES // 2)[::-1]
        return np.unique(np.concatenate([inner, outer]))
    return np.geomspace(_S_MIN, _S_MAX, _NODES)


@dataclass(frozen=True)
class _CumulativeIntegral:
    """G(s) = int rate(x) dx, tabulated at fixed s-nodes: ``prefix[j]`` is G
    at ``nodes[j]``, and between nodes G is the prefix plus one short
    quadrature (exact by additivity of the integral).

    Beyond the nodes a table covers only what its end models cover: ``head``
    is the integrand in w = sqrt(s) on [0, nodes[0]], where G(0) = 0;
    without a head, G diverges at s = 0 and is the first prefix minus a
    quadrature down from the first node; ``star`` = (s_star, G(s_star),
    gamma) is the Taylor sliver at a compact end (see _arclength);
    ``open_end`` continues the quadrature past the last node.  ``xtol`` is
    the Brent tolerance of the inverse.
    """

    nodes: np.ndarray
    prefix: np.ndarray
    rate: Callable[[float], float]
    xtol: float
    head: Optional[Callable[[float], float]] = None
    star: Optional[Tuple[float, float, float]] = None
    open_end: bool = False

    def value(self, s: float) -> float:
        nodes = self.nodes
        if self.head is not None and s <= nodes[0]:
            return _quad(self.head, 0.0, math.sqrt(s))
        if 0.0 < s < nodes[0]:
            return self.prefix[0] - _quad(self.rate, s, nodes[0])
        if self.star is not None and s >= nodes[-1]:
            s_star, total, gamma = self.star
            delta = max(s_star - s, 0.0)
            return total - math.sqrt(2.0 * delta) * (1.0 - gamma * delta / 6.0)
        if self.open_end and s >= nodes[-1]:
            return self.prefix[-1] + _quad(self.rate, nodes[-1], s)
        if not (nodes[0] <= s <= nodes[-1]):
            raise ValueError(
                f"s = {s} outside the flow map's tabulated range "
                f"[{nodes[0]}, {nodes[-1]}]"
            )
        j = min(max(int(np.searchsorted(nodes, s)) - 1, 0), len(nodes) - 2)
        return self.prefix[j] + _quad(self.rate, nodes[j], float(s))

    def invert(self, target: float, value: Callable[[float], float]) -> float:
        """s with value(s) = target, by Brent iteration on ``value`` (the
        public evaluation of this integral) in a bracket from the table."""
        nodes, prefix = self.nodes, self.prefix
        xtol = self.xtol
        sign = 1.0 if prefix[-1] > prefix[0] else -1.0  # F falls if kappa1 < 0
        if self.star is not None and target >= prefix[-1]:
            s_star, total, gamma = self.star
            if target > total + 1e-9:
                raise ValueError(f"t = {target} beyond the end of the compact interval")
            d = max(total - target, 0.0)
            delta = 0.5 * d * d
            for _ in range(3):
                delta = 0.5 * (d / (1.0 - gamma * delta / 6.0)) ** 2
            return s_star - delta
        if self.head is not None and target <= prefix[0]:
            lo, hi = 0.0, float(nodes[0])
        elif self.head is None and sign * (target - prefix[0]) < 0.0:
            # G diverges at the s = 0 tip: halve the bracket toward it, and
            # hold s to a relative tolerance there
            lo, hi = 0.5 * float(nodes[0]), float(nodes[0])
            while sign * (value(lo) - target) > 0.0:
                lo, hi = 0.5 * lo, lo
                if lo < 1.0e-300:
                    raise ValueError(f"flow target F = {target} not reached above s = 0")
            xtol *= hi
        elif self.open_end and target >= prefix[-1]:
            lo, hi = float(nodes[-1]), 2.0 * float(nodes[-1])
            while value(hi) < target:
                lo = hi
                hi *= 2.0
                if hi > 1.0e12:
                    raise ValueError(f"t = {target} beyond the reachable range")
        else:
            fmin, fmax = sorted((prefix[0], prefix[-1]))
            if not (fmin <= target <= fmax):
                raise ValueError(
                    f"flow target F = {target} outside the tabulated range "
                    f"[{fmin}, {fmax}]"
                )
            j = int(np.searchsorted(sign * prefix, sign * target)) - 1
            j = min(max(j, 0), len(nodes) - 2)
            lo, hi = float(nodes[j]), float(nodes[j + 1])
        return float(brentq(lambda x: value(x) - target, lo, hi,
                            xtol=xtol, rtol=1.0e-15, maxiter=200))


def _accumulate(nodes: np.ndarray, rate, head=None) -> np.ndarray:
    """The prefix values of a table.  Without a head model G has no finite
    value at s = 0, so the table is anchored to 0 at its middle node."""
    prefix = np.empty(len(nodes))
    prefix[0] = 0.0 if head is None else _quad(head, 0.0, math.sqrt(nodes[0]))
    for j in range(len(nodes) - 1):
        prefix[j + 1] = prefix[j] + _quad(rate, nodes[j], nodes[j + 1])
    if head is None:
        prefix -= prefix[len(prefix) // 2]
    return prefix


def _arclength(profile: Profile) -> _CumulativeIntegral:
    """The geodesic distance table of the profile, built on first use.

    The x = w^2 head handles the 1/sqrt(alpha) singularity at s = 0.

    At a compact star end alpha is the star series, which vanishes exactly
    at s_star with slope -2, so 1/sqrt(alpha) has the same 1/sqrt(2*delta)
    singularity as at s = 0.  The table stops 1e-8 short of s_star and
    covers the remainder with the Taylor model
    alpha = 2*delta*(1 + gamma*delta), whose arclength is
    sqrt(2*delta)*(1 - gamma*delta/6); gamma is measured once at
    delta = 1e-3.  The model error within the sliver is O(delta^2) ~ 1e-16
    relative, far below the quadrature tolerance.
    """
    table = profile._integrals.get("t")
    if table is not None:
        return table

    def rate(x: float) -> float:
        return 1.0 / math.sqrt(_alpha_at(profile, x))

    def head(w: float) -> float:
        return 2.0 * w / math.sqrt(_alpha_at(profile, w * w))

    nodes = _node_grid(profile)
    prefix = _accumulate(nodes, rate, head)
    star = None
    if profile.is_compact:
        s_star = float(profile.s_domain[1])
        probe = 1.0e-3
        gamma = (_alpha_at(profile, s_star - probe) / (2.0 * probe) - 1.0) / probe
        d_last = s_star - float(nodes[-1])
        total = prefix[-1] + math.sqrt(2.0 * d_last) * (1.0 - gamma * d_last / 6.0)
        star = (s_star, total, gamma)
    table = _CumulativeIntegral(nodes, prefix, rate, _S_BISECT_TOL, head=head,
                                star=star, open_end=star is None)
    profile._integrals["t"] = table
    return table


def t_of_s(profile: Profile, s: float) -> float:
    """Geodesic distance from the s = 0 end, with relative tolerance ~1e-10."""
    s = float(s)
    hi = profile.s_domain[1]
    if s < -1e-15 or s > float(hi) + 1e-12:
        raise ValueError(f"s = {s} outside the profile domain")
    if s <= 0.0:
        return 0.0
    return _arclength(profile).value(s)


def s_of_t(profile: Profile, t: float) -> float:
    """Invert the geodesic distance (to ~1e-12 in s).

    Bracketed monotone root-finding on the quadrature itself: the cumulative
    node table supplies the initial bracket (never an interpolated value),
    and Brent iteration refines it.  Inside the star sliver of a compact
    profile the distance is the closed Taylor model, inverted directly.
    """
    t = float(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    return _arclength(profile).invert(t, lambda x: t_of_s(profile, x))


def metric_functions(profile: Profile, t_grid: Sequence[float]) -> MetricFunctions:
    """Metric coefficients f, g_i and the potential u on a t-grid."""
    t_arr = np.asarray([float(t) for t in t_grid])
    r = len(profile.config.factors)
    f = np.empty(len(t_arr))
    u = np.empty(len(t_arr))
    g = np.empty((r, len(t_arr)))
    s_vals = np.empty(len(t_arr))
    for j, t in enumerate(t_arr):
        s = s_of_t(profile, t)
        smp = sample(profile, s)
        s_vals[j] = s
        f[j] = math.sqrt(max(smp.alpha, 0.0))
        u[j] = smp.phi
        for i, b in enumerate(smp.beta):
            g[i, j] = math.sqrt(max(b, 0.0))
    return MetricFunctions(t_grid=t_arr, f=f, u=u, g=g, s_of_t=s_vals)


def _alpha_zero_crossing(profile: Profile, s_cap: float = 1.0e6) -> Optional[float]:
    """First s > 0 with alpha(s) <= 0, or None if alpha stays positive."""
    prev = 1.0e-3
    prev_val = sample(profile, prev).alpha
    for s in np.geomspace(2.0e-3, s_cap, 400):
        val = sample(profile, float(s)).alpha
        if val <= 0.0:
            lo, hi = prev, float(s)
            for _ in range(120):
                mid = 0.5 * (lo + hi)
                if sample(profile, mid).alpha > 0.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        prev, prev_val = float(s), val
    return None


def volume_growth_exponent(profile: Profile, t_large: float = 1.0e3) -> float:
    """Two-point log-log slope of the hypersurface volume f*v against t."""
    out = []
    for t in (0.1 * t_large, t_large):
        s = s_of_t(profile, t)
        smp = sample(profile, s)
        out.append(math.log(math.sqrt(smp.alpha) * smp.v))
    return (out[1] - out[0]) / (math.log(t_large) - math.log(0.1 * t_large))


def completeness_report(profile: Profile) -> CompletenessReport:
    """Classify the end behaviour of the metric.

    Steady with kappa1 < 0: bounded circle fibre with sqrt(t) base growth
    (cigar-paraboloid).  Expanding, and calibrated noncompact shrinking:
    linear cone growth.  Compact: finite diameter.  A kappa1 of the wrong
    sign makes alpha vanish at finite s or grow exponentially; either way
    the geodesic length is finite and the metric is incomplete.
    """
    cfg = profile.config
    eps = float(cfg.epsilon)
    k1 = profile.kappa1
    slopes: Dict[str, float] = {}

    if profile.is_compact:
        length = t_of_s(profile, profile.s_domain[1])
        slopes["t_star"] = length
        return CompletenessReport(CompletenessClass.COMPACT, slopes, length)

    def tail_diag() -> None:
        a3 = sample(profile, 1.0e3).alpha
        a4 = sample(profile, 1.0e4).alpha
        slopes["alpha_1e3"] = a3
        slopes["alpha_1e4"] = a4
        slopes["alpha_over_s_1e4"] = a4 / 1.0e4

    if eps == 0.0:
        if k1 < 0.0:
            tail_diag()
            slopes["alpha_tail_ratio"] = slopes["alpha_1e4"] / slopes["alpha_1e3"]
            return CompletenessReport(
                CompletenessClass.CIGAR_PARABOLOID, slopes, math.inf)
        if k1 == 0.0:
            tail_diag()
            return CompletenessReport(
                CompletenessClass.ASYMPTOTICALLY_CONICAL, slopes, math.inf,
                note="kappa1 = 0: Einstein representative of the steady family")
        # kappa1 > 0: alpha grows exponentially, finite total distance
        length = t_of_s(profile, 200.0 / k1)
        slopes["alpha_growth_rate"] = k1
        return CompletenessReport(
            CompletenessClass.INCOMPLETE, slopes, length,
            note="kappa1 > 0: exponential alpha growth, bounded geodesic distance")

    if eps > 0.0:
        if k1 <= 0.0:
            tail_diag()
            return CompletenessReport(
                CompletenessClass.ASYMPTOTICALLY_CONICAL, slopes, math.inf)
        length = t_of_s(profile, 200.0 / k1)
        return CompletenessReport(
            CompletenessClass.INCOMPLETE, slopes, length,
            note="kappa1 > 0: exponential alpha growth, bounded geodesic distance")

    # noncompact shrinking
    if k1 > 0.0 and profile.t0_snapped:
        tail_diag()
        slopes["alpha_over_s_times_kappa1"] = slopes["alpha_over_s_1e4"] * k1
        return CompletenessReport(
            CompletenessClass.ASYMPTOTICALLY_CONICAL, slopes, math.inf)
    crossing = _alpha_zero_crossing(profile)
    if crossing is not None:
        slopes["alpha_zero_at_s"] = crossing
        length = t_of_s(profile, crossing * (1.0 - 1.0e-9))
        return CompletenessReport(
            CompletenessClass.INCOMPLETE, slopes, length,
            note="alpha vanishes at finite s")
    length = t_of_s(profile, 200.0 / max(k1, 1.0e-2))
    return CompletenessReport(
        CompletenessClass.INCOMPLETE, slopes, length,
        note="uncalibrated kappa1: exponential alpha growth")


# ---------------------------------------------------------------------------
# the flow diffeomorphism


def _flow_potential(profile: Profile) -> _CumulativeIntegral:
    """The table of F(s), F' = 1/(kappa1*alpha), built on first use."""
    table = profile._integrals.get("F")
    if table is not None:
        return table
    k1 = profile.kappa1
    if k1 == 0.0:
        raise ValueError("the flow map needs kappa1 != 0 (otherwise Xi = t)")

    def rate(x: float) -> float:
        return 1.0 / (k1 * _alpha_at(profile, x))

    nodes = _node_grid(profile)
    table = _CumulativeIntegral(nodes, _accumulate(nodes, rate), rate, _F_BISECT_TOL)
    profile._integrals["F"] = table
    return table


def potential_rate(profile: Profile, t: float) -> float:
    """u_dot(t) = sqrt(alpha) * kappa1 at the point a geodesic reaches at t."""
    s = s_of_t(profile, t)
    return math.sqrt(sample(profile, s).alpha) * profile.kappa1


def flow_trajectory(profile: Profile, tau: float, t: float) -> float:
    """Xi(tau, t): where the self-similarity diffeomorphism at flow time tau
    moves the point at geodesic distance t.

    For eps != 0 the flow exists for 1 + eps*tau > 0 (expanding: tau >
    -1/eps; shrinking: tau < 1/|eps|); tau = 0 is the identity.  kappa1 = 0
    means a constant potential: the flow fixes every point and Xi = t.
    """
    tau = float(tau)
    t = float(t)
    eps = float(profile.config.epsilon)
    if eps != 0.0:
        arg = 1.0 + eps * tau
        if arg <= 0.0:
            raise ValueError(f"tau = {tau} outside the flow's time domain")
        shift = math.log(arg) / eps
    else:
        shift = tau
    if profile.kappa1 == 0.0 or t == 0.0:
        return t  # the s = 0 tip is a fixed point of every flow
    flow = _flow_potential(profile)
    s_here = s_of_t(profile, t)
    target = flow.value(s_here) + shift
    s_there = flow.invert(target, flow.value)
    return t_of_s(profile, s_there)
