"""Reconstruction of the t-coordinate metric data, completeness
classification, and the self-similarity diffeomorphism of the flow.

The transverse geodesic coordinate is t(s) = int_0^s dx/sqrt(alpha), and the
flow diffeomorphism is Xi(tau, t) = F^{-1}(shift(tau) + F(t)) with
F'(t) = 1/u_dot(t), shift = log(1+eps*tau)/eps (or tau when eps = 0); in s,
F' = 1/(kappa1*alpha).  t(s) and F(s) are the same object, a cumulative
integral of a power of alpha, and share one engine, _CumulativeIntegral,
cached on the profile.  Both integrands are singular where alpha vanishes
like 2*delta at a collapsed end, delta the distance from it.

Coordinates.  A table works in one coordinate y, monotone in s: y =
log(s) up to L = log(s*/2), and y = 2L - log(s* - s) beyond, so y runs from
-inf at s = 0 to +inf at s* (L = inf on an open profile).  On both halves
ds/dy = delta, the distance from the nearer end, so the integrand is
delta*rate, smooth up to the ends, and a point near s* keeps the precision
of its distance, which s itself cannot carry.  The nodes are uniform in y
from delta = 1e-8: 420 up to s = 1e5 on an open profile, and on a compact
one 210 up to L and their reflection about it.  On a glued compact profile
(see profiles) alpha on the star half is the mirror's, so each end is an
s = 0 end.  _points and _locate convert between y and s.

Quadrature.  Each interval between nodes is one 8-point Gauss-Legendre
panel in y.  Its error is estimated by panel doubling, the rule on the
panel against the rule on its two halves.  A panel that misses relative
1e-14, above the rounding floor of its integrand (from the condition the
alpha kernel reports), is bisected, which walks toward whichever end is
singular; past a fixed depth ValueError is raised.  Panels are also cut
where alpha changes evaluation route, so that none straddles the small step
a route switch makes.  The prefix at a node is the sum of the panels below
it, and a value between nodes is the prefix plus one panel from the node
below; nothing is interpolated.

The end rule.  Past its end nodes G continues in y, for t and F alike; F
diverges there like log(delta)/(2*kappa1).  Past the last node of an open
profile that holds out to s = 1e12.  The one exception is the collapsed
ends of the t table, where the head in w = sqrt(delta) takes over.

Inversion is safeguarded Newton in y over a whole batch of targets, with
the exact derivative dG/dy = delta*rate: a bracket of two nodes and a
start from the cubic Hermite interpolant between them, a bisection
whenever a step leaves the bracket, and a stop once the error left is
below 1e-14 in y (a relative tolerance in delta) or one float spacing of
y.  t_of_s, s_of_t and flow_trajectory take arrays, and the flow composes
its three maps in y.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from kricci import profiles
from kricci.profiles import Profile, sample

_NODES = 420
_D_MIN = 1.0e-8
_S_MAX = 1.0e5
#: an open table is inverted out to this s at most
_S_REACH = 1.0e12
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_PANEL_RTOL = 1.0e-14
#: a rate's rounding error, in units of alpha's condition times 2^-52
_FLOOR_ULPS = 4.0
_MAX_DEPTH = 50
#: failing panels at one depth beyond which the rule is given up
_MAX_SPLITS = 4096
_NEWTON_TOL = 1.0e-14
_NEWTON_ITER = 100


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


def _as_input(like, values: np.ndarray):
    """``values`` as a float when ``like`` was a scalar, else as an array."""
    return float(values) if np.ndim(like) == 0 else values


def _points(profile: Profile, y: np.ndarray):
    """s and its distance delta from the nearer end at the table coordinates
    y; delta = ds/dy, and it is s_star - s to full precision on the star half."""
    end = profile.s_domain[1]
    if math.isinf(end):
        s = np.exp(y)
        return s, s
    fold = math.log(0.5 * end)
    star = y > fold
    delta = np.exp(np.where(star, 2.0 * fold - y, y))
    return np.where(star, end - delta, delta), delta


def _locate(profile: Profile, s: np.ndarray) -> np.ndarray:
    """The table coordinates y of the points s of the domain."""
    end = profile.s_domain[1]
    star = s > 0.5 * end
    delta = np.where(star, np.maximum(end - s, 0.0), s)
    y = np.log(delta, out=np.full(delta.shape, -math.inf), where=delta > 0.0)
    return np.where(star, 2.0 * math.log(0.5 * end) - y, y) if star.any() else y


def _integrate(q, a: np.ndarray, b: np.ndarray, breaks=()):
    """int_a^b q(x) dx for each entry, by 8-point Gauss-Legendre panels, and
    q at each b, which the first evaluation takes along.

    ``q`` returns the integrand and the relative rounding floor of its value;
    the rounding of x adds to that floor.  A panel is first cut at the
    ``breaks`` that lie inside it.  Its error is estimated by doubling: a
    panel whose rule and halves differ by more than _PANEL_RTOL of its value
    plus the rounding floor is bisected.  After _MAX_DEPTH bisections, or
    with more than _MAX_SPLITS failing panels at one depth, ValueError is
    raised.
    """
    shape = np.shape(a)
    a, b = (np.ravel(x) for x in np.broadcast_arrays(a, b))
    ends, at_ends = b, None
    owner = np.arange(len(a))
    total = np.zeros(len(a))
    for cut in breaks:
        inside = (np.minimum(a, b) < cut) & (cut < np.maximum(a, b))
        if inside.any():
            owner = np.concatenate([owner, owner[inside]])
            b_inside = b[inside]
            b = np.concatenate([np.where(inside, cut, b), b_inside])
            a = np.concatenate([a, np.full(len(b_inside), cut)])
    for _ in range(_MAX_DEPTH):
        half = 0.5 * (b - a)
        mid = a + half
        centres = np.concatenate([mid, a + 0.5 * half, mid + 0.5 * half])
        widths = np.concatenate([half, 0.5 * half, 0.5 * half])
        x = centres[:, None] + widths[:, None] * _GL_X
        f, floor = q(x.ravel() if at_ends is not None else np.concatenate([x.ravel(), ends]))
        if at_ends is None:
            at_ends, f, floor = f[x.size:].reshape(shape), f[:x.size], floor[:x.size]
        f, floor = f.reshape(x.shape), floor.reshape(x.shape)
        # rounding x moves the integrand by |d log f/dx| * ulp(x); the end
        # nodes of the rule estimate that slope
        first, last = np.abs(f[:, 0]), np.abs(f[:, -1])
        ratio = np.divide(last, first, out=np.ones(len(f)), where=(first > 0.0) & (last > 0.0))
        slope = np.abs(np.log(ratio)) / (np.abs(widths) * (_GL_X[-1] - _GL_X[0]) + 1e-300)
        floor = floor + slope[:, None] * 2.0 ** -52 * np.abs(x)
        sums = widths * (f @ _GL_W)
        noise = np.abs(widths) * ((np.abs(f) * floor) @ _GL_W)
        n = len(a)
        coarse, fine = sums[:n], sums[n:2 * n] + sums[2 * n:]
        slack = _PANEL_RTOL * np.abs(fine) + noise[:n] + noise[n:2 * n] + noise[2 * n:]
        ok = np.abs(fine - coarse) <= slack
        np.add.at(total, owner[ok], fine[ok])
        if ok.all():
            return total.reshape(shape), at_ends
        bad = ~ok
        if bad.sum() > _MAX_SPLITS:
            break
        owner = np.tile(owner[bad], 2)
        a, b = np.concatenate([a[bad], mid[bad]]), np.concatenate([mid[bad], b[bad]])
    raise ValueError(f"quadrature on [{a[bad][0]}, {b[bad][0]}] missed its relative "
                     f"tolerance {_PANEL_RTOL}")


def _newton(residual, lo: np.ndarray, hi: np.ndarray, x: np.ndarray,
            curvature: np.ndarray) -> np.ndarray:
    """The root in [lo, hi] of residual(x, entries) for each entry.

    ``residual`` returns the value and its derivative, and changes sign in
    the bracket.  Each step is Newton's, kept in the bracket of evaluated
    points: a step that leaves it is a bisection.  An entry stops once its
    step is at most _NEWTON_TOL or one spacing of the floats at x, or once a
    Newton step d leaves an error of at most _NEWTON_TOL, which is about
    curvature * d^2 / 2 with ``curvature`` a bound on |residual'' /
    residual'| (1/_NEWTON_TOL makes the two rules one).
    """
    x, lo, hi = x.copy(), lo.copy(), hi.copy()
    live = np.arange(len(x))
    for _ in range(_NEWTON_ITER):
        if not live.size:
            return x
        xl = x[live]
        g, dg = residual(xl, live)
        past = (g > 0.0) == (dg > 0.0)
        hi[live] = np.where(past, xl, hi[live])
        lo[live] = np.where(past, lo[live], xl)
        new = xl - np.divide(g, dg, out=np.full_like(g, math.inf), where=dg != 0.0)
        outside = ~((new >= lo[live]) & (new <= hi[live]))
        new[outside] = 0.5 * (lo[live] + hi[live])[outside]
        x[live] = new
        step = np.abs(new - xl)
        settled = (step <= np.maximum(_NEWTON_TOL, np.spacing(np.abs(new)))) | (g == 0.0) \
            | (~outside & (0.5 * curvature[live] * step * step <= _NEWTON_TOL))
        live = live[~settled]
    raise ValueError(f"Newton inversion did not converge within {_NEWTON_ITER} steps")


@dataclass(frozen=True)
class _CumulativeIntegral:
    """G(s) = int rate ds, tabulated in the coordinate y of the module
    docstring.  ``integrand(y)`` is delta*rate with its rounding floor and
    ``points(y)`` is (s, delta); ``prefix`` and ``slopes`` are G and dG/dy
    at the ``nodes``; ``breaks`` are the y where alpha changes route.

    Past the last node of an open profile G is inverted out to y =
    ``reach`` (inf on a compact profile).  ``head``, when given, is the
    integrand in w = +-sqrt(delta) (negative at the star end) on [0, 1e-4];
    it serves below the first node, where G(0) = 0, and on a compact
    profile beyond the last, where G(s*) = ``end``.
    """

    integrand: Callable
    points: Callable
    nodes: np.ndarray
    prefix: np.ndarray
    slopes: np.ndarray
    breaks: Tuple[float, ...]
    reach: float
    head: Optional[Callable] = None
    end: float = math.inf

    def value(self, y: np.ndarray):
        """G and dG/dy at the points y; with a head, y = -inf and +inf are
        the collapsed ends."""
        nodes = self.nodes
        out = np.empty((2,) + y.shape)
        head = ((y < nodes[0]) | ((y > nodes[-1]) & math.isinf(self.reach))) \
            & (self.head is not None)
        if head.any():
            star = y[head] > nodes[-1]
            w = np.where(star, -1.0, 1.0) * np.sqrt(self.points(y[head])[1])
            g, dg = np.zeros_like(w), np.zeros_like(w)
            inner = w != 0.0  # w = 0 is the end itself
            if inner.any():
                g[inner], at_w = _integrate(self.head, g[inner], w[inner])
                dg[inner] = 0.5 * np.abs(w[inner]) * at_w  # dG/dy = dG/dw * |w|/2
            out[:, head] = np.where(star, self.end, 0.0) + g, dg
        rest = ~head
        y = y[rest]
        j = np.clip(np.searchsorted(nodes, y, side="right") - 1, 0, len(nodes) - 1)
        panel, at_y = _integrate(self.integrand, nodes[j], y, self.breaks)
        out[:, rest] = self.prefix[j] + panel, at_y
        return out

    def invert(self, target: np.ndarray, what: str) -> np.ndarray:
        """The points y where G = target, for each target; ``what`` names G
        in error messages."""
        nodes, prefix, slopes = self.nodes, self.prefix, self.slopes
        sign = 1.0 if prefix[-1] > prefix[0] else -1.0  # F falls if kappa1 < 0
        k = np.searchsorted(sign * prefix, sign * target)
        # the nodes around each target, and a start from the cubic Hermite
        # interpolant of y(G) between them
        a, b = (k - 1).clip(0, len(nodes) - 1), k.clip(0, len(nodes) - 1)
        lo, hi = nodes[a], nodes[b]
        x, curvature = _hermite_start(lo, hi, prefix[a], prefix[b], slopes[a], slopes[b], target)
        first, last = k == 0, k == len(nodes)
        curvature[first | last] = 1.0 / _NEWTON_TOL
        y = np.empty(target.shape)
        solve = np.ones(target.shape, dtype=bool)
        if self.head is not None:
            # the collapsed ends themselves, at G(0) = 0 and G(s*) = end
            if (target > self.end + 1e-9).any():
                raise ValueError(f"{what} = {target.max()} beyond the end of the compact interval")
            y[target <= 0.0], y[target >= self.end] = -math.inf, math.inf
            solve = (target > 0.0) & (target < self.end)
        far = last & solve & math.isfinite(self.reach)
        if far.any():
            lo[far], hi[far], x[far] = nodes[-1], self.reach, nodes[-1]
            if (sign * (self.value(hi[far])[0] - target[far]) < 0.0).any():
                raise ValueError(f"{what} = {target[far].max()} beyond the reachable range")
        tail = (first | last) & solve & ~far
        if tail.any():
            # past an end node G is linear in y with the node's slope, or
            # G(end) +- c*sqrt(delta) with a head, so one unit of y past
            # that guess brackets the target
            star = last[tail]
            i = np.where(star, -1, 0)
            if self.head is not None:
                g_end = np.where(star, self.end, 0.0)
                ratio = (target[tail] - g_end) / (prefix[i] - g_end)
                guess = nodes[i] + np.where(star, -2.0, 2.0) * np.log(ratio)
            else:
                guess = nodes[i] + (target[tail] - prefix[i]) / slopes[i]
            guess = np.where(star, np.maximum(guess, nodes[-1]), np.minimum(guess, nodes[0]))
            outer = guess + np.where(star, 1.0, -1.0)
            delta = self.points(outer)[1]
            if delta.min() < 1.0e-300:
                worst = np.argmin(delta)
                where = "below s_star" if star[worst] else "above s = 0"
                raise ValueError(f"{what} = {target[tail][worst]} not reached {where}")
            lo[tail], hi[tail] = np.minimum(outer, nodes[i]), np.maximum(outer, nodes[i])
            x[tail] = guess
            miss = sign * (self.value(outer)[0] - target[tail])
            if (np.where(star, -miss, miss) > 0.0).any():
                raise ValueError(f"{what} = {target[tail][0]} is not bracketed past the end node")

        def residual(xs, live):
            g, dg = self.value(xs)
            return g - target[solve][live], dg

        y[solve] = _newton(residual, lo[solve], hi[solve], x[solve], curvature[solve])
        return y


def _hermite_start(y_a, y_b, g_a, g_b, slope_a, slope_b, target):
    """A start for Newton in [y_a, y_b], from the cubic Hermite interpolant
    of y(G) through the nodes (G = g, dG/dy = slope at each), and a bound on
    |G''/G'| there: four times the change of log G' across the panel.
    Where a slope vanishes (alpha = inf) the start is linear and the bound
    is 1/_NEWTON_TOL, which leaves Newton's plain stopping rule."""
    h = g_b - g_a
    tau = np.divide(target - g_a, h, out=np.full(h.shape, 0.5), where=h != 0.0)
    smooth = slope_a * slope_b > 0.0
    inv_a = np.divide(h, slope_a, out=np.zeros_like(h), where=smooth)
    inv_b = np.divide(h, slope_b, out=np.zeros_like(h), where=smooth)
    x = ((2.0 * tau - 3.0) * tau * tau + 1.0) * y_a + (3.0 - 2.0 * tau) * tau * tau * y_b \
        + tau * (tau - 1.0) * ((tau - 1.0) * inv_a + tau * inv_b)
    x = np.clip(x, y_a, y_b)
    ratio = np.divide(slope_b, slope_a, out=np.ones_like(h), where=smooth)
    curvature = np.where(smooth, 4.0 * np.abs(np.log(ratio)) / np.abs(y_b - y_a + 1e-300) + 1.0,
                         1.0 / _NEWTON_TOL)
    return x, curvature


def _table(profile: Profile, power: float, factor: float, head: bool) -> _CumulativeIntegral:
    """The table of G = int factor * alpha^-power ds.  With ``head``, G(0) =
    0 and each collapsed end gets the head in w = sqrt(delta); without it G
    is anchored to 0 at its middle node.  A compact profile needs the
    mirror of a calibrated kappa1, without which alpha is singular at s*."""
    end, compact = profile.s_domain[1], profile.is_compact
    if compact and profile.mirror is None:
        raise ValueError("alpha is singular at s_star: the existence integral does not "
                         "vanish at this kappa1")
    top = math.log(0.5 * end) if compact else math.log(_S_MAX)
    nodes = np.linspace(math.log(_D_MIN), top, _NODES // 2 if compact else _NODES)
    if compact:
        nodes = np.concatenate([nodes, 2.0 * top - nodes[-2::-1]])

    def rate(s, d):
        """factor * alpha^-power, with its relative rounding floor"""
        a, cond = profiles.alpha_and_condition(profile, s, d)
        bad = ~(a > 0.0)
        if bad.any():
            raise ValueError(f"alpha({s[bad][0]}) = {a[bad][0]} <= 0 along the integration path")
        return factor * a ** -power, _FLOOR_ULPS * 2.0 ** -52 * power * cond

    def integrand(y):
        s, delta = _points(profile, y)
        f, floor = rate(s, delta)
        return delta * f, floor

    def head_integrand(w):
        d = w * w  # the distance from the end, the star end where w < 0
        f, floor = rate(np.where(w < 0.0, end - d, d), d)
        return 2.0 * np.abs(w) * f, floor

    breaks = tuple(math.log(d) if at == "zero" else 2.0 * top - math.log(d)
                   for at, d in profiles.route_switches(profile))
    panels, at_nodes = _integrate(integrand, nodes[:-1], nodes[1:], breaks)
    slopes = np.concatenate([integrand(nodes[:1])[0], at_nodes])
    # G from each collapsed end to its end node, by the head: w0 at s = 0, -w0 at s*
    w0 = np.array([1.0, -1.0][:1 + compact]) * math.exp(0.5 * nodes[0])
    heads = _integrate(head_integrand, np.zeros_like(w0), w0)[0] if head else np.zeros_like(w0)
    prefix = np.cumsum(np.concatenate([heads[:1], panels]))
    if not head:
        prefix -= prefix[len(prefix) // 2]
    return _CumulativeIntegral(integrand, functools.partial(_points, profile), nodes, prefix,
                               slopes, breaks, math.inf if compact else math.log(_S_REACH),
                               head=head_integrand if head else None,
                               end=float(prefix[-1] - heads[-1]) if compact else math.inf)


def _arclength(profile: Profile) -> _CumulativeIntegral:
    """The geodesic distance table of the profile, built on first use: rate
    1/sqrt(alpha), with the delta = w^2 head at each collapsed end."""
    table = profile._integrals.get("t")
    if table is None:
        table = profile._integrals["t"] = _table(profile, 0.5, 1.0, head=True)
    return table


def _t_points(profile: Profile, t: np.ndarray) -> np.ndarray:
    """The table coordinates y of the points at geodesic distance t."""
    if (t < 0.0).any():
        raise ValueError("t must be nonnegative")
    return _arclength(profile).invert(t, "t")


def t_of_s(profile: Profile, s):
    """Geodesic distance from the s = 0 end, for a float or an array of s.

    Each panel is held to relative 1e-14 above the rounding floor of alpha,
    so t is good to ~1e-14 relative where alpha is well conditioned, and to
    the floor (~1e-12) where its route cancels.
    """
    s_arr = np.asarray(s, dtype=float)
    hi = profile.s_domain[1]
    bad = (s_arr < -1e-15) | (s_arr > float(hi) + 1e-12)
    if bad.any():
        raise ValueError(f"s = {s_arr[bad].flat[0]} outside the profile domain")
    t = _arclength(profile).value(_locate(profile, s_arr.reshape(-1)))[0]
    return _as_input(s, t.reshape(s_arr.shape))


def s_of_t(profile: Profile, t):
    """Invert the geodesic distance, for a float or an array of t.

    Safeguarded Newton in the table coordinate y on t itself, from a
    bracket of table nodes (never an interpolated value), to 1e-14 in y:
    relative 1e-14 in the distance delta from the nearer end, s or s* - s.
    On an open profile t is inverted out to s = 1e12.
    """
    t_arr = np.asarray(t, dtype=float)
    s, _ = _points(profile, _t_points(profile, t_arr.reshape(-1)))
    return _as_input(t, s.reshape(t_arr.shape))


def metric_functions(profile: Profile, t_grid: Sequence[float]) -> MetricFunctions:
    """Metric coefficients f, g_i and the potential u on a t-grid."""
    t_arr = np.asarray([float(t) for t in t_grid])
    s_vals = s_of_t(profile, t_arr)
    smp = sample(profile, s_vals)
    return MetricFunctions(t_grid=t_arr, f=np.sqrt(np.maximum(smp.alpha, 0.0)), u=smp.phi,
                           g=np.sqrt(np.maximum(smp.beta, 0.0)), s_of_t=s_vals)


def _alpha_zero_crossing(profile: Profile, s_cap: float = 1.0e6) -> Optional[float]:
    """First s > 0 with alpha(s) <= 0, or None if alpha stays positive: a
    scan of 400 geometric points from 2e-3, then 31 interior points of the
    bracket at a time, down to adjacent floats."""
    xs = np.geomspace(2.0e-3, s_cap, 400)
    down = np.flatnonzero(profiles.alpha(profile, xs) <= 0.0)
    if not down.size:
        return None
    lo, hi = (xs[down[0] - 1] if down[0] else 1.0e-3), xs[down[0]]
    while True:
        inner = np.linspace(lo, hi, 33)[1:-1]
        inner = inner[(inner > lo) & (inner < hi)]
        if not inner.size:
            return float(0.5 * (lo + hi))
        down = np.flatnonzero(profiles.alpha(profile, inner) <= 0.0)
        k = down[0] if down.size else inner.size
        lo = inner[k - 1] if k else lo
        hi = inner[k] if k < inner.size else hi


def volume_growth_exponent(profile: Profile, t_large: float = 1.0e3) -> float:
    """Two-point log-log slope of the hypersurface volume f*v against t."""
    smp = sample(profile, s_of_t(profile, np.array([0.1 * t_large, t_large])))
    lo, hi = np.log(np.sqrt(smp.alpha) * smp.v)
    return float(hi - lo) / (math.log(t_large) - math.log(0.1 * t_large))


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
        a3, a4 = profiles.alpha(profile, np.array([1.0e3, 1.0e4])).tolist()
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
    if table is None:
        if profile.kappa1 == 0.0:
            raise ValueError("the flow map needs kappa1 != 0 (otherwise Xi = t)")
        table = profile._integrals["F"] = _table(profile, 1.0, 1.0 / profile.kappa1, head=False)
    return table


def potential_rate(profile: Profile, t):
    """u_dot(t) = sqrt(alpha) * kappa1 at the point a geodesic reaches at t,
    for a float or an array of t."""
    t_arr = np.asarray(t, dtype=float)
    s, d = _points(profile, _t_points(profile, t_arr.reshape(-1)))
    rate = np.sqrt(profiles.alpha(profile, s, d)) * profile.kappa1
    return _as_input(t, rate.reshape(t_arr.shape))


def flow_trajectory(profile: Profile, tau: float, t):
    """Xi(tau, t): where the self-similarity diffeomorphism at flow time tau
    moves the point at geodesic distance t, for a float or an array of t.

    For eps != 0 the flow exists for 1 + eps*tau > 0 (expanding: tau >
    -1/eps; shrinking: tau < 1/|eps|); tau = 0 is the identity.  kappa1 = 0
    means a constant potential: the flow fixes every point and Xi = t.  The
    maps t -> s -> F -> s -> t are composed in the table coordinates, so a
    point near s* keeps its precision.
    """
    tau = float(tau)
    t_arr = np.asarray(t, dtype=float)
    eps = float(profile.config.epsilon)
    if eps != 0.0:
        arg = 1.0 + eps * tau
        if arg <= 0.0:
            raise ValueError(f"tau = {tau} outside the flow's time domain")
        shift = math.log(arg) / eps
    else:
        shift = tau
    flat = t_arr.reshape(-1)
    out = flat.copy()
    if profile.kappa1 != 0.0:
        y = _t_points(profile, flat)
        # the s = 0 tip and the star end s* are fixed points of every flow
        moving = np.isfinite(y)
        if moving.any():
            flow = _flow_potential(profile)
            target = flow.value(y[moving])[0] + shift
            out[moving] = _arclength(profile).value(flow.invert(target, "flow target F"))[0]
    return _as_input(t, out.reshape(t_arr.shape))
