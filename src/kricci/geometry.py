"""Reconstruction of the t-coordinate metric data, completeness
classification, and the self-similarity diffeomorphism of the flow.

The transverse geodesic coordinate is t(s) = int_0^s dx/sqrt(alpha), and the
flow diffeomorphism is Xi(tau, t) = F^{-1}(shift(tau) + F(t)) with
F'(t) = 1/u_dot(t), shift = log(1+eps*tau)/eps (or tau when eps = 0); in s,
F' = 1/(kappa1*alpha).  t(s) and F(s) are the same object, a cumulative
integral of a power of alpha, and share one engine, _CumulativeIntegral,
cached on the profile.  Both integrands are singular where alpha vanishes
like 2*delta at a collapsed end, delta the distance from it.

Coordinates.  A table works in u = log(delta): delta = s from the s = 0 end,
and delta = s* - s from the star end of a compact profile, which takes the
half s > s*/2.  In u the integrand delta*rate is smooth up to the ends, the
nodes are uniform (420 from delta = 1e-8, split between the halves of a
compact profile), and a point near s* keeps the precision of its distance,
which s itself cannot carry.  On a glued compact profile (see profiles)
alpha on the star half is the mirror's, so there t(s) = T - t_mirror(delta)
and F(s) = F_mirror(delta) + const, and each end is an s = 0 end.

Quadrature.  Each interval between nodes is one 8-point Gauss-Legendre
panel in u.  Its error is estimated by panel doubling, the rule on the
panel against the rule on its two halves.  A panel that misses relative
1e-14, above the rounding floor of its integrand (from the condition the
alpha kernel reports), is bisected, which walks toward whichever end is
singular; past a fixed depth ValueError is raised.  Panels are also cut
where alpha changes evaluation route, so that none straddles the small step
a route switch makes.  The prefix at a node is the sum of the panels below
it, and a value between nodes is the prefix plus one panel from the node
below; nothing is interpolated.  Past the nodes, t has the delta = w^2
head at each collapsed end, and an open t table continues in u past its
last node (s = 1e5); F continues in u past both collapsed ends, where it
diverges like log(delta)/(2*kappa1).

Inversion is safeguarded Newton in u over a whole batch of targets, with
the exact derivative dG/du = +-delta*rate: a bracket of two nodes and a
start from the cubic Hermite interpolant between them, a bisection
whenever a step leaves the bracket, and a stop once the error left is
below 1e-14 in u, a relative tolerance in delta.  t_of_s, s_of_t and
flow_trajectory take arrays, and the flow composes its three maps in u.
"""

from __future__ import annotations

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
#: an open t table is inverted out to this s at most
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


def _points(profile: Profile, side: np.ndarray, u: np.ndarray):
    """s and s* - s at the table coordinates (side, u)."""
    end = profile.s_domain[1]
    delta = np.exp(u)
    star = side == 1
    return np.where(star, end - delta, delta), np.where(star, delta, end - delta)


def _locate(profile: Profile, s: np.ndarray):
    """The table coordinates (side, u) of the points s of the domain."""
    end = profile.s_domain[1]
    side = (s > 0.5 * end).astype(int)
    delta = np.where(side == 1, np.maximum(end - s, 0.0), s)
    return side, np.log(delta, out=np.full(delta.shape, -math.inf), where=delta > 0.0)


def _rate(profile: Profile, power: float, factor: float):
    """rate = factor * alpha^-power at (s, s* - s), with its relative
    rounding floor; alpha must be positive."""
    def rate(s, d):
        a, cond = profiles.alpha_and_condition(profile, s, d)
        bad = ~(a > 0.0)
        if bad.any():
            x = s[bad][0]
            raise ValueError(f"alpha({x}) = {a[bad][0]} <= 0 along the integration path")
        return factor * a ** -power, _FLOOR_ULPS * 2.0 ** -52 * power * cond
    return rate


def _integrate(q, side: np.ndarray, a: np.ndarray, b: np.ndarray, breaks=()):
    """int_a^b q(side, x) dx for each entry, by 8-point Gauss-Legendre
    panels, and q at each b, which the first evaluation takes along.

    ``q`` returns the integrand and the relative rounding floor of its value;
    the rounding of x adds to that floor.  A panel is first cut at the
    ``breaks`` = (side, x) that lie inside it.  Its error is estimated by
    doubling: a panel whose rule and halves differ by more than _PANEL_RTOL
    of its value plus the rounding floor is bisected.  After _MAX_DEPTH
    bisections, or with more than _MAX_SPLITS failing panels at one depth,
    ValueError is raised.
    """
    shape = np.shape(a)
    side, a, b = (np.ravel(x) for x in np.broadcast_arrays(side, a, b))
    ends = (side, b)
    at_ends = None
    owner = np.arange(len(a))
    total = np.zeros(len(a))
    for cut_side, cut in breaks:
        inside = (side == cut_side) & (np.minimum(a, b) < cut) & (cut < np.maximum(a, b))
        if inside.any():
            owner = np.concatenate([owner, owner[inside]])
            side = np.concatenate([side, side[inside]])
            b_inside = b[inside]
            b = np.concatenate([np.where(inside, cut, b), b_inside])
            a = np.concatenate([a, np.full(len(b_inside), cut)])
    for _ in range(_MAX_DEPTH):
        half = 0.5 * (b - a)
        mid = a + half
        centres = np.concatenate([mid, a + 0.5 * half, mid + 0.5 * half])
        widths = np.concatenate([half, 0.5 * half, 0.5 * half])
        x = centres[:, None] + widths[:, None] * _GL_X
        points = np.repeat(np.tile(side, 3), len(_GL_X)), x.ravel()
        if at_ends is None:
            points = tuple(np.concatenate(pair) for pair in zip(points, ends))
        f, floor = q(*points)
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
        owner, side = np.tile(owner[bad], 2), np.tile(side[bad], 2)
        a, b = np.concatenate([a[bad], mid[bad]]), np.concatenate([mid[bad], b[bad]])
    raise ValueError(f"quadrature on [{a[bad][0]}, {b[bad][0]}] missed its relative "
                     f"tolerance {_PANEL_RTOL}")


def _newton(residual, side: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            x: np.ndarray, curvature: np.ndarray) -> np.ndarray:
    """The root in [lo, hi] of residual(side, x, entries) for each entry.

    ``residual`` returns the value and its derivative, and changes sign in
    the bracket.  Each step is Newton's, kept in the bracket of evaluated
    points: a step that leaves it is a bisection.  An entry stops once its
    step is at most _NEWTON_TOL, or once a Newton step d leaves an error of
    at most _NEWTON_TOL, which is about curvature * d^2 / 2 with
    ``curvature`` a bound on |residual'' / residual'| (1/_NEWTON_TOL makes
    the two rules one).
    """
    x, lo, hi = x.copy(), lo.copy(), hi.copy()
    live = np.arange(len(x))
    for _ in range(_NEWTON_ITER):
        if not live.size:
            return x
        xl = x[live]
        g, dg = residual(side[live], xl, live)
        past = (g > 0.0) == (dg > 0.0)
        hi[live] = np.where(past, xl, hi[live])
        lo[live] = np.where(past, lo[live], xl)
        new = xl - np.divide(g, dg, out=np.full_like(g, math.inf), where=dg != 0.0)
        outside = ~((new >= lo[live]) & (new <= hi[live]))
        new[outside] = 0.5 * (lo[live] + hi[live])[outside]
        x[live] = new
        step = np.abs(new - xl)
        settled = (step <= _NEWTON_TOL) | (g == 0.0) \
            | (~outside & (0.5 * curvature[live] * step * step <= _NEWTON_TOL))
        live = live[~settled]
    raise ValueError(f"Newton inversion did not converge within {_NEWTON_ITER} steps")


@dataclass(frozen=True)
class _CumulativeIntegral:
    """G(s) = int rate ds, tabulated in the coordinates (side, u) of the
    module docstring.  ``integrand(side, u)`` is delta*rate with its
    rounding floor; ``nodes`` are the u of the nodes, the same on each side;
    ``prefix[side][j]`` is G at node j of that side, and the two sides of a
    compact profile share their last node, s*/2; ``slopes`` holds dG/du
    there.  ``breaks`` are the (side, u) where alpha changes route.

    Past the nodes a table covers what its end models cover: ``head`` is
    the integrand in w = sqrt(delta) on [0, 1e-4] at each collapsed end,
    where G is ``ends`` = (G(0) = 0, G(s*)) (without it G continues in u
    below the first node); ``open_end`` lets G continue in u past the last
    node of an open profile.
    """

    integrand: Callable
    nodes: np.ndarray
    prefix: np.ndarray
    slopes: np.ndarray
    breaks: Tuple[Tuple[int, float], ...]
    head: Optional[Callable] = None
    ends: Tuple[float, ...] = (0.0,)
    open_end: bool = False

    def value(self, side: np.ndarray, u: np.ndarray):
        """G and dG/du at the points (side, u); with a head, u = -inf is
        the collapsed end of that side."""
        nodes = self.nodes
        out = np.empty((2,) + u.shape)
        head = (u < nodes[0]) & (self.head is not None)
        if head.any():
            hs = side[head]
            w = np.exp(0.5 * u[head])
            sign = np.where(hs == 1, -1.0, 1.0)
            g, dg = np.zeros_like(w), np.zeros_like(w)
            inner = w > 0.0  # w = 0 is the end itself
            if inner.any():
                g[inner], at_w = _integrate(self.head, hs[inner], g[inner], w[inner])
                dg[inner] = 0.5 * w[inner] * at_w  # dG/du = dG/dw * w/2
            out[0, head] = np.take(self.ends, hs) + sign * g
            out[1, head] = sign * dg
        beyond = (u > nodes[-1]) & (side == 0)
        if beyond.any() and not self.open_end:
            raise ValueError(f"s = {math.exp(u[beyond][0])} outside the flow map's "
                             f"tabulated range [{_D_MIN}, {_S_MAX}]")
        rest = ~head
        side, u = side[rest], u[rest]
        j = np.clip(np.searchsorted(nodes, u, side="right") - 1, 0, len(nodes) - 1)
        sign = np.where(side == 1, -1.0, 1.0)
        panel, at_u = _integrate(self.integrand, side, nodes[j], u, self.breaks)
        out[0, rest] = self.prefix[side, j] + sign * panel
        out[1, rest] = sign * at_u
        return out

    def invert(self, target: np.ndarray, what: str) -> Tuple[np.ndarray, np.ndarray]:
        """The points (side, u) where G = target, for each target; ``what``
        names G in error messages."""
        nodes, prefix = self.nodes, self.prefix
        n, compact = len(nodes), len(prefix) > 1
        # the node values in s order: up the zero side, then down the star side
        ordered = np.concatenate([prefix[0], prefix[1][-2::-1]]) if compact else prefix[0]
        sign = 1.0 if ordered[-1] > ordered[0] else -1.0  # F falls if kappa1 < 0
        k = np.searchsorted(sign * ordered, sign * target)
        side = ((k >= n) & compact).astype(int)
        # the nodes a, b around each target in s order, and a start from the
        # cubic Hermite interpolant of u(G) between them
        a = np.where(side == 1, 2 * n - 1 - k, k - 1).clip(0, n - 1)
        b = np.where(side == 1, 2 * n - 2 - k, k).clip(0, n - 1)
        lo, hi = np.minimum(nodes[a], nodes[b]), np.maximum(nodes[a], nodes[b])
        x, curvature = _hermite_start(nodes[a], nodes[b], prefix[side, a], prefix[side, b],
                                      self.slopes[side, a], self.slopes[side, b], target)
        u = np.empty(target.shape)
        first, last = k == 0, k == len(ordered)
        solve = np.ones(target.shape, dtype=bool)
        if last.any() and compact and self.head is not None:
            # within 1e-8 of s*: the star head below, s* itself at t = G(s*)
            if target[last].max() > self.ends[1] + 1e-9:
                raise ValueError(f"t = {target[last].max()} beyond the end of the compact interval")
            solve = ~(last & (target >= self.ends[1]))
            u[~solve] = -math.inf
        elif last.any() and not compact:
            if not self.open_end:
                lo_f, hi_f = sorted((ordered[0], ordered[-1]))
                raise ValueError(f"{what} = {target[last][0]} outside the "
                                 f"tabulated range [{lo_f}, {hi_f}]")
            lo[last], hi[last], x[last] = nodes[-1], math.log(_S_REACH), nodes[-1]
            curvature[last] = 1.0 / _NEWTON_TOL
            reach = self.value(side[last], hi[last])[0]
            if (sign * (reach - target[last]) < 0.0).any():
                raise ValueError(f"{what} = {target[last].max()} beyond the reachable range")
        # past a collapsed end G is linear in u with the end node's slope
        # (G = G(end) +- sqrt(2 delta) with a head), so one unit of u past
        # that guess brackets the target
        tail = first | (last & solve & compact)
        if tail.any():
            end_side = last[tail].astype(int)
            ends = np.full(end_side.shape, nodes[0])
            if self.head is not None:
                guess = np.log(0.5 * (target[tail] - np.take(self.ends, end_side)) ** 2)
            else:
                g_end = np.where(end_side == 1, ordered[-1], ordered[0])
                guess = ends + (target[tail] - g_end) / self.slopes[end_side, 0]
            guess = np.minimum(guess, ends)
            if guess.min() < math.log(1.0e-300) + 1.0:
                where = "above s = 0" if end_side[np.argmin(guess)] == 0 else "below s_star"
                raise ValueError(f"{what} = {target[tail][np.argmin(guess)]} not reached {where}")
            side[tail], lo[tail], hi[tail], x[tail] = end_side, guess - 1.0, ends, guess
            curvature[tail] = 1.0 / _NEWTON_TOL
            miss = sign * (self.value(side[tail], lo[tail])[0] - target[tail])
            if (np.where(end_side == 1, -miss, miss) > 0.0).any():
                raise ValueError(f"{what} = {target[tail][0]} is not bracketed past the end node")

        def residual(sd, xs, live):
            g, dg = self.value(sd, xs)
            return g - target[solve][live], dg

        u[solve] = _newton(residual, side[solve], lo[solve], hi[solve], x[solve],
                           curvature[solve])
        return side, u


def _hermite_start(u_a, u_b, g_a, g_b, slope_a, slope_b, target):
    """A start for Newton in [u_a, u_b], from the cubic Hermite interpolant
    of u(G) through the nodes (G = g, dG/du = slope at each), and a bound on
    |G''/G'| there: four times the change of log G' across the panel.
    Where a slope vanishes (alpha = inf) the start is linear and the bound
    is 1/_NEWTON_TOL, which leaves Newton's plain stopping rule."""
    h = g_b - g_a
    tau = np.divide(target - g_a, h, out=np.full(h.shape, 0.5), where=h != 0.0)
    smooth = slope_a * slope_b > 0.0
    inv_a = np.divide(h, slope_a, out=np.zeros_like(h), where=smooth)
    inv_b = np.divide(h, slope_b, out=np.zeros_like(h), where=smooth)
    x = ((2.0 * tau - 3.0) * tau * tau + 1.0) * u_a + (3.0 - 2.0 * tau) * tau * tau * u_b \
        + tau * (tau - 1.0) * ((tau - 1.0) * inv_a + tau * inv_b)
    x = np.clip(x, np.minimum(u_a, u_b), np.maximum(u_a, u_b))
    ratio = np.divide(slope_b, slope_a, out=np.ones_like(h), where=smooth)
    curvature = np.where(smooth, 4.0 * np.abs(np.log(ratio)) / np.abs(u_b - u_a + 1e-300) + 1.0,
                         1.0 / _NEWTON_TOL)
    return x, curvature


def _route_breaks(profile: Profile) -> Tuple[Tuple[int, float], ...]:
    """The table coordinates of the points where alpha changes route."""
    out = []
    for end, delta in profiles.route_switches(profile):
        if end == "star":
            out.append((1, math.log(delta)))
        else:
            side, u = _locate(profile, np.array([delta]))
            if np.isfinite(u[0]):
                out.append((int(side[0]), float(u[0])))
    return tuple(out)


def _table(profile: Profile, power: float, factor: float, head: bool) -> _CumulativeIntegral:
    """The table of G = int factor * alpha^-power ds.  With ``head``, G(0) =
    0 and each collapsed end gets the head in w = sqrt(delta); without it G
    is anchored to 0 at its middle node."""
    end = profile.s_domain[1]
    sides = 2 if profile.is_compact else 1
    top = 0.5 * end if profile.is_compact else _S_MAX
    nodes = np.linspace(math.log(_D_MIN), math.log(top), _NODES // sides)
    rate = _rate(profile, power, factor)

    def integrand(side, u):
        f, floor = rate(*_points(profile, side, u))
        return np.exp(u) * f, floor

    def head_integrand(side, w):
        d = w * w  # the distance from the end of the side
        f, floor = rate(np.where(side == 1, end - d, d), np.where(side == 1, d, end - d))
        return 2.0 * w * f, floor

    breaks = _route_breaks(profile)
    side = np.repeat(np.arange(sides), len(nodes) - 1)
    panels, at_nodes = _integrate(integrand, side, np.tile(nodes[:-1], sides),
                                  np.tile(nodes[1:], sides), breaks)
    panels = panels.reshape(sides, -1)
    at_first = integrand(np.arange(sides), np.full(sides, nodes[0]))[0]
    slopes = np.column_stack([at_first, at_nodes.reshape(sides, -1)])
    slopes[1:] *= -1.0  # s falls as u rises on the star side
    heads = np.zeros(sides)
    if head:
        w0 = math.exp(0.5 * nodes[0])
        heads = _integrate(head_integrand, np.arange(sides), np.zeros(sides),
                           np.full(sides, w0))[0]
    prefix = [np.cumsum(np.concatenate([[heads[0]], panels[0]]))]
    if sides == 2:
        # toward s*, G grows by each star-side panel from the shared node s*/2
        prefix.append(np.cumsum(np.concatenate([[prefix[0][-1]], panels[1][::-1]]))[::-1])
    prefix = np.array(prefix)
    if not head:
        ordered = np.concatenate([prefix[0], prefix[1][-2::-1]]) if sides == 2 else prefix[0]
        prefix -= ordered[len(ordered) // 2]
    ends = (0.0, float(prefix[1][0] + heads[1])) if sides == 2 else (0.0,)
    return _CumulativeIntegral(integrand, nodes, prefix, slopes, breaks,
                               head=head_integrand if head else None, ends=ends,
                               open_end=head and sides == 1)


def _arclength(profile: Profile) -> _CumulativeIntegral:
    """The geodesic distance table of the profile, built on first use: rate
    1/sqrt(alpha), with the delta = w^2 head at each collapsed end."""
    table = profile._integrals.get("t")
    if table is None:
        table = profile._integrals["t"] = _table(profile, 0.5, 1.0, head=True)
    return table


def _t_points(profile: Profile, t: np.ndarray):
    """The table coordinates of the points at geodesic distance t."""
    if (t < 0.0).any():
        raise ValueError("t must be nonnegative")
    side = np.zeros(t.shape, dtype=int)
    u = np.full(t.shape, -math.inf)
    moving = t > 0.0
    if moving.any():
        side[moving], u[moving] = _arclength(profile).invert(t[moving], "t")
    return side, u


def _t_values(profile: Profile, side: np.ndarray, u: np.ndarray) -> np.ndarray:
    """t at the table coordinates (side, u)."""
    return _arclength(profile).value(side, u)[0]


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
    flat = s_arr.reshape(-1)
    return _as_input(s, _t_values(profile, *_locate(profile, flat)).reshape(s_arr.shape))


def s_of_t(profile: Profile, t):
    """Invert the geodesic distance, for a float or an array of t.

    Safeguarded Newton in u = log(delta) on t itself, from a bracket of
    table nodes (never an interpolated value), to relative 1e-14 in delta =
    s, or s* - s on the star half of a compact profile.
    """
    t_arr = np.asarray(t, dtype=float)
    flat = t_arr.reshape(-1)
    side, u = _t_points(profile, flat)
    s, _ = _points(profile, side, u)
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
    s, d = _points(profile, *_t_points(profile, t_arr.reshape(-1)))
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
        side, u = _t_points(profile, flat)
        # the s = 0 tip and the star end s* are fixed points of every flow
        moving = u > -math.inf
        if moving.any():
            flow = _flow_potential(profile)
            target = flow.value(side[moving], u[moving])[0] + shift
            out[moving] = _t_values(profile, *flow.invert(target, "flow target F"))
    return _as_input(t, out.reshape(t_arr.shape))
