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
panel against the rule on its two halves, and the degree-7 interpolant of
the panel's rule is checked at its halves' 16 points, which costs no alpha.
A panel that misses either check by relative 1e-14, above the rounding
floor of its integrand (from the condition the alpha kernel reports), is
bisected, which walks toward whichever end is singular; past a fixed depth
ValueError is raised.  Panels are also cut where alpha changes evaluation
route, so that none straddles the small step a route switch makes.  The
halves of the accepted panels are the table's leaves.  On each the 8
integrand values the rule took are kept as their degree-7 Legendre
interpolant, integrated exactly, so a value between the end nodes is the
prefix at the leaf plus one polynomial, and evaluates no alpha.  The
prefix is a compensated (Neumaier) sum of the leaves, from the collapsed
end for t and outward from the middle node for F.  t and F share their
nodes and breaks, so the table built second reads alpha where the first
one's quadrature asked it, and calls the kernel only for its own
bisections and its head.

The end rule.  Past its end nodes G continues in y, for t and F alike,
as leaves added by the same quadrature; F diverges there like
log(delta)/(2*kappa1).  The one exception is the collapsed ends of the t
table, where the head in w = sqrt(delta) takes over.

Inversion is safeguarded Newton in y over a whole batch of targets, on
the leaves' polynomials, with dG/dy = delta*rate from the same leaf: a
bracket of the leaf that holds the target and a start on the chord across
it, a bisection whenever a step leaves the bracket, and a stop once the
step is below 1e-14 in y (a relative tolerance in delta) or one float
spacing of y.  Past the last node of an open profile the bracket doubles
in y until G at its end holds the target, and is beyond reach only where
s or alpha leaves the floats.  t_of_s, s_of_t and flow_trajectory take
arrays, and the flow composes its three maps in y.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial import legendre

from kricci import profiles
from kricci.profiles import Profile, sample

_NODES = 420
_D_MIN = 1.0e-8
_S_MAX = 1.0e5
#: s = e^y is a float below this y
_Y_MAX = math.log(np.finfo(float).max)
_GL_X, _GL_W = legendre.leggauss(8)
#: values at _GL_X -> the coefficients of their degree-7 Legendre interpolant:
#: the rule's discrete orthogonality, refined by one Newton step for the
#: inverse.  These tables use einsum, not matmul, so that importing the
#: module starts no BLAS.
_VANDER = legendre.legvander(_GL_X, 7)
_ORTHO = _VANDER * _GL_W[:, None] * (np.arange(8) + 0.5)
_TO_SERIES = _ORTHO + np.einsum("ij,jk->ik", _ORTHO,
                                np.eye(8) - np.einsum("ji,jk->ik", _VANDER, _ORTHO))
#: values at _GL_X -> their interpolant at the Gauss points of each half
_TO_HALVES = np.einsum("ij,skj->sik", _TO_SERIES,
                       [legendre.legvander(0.5 * (_GL_X + side), 7) for side in (-1.0, 1.0)])
_TO_HALVES_ABS = np.abs(_TO_HALVES)
#: Legendre coefficients up to degree 8 in u -> power coefficients in
#: v = u + 1, which runs from 0 to 2 across a leaf
_TO_POWERS = np.einsum("ij,jk->ik", [np.pad(legendre.leg2poly(row), (0, 8 - k))
                                     for k, row in enumerate(np.eye(9))],
                       [[math.comb(k, i) * (-1.0) ** (k - i) for i in range(9)] for k in range(9)])
#: the Legendre series of a leaf's integrand -> the power coefficients of
#: its antiderivative from v = 0 and of itself, side by side
_TO_LEAF = np.hstack([np.einsum("ij,jk->ik", legendre.legint(np.eye(8), lbnd=-1.0, axis=1),
                                _TO_POWERS), _TO_POWERS[:8]])
_TO_LEAF[:, 0] = 0.0  # the antiderivative vanishes at v = 0 exactly
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
    the leaves, the halves of the accepted panels, as (left ends, right ends,
    q at their Gauss points, their integrals).

    ``q`` returns the integrand and the relative rounding floor of its value;
    the rounding of x adds to that floor.  A panel is first cut at the
    ``breaks`` that lie inside it.  Its error is estimated by doubling: a
    panel is bisected if its rule and halves differ by more than _PANEL_RTOL
    of its value plus the rounding floor, or if the degree-7 interpolant of
    its rule misses the values at its halves' points by more than that, in
    the integral of the distance.  So each leaf's own interpolant, on half
    the width, is good to the same tolerance at any point of the leaf.
    After _MAX_DEPTH bisections, or with more than _MAX_SPLITS failing panels
    at one depth, ValueError is raised.
    """
    shape = np.shape(a)
    a, b = (np.ravel(x) for x in np.broadcast_arrays(a, b))
    owner = np.arange(len(a))
    total = np.zeros(len(a))
    leaves = []
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
        f, floor = (v.reshape(x.shape) for v in q(x.ravel()))
        # rounding x moves the integrand by |d log f/dx| * ulp(x); the end
        # nodes of the rule estimate that slope
        first, last = np.abs(f[:, 0]), np.abs(f[:, -1])
        ratio = np.divide(last, first, out=np.ones(len(f)), where=(first > 0.0) & (last > 0.0))
        slope = np.abs(np.log(ratio)) / (np.abs(widths) * (_GL_X[-1] - _GL_X[0]) + 1e-300)
        rounding = np.abs(f) * (floor + slope[:, None] * 2.0 ** -52 * np.abs(x))
        sums = widths * (f @ _GL_W)
        noise = np.abs(widths) * (rounding @ _GL_W)
        n = len(a)
        coarse, fine = sums[:n], sums[n:2 * n] + sums[2 * n:]
        slack = _PANEL_RTOL * np.abs(fine) + noise[:n] + noise[n:2 * n] + noise[2 * n:]
        halves = f[n:].reshape(2, n, len(_GL_X))
        miss = np.abs(f[:n] @ _TO_HALVES - halves) \
            - rounding[:n] @ _TO_HALVES_ABS - rounding[n:].reshape(halves.shape)
        ok = (np.abs(fine - coarse) <= slack) \
            & (0.5 * np.abs(half) * (miss @ _GL_W).sum(axis=0) <= _PANEL_RTOL * np.abs(fine))
        np.add.at(total, owner[ok], fine[ok])
        leaves.append((np.concatenate([a[ok], mid[ok]]), np.concatenate([mid[ok], b[ok]]),
                       halves[:, ok].reshape(-1, len(_GL_X)),
                       sums[n:].reshape(2, n)[:, ok].ravel()))
        if ok.all():
            return total.reshape(shape), tuple(map(np.concatenate, zip(*leaves)))
        bad = ~ok
        if bad.sum() > _MAX_SPLITS:
            break
        owner = np.tile(owner[bad], 2)
        a, b = np.concatenate([a[bad], mid[bad]]), np.concatenate([mid[bad], b[bad]])
    raise ValueError(f"quadrature on [{a[bad][0]}, {b[bad][0]}] missed its relative "
                     f"tolerance {_PANEL_RTOL}")


def _newton(residual, lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The root in [lo, hi] of residual(x, entries) for each entry.

    ``residual`` returns the value and its derivative, and changes sign in
    the bracket.  Each step is Newton's, kept inside the bracket of
    evaluated points: a step that leaves it or lands on its end is a
    bisection.  An entry stops once its step, or its bracket, is at most
    _NEWTON_TOL or one spacing of the floats at x, so an entry whose
    residual is rounding noise between two floats settles there.
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
        tol = np.maximum(_NEWTON_TOL, np.spacing(np.abs(xl)))
        close = np.abs(new - xl) <= tol
        outside = ~((new > lo[live]) & (new < hi[live])) & ~close
        new[outside] = 0.5 * (lo[live] + hi[live])[outside]
        x[live] = np.where(g == 0.0, xl, new)
        live = live[~(close | (g == 0.0) | (hi[live] - lo[live] <= tol))]
    raise ValueError(f"Newton inversion did not converge within {_NEWTON_ITER} steps")


@dataclass(frozen=True)
class _CumulativeIntegral:
    """G(s) = int rate ds, tabulated in the coordinate y of the module
    docstring on the leaves of its quadrature, with rate = ``factor`` *
    alpha^-``power`` on the profile that each method is given (the table
    holds no reference to it, so it is freed with the profile).  ``prefix``
    is G at the ``edges`` of the leaves, the first and last of which are the
    end nodes.  On leaf j, in v = 0..2 across it, ``polys[:, 0, j]`` holds
    the power coefficients of the share of the leaf's increment that G has
    reached, exactly 0 at v = 0, and ``polys[:, 1, j]`` those of dG/dy.
    ``breaks`` are the y where alpha changes route.

    With ``head``, the integrand in w = +-sqrt(delta) (negative at the star
    end) on [0, 1e-4] serves below the first node, where G(0) = 0, and on a
    compact profile beyond the last, where G(s*) = ``end``.
    """

    power: float
    factor: float
    edges: np.ndarray
    prefix: np.ndarray
    polys: np.ndarray
    breaks: Tuple[float, ...]
    head: bool
    end: float = math.inf

    def value(self, profile: Profile, y: np.ndarray):
        """G and dG/dy at the points y; with a head, y = -inf and +inf are
        the collapsed ends."""
        edges = self.edges
        inside = (y >= edges[0]) & (y <= edges[-1])
        if inside.all():
            return self._on_leaves(y)
        out = np.empty((2,) + y.shape)
        out[:, inside] = self._on_leaves(y[inside])
        above = y > edges[-1]
        head = ~inside & (~above | profile.is_compact) & self.head
        if head.any():
            star = above[head]
            w = np.where(star, -1.0, 1.0) * np.sqrt(_points(profile, y[head])[1])
            g, dg = np.zeros_like(w), np.zeros_like(w)
            inner = w != 0.0  # w = 0 is the end itself
            if inner.any():
                q = functools.partial(_head_integrand, profile, self.power, self.factor)
                g[inner] = _integrate(q, g[inner], w[inner])[0]
                dg[inner] = 0.5 * np.abs(w[inner]) * q(w[inner])[0]  # dG/dw * |w|/2
            out[:, head] = np.where(star, self.end, 0.0) + g, dg
        past = ~inside & ~head
        if past.any():
            beyond = y[past]
            out[:, past] = self._extended(profile, beyond.min(), beyond.max())._on_leaves(beyond)
        return out

    def _extended(self, profile: Profile, lo: float, hi: float) -> "_CumulativeIntegral":
        """The table with leaves added past its end nodes, where no head
        serves, down to y = lo and up to y = hi: G continues in y."""
        edges, prefix, polys = self.edges, self.prefix, self.polys
        below = lo < edges[0] and not self.head
        above = hi > edges[-1] and not (self.head and profile.is_compact)
        if not (below or above):
            return self
        if below:
            more, more_polys, sums = _leaves(profile, self.power, self.factor, lo, edges[0],
                                             self.breaks)
            edges, polys = np.concatenate([more[:-1], edges]), np.dstack([more_polys, polys])
            prefix = np.concatenate([prefix[0] - _running_sum(sums[::-1])[::-1], prefix])
        if above:
            more, more_polys, sums = _leaves(profile, self.power, self.factor, edges[-1], hi,
                                             self.breaks)
            edges, polys = np.concatenate([edges, more[1:]]), np.dstack([polys, more_polys])
            prefix = np.concatenate([prefix, prefix[-1] + _running_sum(sums)])
        return replace(self, edges=edges, prefix=prefix, polys=polys)

    def _on_leaves(self, y: np.ndarray):
        """G and dG/dy at points y between the end nodes: the prefix, and the
        leaf's polynomials by Horner's rule."""
        edges, prefix = self.edges, self.prefix
        j = np.minimum(np.searchsorted(edges, y, side="right") - 1, len(edges) - 2)
        v = 2.0 * (y - edges[j]) / (edges[j + 1] - edges[j])
        coeffs = self.polys[:, :, j]
        out = coeffs[-1].copy()
        for c in coeffs[-2::-1]:
            out *= v
            out += c
        out[0] = prefix[j] + (prefix[j + 1] - prefix[j]) * out[0].clip(0.0, 1.0)
        return out

    def invert(self, profile: Profile, target: np.ndarray, what: str) -> np.ndarray:
        """The points y where G = target, for each target; ``what`` names G
        in error messages."""
        edges, prefix = self.edges, self.prefix
        sign = 1.0 if prefix[-1] > prefix[0] else -1.0  # F falls if kappa1 < 0
        k = np.searchsorted(sign * prefix, sign * target)
        first, last = k == 0, k == len(edges)
        # the leaf that holds each target, and a start from the chord across it
        j = (k - 1).clip(0, len(edges) - 2)
        lo, hi, rise = edges[j], edges[j + 1], prefix[j + 1] - prefix[j]
        x = lo + (hi - lo) * np.divide(target - prefix[j], rise, out=np.full(k.shape, 0.5),
                                       where=rise != 0.0).clip(0.0, 1.0)
        y = np.empty(target.shape)
        solve = np.ones(target.shape, dtype=bool)
        if self.head:
            # the collapsed ends themselves, at G(0) = 0 and G(s*) = end
            if (target > self.end + 1e-9).any():
                raise ValueError(f"{what} = {target.max()} beyond the end of the compact interval")
            y[target <= 0.0], y[target >= self.end] = -math.inf, math.inf
            solve = (target > 0.0) & (target < self.end)
        far = last & solve & (not profile.is_compact)
        if far.any():
            lo[far], hi[far] = self._reach(profile, target[far], sign, what)
            x[far] = hi[far]
        tail = (first | last) & solve & ~far
        if tail.any():
            # past an end node G is linear in y with the node's slope, or
            # G(end) +- c*sqrt(delta) with a head, so one unit of y past
            # that guess brackets the target
            star = last[tail]
            i = np.where(star, -1, 0)
            if self.head:
                g_end = np.where(star, self.end, 0.0)
                ratio = (target[tail] - g_end) / (prefix[i] - g_end)
                guess = edges[i] + np.where(star, -2.0, 2.0) * np.log(ratio)
            else:
                guess = edges[i] + (target[tail] - prefix[i]) / self.value(profile, edges[i])[1]
            guess = np.where(star, np.maximum(guess, edges[-1]), np.minimum(guess, edges[0]))
            outer = guess + np.where(star, 1.0, -1.0)
            delta = _points(profile, outer)[1]
            if delta.min() < 1.0e-300:
                worst = np.argmin(delta)
                where = "below s_star" if star[worst] else "above s = 0"
                raise ValueError(f"{what} = {target[tail][worst]} not reached {where}")
            lo[tail], hi[tail] = np.minimum(outer, edges[i]), np.maximum(outer, edges[i])
            x[tail] = guess
            miss = sign * (self.value(profile, outer)[0] - target[tail])
            if (np.where(star, -miss, miss) > 0.0).any():
                raise ValueError(f"{what} = {target[tail][0]} is not bracketed past the end node")

        table = self._extended(profile, lo[solve].min(initial=math.inf),
                               hi[solve].max(initial=-math.inf))

        def residual(xs, live):
            g, dg = table.value(profile, xs)
            return g - target[solve][live], dg

        y[solve] = _newton(residual, lo[solve], hi[solve], x[solve])
        return y

    def _reach(self, profile: Profile, target: np.ndarray, sign: float, what: str):
        """A bracket [lo, hi] in y past the last node of an open profile for
        each target: its length doubles until G(hi) holds the target, and it
        is halved back wherever s or alpha leaves the float range at hi."""
        lo = np.full(target.shape, self.edges[-1])
        hi = np.full(target.shape, _Y_MAX)  # out of range, until G there holds the target
        length = np.ones(target.shape)
        live = np.arange(target.size)
        while live.size:
            probe = np.minimum(lo[live] + length[live], 0.5 * (lo[live] + hi[live]))
            s, delta = _points(profile, probe)
            a = profiles.alpha(profile, s, delta)
            inside = (a > 0.0) & (a < math.inf)
            holds = np.zeros(live.shape, dtype=bool)
            reached = self.value(profile, probe[inside])[0] - target[live[inside]]
            holds[inside] = sign * reached >= 0.0
            hi[live[holds | ~inside]] = probe[holds | ~inside]
            short = inside & ~holds
            lo[live[short]] = probe[short]
            length[live[short]] *= 2.0
            stuck = hi[live] - lo[live] <= np.maximum(_NEWTON_TOL, np.spacing(hi[live]))
            if (stuck & ~holds).any():
                raise ValueError(f"{what} = {target[live].max()} beyond the reachable range")
            live = live[~holds]
        return lo, hi


def _rate(power: float, factor: float, s, a, cond):
    """factor * alpha^-power from alpha and its condition at the points s,
    with its relative rounding floor."""
    bad = ~(a > 0.0)
    if bad.any():
        raise ValueError(f"alpha({s[bad][0]}) = {a[bad][0]} <= 0 along the integration path")
    return factor * a ** -power, _FLOOR_ULPS * 2.0 ** -52 * power * cond


def _integrand(profile: Profile, power: float, factor: float, y: np.ndarray, calls=None):
    """delta * factor * alpha^-power at the table coordinates y, with its
    relative rounding floor.  alpha is read from the record ``calls``, when
    given, if it holds this y, and added to it otherwise."""
    s, delta = _points(profile, y)
    alpha = next((known for seen, known in calls or () if np.array_equal(seen, y)), None)
    if alpha is None:
        alpha = profiles.alpha_and_condition(profile, s, delta)
        if calls is not None:
            calls.append((y, alpha))
    f, floor = _rate(power, factor, s, *alpha)
    return delta * f, floor


def _head_integrand(profile: Profile, power: float, factor: float, w: np.ndarray):
    """The integrand in w = +-sqrt(delta) at a collapsed end, the star end
    where w < 0, with its relative rounding floor."""
    d = w * w
    s = np.where(w < 0.0, profile.s_domain[1] - d, d)
    f, floor = _rate(power, factor, s, *profiles.alpha_and_condition(profile, s, d))
    return 2.0 * np.abs(w) * f, floor


def _running_sum(terms: np.ndarray) -> np.ndarray:
    """The cumulative sums of ``terms``, compensated (Neumaier): np.cumsum
    plus the running sum of the exact rounding errors of its additions,
    each found by TwoSum."""
    total = np.cumsum(terms)
    before = np.concatenate([[0.0], total[:-1]])
    added = total - before
    return total + np.cumsum((before - (total - added)) + (terms - added))


def _leaves(profile: Profile, power: float, factor: float, a, b, breaks, calls=None):
    """The quadrature of delta * factor * alpha^-power over the intervals
    [a, b] in y, as its leaves in order: their edges, their polynomials (see
    _CumulativeIntegral) and their integrals.  ``calls`` is _integrand's."""
    q = functools.partial(_integrand, profile, power, factor, calls=calls)
    left, right, values, sums = _integrate(q, a, b, breaks)[1]
    order = np.argsort(left)
    # dG/dy, and its antiderivative over the value of that at v = 2
    polys = ((values[order] @ _TO_SERIES) @ _TO_LEAF).reshape(-1, 2, 9)
    whole = polys[:, 0] @ 2.0 ** np.arange(9.0)[:, None]
    np.divide(polys[:, 0], whole, out=polys[:, 0], where=whole != 0.0)
    return np.append(left[order], right[order][-1]), polys.transpose(2, 1, 0).copy(), sums[order]


def _table(profile: Profile, power: float, factor: float, head: bool) -> _CumulativeIntegral:
    """The table of G = int factor * alpha^-power ds.  With ``head``, G(0) =
    0 and each collapsed end gets the head in w = sqrt(delta); without it G
    is anchored to 0 at its middle node.  A compact profile needs the
    mirror of a calibrated kappa1, without which alpha is singular at s*.

    The t and F tables have the same nodes and breaks, so their quadratures
    over the nodes ask alpha at the same points, surely in the first pass
    and mostly in the bisections.  ``profile._integrals["alpha"]`` records
    those kernel calls as (y, (alpha, condition)), and a call at the same y
    is read from there."""
    end, compact = profile.s_domain[1], profile.is_compact
    if compact and profile.mirror is None:
        raise ValueError("alpha is singular at s_star: the existence integral does not "
                         "vanish at this kappa1")
    top = math.log(0.5 * end) if compact else math.log(_S_MAX)
    nodes = np.linspace(math.log(_D_MIN), top, _NODES // 2 if compact else _NODES)
    if compact:
        nodes = np.concatenate([nodes, 2.0 * top - nodes[-2::-1]])
    breaks = tuple(math.log(d) if at == "zero" else 2.0 * top - math.log(d)
                   for at, d in profiles.route_switches(profile))
    edges, polys, sums = _leaves(profile, power, factor, nodes[:-1], nodes[1:], breaks,
                                 calls=profile._integrals.setdefault("alpha", []))
    if not head:
        # summed outward from the middle node, where G = 0
        mid = np.searchsorted(edges, nodes[len(nodes) // 2])
        prefix = np.concatenate([-_running_sum(sums[:mid][::-1])[::-1], [0.0],
                                 _running_sum(sums[mid:])])
        return _CumulativeIntegral(power, factor, edges, prefix, polys, breaks, head)
    # G from each collapsed end to its end node, by the head: w0 at s = 0, -w0 at s*
    w0 = np.array([1.0, -1.0][:1 + compact]) * math.exp(0.5 * nodes[0])
    q = functools.partial(_head_integrand, profile, power, factor)
    heads = _integrate(q, np.zeros_like(w0), w0)[0]
    prefix = _running_sum(np.concatenate([heads[:1], sums, -heads[1:]]))
    return _CumulativeIntegral(power, factor, edges, prefix[:len(edges)], polys, breaks, head,
                               end=float(prefix[-1]) if compact else math.inf)


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
    return _arclength(profile).invert(profile, t, "t")


def t_of_s(profile: Profile, s):
    """Geodesic distance from the s = 0 end, for a float or an array of s.

    Each panel is held to relative 1e-14 above the rounding floor of alpha,
    so t is good to ~1e-14 relative where alpha is well conditioned, and to
    the floor (~1e-12) where its route cancels.
    """
    s_arr = np.asarray(s, dtype=float)
    hi = profile.s_domain[1]
    bad = ~((s_arr >= -1e-15) & (s_arr <= float(hi) + 1e-12) & (s_arr < math.inf))
    if bad.any():
        raise ValueError(f"s = {s_arr[bad].flat[0]} outside the profile domain")
    t = _arclength(profile).value(profile, _locate(profile, s_arr.reshape(-1)))[0]
    return _as_input(s, t.reshape(s_arr.shape))


def s_of_t(profile: Profile, t):
    """Invert the geodesic distance, for a float or an array of t.

    Safeguarded Newton in the table coordinate y on the table's leaf
    polynomials, to 1e-14 in y: relative 1e-14 in the distance delta from
    the nearer end, s or s* - s.  On an open profile every t is inverted
    whose s and alpha are floats.
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
            target = flow.value(profile, y[moving])[0] + shift
            image = flow.invert(profile, target, "flow target F")
            out[moving] = _arclength(profile).value(profile, image)[0]
    return _as_input(t, out.reshape(t_arr.shape))
