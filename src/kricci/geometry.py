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
of its distance, which s itself cannot carry.  The nodes start at the end
node, delta = 1e-8 or the zero series' reach rho/30 if that is less: 200
uniform in y up to s = 1e5 on an open profile, and on a compact one 80 up
to L, uniform in u where delta = 0.4*log(1 + e^u), so in log(delta) near
the end and in delta near the fold, and their reflection about L.  On a
glued compact profile (see profiles) alpha on the star half is the
mirror's, so each end is an s = 0 end.  _points and _locate convert
between y and s.

Quadrature.  t and F are integrated in one pass: each interval between
nodes is one 8-point Gauss-Legendre panel in y, with one alpha for both
rates.  Its error is estimated by panel doubling, the rule on the panel
against the rule on its two halves, and the degree-7 interpolant of the
panel's rule is checked at its halves' 16 points, which costs no alpha.
A panel that misses either check for either rate by relative 1e-14,
above the rounding floor of its integrand (from the condition the alpha
kernel reports), is bisected, its halves' values becoming its children's
rules, which walks toward whichever end is singular; past a fixed depth
ValueError is raised.  Panels are also cut where alpha changes evaluation
route, so that none straddles the small step a route switch makes.  The
halves of the accepted panels are the leaves of both tables.  On each the
8 integrand values the rule took are kept as their degree-7 Legendre
interpolant, integrated exactly, so a value between the end nodes is the
prefix at the leaf plus one polynomial, and evaluates no alpha.  The
prefix is a compensated (Neumaier) sum of the leaves, from the collapsed
end for t and outward from the middle node for F, kept with what its
rounding left out.

The end rule.  Between a collapsed end and its end node the zero series
(the mirror's at s*) gives alpha = c1*delta*(1 + A), A = sum a_k delta^k,
and one recurrence gives (1 + A)^-power = sum b_k delta^k, so G is a
constant C +- factor * c1^-power * sum b_k delta^(k+1-power)/(k+1-power):
t = sqrt(2 delta)*(1 + ...) for power 1/2, and for F, power 1, the k = 0
term is log(delta).  It is evaluated in log(delta), y or 2L - y, without
forming delta, so t holds down to s = 5e-324 and F has no floor; t_of_s,
which holds delta itself, reads it in place of e^y.  The series is
trusted within rho/30 of its end, hence the end node.  Past the last node
of an open profile G continues on the nodes' own spacing in y, in blocks
of 16 node intervals, each integrated on its own when first needed and
kept while s and alpha are positive floats at its end, so a point read
from its block gets the same float alone or in any batch, which one
quadrature of a batch's whole stretch would not (numpy's matmul rounds a
row differently with the number of rows).  From the first block out of
reach on, a point is integrated alone from that block's start up to it.

Inversion is safeguarded Newton in y over a whole batch of targets, on
the leaves' polynomials, with dG/dy = delta*rate from the same leaf: a
bracket of the leaf that holds the target and a start on the chord across
it, a bisection whenever a step leaves the bracket, and a stop once the
step is below 1e-14 in y (a relative tolerance in delta) or one float
spacing of y.  Past the end node of a collapsed end the end rule's leading
term, inverted, gives the start, one unit of y inside a bracket.  Past the
last node of an open profile the table first grows block by block until G
at its end holds every target; a target is beyond reach once the next
block would end where s or alpha leaves the floats.  t_of_s, s_of_t and
flow_trajectory take arrays, and the flow composes its three maps in y.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial import legendre, polynomial

from kricci import profiles
from kricci.profiles import Profile, sample

_NODES = 200
_HALF_NODES = 80
_FOLD_SCALE = 0.4
_D_MIN = 1.0e-8
_S_MAX = 1.0e5
#: node intervals in each block past the last node of an open table
_FAR_BLOCK = 16
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


def _locate(profile: Profile, s: np.ndarray):
    """The table coordinates y of the points s of the domain, and their
    distance delta from the nearer end, exact since s is a float."""
    end = profile.s_domain[1]
    star = s > 0.5 * end
    delta = np.where(star, np.maximum(end - s, 0.0), s)
    y = np.log(delta, out=np.full(delta.shape, -math.inf), where=delta > 0.0)
    return (np.where(star, 2.0 * math.log(0.5 * end) - y, y) if star.any() else y), delta


def _integrate(q, a: np.ndarray, b: np.ndarray, breaks=()):
    """The quadrature of each row of q(x) over [a, b] for each entry, by
    8-point Gauss-Legendre panels, as its leaves, the halves of the accepted
    panels: (left ends, right ends, q at their Gauss points, their
    integrals), the last two with an axis for the rows after the leaves'.

    ``q`` returns one row of integrand values or several, and the relative
    rounding floor of each; the rounding of x adds to that floor.  A panel
    is first cut at the ``breaks`` that lie inside it.  It is bisected if,
    in any row, its rule and halves differ by more than _PANEL_RTOL of its
    value plus the rounding floor, or the degree-7 interpolant of its rule
    misses the values at its halves' points by more than that, in the
    integral of the distance.  So each leaf's own interpolant, on half the
    width, is good to the same tolerance at any point of the leaf.  A
    bisected panel's halves are its children's rules, so a child calls q
    at 16 points, not 24.  After _MAX_DEPTH bisections, or with more than
    _MAX_SPLITS failing panels at one depth, ValueError is raised.
    """
    a, b = (np.ravel(x) for x in np.broadcast_arrays(a, b))
    leaves = []
    for cut in breaks:
        inside = (np.minimum(a, b) < cut) & (cut < np.maximum(a, b))
        if inside.any():
            b_inside = b[inside]
            b = np.concatenate([np.where(inside, cut, b), b_inside])
            a = np.concatenate([a, np.full(len(b_inside), cut)])
    known = None  # each panel's rule, values and rounding, when its parent evaluated it
    for _ in range(_MAX_DEPTH):
        n = len(a)
        half = 0.5 * (b - a)
        mid = a + half
        centres = np.concatenate([mid, a + 0.5 * half, mid + 0.5 * half])
        widths = np.concatenate([half, 0.5 * half, 0.5 * half])
        x = (centres[:, None] + widths[:, None] * _GL_X)[0 if known is None else n:]
        f, floor = (np.reshape(v, (-1,) + x.shape) for v in q(x.ravel()))
        # rounding x moves the integrand by |d log f/dx| * ulp(x); the end
        # nodes of the rule estimate that slope
        first, last = np.abs(f[..., 0]), np.abs(f[..., -1])
        ratio = np.divide(last, first, out=np.ones(first.shape), where=(first > 0.0) & (last > 0.0))
        slope = np.abs(np.log(ratio)) / (np.abs(widths[-len(x):]) * (_GL_X[-1] - _GL_X[0]) + 1e-300)
        rounding = np.abs(f) * (floor + slope[..., None] * 2.0 ** -52 * np.abs(x))
        if known is not None:
            f, rounding = (np.concatenate(pair, axis=1) for pair in zip(known, (f, rounding)))
        sums = widths * (f @ _GL_W)
        noise = np.abs(widths) * (rounding @ _GL_W)
        coarse, fine = sums[:, :n], sums[:, n:2 * n] + sums[:, 2 * n:]
        slack = _PANEL_RTOL * np.abs(fine) + noise[:, :n] + noise[:, n:2 * n] + noise[:, 2 * n:]
        halves, half_rounding = (v[:, n:].reshape(len(f), 2, n, len(_GL_X)) for v in (f, rounding))
        miss = np.abs(f[:, None, :n] @ _TO_HALVES - halves) \
            - rounding[:, None, :n] @ _TO_HALVES_ABS - half_rounding
        ok = ((np.abs(fine - coarse) <= slack)
              & (0.5 * np.abs(half) * (miss @ _GL_W).sum(axis=1) <= _PANEL_RTOL * np.abs(fine))
              ).all(axis=0)
        leaves.append((np.concatenate([a[ok], mid[ok]]), np.concatenate([mid[ok], b[ok]]),
                       np.moveaxis(halves[:, :, ok], 0, 2).reshape(-1, len(f), len(_GL_X)),
                       sums[:, n:].reshape(len(f), 2, n)[:, :, ok].reshape(len(f), -1).T))
        if ok.all():
            return tuple(map(np.concatenate, zip(*leaves)))
        bad = ~ok
        if bad.sum() > _MAX_SPLITS:
            break
        a, b = np.concatenate([a[bad], mid[bad]]), np.concatenate([mid[bad], b[bad]])
        known = tuple(v[:, :, bad].reshape(len(f), -1, len(_GL_X)) for v in (halves, half_rounding))
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
    end nodes, rounded, and ``carry`` what that rounding left out, so that
    G between them is rounded once.  On leaf j, in v = 0..2 across it,
    ``polys[:, 0, j]`` holds the power coefficients of the share of the
    leaf's increment that G has reached, exactly 0 at v = 0, and
    ``polys[:, 1, j]`` those of dG/dy.
    ``breaks`` are the y where alpha changes route.

    ``ends`` holds the end rule of each collapsed end, s = 0 and on a
    compact profile s*, as (C, rows): past the end node G = C + H at s = 0
    and C - H at s*, H from _end_rule on the rows of _end_series.  ``far``
    keeps the blocks of leaves past the last node of an open profile, in
    order from it, each as its edges, prefix, carry and polys (see _grow).
    """

    power: float
    factor: float
    edges: np.ndarray
    prefix: np.ndarray
    carry: np.ndarray
    polys: np.ndarray
    breaks: Tuple[float, ...]
    ends: Tuple[Tuple[float, np.ndarray], ...]
    far: List[tuple] = field(default_factory=list)

    def value(self, profile: Profile, y: np.ndarray, delta: Optional[np.ndarray] = None):
        """G and dG/dy at the points y; y = -inf and +inf are the collapsed
        ends.  ``delta``, when given, is the distance of each point from the
        nearer end, which the end rule then reads in place of e^y."""
        edges = self.edges
        leaves = (edges, self.prefix, self.carry, self.polys)
        inside = (y >= edges[0]) & (y <= edges[-1])
        if inside.all():
            return _on_leaves(*leaves, y)
        out = np.empty((2,) + y.shape)
        out[:, inside] = _on_leaves(*leaves, y[inside])
        for side, past in enumerate((y < edges[0], y > edges[-1])):
            if past.any() and side == len(self.ends):  # past the last node of an open profile
                out[:, past] = self._beyond(profile, y[past])
            elif past.any():
                const, rows = self.ends[side]
                fold = math.log(0.5 * profile.s_domain[1])
                g, dg = _end_rule(self.power, rows, 2.0 * fold - y[past] if side else y[past],
                                  None if delta is None else delta[past])
                out[:, past] = const - g if side else const + g, dg
        return out

    def _beyond(self, profile: Profile, y: np.ndarray) -> np.ndarray:
        """G and dG/dy at points y past the last node of an open profile,
        each read from the far block whose (start, end] holds it alone.
        From the first block out of reach on, a point is integrated alone
        from that block's start, so alpha is read nowhere past it; where
        alpha is inf, the rate is read as 0, as in the table itself."""
        last, span = _far_layout(profile)
        starts = last + span * np.arange(math.ceil((y.max() - last) / span) + 1.0)
        k = np.searchsorted(starts, y) - 1
        out = np.empty((2,) + y.shape)
        for block in np.unique(k):
            at = np.flatnonzero(k == block)
            if self._block(profile, block) is not None:
                out[:, at] = _on_leaves(*self.far[block], y[at])
                continue
            if not (_alpha_at(profile, y[at]) > 0.0).all():
                raise ValueError(f"s = {math.exp(y[at].max()):.6g} beyond the reachable range")
            reach = len(self.far)
            for i in at:
                piece = self._piece(profile, reach, starts[reach:reach + 1], y[i:i + 1])
                out[:, i] = _on_leaves(*piece, y[i:i + 1])[:, 0]
        return out

    def _block(self, profile: Profile, k: int):
        """Far block k, the quadrature of the k-th run of _FAR_BLOCK node
        intervals at the nodes' own spacing, on its own, so the same for any
        query; integrated on first use and kept in ``far``.  None if it, or
        a block before it, would end where s or alpha is not a float > 0."""
        last, span = _far_layout(profile)
        while len(self.far) <= k:
            nodes = last + span * (len(self.far) + np.arange(_FAR_BLOCK + 1) / _FAR_BLOCK)
            if not (nodes[-1] <= _Y_MAX and 0.0 < _alpha_at(profile, nodes[-1:])[0] < math.inf):
                return None
            self.far.append(self._piece(profile, len(self.far), nodes[:-1], nodes[1:]))
        return self.far[k]

    def _piece(self, profile: Profile, block: int, a: np.ndarray, b: np.ndarray):
        """The leaves over the intervals [a, b] past the last node, with G
        summed on from the start of far block ``block``, for _on_leaves."""
        edges, polys, sums = _leaves(profile, self.power, self.factor, a, b, self.breaks)
        _, prefix, carry, _ = self.far[block - 1] if block else (None, self.prefix, self.carry, None)
        prefix, carry = _running_sum(np.concatenate([[prefix[-1], carry[-1]], sums[0]]))
        return edges, prefix[1:], carry[1:], polys[0]

    def invert(self, profile: Profile, target: np.ndarray, what: str) -> np.ndarray:
        """The points y where G = target, for each target; ``what`` names G
        in error messages."""
        sign = 1.0 if self.prefix[-1] > self.prefix[0] else -1.0  # F falls if kappa1 < 0
        # past the last node of an open profile, far blocks until G at the end holds every target
        blocks, goal = 0, np.max(sign * target, initial=-math.inf)
        while not profile.is_compact and \
                sign * (self.far[blocks - 1][1] if blocks else self.prefix)[-1] < goal:
            if self._block(profile, blocks) is None:
                raise ValueError(f"{what} = {sign * goal} beyond the reachable range")
            blocks += 1
        edges, prefix = (np.concatenate([whole, *(part[1:] for part in parts)])
                         for whole, *parts in zip((self.edges, self.prefix), *self.far[:blocks]))
        # G at the collapsed ends: its constant C where finite (t), else infinite
        at_ends = np.array([c for c, _ in self.ends]) if self.power < 1.0 \
            else np.array([-sign, sign][:len(self.ends)]) * math.inf
        gap = sign * (target[:, None] - at_ends)
        if profile.is_compact and (gap[:, 1] > 1e-9).any():
            raise ValueError(f"{what} = {target.max()} beyond the end of the compact interval")
        k = np.searchsorted(sign * prefix, sign * target)
        first, last = k == 0, k == len(edges)
        # the leaf that holds each target, and a start from the chord across it
        j = (k - 1).clip(0, len(edges) - 2)
        lo, hi, rise = edges[j], edges[j + 1], prefix[j + 1] - prefix[j]
        x = lo + (hi - lo) * np.divide(target - prefix[j], rise, out=np.full(k.shape, 0.5),
                                       where=rise != 0.0).clip(0.0, 1.0)
        y = np.where(gap[:, 0] <= 0.0, -math.inf, math.inf)
        solve = (gap[:, 0] > 0.0) & ~(profile.is_compact & (gap[:, -1] >= 0.0))
        for side, (const, rows) in enumerate(self.ends):
            # past an end node G = C +- H(log delta); H's leading term,
            # inverted, is well within one unit of the target in log delta
            at = (last if side else first) & solve
            if not at.any():
                continue
            h = (const - target[at]) if side else (target[at] - const)
            with np.errstate(divide="ignore", invalid="ignore"):
                guess = h / rows[1, 0] if self.power == 1.0 \
                    else np.log(h / rows[0, 0]) / (1.0 - self.power)
            node = edges[-side]
            guess = np.maximum(2.0 * math.log(0.5 * profile.s_domain[1]) - guess, node) if side \
                else np.minimum(guess, node)
            outer = guess + (1.0 if side else -1.0)
            lo[at], hi[at], x[at] = np.minimum(outer, node), np.maximum(outer, node), guess
            miss = sign * (self.value(profile, outer)[0] - target[at]) * (-1.0 if side else 1.0)
            if not (np.isfinite(outer).all() and (miss <= 0.0).all()):
                raise ValueError(f"{what} = {target[at][0]} is not bracketed past the end node")

        def residual(xs, live):
            g, dg = self.value(profile, xs)
            return g - target[solve][live], dg

        y[solve] = _newton(residual, lo[solve], hi[solve], x[solve])
        return y


def _on_leaves(edges, prefix, carry, polys, y: np.ndarray):
    """G and dG/dy at points y between the first and last of the ``edges``
    of a table's leaves (see _CumulativeIntegral): the prefix, and the
    leaf's polynomials by Horner's rule."""
    j = np.minimum(np.searchsorted(edges, y, side="right") - 1, len(edges) - 2)
    v = 2.0 * (y - edges[j]) / (edges[j + 1] - edges[j])
    coeffs = polys[:, :, j]
    out = coeffs[-1].copy()
    for c in coeffs[-2::-1]:
        out *= v
        out += c
    rise = prefix[j + 1] - prefix[j] + (carry[j + 1] - carry[j])
    out[0] = prefix[j] + (carry[j] + rise * out[0].clip(0.0, 1.0))
    return out


def _alpha_at(profile: Profile, y: np.ndarray) -> np.ndarray:
    """alpha at the points y of an open profile, inf where it overflows,
    which is what the caller asks, so without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return profiles.alpha(profile, *_points(profile, np.minimum(y, _Y_MAX)))


def _integrand(profile: Profile, power, factor, y: np.ndarray):
    """delta * factor * alpha^-power at the table coordinates y, with its
    relative rounding floor: one row for each entry of ``power`` and
    ``factor`` where they are arrays, all from one evaluation of alpha."""
    s, delta = _points(profile, y)
    a, cond = profiles.alpha_and_condition(profile, s, delta)
    bad = ~(a > 0.0)
    if bad.any():
        raise ValueError(f"alpha({s[bad][0]}) = {a[bad][0]} <= 0 along the integration path")
    power, factor = np.asarray(power)[..., None], np.asarray(factor)[..., None]
    return delta * (factor * a ** -power), _FLOOR_ULPS * 2.0 ** -52 * power * cond


def _running_sum(terms: np.ndarray):
    """The cumulative sums of ``terms``, compensated (Neumaier): np.cumsum
    plus the running sum of the exact rounding errors of its additions,
    each found by TwoSum; as the sums rounded, and the part of them that
    the rounding left out."""
    total = np.cumsum(terms)
    before = np.concatenate([[0.0], total[:-1]])
    added = total - before
    errors = np.cumsum((before - (total - added)) + (terms - added))
    rounded = total + errors
    return rounded, errors - (rounded - total)


def _leaves(profile: Profile, power, factor, a, b, breaks):
    """The quadrature of delta * factor * alpha^-power over the intervals
    [a, b] in y, one row for each entry of the arrays ``power`` and
    ``factor``, as its leaves in order: their edges, and for each row their
    polynomials (see _CumulativeIntegral) and their integrals."""
    q = functools.partial(_integrand, profile, power, factor)
    left, right, values, sums = _integrate(q, a, b, breaks)
    order = np.argsort(left)
    # dG/dy, and its antiderivative over the value of that at v = 2
    polys = ((values[order] @ _TO_SERIES) @ _TO_LEAF).reshape(len(order), -1, 2, 9)
    whole = polys[:, :, 0] @ 2.0 ** np.arange(9.0)[:, None]
    np.divide(polys[:, :, 0], whole, out=polys[:, :, 0], where=whole != 0.0)
    return (np.append(left[order], right[order][-1]), polys.transpose(1, 3, 2, 0).copy(),
            sums[order].T)


def _end_series(profile: Profile, power: float, factor: float) -> np.ndarray:
    """The end rule's rows at the s = 0 end of ``profile``: factor*c1^-power
    times the module docstring's b_k (row 1: dG/dy over delta^(1 - power))
    and times b_k/(k + 1 - power) (row 0: G; 0 for the log term)."""
    c = profile.zero_series
    if not c[1] > 0.0:
        raise ValueError(f"alpha does not vanish like {c[1]} * delta > 0 at a collapsed end")
    a = [ck / c[1] for ck in c[1:]]  # a[k] multiplies delta^k in 1 + A
    b = [1.0]
    for n in range(1, len(a)):
        b.append(sum(((1.0 - power) * k - n) * a[k] * b[n - k] for k in range(1, n + 1)) / n)
    rate = factor * c[1] ** -power * np.array(b)
    exponent = np.arange(len(b)) + 1.0 - power
    return np.vstack([np.divide(rate, exponent, out=np.zeros_like(rate), where=exponent != 0.0),
                      rate])


def _end_rule(power: float, rows: np.ndarray, log_delta: np.ndarray, delta=None):
    """G past an end node, less its constant, and dG/dy at log_delta, the
    log of the distance from the end, from the rows of _end_series.  The
    distance ``delta`` is read where the caller holds it, and not formed
    otherwise: e^log_delta would carry only |log delta| * 2^-53 of relative
    precision, and underflow first."""
    g = polynomial.polyval(np.exp(log_delta) if delta is None else delta, rows.T)
    if power == 1.0:
        return g[0] + rows[1, 0] * log_delta, g[1]
    return g * (np.exp((1.0 - power) * log_delta) if delta is None else delta ** (1.0 - power))


def _nodes(profile: Profile) -> np.ndarray:
    """The table's nodes in y, laid out as the module docstring says."""
    if not profile.is_compact:
        return np.linspace(math.log(min(_D_MIN, profile.series_reach)), math.log(_S_MAX), _NODES)
    half = 0.5 * profile.s_domain[1]
    lower, upper = (_half_nodes(min(_D_MIN, p.series_reach), half)
                    for p in (profile, profile.mirror))
    return np.concatenate([lower, 2.0 * math.log(half) - upper[-2::-1]])


def _far_layout(profile: Profile) -> Tuple[float, float]:
    """The last node of an open profile, and the length in y of each block
    of _FAR_BLOCK node intervals that its tables add past it."""
    below, last = _nodes(profile)[-2:]
    return last, _FAR_BLOCK * (last - below)


def _half_nodes(low: float, high: float) -> np.ndarray:
    """_HALF_NODES nodes in y = log(delta) from delta = low to high, uniform
    in u with delta = _FOLD_SCALE * log(1 + e^u): in log(delta) where delta
    is small, and in delta itself near the fold."""
    ends = np.array([low, high]) / _FOLD_SCALE
    u = np.linspace(*(ends + np.log(-np.expm1(-ends))), _HALF_NODES)
    y = np.log(_FOLD_SCALE * np.logaddexp(0.0, u))
    y[[0, -1]] = math.log(low), math.log(high)
    return y


def _tables(profile: Profile) -> None:
    """Build the tables of t = int alpha^-1/2 ds and, where kappa1 != 0, of
    F = int alpha^-1/kappa1 ds into ``profile._integrals``, from one
    quadrature of both rates, so that they share their leaves and every
    alpha.  Each has the end rule at each collapsed end.  t is 0 at s = 0;
    F, infinite there, is anchored to 0 at its middle node.  A compact
    profile needs the mirror of a calibrated kappa1, without which alpha
    is singular at s*."""
    compact = profile.is_compact
    if compact and profile.mirror is None:
        raise ValueError("alpha is singular at s_star: the existence integral does not "
                         "vanish at this kappa1")
    nodes = _nodes(profile)
    top = math.log(0.5 * profile.s_domain[1])
    breaks = tuple(math.log(d) if at == "zero" else 2.0 * top - math.log(d)
                   for at, d in profiles.route_switches(profile))
    rates = {"t": (0.5, 1.0)}
    if profile.kappa1 != 0.0:
        rates["F"] = (1.0, 1.0 / profile.kappa1)
    edges, polys, sums = _leaves(profile, *np.array(list(rates.values())).T,
                                 nodes[:-1], nodes[1:], breaks)
    for (name, (power, factor)), row_polys, row_sums in zip(rates.items(), polys, sums):
        rows = [_end_series(p, power, factor) for p in (profile, profile.mirror)[:1 + compact]]
        # H from each collapsed end to its end node
        heads = [_end_rule(power, r, np.array([at]))[0][0]
                 for r, at in zip(rows, (edges[0], 2.0 * top - edges[-1]))]
        if power < 1.0:
            prefix, carry = _running_sum(np.concatenate([heads[:1], row_sums, heads[1:]]))
            consts = (0.0, prefix[-1])
        else:  # summed outward from the middle node, where G = 0
            mid = np.searchsorted(edges, nodes[len(nodes) // 2])
            sides = zip(_running_sum(row_sums[:mid][::-1]), _running_sum(row_sums[mid:]))
            prefix, carry = (np.concatenate([-down[::-1], [0.0], up]) for down, up in sides)
            consts = (prefix[0] - heads[0], prefix[-1] + heads[-1])
        profile._integrals[name] = _CumulativeIntegral(
            power, factor, edges, prefix[:len(edges)], carry[:len(edges)], row_polys, breaks,
            tuple(zip(consts, rows)))


def _arclength(profile: Profile) -> _CumulativeIntegral:
    """The geodesic distance table of the profile, built on first use with
    the flow potential's: rate 1/sqrt(alpha)."""
    if "t" not in profile._integrals:
        _tables(profile)
    return profile._integrals["t"]


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
    t = _arclength(profile).value(profile, *_locate(profile, s_arr.reshape(-1)))[0]
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
    eps, k1 = float(profile.config.epsilon), profile.kappa1
    slopes: Dict[str, float] = {}
    if profile.is_compact:
        length = t_of_s(profile, profile.s_domain[1])
        slopes["t_star"] = length
        return CompletenessReport(CompletenessClass.COMPACT, slopes, length)

    if eps >= 0.0 and k1 > 0.0:  # alpha grows exponentially, finite total distance
        if eps == 0.0:
            slopes["alpha_growth_rate"] = k1
        return CompletenessReport(
            CompletenessClass.INCOMPLETE, slopes, t_of_s(profile, 200.0 / k1),
            note="kappa1 > 0: exponential alpha growth, bounded geodesic distance")
    if eps >= 0.0 or (k1 > 0.0 and profile.t0_snapped):  # the tail of alpha at s = 1e4
        a3, a4 = profiles.alpha(profile, np.array([1.0e3, 1.0e4])).tolist()
        slopes.update(alpha_1e3=a3, alpha_1e4=a4, alpha_over_s_1e4=a4 / 1.0e4)
        if eps == 0.0 and k1 < 0.0:
            slopes["alpha_tail_ratio"] = a4 / a3
            return CompletenessReport(CompletenessClass.CIGAR_PARABOLOID, slopes, math.inf)
        if eps < 0.0:  # calibrated noncompact shrinking
            slopes["alpha_over_s_times_kappa1"] = slopes["alpha_over_s_1e4"] * k1
        return CompletenessReport(
            CompletenessClass.ASYMPTOTICALLY_CONICAL, slopes, math.inf,
            note="kappa1 = 0: Einstein representative of the steady family" if eps == 0.0 else "")
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
    """The table of F(s), F' = 1/(kappa1*alpha), built on first use with
    the geodesic distance table."""
    if profile.kappa1 == 0.0:
        raise ValueError("the flow map needs kappa1 != 0 (otherwise Xi = t)")
    if "F" not in profile._integrals:
        _tables(profile)
    return profile._integrals["F"]


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
