"""Closed-form solution profiles and their pointwise evaluation.

With beta_i(s) = -q_i (s + sigma_i) and phi(s) = kappa1*(s + kappa0), the
remaining unknown alpha = f^2 solves the first-order linear equation

    alpha' + alpha*((log v)' - kappa1) = eps*s + E_star,

whose solution vanishing at the collapsed end s = 0 is

    alpha(s) = v(s)^{-1} * J(s),
    J(s) = e^{kappa1 s} * int_0^s (eps*x + E_star) v(x) e^{-kappa1 x} dx.

J is never obtained by numerical ODE integration or naive quadrature.  Three
closed evaluation routes cover the parameter space (Psi = (E_star + eps*x)*v):

  * kappa1 = 0: J is the exact polynomial antiderivative of Psi.
  * moment route: expanding Psi about s gives
        J(s) = sum_m (-1)^m Psi^(m)(s)/m! * M_m(-kappa1, s),
    with M_m the exponential moments, every order at every point from one
    polyexp.moments call (its series branches: |kappa1|*s <= 30 here never
    reaches its closed form).  Stable as long as the exponential weight
    cannot amplify cancellation, i.e. for |kappa1|*s below a threshold (see
    below).
  * split route: the exact identity J = P(s) + e^{kappa1 s} * T0 with the
    polynomial particular solution P = -sum_m Psi^(m)/kappa1^(m+1) and
    T0 = -P(0).  For kappa1 < 0 the exponential term decays; for the
    calibrated noncompact shrinkers T0 vanishes identically (that vanishing
    *is* the existence condition), so J is a plain polynomial.

On an open profile T0 is snapped to exactly zero when it is below 1e-9 of
its term-magnitude scale: that vanishing is the noncompact existence
condition, so at a numerically solved kappa1 the true value is an exact
zero and the residue is root-finder noise.  A compact profile never snaps.
Since P = J - e^{kappa1 s} T0, the residue also sits in every coefficient
of P, as -T0 kappa1^j/j!.  So a snapped P is P at the root, which one
Newton step on T0 reaches from the float kappa1, and its coefficients below
the order of J's zero at s = 0 (one more than v's) are exactly zero.  With
T0 nonzero the split form itself cancels at small s, so the moment route is
kept up to |kappa1|*s = 30.  With T0 snapped, the moment sum reconstructs a
polynomial-sized answer out of e^{kappa1 s}-sized terms and loses digits as
|kappa1|*s grows, while P does not; build_profile measures where P's
condition falls below the moment sum's and switches there
(Profile.split_from).

Near s = 0, where v vanishes, alpha = J/v is evaluated as a Taylor series
in s, obtained by power-series division (Profile.zero_series).
The series converges out to rho, the distance from its end to the nearest
other zero of v, and is trusted within rho/30 (Profile.series_reach), where
its 14 terms reach rounding; it serves within the smaller of that and
SERIES_WINDOW.  At a point end, where v does not vanish, the kernel keeps
J/v, and the series only serves the geometry tables' end rule.

A compact profile has a second collapsed end at s_star, where J/v is 0/0
(also at a point end, where v does not vanish) and J carries the root's
residual.  Reflection (factors reversed, charges negated, kappa1 ->
-kappa1) swaps the ends, so at a calibrated kappa1 the star half s >
s_star/2 takes alpha from the mirror profile (Profile.mirror) at delta =
s_star - s, by its ordinary s = 0 routes.  The mirror is built by the same
constructor from the mirrored configuration (model.mirror_config), which
is the parent reflected exactly because epsilon = -1 on a compact interval.
The halves meet at s_star/2 with a step of the root's footprint
e^{kappa1 s} I/v.  The mirror's zero series serves within its reach rho/30
at every star end, point ends included, capped at s_star/2.  At an
uncalibrated kappa1 J/v serves the whole domain.

One kernel evaluates alpha at a whole array of points.  sample() adds the
derivatives and the linear data; alpha() and alpha_and_condition() return
alpha alone, the latter with each value's condition, which bounds its
rounding where a route cancels (the geometry tables use it as their noise
floor).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from kricci import polyexp
from kricci.model import SolitonConfig, exact_core, mirror_config, structural_violations, v_psi

#: distance from the s = 0 end (with vanishing v) below which its series is used
SERIES_WINDOW = 1e-3
#: the zero series is trusted within 1/_REACH of its radius of convergence
_REACH = 30.0

#: |kappa1| s up to which the moment route serves when T0 is not snapped,
#: and the end of the crossover search when it is
_MOMENT_Z = 30.0
#: the |kappa1| s of that search, geometric over [0.01, _MOMENT_Z]
_CROSSOVER_Z = tuple(0.01 * (_MOMENT_Z / 0.01) ** (i / 23) for i in range(24))
_EXP_OVERFLOW = 709.0
_SNAP_REL = 1e-9
_SERIES_TERMS = 14


def _fhorner(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _fderiv(coeffs: Sequence[float]) -> List[float]:
    return [k * c for k, c in enumerate(coeffs)][1:]


def _fconv(a: Sequence[float], b: Sequence[float], length: int) -> List[float]:
    out = [0.0] * length
    for i, ai in enumerate(a):
        if ai == 0.0 or i >= length:
            continue
        for j, bj in enumerate(b):
            if i + j >= length:
                break
            out[i + j] += ai * bj
    return out


@dataclass
class ProfileSample:
    """Profile data at the points s: the metric coefficients and the
    derivatives entering the curvature equations, in the s-coordinate.

    Every field has the shape of s (numpy floats when s is a float), except
    beta and dbeta, which carry one more, leading axis over the factors."""

    s: np.ndarray
    alpha: np.ndarray
    dalpha: np.ndarray
    d2alpha: np.ndarray
    beta: np.ndarray
    dbeta: np.ndarray
    v: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray


@dataclass
class Profile:
    """A fully precomputed solution profile.

    ``v_poly`` and ``psi_poly`` are v and Psi exactly, as integer
    coefficients over their common denominator ``poly_den`` (the config's
    exact core, reflected on a mirror); everything else is float machinery
    derived from them once at build time.  The object is immutable after
    construction apart from ``_integrals``, the lazy cache of the geometry
    module's t and F tables ("t", and "F" where kappa1 != 0), built in one
    pass.
    ``p_alpha`` is the float particular polynomial P (None when kappa1 = 0)
    and ``t0`` the float T0, 0.0 where it was snapped.
    ``split_from`` is the s beyond which J takes the split route (inf when
    kappa1 = 0).
    ``v_float`` and ``taylor_table`` (the float coefficients of v and of
    Psi^(m)/m!, one zero-padded row per m) are what the kernel reads, so it
    converts no Fraction per point.
    ``zero_series`` holds the Taylor coefficients of alpha about s = 0,
    which the kernel's series window and each table's end rule read.
    ``series_reach`` is rho/30, rho the distance from s = 0 to the nearest
    other zero of v: the zero series is trusted within it.
    ``series_window`` is the distance from s = 0 within which the kernel
    takes alpha from that series: the reach, capped at SERIES_WINDOW where
    v vanishes at s = 0 and at s_star/2 on a mirror, and 0.0 at a point end
    of a parent profile.
    ``mirror`` is the reflected profile that serves the star half of a
    compact profile at a calibrated kappa1, and None otherwise.
    """

    config: SolitonConfig
    v_poly: tuple
    psi_poly: tuple
    poly_den: int
    s_domain: Tuple[float, float]
    E_eff: Fraction
    kappa1: float
    kappa0: float
    psi_antideriv: Tuple[float, ...]
    p_alpha: Optional[Tuple[float, ...]]
    t0: float
    split_from: float
    v_float: Tuple[float, ...]
    series_reach: float
    series_window: float
    zero_series: Tuple[float, ...]
    taylor_table: np.ndarray = field(repr=False, compare=False)
    mirror: Optional["Profile"] = field(default=None, repr=False, compare=False)
    _integrals: Dict[str, Any] = field(default_factory=dict, repr=False, compare=False)

    @property
    def is_compact(self) -> bool:
        return self.config.is_compact

    @property
    def t0_snapped(self) -> bool:
        """Whether T0 was snapped to zero (module docstring)."""
        return self.kappa1 != 0.0 and self.t0 == 0.0


def build_profile(config: SolitonConfig, *, e_star_shift: float = 0.0) -> Profile:
    """Assemble the closed-form profile for an admissible configuration.

    ``e_star_shift`` adds an exact offset to E_star in the alpha equation
    only (betas, phi and the recorded boundary data are untouched).  It
    exists to produce deliberately detuned profiles for conservation-law
    diagnostics; the default 0.0 is the actual solution.
    """
    structural = structural_violations(config)
    if structural:
        raise ValueError("inadmissible configuration: " + "; ".join(structural))
    e_eff = config.E_star + polyexp.as_rational(e_star_shift)
    core = exact_core(config)
    polys = (core.v, core.psi, core.den) if e_eff == config.E_star else v_psi(config, e_eff)
    return _build(config, e_eff, polys)


def _build(config: SolitonConfig, e_eff: Fraction, polys: tuple, mirror: bool = False) -> Profile:
    """The profile of ``config`` with E_star replaced by ``e_eff`` in the
    alpha equation, whose v and Psi are ``polys`` = (v, Psi, denominator).
    A compact one at a calibrated kappa1 glues on its mirror: the same
    construction on the mirrored configuration at -kappa1, where E_eff
    becomes -(eps s_star + E_eff), and v and Psi are the parent's at
    s_star - delta, Psi negated.  ``mirror`` marks that one: it glues
    nothing on, and its series window is capped at s_star/2.
    """
    k1 = float(config.kappa1)
    v_poly, psi_poly, den = polys
    if config.epsilon != 0:
        assert len(psi_poly) == sum(f.n for f in config.factors) + 2

    taylor_table = _taylor_table(psi_poly, den)
    zero_order = next(j for j, c in enumerate(v_poly) if c)  # of v at s = 0
    p_alpha: Optional[Tuple[float, ...]] = None
    t0 = 0.0
    split_from = math.inf
    if k1 != 0.0:
        # the particular polynomial P = -sum_m Psi^(m)/kappa1^(m+1) solves
        # P' - kappa1 P = Psi: exactly, from the top coefficient down, with
        # kappa1 = a/b and P_j = y_j / (den a^(n-j)) in integers; and the
        # terms m! psi_m / kappa1^(m+1) of T0 = -P(0), over den a^n
        a, b = k1.as_integer_ratio()
        n = len(psi_poly)
        y, p_float = 0, np.zeros(n)
        for j in range(n - 1, -1, -1):
            y = b * ((j + 1) * y - psi_poly[j] * a ** (n - j - 1))
            p_float[j] = y / (den * a ** (n - j))
        terms = [math.factorial(m) * c * b ** (m + 1) for m, c in enumerate(psi_poly)]
        t0 = sum(t * a ** (n - 1 - m) for m, t in enumerate(terms)) / (den * a ** n)
        t0_scale = 0.0
        dt0 = 0.0   # dT0/dkappa1, which does not cancel at a simple root
        for m, t in enumerate(terms):
            t_float = t / (den * a ** (m + 1))
            t0_scale += abs(t_float)
            dt0 -= (m + 1) * t_float / k1
        if not config.is_compact and abs(t0) <= _SNAP_REL * t0_scale:
            # P at the root is P + dk dP/dkappa1 to O(dk^2), with the Newton
            # step dk = -T0/T0' and dP/dkappa1 = sum_m (m+1)! Psi^(m)/m! /
            # kappa1^(m+2); there its coefficients below the order of J's
            # zero at s = 0 vanish (module docstring)
            if dt0:
                weights = np.cumprod(np.arange(1, len(taylor_table) + 1) / k1) / k1
                p_float += -t0 / dt0 * (weights @ taylor_table)
            p_float[:zero_order + 1] = 0.0
            t0 = 0.0
            split_from = _split_crossover(k1, taylor_table, p_float)
        else:
            split_from = _MOMENT_Z / abs(k1)
        p_alpha = tuple(p_float.tolist())

    s_hi = math.inf
    glued = None
    if config.is_compact:
        s_hi = float(config.s_star)
        if not mirror:
            # the existence condition: the weighted integral of Psi over
            # [0, s_star] vanishes to 1e-9 of its finite majorant, both summed
            # from one set of moments (row 0 of the table is Psi); an infinite
            # moment makes them NaN or inf, and no mirror
            moments = polyexp.moments(k1, [s_hi], len(psi_poly))[:, 0]
            with np.errstate(invalid="ignore"):
                i_star, scale = taylor_table[0] @ moments, np.abs(taylor_table[0]) @ moments
            if scale < math.inf and abs(i_star) <= _SNAP_REL * max(1e-300, scale):
                e_hat = -(polyexp.as_rational(config.epsilon) * config.s_star + e_eff)
                s_star = int(config.s_star)  # 2 (N0 + N* + 2)
                reflected = (_reflect(v_poly, s_star, 1), _reflect(psi_poly, s_star, -1), den)
                glued = _build(mirror_config(replace(config, kappa1=-config.kappa1)), e_hat,
                               reflected, mirror=True)
    v_float = tuple(c / den for c in v_poly)
    reach = _series_reach(config)
    cap = 0.5 * s_hi if mirror else (SERIES_WINDOW if zero_order else 0.0)
    return Profile(
        config=config,
        v_poly=v_poly,
        psi_poly=psi_poly,
        poly_den=den,
        s_domain=(0.0, s_hi),
        E_eff=e_eff,
        kappa1=k1,
        kappa0=float(config.kappa0),
        psi_antideriv=(0.0, *(c / (den * (j + 1)) for j, c in enumerate(psi_poly))) if psi_poly else (),
        p_alpha=p_alpha,
        t0=t0,
        split_from=split_from,
        v_float=v_float,
        series_reach=reach,
        series_window=min(cap, reach),
        zero_series=_series_at_zero(k1, [c / den for c in psi_poly], v_float, zero_order),
        taylor_table=taylor_table,
        mirror=glued,
    )


def _reflect(coeffs: tuple, h: int, sign: int) -> tuple:
    """sign * a(h - x), exactly, for integer coefficients a and integer h."""
    return tuple(c * sign * (-1) ** j for j, c in enumerate(polyexp.taylor_shift(coeffs, h)))


def _series_reach(config: SolitonConfig) -> float:
    """rho/30, rho the distance from s = 0 to the nearest other zero of v:
    where alpha's series about s = 0 is trusted."""
    zeros = (-polyexp.as_rational(sig)
             for fac, sig in zip(config.factors, config.sigmas) if fac.n)
    return float(min((abs(z) for z in zeros if z != 0), default=math.inf)) / _REACH


def _taylor_table(psi_poly: tuple, den: int) -> np.ndarray:
    """The float coefficients of Psi^(m)/m!, one zero-padded row per m:
    row m holds binom(m + j, m) psi_{m+j}, each rounded once, from Psi's
    integer coefficients over ``den``."""
    n = len(psi_poly)
    table = np.zeros((n, n))
    for m in range(n):
        for j, c in enumerate(psi_poly[m:]):
            table[m, j] = c * math.comb(m + j, m) / den
    return table


def _split_crossover(k: float, table: np.ndarray, p_alpha: Sequence[float]) -> float:
    """Where J leaves the moment route for the polynomial P on a profile
    whose T0 was snapped: the first s of a geometric grid in |kappa1| s, up
    to _MOMENT_Z, from which on P's condition is at most the moment sum's.

    Far out the moment sum builds a polynomial-sized J out of
    e^{kappa1 s}-sized terms; near s = 0 P may cancel instead.
    """
    x = np.array(_CROSSOVER_Z) / abs(k)
    J, j_scale = _moment_sum(k, table, x)
    P = _fhorner(p_alpha, x)
    misses = np.flatnonzero(_ratio(_abs_horner(p_alpha, x), P) > _ratio(j_scale, J))
    first = misses[-1] + 1 if misses.size else 0
    return float(x[min(first, len(x) - 1)])


def _abs_horner(coeffs: Sequence[float], x):
    """Horner on |coefficients| at |x|: the scale of the terms Horner sums,
    which bounds its rounding error."""
    return _fhorner([abs(c) for c in coeffs], np.abs(x))


def _ratio(scale: np.ndarray, value: np.ndarray) -> np.ndarray:
    """scale / |value|: inf where value is 0, and 0 where it is infinite
    (alpha = inf makes every rate exactly 0)."""
    out = np.divide(scale, np.abs(value), out=np.zeros_like(scale),
                    where=(value != 0.0) & np.isfinite(value))
    out[value == 0.0] = math.inf
    return out


def _moment_sum(k: float, table: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """J on the moment route at every point of ``x``, for kappa1 = ``k``
    and the rows Psi^(m)/m! of ``table``:
    J = sum_m (-1)^m Psi^(m)(x)/m! * M_m(-kappa1, x), with the moments of
    polyexp.moments.  Also returns sum_m |Psi^(m)/m!| M_m, the size of the
    terms that cancel in J.
    """
    moments = polyexp.moments(-k, x, table.shape[0])
    # Psi^(m)(x)/m! and its majorant, by one Horner pass over both tables
    both = np.vstack((table, np.abs(table)))
    acc = np.zeros((len(both), len(x)))
    for col in range(table.shape[1] - 1, -1, -1):
        acc *= x
        acc += both[:, col:col + 1]
    coeffs, scale = acc[:len(table)], acc[len(table):]
    coeffs[1::2] *= -1.0
    coeffs *= moments
    scale *= moments
    return coeffs.sum(axis=0), scale.sum(axis=0)


def _exp_cap(t0: float) -> float:
    """The largest kappa1*s at which the split route's e^{kappa1 s} T0 is
    evaluated: _EXP_OVERFLOW, or less where the product would overflow."""
    return min(_EXP_OVERFLOW, math.log(sys.float_info.max / abs(t0)) - 1e-9)


def _J_and_scale(profile: Profile, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """J at every point of ``x`` by the routes of the module docstring, and
    the size of the terms summed for it.  Where e^{kappa1 s} T0 would
    overflow, the split route's exponent is capped and the value is +-inf."""
    k = profile.kappa1
    if k == 0.0:
        return _fhorner(profile.psi_antideriv, x), _abs_horner(profile.psi_antideriv, x)
    moment = x <= profile.split_from
    out = np.empty((2, len(x)))
    out[:, moment] = _moment_sum(k, profile.taylor_table, x[moment])
    xs = x[~moment]
    pa = _fhorner(profile.p_alpha, xs)
    scale = _abs_horner(profile.p_alpha, xs)
    if profile.t0 != 0.0:
        zz = k * xs
        cap = _exp_cap(profile.t0)
        grown = np.exp(np.minimum(zz, cap)) * profile.t0
        pa = np.where(zz > cap, math.copysign(math.inf, profile.t0), pa + grown)
        scale = scale + np.abs(grown)
    out[0, ~moment] = pa
    out[1, ~moment] = scale
    return out[0], out[1]


def _log_v_rates(config: SolitonConfig, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(log v)' and (log v)'' at every point of ``x``."""
    lv1 = np.zeros(x.shape)
    lv2 = np.zeros(x.shape)
    for fac, sig in zip(config.factors, config.sigmas):
        if fac.n:
            db = float(-fac.q)
            ratio = db / (db * (x + float(sig)))
            lv1 += fac.n * ratio
            lv2 -= fac.n * ratio * ratio
    return lv1, lv2


def _kernel(profile: Profile, s, delta=None, derivatives: bool = False):
    """alpha and its condition at every point of the array ``s`` (see
    alpha_and_condition), and with ``derivatives`` also alpha' and alpha''.

    The mirror serves the star half of a glued profile, at delta = s_star -
    s.  Elsewhere the zero series serves within ``series_window`` and J/v by
    the routes of _J_and_scale beyond, each chosen by mask.  On a series
    route the derivatives are the series' own; on J/v they come from the
    defining equation and its derivative, and are NaN where v vanishes.
    """
    s = np.asarray(s, dtype=float)
    lo, hi = profile.s_domain
    outside = ~((s >= lo - 1e-12) & (s <= hi + 1e-12) & (s < math.inf))
    if outside.any():
        raise ValueError(f"s = {s[outside].flat[0]} is outside the profile domain [{lo}, {hi}]")
    if profile.mirror is not None:
        star = s > 0.5 * hi
        if star.any():
            dist = hi - s if delta is None else np.broadcast_to(delta, s.shape)
            parts = [np.empty(s.shape) for _ in range(4 if derivatives else 2)]
            for half, prof, x in ((~star, profile, s), (star, profile.mirror, dist)):
                for part, values in zip(parts, _kernel(prof, x[half], derivatives=derivatives)):
                    part[half] = values
            if derivatives:
                parts[2][star] *= -1.0  # d/ds = -d/d(delta)
            return tuple(parts)
    out = np.empty(s.shape)
    cond = np.empty(s.shape)
    derivs = (np.empty(s.shape), np.empty(s.shape)) if derivatives else None
    rest = np.ones(s.shape, dtype=bool)
    if profile.series_window > 0.0:
        near = s <= profile.series_window
        if near.any():
            series, x = profile.zero_series, s[near]
            out[near] = _fhorner(series, x)
            cond[near] = _ratio(_abs_horner(series, x), out[near])
            if derivs is not None:
                d1 = _fderiv(series)
                derivs[0][near] = _fhorner(d1, x)
                derivs[1][near] = _fhorner(_fderiv(d1), x)
            rest = ~near
    x = s[rest]
    J, j_scale = _J_and_scale(profile, x)
    v = _fhorner(profile.v_float, x)
    ratio = np.divide(J, v, out=np.zeros_like(J), where=v != 0.0)
    a = np.where((v == 0.0) & (J != 0.0), np.copysign(math.inf, J), ratio)
    out[rest] = a
    cond[rest] = _ratio(j_scale, J) + _ratio(_abs_horner(profile.v_float, x), v)
    if derivs is None:
        return out, cond
    da = np.full(x.shape, math.nan)
    d2a = np.full(x.shape, math.nan)
    ok = v != 0.0
    lv1, lv2 = _log_v_rates(profile.config, x[ok])
    rate = lv1 - profile.kappa1
    eps = float(profile.config.epsilon)
    da[ok] = eps * x[ok] + float(profile.E_eff) - a[ok] * rate
    d2a[ok] = eps - da[ok] * rate - a[ok] * lv2
    derivs[0][rest] = da
    derivs[1][rest] = d2a
    return out, cond, derivs[0], derivs[1]


def alpha_and_condition(profile: Profile, s, delta=None) -> Tuple[np.ndarray, np.ndarray]:
    """alpha at every point of the array ``s``, with its condition: the
    size of the terms summed for it over |alpha|, so that its rounding
    error is a small multiple of condition * 2^-52 * |alpha|.

    ``delta``, when given, is s_star - s to full relative precision, which
    s itself cannot carry within a few ulps of s_star; the mirror reads it
    in place of s_star - s, on the star half s > s_star/2 only.
    """
    return _kernel(profile, s, delta)


def alpha(profile: Profile, s, delta=None) -> np.ndarray:
    """alpha at every point of the array ``s``; see alpha_and_condition."""
    return alpha_and_condition(profile, s, delta)[0]


def route_switches(profile: Profile) -> List[Tuple[str, float]]:
    """Where the evaluation of alpha changes route, as (end, distance from
    that end): J/v between its moment and split routes at ``split_from``,
    the split route's e^{kappa1 s} T0 to +-inf where it overflows, and the
    zero series at ``series_window``.  On a glued profile these are the
    parent's below s_star/2 and the mirror's, from the star end, beyond it,
    and the glue s_star/2 itself.  alpha may step there by its rounding, to
    infinity, or at the glue by the footprint of the root's residual."""
    out = []
    k = profile.kappa1
    if k != 0.0:
        out.append(("zero", profile.split_from))
        if k > 0.0 and profile.t0 != 0.0:
            out.append(("zero", _exp_cap(profile.t0) / k))
    if profile.series_window > 0.0:
        out.append(("zero", profile.series_window))
    if profile.mirror is not None:
        half = 0.5 * profile.s_domain[1]
        out = [(end, d) for end, d in out if d < half] + [("zero", half)]
        out += [("star", d) for _, d in route_switches(profile.mirror) if d < half]
    return out


def _series_at_zero(k: float, p_f: Sequence[float], v_float: Sequence[float],
                    order: int) -> Tuple[float, ...]:
    """Taylor coefficients of alpha in s about s = 0, at kappa1 = ``k``,
    from the float coefficients ``p_f`` of Psi and ``v_float`` of v, where
    v vanishes to the order ``order``.

    J(s) = e^{k s} int_0^s Psi(x) e^{-k x} dx is expanded by convolution
    and divided by the expansion of v.  The convolution is done in floats;
    the vanishing orders are exact because the exact polynomials carry
    exact zero coefficients.  At a point end v does not vanish and the
    division has the lead v(0).
    """
    length = order + _SERIES_TERMS + 2
    v_f = list(v_float) + [0.0] * length

    e_minus = [1.0]
    e_plus = [1.0]
    for j in range(1, length):
        e_minus.append(e_minus[-1] * (-k) / j)
        e_plus.append(e_plus[-1] * k / j)
    w = _fconv(p_f, e_minus, length)          # Psi(x)*e^{-kx}
    integ = [0.0] * length
    for j in range(1, length):
        integ[j] = w[j - 1] / j               # int_0^s
    j_series = _fconv(e_plus, integ, length)  # * e^{+k s}

    lead = v_f[order]
    coeffs = [0.0] * _SERIES_TERMS
    for j in range(_SERIES_TERMS):
        tot = j_series[order + j] if order + j < length else 0.0
        for i in range(1, j + 1):
            tot -= v_f[order + i] * coeffs[j - i]
        coeffs[j] = tot / lead
    return tuple(coeffs)


def sample(profile: Profile, s) -> ProfileSample:
    """Evaluate the profile and the derivatives the curvature system uses,
    at a float or at every point of an array ``s``, in one kernel pass.

    alpha' and alpha'' come from the defining first-order equation and its
    derivative (from the series itself within a series window), never from
    numerical differentiation.
    """
    s = np.asarray(s, dtype=float)
    alpha, _, dalpha, d2alpha = _kernel(profile, s, derivatives=True)
    column = (-1,) + (1,) * s.ndim
    cfg = profile.config
    dbeta = np.reshape([float(-fac.q) for fac in cfg.factors], column)
    beta = dbeta * (s + np.reshape([float(sig) for sig in cfg.sigmas], column))
    k = profile.kappa1

    def on_s(x):
        return np.broadcast_to(x, s.shape)[()]

    return ProfileSample(
        s=s[()],
        alpha=alpha[()],
        dalpha=dalpha[()],
        d2alpha=d2alpha[()],
        beta=beta,
        dbeta=np.broadcast_to(dbeta, beta.shape),
        v=on_s(_fhorner(profile.v_float, s)),
        phi=on_s(k * (s + profile.kappa0)),
        dphi=on_s(k),
    )
