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
    with M_m the exponential moments of polyexp.  Stable as long as the
    exponential weight cannot amplify cancellation, i.e. for |kappa1|*s
    below a threshold (see below).
  * split route: the exact identity J = P(s) + e^{kappa1 s} * T0 with the
    polynomial particular solution P = -sum_m Psi^(m)/kappa1^(m+1) and
    T0 = -P(0).  For kappa1 < 0 the exponential term decays; for the
    calibrated noncompact shrinkers T0 vanishes identically (that vanishing
    *is* the existence condition), so J is a plain polynomial.

T0 is snapped to exactly zero when it is below 1e-9 of its term-magnitude
scale: at a numerically solved kappa1 the true value is an exact zero and the
residue is root-finder noise.  When T0 is snapped the moment route is left
behind already at |kappa1|*s = 10: beyond that the moment sum reconstructs a
polynomial-sized answer out of e^{kappa1 s}-sized terms and loses digits,
while P(s) is exact.  With T0 nonzero the split form itself cancels at small
s, so the moment route is kept up to |kappa1|*s = 30.

Near a collapsed end alpha = J/v is evaluated as a Taylor series in the
distance from the end, obtained by power-series division (see
alpha_series_at_collapse).  At s = 0, where v vanishes, the series serves
within SERIES_WINDOW.  At a compact star end alpha vanishes only because
the existence integral does, so J/v is 0/0 there (also at a point end, where
v does not vanish) and J carries the root's residual; the star series builds
the vanishing in exactly.  It serves for s_star - s <= rho/30, capped at
s_star/2, where rho, the series' radius of convergence, is the distance from
s_star to the nearest other zero of v (Profile.star_window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from kricci import polyexp
from kricci.model import SolitonConfig, validate

#: distance from the s = 0 end (with vanishing v) below which its series is used
SERIES_WINDOW = 1e-3
#: the star series is used within this fraction of its radius of convergence
_STAR_WINDOW_FRACTION = 1.0 / 30.0

_MOMENT_Z_SNAPPED = 10.0
_MOMENT_Z_GENERAL = 30.0
_EXP_OVERFLOW = 709.0
_SNAP_REL = 1e-9
_SERIES_TERMS = 14
_SINGULAR_STAR = ("alpha is singular at s_star: the existence integral does not "
                  "vanish at this kappa1")


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


def _low_order_zeros(p: Sequence[Fraction]) -> int:
    """Multiplicity of the root at 0 (count of exact leading zero coeffs)."""
    for k, c in enumerate(p):
        if c != 0:
            return k
    return len(p)


@dataclass
class ProfileSample:
    """Pointwise profile data: the metric coefficients and the derivatives
    entering the curvature equations, all in the s-coordinate."""

    s: float
    alpha: float
    dalpha: float
    d2alpha: float
    beta: Tuple[float, ...]
    dbeta: Tuple[float, ...]
    v: float
    dv: float
    d2v: float
    phi: float
    dphi: float


@dataclass
class Profile:
    """A fully precomputed solution profile.

    ``v_poly`` and ``psi_poly`` are exact rational polynomials; everything
    else is float machinery derived from them once at build time.  The object
    is immutable after construction apart from the lazy caches: the series
    cache (``None`` records a singular star end) and the geometry module's
    t and F tables in ``_integrals``.  ``star_window`` is the distance from
    s_star within which alpha comes from the star series (0.0 when open).
    """

    config: SolitonConfig
    v_poly: list
    psi_poly: list
    s_domain: Tuple[float, float]
    E_eff: Fraction
    kappa1: float
    kappa0: float
    psi_antideriv: list
    taylor: Tuple[Tuple[float, ...], ...]   # Psi^(m)/m! as float coeffs
    p_alpha: Optional[Tuple[float, ...]]
    t0: float
    t0_snapped: bool
    zero_order: int
    v_float: Tuple[float, ...]
    dv_float: Tuple[float, ...]
    d2v_float: Tuple[float, ...]
    star_window: float
    _series: Dict[str, Optional[Tuple[float, ...]]] = field(default_factory=dict, repr=False)
    _integrals: Dict[str, Any] = field(default_factory=dict, repr=False, compare=False)

    @property
    def is_compact(self) -> bool:
        return self.config.is_compact


def v_psi_polys(config: SolitonConfig, e_star: Fraction) -> Tuple[list, list]:
    """v = prod_i beta_i^{n_i} and Psi = (e_star + eps*x)*v, exactly."""
    shifts = []
    const = Fraction(1)
    for fac, sig in zip(config.factors, config.sigmas):
        if fac.n == 0:
            continue
        shifts.append((polyexp.as_rational(sig), fac.n))
        const *= (-fac.q) ** fac.n
    v_poly = polyexp.poly_scale(polyexp.build_shifted_product(shifts), const)
    psi_poly = polyexp.poly_mul([e_star, polyexp.as_rational(config.epsilon)], v_poly)
    return v_poly, psi_poly


def build_profile(config: SolitonConfig, *, e_star_shift: float = 0.0) -> Profile:
    """Assemble the closed-form profile for an admissible configuration.

    ``e_star_shift`` adds an exact offset to E_star in the alpha equation
    only (betas, phi and the recorded boundary data are untouched).  It
    exists to produce deliberately detuned profiles for conservation-law
    diagnostics; the default 0.0 is the actual solution.
    """
    report = validate(config)
    structural = report.structural_violations()
    if structural:
        raise ValueError("inadmissible configuration: " + "; ".join(structural))

    e_eff = config.E_star + polyexp.as_rational(e_star_shift)
    k1 = float(config.kappa1)

    v_poly, psi_poly = v_psi_polys(config, e_eff)
    if config.epsilon != 0:
        degree = sum(f.n for f in config.factors) + 1
        assert polyexp.poly_degree(psi_poly) == degree

    taylor: List[Tuple[float, ...]] = []
    der = list(psi_poly)
    fact = 1
    m = 0
    while der:
        taylor.append(tuple(float(c / fact) for c in der))
        der = polyexp.poly_derivative(der)
        m += 1
        fact *= m

    p_alpha: Optional[Tuple[float, ...]] = None
    t0 = 0.0
    t0_snapped = False
    if k1 != 0.0:
        kr = Fraction(k1)
        # particular polynomial P = -sum_m Psi^(m)/kappa1^(m+1), exact then floated
        pa: list = []
        der = list(psi_poly)
        power = kr
        t0_exact = Fraction(0)
        t0_scale = 0.0
        fact = 1
        m = 0
        while der:
            pa = polyexp.poly_add(pa, polyexp.poly_scale(der, Fraction(-1) / power))
            term = fact * psi_poly[m] / power if m < len(psi_poly) else Fraction(0)
            t0_exact += term
            t0_scale += abs(float(term))
            der = polyexp.poly_derivative(der)
            power *= kr
            m += 1
            fact *= m
        p_alpha = tuple(float(c) for c in pa)
        t0 = float(t0_exact)
        if abs(t0) <= _SNAP_REL * t0_scale:
            t0 = 0.0
            t0_snapped = True

    zero_order = _low_order_zeros(v_poly)
    star_window = 0.0
    if config.is_compact:
        s_star = config.s_star
        s_hi = float(s_star)
        zeros = (-polyexp.as_rational(sig)
                 for fac, sig in zip(config.factors, config.sigmas) if fac.n)
        rho = min((abs(s_star - z) for z in zeros if z != s_star), default=math.inf)
        star_window = min(_STAR_WINDOW_FRACTION * float(rho), 0.5 * s_hi)
    else:
        s_hi = math.inf

    dv_poly = polyexp.poly_derivative(v_poly)
    return Profile(
        config=config,
        v_poly=v_poly,
        psi_poly=psi_poly,
        s_domain=(0.0, s_hi),
        E_eff=e_eff,
        kappa1=k1,
        kappa0=float(config.kappa0),
        psi_antideriv=polyexp.poly_antiderivative(psi_poly),
        taylor=tuple(taylor),
        p_alpha=p_alpha,
        t0=t0,
        t0_snapped=t0_snapped,
        zero_order=zero_order,
        v_float=tuple(float(c) for c in v_poly),
        dv_float=tuple(float(c) for c in dv_poly),
        d2v_float=tuple(float(c) for c in polyexp.poly_derivative(dv_poly)),
        star_window=star_window,
    )


def _eval_J(profile: Profile, s: float) -> float:
    """J(s) = v(s)*alpha(s) through the route table in the module docstring."""
    k = profile.kappa1
    if k == 0.0:
        return polyexp.poly_eval(profile.psi_antideriv, float(s))
    z = abs(k) * s
    threshold = _MOMENT_Z_SNAPPED if profile.t0_snapped else _MOMENT_Z_GENERAL
    if z <= threshold:
        total = 0.0
        for m, dm in enumerate(profile.taylor):
            cm = _fhorner(dm, s)
            if m & 1:
                cm = -cm
            total += cm * polyexp.moment(m, -k, s)
        return total
    pa = _fhorner(profile.p_alpha, s)
    if profile.t0 == 0.0:
        return pa
    zz = k * s
    if zz > _EXP_OVERFLOW:
        return math.inf if profile.t0 > 0 else -math.inf
    return pa + math.exp(zz) * profile.t0


def _series_coeffs(profile: Profile, end: str) -> Tuple[float, ...]:
    """Taylor coefficients of alpha in the inward distance from a collapsed
    end: delta = s at the zero end, delta = s_star - s at the star end.

    Both ends reduce to the same computation: J(delta) =
    e^{k delta} int_0^delta P(x) e^{-k x} dx for a local polynomial P and
    local rate k, divided by the local expansion of v.  The convolution is
    done in floats; the vanishing orders are exact because the rational
    polynomials carry exact zero coefficients.  At a point star end v does
    not vanish and the division has the lead v(s_star).  A star end found
    singular is recorded as ``None`` and raises again without recomputing.
    """
    if end in profile._series:
        cached = profile._series[end]
        if cached is None:
            raise ValueError(_SINGULAR_STAR)
        return cached

    if end == "zero":
        if profile.zero_order == 0:
            raise ValueError("v nonvanishing at s = 0; plain evaluation suffices")
        P = list(profile.psi_poly)
        V = list(profile.v_poly)
        k = profile.kappa1
    elif end == "star":
        if not profile.is_compact:
            raise ValueError("profile has no second collapsed end")
        s_star = profile.config.s_star
        # smoothness at s_star needs the weighted integral of Psi to vanish
        i_star = polyexp.exp_poly_integral(profile.psi_poly, profile.kappa1, 0, s_star)
        scale = polyexp.exp_poly_integral(
            [abs(c) for c in profile.psi_poly], profile.kappa1, 0, s_star
        )
        if abs(i_star) > _SNAP_REL * max(1e-300, scale):
            profile._series[end] = None
            raise ValueError(_SINGULAR_STAR)
        # reflect about s_star: p_hat(delta) = p(s_star - delta)
        P = [c if j % 2 == 0 else -c
             for j, c in enumerate(polyexp.poly_shift(profile.psi_poly, s_star))]
        P = polyexp.poly_neg(P)
        V = [c if j % 2 == 0 else -c
             for j, c in enumerate(polyexp.poly_shift(profile.v_poly, s_star))]
        k = -profile.kappa1
    else:
        raise ValueError("end must be 'zero' or 'star'")

    order = _low_order_zeros(V)
    length = order + _SERIES_TERMS + 2
    p_f = [float(c) for c in P]
    v_f = [float(c) for c in V] + [0.0] * length

    e_minus = [1.0]
    e_plus = [1.0]
    for j in range(1, length):
        e_minus.append(e_minus[-1] * (-k) / j)
        e_plus.append(e_plus[-1] * k / j)
    w = _fconv(p_f, e_minus, length)          # P(x)*e^{-kx}
    integ = [0.0] * length
    for j in range(1, length):
        integ[j] = w[j - 1] / j               # int_0^delta
    j_series = _fconv(e_plus, integ, length)  # * e^{+k delta}

    lead = v_f[order]
    coeffs = [0.0] * _SERIES_TERMS
    for j in range(_SERIES_TERMS):
        tot = j_series[order + j] if order + j < length else 0.0
        for i in range(1, j + 1):
            tot -= v_f[order + i] * coeffs[j - i]
        coeffs[j] = tot / lead

    out = tuple(coeffs)
    profile._series[end] = out
    return out


def alpha_series_at_collapse(profile: Profile, end: str) -> List[float]:
    """Series coefficients of alpha about a collapsed end where v vanishes.

    The expansion variable is the inward distance from the end (s at the
    zero end, s_star - s at the star end), so the linear coefficient is the
    inward slope: +2 at both ends for calibrated profiles.  Raises ValueError
    when v does not vanish at s = 0 for the zero end, and at the star end
    when the configuration's kappa1 does not satisfy the existence condition.
    """
    return list(_series_coeffs(profile, end))


def sample(profile: Profile, s: float) -> ProfileSample:
    """Evaluate the profile and the derivatives the curvature system uses.

    alpha' and alpha'' come from the defining first-order equation and its
    derivative, never from numerical differentiation.
    """
    s = float(s)
    lo, hi = profile.s_domain
    if s < lo - 1e-12 or s > hi + 1e-12:
        raise ValueError(f"s = {s} is outside the profile domain [{lo}, {hi}]")

    cfg = profile.config
    beta = []
    dbeta = []
    for fac, sig in zip(cfg.factors, cfg.sigmas):
        mq = float(-fac.q)
        beta.append(mq * (s + float(sig)))
        dbeta.append(mq)

    v_val = _fhorner(profile.v_float, s)
    dv_val = _fhorner(profile.dv_float, s)
    d2v_val = _fhorner(profile.d2v_float, s)
    phi = profile.kappa1 * (s + profile.kappa0)
    dphi = profile.kappa1

    series = None
    delta = 0.0
    sign = 1.0
    if profile.zero_order > 0 and s <= SERIES_WINDOW:
        series = _series_coeffs(profile, "zero")
        delta = s
    elif hi - s <= profile.star_window:
        try:
            series = _series_coeffs(profile, "star")
            delta = hi - s
            sign = -1.0
        except ValueError:
            series = None  # genuinely singular end; fall through to J/v

    if series is not None:
        d1 = _fderiv(series)
        alpha = _fhorner(series, delta)
        dalpha = sign * _fhorner(d1, delta)
        d2alpha = _fhorner(_fderiv(d1), delta)
    else:
        J = _eval_J(profile, s)
        if v_val == 0.0:
            alpha = math.copysign(math.inf, J) if J != 0.0 else 0.0
            dalpha = math.nan
            d2alpha = math.nan
        else:
            alpha = J / v_val
            eps_f = float(cfg.epsilon)
            e_f = float(profile.E_eff)
            k1 = profile.kappa1
            lv1 = 0.0
            lv2 = 0.0
            for fac, b, db in zip(cfg.factors, beta, dbeta):
                if fac.n == 0:
                    continue
                ratio = db / b
                lv1 += fac.n * ratio
                lv2 -= fac.n * ratio * ratio
            dalpha = eps_f * s + e_f - alpha * (lv1 - k1)
            d2alpha = eps_f - dalpha * (lv1 - k1) - alpha * lv2

    return ProfileSample(
        s=s,
        alpha=alpha,
        dalpha=dalpha,
        d2alpha=d2alpha,
        beta=tuple(beta),
        dbeta=tuple(dbeta),
        v=v_val,
        dv=dv_val,
        d2v=d2v_val,
        phi=phi,
        dphi=dphi,
    )
