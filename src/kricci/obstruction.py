"""The existence conditions: the obstruction integral for compact shrinkers
and the moment-polynomial condition for noncompact ones.

Compact case: a smooth closed solution exists iff

    I(kappa1) = int_{-N0-1}^{N*+1} e^{-2 kappa1 (x+N0+1)}
                prod_i (x - p_i/q_i)^{n_i} * x  dx  =  0 ,

where N0 and N* are the total dimensions collapsing at the two ends.  At
kappa1 = 0 the integral is the classical invariant obstructing a
Kahler-Einstein metric, and it is a rational number evaluated exactly here.
On admissible data the weight w = prod_i (x - p_i/q_i)^{n_i} keeps one sign
on the interval, so I = +-Z <x> with Z > 0 the total mass of e^{-2 kappa1 y}|w|
(y = x + N0 + 1) and <x> the mean of x under it.  Since
d<x>/dkappa1 = -2 Var(x) < 0, while <x> runs from N*+1 down to -N0-1 as
kappa1 goes from -inf to +inf, the root exists and is unique.

Noncompact case: with Psi = (E_star - x)*v(x) = sum a_k x^k, the linear
growth condition on alpha reduces to the polynomial equation

    chi(y) = sum_{k >= N0} k! * a_k * y^{k-N0} = 0,   y = 1/kappa1 > 0,

whose coefficient sequence has exactly one sign change, so Descartes's rule
certifies a unique positive root.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from kricci import polyexp
from kricci.model import ExactCore, SolitonConfig, exact_core, mirror_config

_MAX_BISECT = 200
_MAX_NEWTON = 100
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class FutakiEvaluation:
    """One evaluation of the obstruction integral.

    ``exact_value`` is populated on the kappa1 = 0 rational path;
    ``value`` always uses the x-form normalization above.
    """

    kappa1: float
    value: float
    exact_value: Optional[Fraction]


@dataclass(frozen=True)
class RootResult:
    kappa1: float
    bracket: Tuple[float, float]
    residual: float
    iterations: int
    uniqueness_certificate: Optional[int] = None


def _require_compact_shrinker(config: SolitonConfig) -> None:
    if not config.is_compact or config.epsilon >= 0:
        raise ValueError(
            "the obstruction integral is defined for compact shrinking "
            "configurations only"
        )


def _lean_sums(core: ExactCore, length: int, k: float) -> list:
    """Z, Z <x> and Z <x^2>: int_0^L e^{-2|k| d} x^j |w| dd, L = ``length``,
    at the end the measure leans towards at kappa1 = k (the left one for
    k >= 0), from one moments call over the exact core's float rows.  Summed
    at that end the sums expand about where the mass is, so they cancel
    less, and their rates are positive, so they never overflow.  Near the
    root Z <x> cancels, so each sum adds its rounded terms exactly."""
    side = core.rows[1 if k >= 0 else -1]
    terms = side * polyexp.moments(2.0 * abs(k), [length], side.shape[1])[:, 0]
    return [math.fsum(row) for row in terms.tolist()]


def _lean_integral(core: ExactCore, length: int, k: float, m1: float) -> float:
    """I(k) = sign Z <x>, from the Z <x> that _lean_sums gave at k, times
    e^{-2 k L} for k < 0, whose sums start at the right end (+-inf where
    that factor overflows)."""
    value = core.sign * m1
    grow = -2.0 * k * length
    if grow > 709.0:  # exp overflow threshold for doubles
        return math.copysign(math.inf, value) if value else value
    return value * math.exp(grow) if grow > 0.0 else value


def futaki_integral(config: SolitonConfig, kappa1: float) -> FutakiEvaluation:
    """Evaluate the obstruction integral at the given kappa1.

    Exact rational arithmetic when kappa1 = 0; otherwise the closed-form
    moment evaluation of polyexp (never sampled quadrature), summed at the
    end the measure leans towards, as the root finder sums it.
    """
    _require_compact_shrinker(config)
    core = exact_core(config)
    if kappa1 == 0:
        return FutakiEvaluation(kappa1=0.0, value=float(core.at_zero), exact_value=core.at_zero)
    kappa1 = float(kappa1)
    m1 = _lean_sums(core, config.length, kappa1)[1]
    return FutakiEvaluation(kappa1=kappa1, value=_lean_integral(core, config.length, kappa1, m1),
                            exact_value=None)


def futaki_sweep(config: SolitonConfig, kappas: Sequence[float]) -> List[float]:
    """``futaki_integral(config, k).value`` at every k, all read from the
    config's one exact core."""
    return [futaki_integral(config, k).value for k in kappas]


def find_kappa1_compact(config: SolitonConfig) -> RootResult:
    """The unique zero of the obstruction integral, by safeguarded Newton.

    Certificate: no root p_i/q_i (n_i > 0) of w lies inside (-N0-1, N*+1),
    so w keeps one sign there and the root is unique (module docstring);
    ValueError otherwise.  Newton steps kappa1 + <x>/(2 Var) start at 0.  A
    step that leaves the bracket of evaluated points of opposite sign
    bisects it; while the bracket is open on one side, a step goes at most
    max(1, |kappa1|) towards it.  The iteration stops when
    |<x>| <= 8 eps sqrt(Var) or the step is <= 2 eps max(1, |kappa1|).  The
    bracket returned is finite and holds kappa1 strictly inside.
    """
    _require_compact_shrinker(config)
    n0, n_star = config.n_zero, config.n_star
    inside = [fac.p / fac.q for fac in config.factors
              if fac.n > 0 and -(n0 + 1) < fac.p / fac.q < n_star + 1]
    if inside:
        raise ValueError(
            f"the weight of the obstruction integral vanishes at x = {inside[0]} "
            f"inside ({-(n0 + 1)}, {n_star + 1}); no uniqueness certificate"
        )
    core = exact_core(config)
    if core.at_zero == 0:
        return RootResult(kappa1=0.0, bracket=(0.0, 0.0), residual=0.0,
                          iterations=0, uniqueness_certificate=1)

    def mean_var(k: float) -> Tuple[float, float, float]:
        """<x> and Var(x) at k, and the Z <x> they came from."""
        z, m1, m2 = _lean_sums(core, config.length, k)
        if not (0.0 < z < math.inf and math.isfinite(m1) and math.isfinite(m2)):
            raise RuntimeError(f"the obstruction moments are not finite at kappa1 = {k!r}")
        mean = m1 / z
        return mean, m2 / z - mean * mean, m1

    lo, hi = -math.inf, math.inf  # <x> > 0 at lo, < 0 at hi, and lo < k < hi
    k = 0.0
    for iterations in range(_MAX_NEWTON):
        mean, var, m1 = mean_var(k)
        if abs(mean) <= 8.0 * _EPS * math.sqrt(max(var, 0.0)):
            break
        lo_k, hi_k = (k, hi) if mean > 0 else (lo, k)
        step = mean / (2.0 * var) if var > 0 else math.copysign(math.inf, mean)
        if math.isinf(lo_k) or math.isinf(hi_k):
            step = math.copysign(min(abs(step), max(1.0, abs(k))), mean)
        elif not lo_k < k + step < hi_k:
            step = 0.5 * (lo_k + hi_k) - k
        if abs(step) <= 2.0 * _EPS * max(1.0, abs(k)):
            break
        lo, hi = lo_k, hi_k
        k += step
    else:
        raise RuntimeError(
            f"the obstruction root did not converge in {_MAX_NEWTON} Newton steps"
        )

    def beyond(direction: float) -> float:
        """An evaluated point past k where <x> has the sign of -direction."""
        delta = 16.0 * _EPS * max(1.0, abs(k))
        while delta < max(1.0, abs(k)):
            end = k + direction * delta
            if mean_var(end)[0] * direction < 0:
                return end
            delta *= 16.0
        raise RuntimeError(f"no sign change of <x> next to kappa1 = {k!r}")

    bracket = (beyond(-1.0) if math.isinf(lo) else lo,
               beyond(+1.0) if math.isinf(hi) else hi)
    # the loop left off just after evaluating at k, so m1 is Z <x> there
    return RootResult(kappa1=k, bracket=bracket,
                      residual=abs(_lean_integral(core, config.length, k, m1)),
                      iterations=iterations, uniqueness_certificate=1)


def chi_poly(config: SolitonConfig) -> list:
    """chi(y) = sum_{k >= N0} k! a_k y^{k-N0} with a_k the coefficients of
    Psi = (E_star + eps*x) * prod beta_i(x)^{n_i}, exactly."""
    core = exact_core(config)
    n0 = next(k for k, c in enumerate(core.psi) if c != 0)
    return [Fraction(math.factorial(k) * core.psi[k], core.den) for k in range(n0, len(core.psi))]


def find_kappa1_noncompact(config: SolitonConfig) -> RootResult:
    """Solve the linear-growth condition chi(1/kappa1) = 0.

    Descartes's rule is applied first: the coefficient sequence of chi must
    have exactly one sign change, certifying a unique positive root y*;
    kappa1 = 1/y* is returned with the certificate in the result.
    """
    if config.is_compact or config.epsilon >= 0:
        raise ValueError(
            "the moment-polynomial condition applies to noncompact shrinking "
            "configurations only"
        )
    chi = chi_poly(config)
    certificate = polyexp.sign_changes(chi)
    if certificate != 1:
        raise ValueError(
            f"chi has {certificate} coefficient sign changes (expected exactly "
            f"1); the configuration does not admit the standard growth argument"
        )

    coeffs = [float(c) for c in reversed(chi)]   # Horner order, converted once

    def g(y: float) -> float:
        acc = 0.0
        for c in coeffs:
            acc = acc * y + c
        return acc

    lo = 0.0
    hi = 1.0
    while g(hi) > 0:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise RuntimeError("no sign change of chi found (unbounded root)")

    iterations = 0
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        iterations += 1
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    y_root = 0.5 * (lo + hi)
    kappa1 = 1.0 / y_root
    return RootResult(kappa1=kappa1, bracket=(1.0 / hi, 1.0 / lo if lo > 0 else math.inf),
                      residual=abs(g(y_root)), iterations=iterations,
                      uniqueness_certificate=certificate)


def symmetry_identity_check(config: SolitonConfig, kappa1: float) -> Tuple[float, float]:
    """Both sides of the reflection identity

        I(-kappa1; mirrored config) =
            (-1)^{1 + sum n_i} e^{4 kappa1 (N0+1)} I(kappa1; config),

    where the mirrored configuration reverses the factor order and negates
    every charge.  Requires equal collapsing dimensions at the two ends.
    """
    if config.n_zero != config.n_star:
        raise ValueError(
            "the reflection identity needs equal collapsing dimensions at "
            "both ends (N0 = N*)"
        )
    mirrored = mirror_config(config)
    lhs = futaki_integral(mirrored, -kappa1).value
    total_n = sum(fac.n for fac in config.factors)
    prefactor = (-1.0) ** (1 + total_n) * math.exp(4.0 * kappa1 * (config.n_zero + 1))
    rhs = prefactor * futaki_integral(config, kappa1).value
    return lhs, rhs
