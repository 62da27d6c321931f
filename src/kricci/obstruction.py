"""The existence conditions: the obstruction integral for compact shrinkers
and the moment-polynomial condition for noncompact ones.

Compact case: a smooth closed solution exists iff

    I(kappa1) = int_{-N0-1}^{N*+1} e^{-2 kappa1 (x+N0+1)}
                prod_i (x - p_i/q_i)^{n_i} * x  dx  =  0 ,

where N0 and N* are the total dimensions collapsing at the two ends.  At
kappa1 = 0 the integral is the classical invariant obstructing a
Kahler-Einstein metric, and it is a rational number evaluated exactly here.
The two kappa1 -> +-inf asymptotic signs are always opposite, which is what
guarantees a root.

Noncompact case: with Psi = (E_star - x)*v(x) = sum a_k x^k, the linear
growth condition on alpha reduces to the polynomial equation

    chi(y) = sum_{k >= N0} k! * a_k * y^{k-N0} = 0,   y = 1/kappa1 > 0,

whose coefficient sequence has exactly one sign change, so Descartes's rule
certifies a unique positive root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from kricci import polyexp
from kricci.model import SolitonConfig, mirror_config
from kricci.profiles import v_psi_polys

_SCAN_STEP = 0.25
_MAX_BISECT = 200


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
    scan_sign_changes: Tuple[Tuple[float, float], ...] = ()


def _require_compact_shrinker(config: SolitonConfig) -> None:
    if not config.is_compact or config.epsilon >= 0:
        raise ValueError(
            "the obstruction integral is defined for compact shrinking "
            "configurations only"
        )


def _x_form_poly(config: SolitonConfig) -> list:
    """x * prod_{n_i > 0} (x - p_i/q_i)^{n_i}, exactly."""
    shifts = [(-fac.p / fac.q, fac.n) for fac in config.factors if fac.n > 0]
    return polyexp.poly_mul([Fraction(0), Fraction(1)],
                            polyexp.build_shifted_product(shifts))


def futaki_integral(config: SolitonConfig, kappa1: float) -> FutakiEvaluation:
    """Evaluate the obstruction integral at the given kappa1.

    Exact rational arithmetic when kappa1 = 0; otherwise the closed-form
    moment evaluation of polyexp (never sampled quadrature).
    """
    _require_compact_shrinker(config)
    n0 = config.n_zero
    half_length = Fraction(n0 + config.n_star + 2)  # s*/2
    shifted = polyexp.poly_shift(_x_form_poly(config), Fraction(-(n0 + 1)))

    if kappa1 == 0:
        exact = polyexp.exp_poly_integral_exact_zero(shifted, 0, half_length)
        return FutakiEvaluation(kappa1=0.0, value=float(exact), exact_value=exact)
    value = polyexp.exp_poly_integral(shifted, 2.0 * float(kappa1), 0, half_length)
    return FutakiEvaluation(kappa1=float(kappa1), value=value, exact_value=None)


def _mid_sign(config: SolitonConfig, at_star: bool) -> int:
    """Sign of prod over non-collapsing factors of sigma_i^{n_i} (or of
    (s* + sigma_i)^{n_i} when at_star)."""
    s_star = config.s_star
    zero_set = set(config.collapsing_zero_indices())
    star_set = set(config.collapsing_star_indices())
    sign = 1
    for i, fac in enumerate(config.factors):
        if fac.n == 0 or i in zero_set or i in star_set:
            continue
        val = config.sigmas[i] + (s_star if at_star else 0)
        if val == 0:
            return 0
        if val < 0 and fac.n % 2 == 1:
            sign = -sign
    return sign


def asymptotic_sign(config: SolitonConfig, direction) -> int:
    """Sign of I(kappa1) as kappa1 -> +inf or -inf.

    +inf: the lower endpoint dominates, giving (-1)^{N*+1} prod sigma_i^{n_i};
    -inf: the upper endpoint dominates, giving (-1)^{N*} prod (s*+sigma_i)^{n_i};
    products over the non-collapsing factors.  The two are always opposite
    for admissible data.
    """
    _require_compact_shrinker(config)
    if direction in ("+inf", "+oo") or direction == math.inf:
        plus = True
    elif direction in ("-inf", "-oo") or direction == -math.inf:
        plus = False
    else:
        raise ValueError("direction must be '+inf' or '-inf'")
    n_star = config.n_star
    if plus:
        return (-1) ** (n_star + 1) * _mid_sign(config, at_star=False)
    return (-1) ** n_star * _mid_sign(config, at_star=True)


def find_kappa1_compact(config: SolitonConfig,
                        search_halfwidth: float = 50.0) -> RootResult:
    """Locate a vanishing point of the obstruction integral.

    Scans outward from kappa1 = 0 in steps of 0.25, on each side until the
    sign of I matches that side's asymptotic sign, recording every sign
    change encountered; the change nearest 0 is refined by bisection to
    |I| < 1e-12 * max(1, |I(0)|).  Raises RuntimeError if no sign change
    appears within the halfwidth (the existence theorem says it must).
    """
    _require_compact_shrinker(config)
    f0 = futaki_integral(config, 0.0).value
    tol = 1.0e-12 * max(1.0, abs(f0))
    if abs(f0) <= tol:
        return RootResult(kappa1=0.0, bracket=(0.0, 0.0), residual=abs(f0),
                          iterations=0)

    def f(k: float) -> float:
        return futaki_integral(config, k).value

    brackets: List[Tuple[float, float]] = []
    for direction in (+1.0, -1.0):
        target = asymptotic_sign(config, "+inf" if direction > 0 else "-inf")
        prev_k, prev_v = 0.0, f0
        k = 0.0
        while abs(k) < search_halfwidth:
            k += direction * _SCAN_STEP
            val = f(k)
            if val == 0.0:
                brackets.append((k, k))
                break
            if (val > 0) != (prev_v > 0):
                lo, hi = sorted((prev_k, k))
                brackets.append((lo, hi))
            if (1 if val > 0 else -1) == target:
                break
            prev_k, prev_v = k, val
        else:
            raise RuntimeError(
                f"no sign change of the obstruction integral within "
                f"|kappa1| < {search_halfwidth} in the {'+' if direction > 0 else '-'} "
                f"direction; asymptotic sign never reached"
            )

    if not brackets:
        raise RuntimeError(
            "the obstruction integral changed to its asymptotic sign without "
            "a detectable sign change; no bracket found"
        )

    lo, hi = min(brackets, key=lambda b: min(abs(b[0]), abs(b[1])))
    if lo == hi:
        return RootResult(kappa1=lo, bracket=(lo, hi), residual=0.0,
                          iterations=0, scan_sign_changes=tuple(brackets))

    flo = f(lo)
    iterations = 0
    root, froot = lo, flo
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        iterations += 1
        if abs(fmid) <= tol or hi - lo <= 1e-16 * max(1.0, abs(mid)):
            root, froot = mid, fmid
            break
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
        root, froot = mid, fmid
    return RootResult(kappa1=root, bracket=min(brackets, key=lambda b: min(abs(b[0]), abs(b[1]))),
                      residual=abs(froot), iterations=iterations,
                      scan_sign_changes=tuple(brackets))


def chi_poly(config: SolitonConfig) -> list:
    """chi(y) = sum_{k >= N0} k! a_k y^{k-N0} with a_k the coefficients of
    Psi = (E_star + eps*x) * prod beta_i(x)^{n_i}, exactly."""
    _, psi = v_psi_polys(config, config.E_star)
    n0 = next(k for k, c in enumerate(psi) if c != 0)
    fact = math.factorial
    return polyexp.poly_from_coeffs(
        [fact(k) * psi[k] for k in range(n0, len(psi))]
    )


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

    def g(y: float) -> float:
        return polyexp.poly_eval(chi, float(y))

    lo, glo = 0.0, g(0.0)
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
