"""Exact rational polynomial arithmetic and exp-weighted moment integrals.

A polynomial is represented as a list of `fractions.Fraction` coefficients in
ascending degree order with trailing zeros trimmed; the zero polynomial is
the empty list.  All polynomial arithmetic is exact.

The single numerical task of this module is the closed-form evaluation of

    integral_a^b exp(-kappa*x) * P(x) dx

through the moment integrals

    M_m(kappa, L) = integral_0^L exp(-kappa*x) * x^m dx.

The textbook recurrence  M_m = (m*M_{m-1} - L^m*exp(-kappa*L)) / kappa  is
catastrophically unstable whenever |kappa*L| is small against m (the relative
error is amplified by roughly (m+1)/(kappa*L) per step), so `moment` instead
selects one of four series/closed forms, each of which involves no
cancellation beyond a provably bounded amount.  See `moment` for the branch
map.  Values that genuinely overflow the double range are returned as
+/-inf rather than silently clamped.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Fraction
RationalPoly = list  # list[Fraction], ascending degree, trailing zeros trimmed

_RationalLike = Union[int, str, Fraction]

# Terms below this relative size no longer move a double-precision sum.
SERIES_EPS = 1e-18
_MAX_SERIES_TERMS = 10_000


def as_rational(x: _RationalLike) -> Fraction:
    """Coerce ints, Fractions, floats and strings like '3/2' to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary value
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def poly_from_coeffs(coeffs: Iterable[_RationalLike]) -> RationalPoly:
    """Build a polynomial from ascending coefficients, normalizing to Fraction."""
    return _trim([as_rational(c) for c in coeffs])


def _trim(coeffs: list) -> RationalPoly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_degree(p: RationalPoly) -> int:
    """Degree of p; the zero polynomial has degree -1 by convention."""
    return len(p) - 1


def poly_add(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def poly_neg(a: RationalPoly) -> RationalPoly:
    return [-c for c in a]


def poly_scale(a: RationalPoly, r: _RationalLike) -> RationalPoly:
    r = as_rational(r)
    if r == 0:
        return []
    return [c * r for c in a]


def poly_mul(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    """Exact product; degree adds unless either factor is zero."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def poly_pow(a: RationalPoly, k: int) -> RationalPoly:
    if k < 0:
        raise ValueError("negative power of a polynomial")
    out = [Fraction(1)]
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_derivative(a: RationalPoly) -> RationalPoly:
    return _trim([c * i for i, c in enumerate(a)][1:])


def poly_antiderivative(a: RationalPoly) -> RationalPoly:
    """Antiderivative with zero constant term (exact)."""
    return _trim([Fraction(0)] + [c / (i + 1) for i, c in enumerate(a)])


def poly_eval(a: RationalPoly, x):
    """Horner evaluation; exact when x is int/Fraction, float otherwise."""
    if isinstance(x, (int, Fraction)):
        acc = Fraction(0)
    else:
        acc = 0.0
        a = [float(c) for c in a]
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_shift(a: RationalPoly, h: _RationalLike) -> RationalPoly:
    """Return the coefficients of a(x + h), exactly (Taylor shift), in
    integers: with h = p/q, D the common denominator of a and n its degree,
    a(x + h) = B(q x + p) / (D q^n), where B(z) = D q^n a(z/q)."""
    h = as_rational(h)
    if not a or h == 0:
        return _trim([Fraction(c) for c in a])
    p, q = h.numerator, h.denominator
    n = len(a) - 1
    den = math.lcm(*(c.denominator for c in a))
    out = [c.numerator * (den // c.denominator) * q ** (n - j) for j, c in enumerate(a)]
    # repeated synthetic division by (z + p) accumulates B(z + p)
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            out[j] += p * out[j + 1]
    return _trim([Fraction(c, den * q ** (n - j)) for j, c in enumerate(out)])


def build_shifted_product(shifts: Sequence[tuple]) -> RationalPoly:
    """Product of linear factors: prod_i (x + sigma_i)^{n_i}.

    `shifts` is a sequence of (sigma, n) pairs; the empty product is 1.
    """
    out = [Fraction(1)]
    for sigma, n in shifts:
        if n < 0:
            raise ValueError("negative multiplicity in shifted product")
        out = poly_mul(out, poly_pow([as_rational(sigma), Fraction(1)], n))
    return out


def sign_changes(p: RationalPoly) -> int:
    """Number of sign changes in the nonzero coefficient sequence.

    By Descartes's rule of signs this bounds (and, modulo parity, counts)
    the positive real roots.  The zero polynomial is rejected.
    """
    signs = [1 if c > 0 else -1 for c in p if c != 0]
    if not signs:
        raise ValueError("sign_changes of the zero polynomial")
    return sum(1 for prev, cur in zip(signs, signs[1:]) if prev != cur)


# ---------------------------------------------------------------------------
# moment integrals


def moment(m: int, kappa: float, upper: float) -> float:
    """M_m(kappa, L) = integral_0^L exp(-kappa*x) x^m dx, L = upper >= 0.

    Branch map (z = kappa*L):

      z == 0       exact power rule L^{m+1}/(m+1)
      |z| < 1e-4   alternating Taylor sum_{j} (-z)^j / (j! (m+j+1)) * L^{m+1}
                   (12 terms; the closed form loses all digits here)
      z < 0        the same series, now with all terms positive -> no
                   cancellation at any size; overflows honestly to +inf
      0 < z < m+25 Kummer-type series e^{-z}/(m+1) * sum_j z^j/(m+2)_j,
                   all terms positive
      z >= m+25    closed form m!/kappa^{m+1} * (1 - e^{-z} sum_{j<=m} z^j/j!);
                   the subtracted tail is < ~1e-3 there, so at most three
                   digits cancel
    """
    if m < 0:
        raise ValueError("negative moment order")
    L = float(upper)
    if L < 0:
        raise ValueError("negative upper limit in moment")
    if L == 0.0:
        return 0.0
    kappa = float(kappa)
    z = kappa * L
    if kappa == 0.0:
        return L ** (m + 1) / (m + 1)
    if abs(z) < 1e-4:
        total = 0.0
        zpow = 1.0
        fact = 1.0
        for j in range(12):
            if j > 0:
                zpow *= -z
                fact *= j
            total += zpow / (fact * (m + j + 1))
        return _pow_or_inf(L, m + 1) * total
    if z < 0.0:
        # sum_j (-z)^j / (j! (m+j+1)), all positive
        w = 1.0
        total = 1.0 / (m + 1)
        for j in range(1, _MAX_SERIES_TERMS):
            w *= (-z) / j
            term = w / (m + j + 1)
            total += term
            if math.isinf(total):
                return math.inf
            if term < SERIES_EPS * total and j > -z:
                break
        return _pow_or_inf(L, m + 1) * total if not math.isinf(total) else math.inf
    if z >= m + 25:
        # m!/kappa^{m+1} * (1 - S), S = e^{-z} sum_{j<=m} z^j/j!
        try:
            denom = kappa ** (m + 1)
        except OverflowError:
            return 0.0
        if math.isinf(denom):
            return 0.0
        S = 0.0
        t = math.exp(-z) if z < 745.0 else 0.0
        if t > 0.0:
            S = t
            for j in range(1, m + 1):
                t *= z / j
                S += t
        return math.factorial(m) / denom * (1.0 - S)
    # Kummer-type positive series
    t = 1.0
    total = 1.0
    for j in range(1, _MAX_SERIES_TERMS):
        t *= z / (m + 1 + j)
        total += t
        if t < SERIES_EPS * total:
            break
    try:
        front = math.exp(-z) / (m + 1) * _pow_or_inf(L, m + 1)
    except OverflowError:
        return math.inf
    return front * total


def _pow_or_inf(base: float, exponent: int) -> float:
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# exp-weighted polynomial integrals


def exp_poly_integral_exact_zero(p: RationalPoly, a: _RationalLike, b: _RationalLike) -> Fraction:
    """Exact rational value of integral_a^b P(x) dx (the kappa = 0 case).

    Endpoints must be rational; this is the bit-exact path used to reproduce
    closed-form constants.
    """
    a = as_rational(a)
    b = as_rational(b)
    anti = poly_antiderivative(p)
    return poly_eval(anti, b) - poly_eval(anti, a)


def exp_poly_integral(p: RationalPoly, kappa: float, a, b) -> float:
    """integral_a^b exp(-kappa*x) P(x) dx by the closed-form moment identity.

    The interval is shifted so the moments run from 0: with L = b - a and
    Q(w) = P(a + w),

        value = exp(-kappa*a) * sum_m Q_m * M_m(kappa, L).

    kappa = 0 is handled by the exact antiderivative (never by dividing by
    kappa).  Endpoints are coerced to exact rationals (floats convert
    exactly), so the Taylor shift is exact and the only rounding happens in
    the final float accumulation.
    """
    if not p:
        p = [Fraction(0)]
    a_r = as_rational(a)
    b_r = as_rational(b)
    if b_r < a_r:
        raise ValueError("exp_poly_integral needs a <= b")
    if kappa == 0:
        return float(exp_poly_integral_exact_zero(p, a_r, b_r))
    L = float(b_r - a_r)
    shifted = poly_shift(p, a_r)
    total = 0.0
    for m, c in enumerate(shifted):
        if c == 0:
            continue
        total += float(c) * moment(m, kappa, L)
    za = -float(kappa) * float(a_r)
    if za > 709.0:  # exp overflow threshold for doubles
        return math.copysign(math.inf, total) if total != 0.0 else 0.0
    return math.exp(za) * total
