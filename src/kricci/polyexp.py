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
error is amplified by roughly (m+1)/(kappa*L) per step), so `moments`, which
sums every exponential moment of the package, takes every order at every
point of an array from one of two all-positive series or, where kappa*L is
large, a closed form; none of them cancels (see `moments`).  Tiny |kappa*L|
needs no branch of its own: both series are free of cancellation there and
stop after a few terms.  Values that genuinely overflow the double range
are returned as +/-inf rather than silently clamped.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

RationalPoly = list  # list[Fraction], ascending degree, trailing zeros trimmed

_RationalLike = Union[int, str, Fraction]

# Terms below this relative size no longer move a double-precision sum.
SERIES_EPS = 1e-18


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

#: terms the moment series adds at once, between convergence checks: at
#: least _SERIES_BLOCK, and on n columns up to _BLOCK_TERMS / n (at most
#: _SERIES_BLOCK_MAX), since a small call's cost is per block, but no more
#: than |z| + 9 sqrt|z| + 10, which covers the terms a column at the
#: batch's largest |z| takes to pass its peak and fall below SERIES_EPS
_SERIES_BLOCK = 8
_SERIES_BLOCK_MAX = 128
_BLOCK_TERMS = 4096
#: a column takes the closed form from z = count + _CLOSED_Z on, which is at
#: least m + 31 for every order m < count
_CLOSED_Z = 30.0


def moments(kappa, x, count: int) -> np.ndarray:
    """M_m(kappa, x) = integral_0^x exp(-kappa*t) t^m dt for the orders
    m < count at every point of the 1-D array ``x``, as an array of shape
    (count, len(x)).  ``kappa`` is a float or one value per point.

    Branch map, by column (z = kappa*x, finite):

      z <= 0               the series x^{m+1} sum_j (-z)^j / (j! (m+j+1)),
                           all terms positive, so no cancellation at any
                           size; a column whose sum overflows is +inf
      0 < z < count + 30   the Kummer-type series
                           e^{-z} x^{m+1}/(m+1) sum_j z^j/(m+2)_j,
                           all terms positive
      z >= count + 30      the closed form
                           m!/kappa^{m+1} (1 - e^{-z} sum_{j<=m} z^j/j!),
                           where the series would take ~z terms or overflow;
                           the tail subtracted is the chance that a Poisson
                           variable of mean z >= m + 31 is at most m, so it
                           cancels nothing
    """
    x = np.asarray(x, dtype=float)
    z = np.multiply(kappa, x)
    order = np.argsort(z)  # the branches are runs of the columns in this order
    zs = z[order]
    if len(zs) and not -math.inf < zs[0] <= zs[-1] < math.inf:  # NaN sorts last
        raise ValueError("moments need finite kappa * x")
    lo, hi = zs.searchsorted(0.0, "right"), zs.searchsorted(count + _CLOSED_Z)
    rows = np.arange(count)[:, None]
    size = min(_SERIES_BLOCK_MAX, max(_SERIES_BLOCK, _BLOCK_TERMS // max(len(x), 1)))
    out = np.empty((count, len(x)))
    with np.errstate(over="ignore"):
        # each series takes its columns in increasing |z|
        for cols, zc, decay in ((order[:lo][::-1], -zs[:lo][::-1], False),
                                (order[lo:hi], zs[lo:hi], True)):
            if len(cols):
                block = min(size, max(_SERIES_BLOCK, int(zc[-1] + 9.0 * math.sqrt(zc[-1]) + 10.0)))
                out[:, cols] = _moment_series(decay, zc, x[cols], rows, block)
        if hi < len(x):
            zc, kc = zs[hi:], np.broadcast_to(kappa, x.shape)[order[hi:]]
            # e^{-z} z^j/j! and m!/kappa^{m+1} as cumulative products over m
            tail = np.cumsum(np.cumprod(np.vstack((np.exp(-zc), zc / rows[1:])), axis=0), axis=0)
            out[:, order[hi:]] = np.cumprod(np.maximum(rows, 1) / kc, axis=0) * (1.0 - tail)
    return out


def _moment_series(decay: bool, z: np.ndarray, x: np.ndarray, rows: np.ndarray,
                   size: int) -> np.ndarray:
    """The moments at the points x, in increasing order of z = |kappa x|, by
    the Kummer series where the weight decays (``decay``) and by the
    all-positive one where it grows.  Terms are added ``size`` at a time,
    each block a cumulative product of the term ratios from the last term
    of the block before, and summed onto the total in order, so the sums
    are rounded as one term at a time would round them, whatever ``size``
    is.  A column leaves the sum once its term has passed its peak and is
    below the series tolerance in every row, or once its weight has
    overflowed (+inf in every row).
    """
    if decay:
        term = np.ones((len(rows), len(z)))
        total = term.copy()
    else:
        w = np.ones_like(z)
        total = np.repeat(1.0 / (rows + 1.0), len(z), axis=1)
    start, j = 0, 0
    block = np.arange(1, size + 1)[:, None, None]
    while start < len(z):
        live = slice(start, None)
        zl = z[live]
        js = j + block  # the next terms, j + 1 .. j + size
        if decay:
            # one (size, rows, points) array per block, reused in place: with
            # three, a 7,344-point batch paged ~3.5 MB back in on every call
            ratios = zl / (rows + 1 + js)
            ratios[0] *= term[:, live]
            terms = np.cumprod(ratios, axis=0, out=ratios)
            term[:, live] = terms[-1]
        else:
            ratios = zl / js[:, 0]
            ratios[0] *= w[live]
            ws = np.cumprod(ratios, axis=0, out=ratios)
            terms = ws[:, None, :] / (rows + js + 1)
            w[live] = ws[-1]
        terms[0] += total[:, live]
        total[:, live] = terms.sum(axis=0)
        j += size
        done = (j > zl) & (terms[-1] < SERIES_EPS * total[:, live]).all(axis=0)
        if not decay and w[-1] == math.inf:  # an overflowed weight makes its column +inf
            done |= w[live] == math.inf
        start += len(done) if done.all() else int(done.argmin())
    sums = total * x ** (rows + 1)
    if decay:
        sums *= np.exp(-z) / (rows + 1)
    return sums

