"""Exact polynomial arithmetic in integers and exp-weighted moment integrals.

An exact polynomial is a list of integer coefficients in ascending degree
order with trailing zeros trimmed, over one positive denominator; the zero
polynomial is the empty list.  Integer c / den rounds each coefficient once,
as float(Fraction(c, den)) does.  All polynomial arithmetic is exact.

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

np.cumprod along a series block's term axis is a strided scalar loop: on an
(8, 6, 3600) block of a cold table it took ~650 us, one multiply per term
row ~45 us (2-core x86-64 VM).  So wide term rows are multiplied a row at
a time, with the same bits, and narrow ones, as in the root finders'
one-point calls, keep np.cumprod, which is faster there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Tuple, Union

import numpy as np

_RationalLike = Union[int, str, Fraction]

# Terms below this relative size no longer move a double-precision sum.
SERIES_EPS = 1e-18


def as_rational(x: _RationalLike) -> Fraction:
    """Coerce ints, Fractions, floats and strings like '3/2' to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str, float)):
        return Fraction(x)  # a float's exact binary value
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def linear_product(factors: Sequence[tuple], coeffs: Sequence[int] = (1,),
                   den: int = 1) -> Tuple[list, int]:
    """The polynomial coeffs/den times prod (a x + b)^n over the (a, b, n)
    triples, a and b rational: its integer coefficients, ascending with
    trailing zeros trimmed, and their positive denominator."""
    out = list(coeffs)
    for a, b, n in factors:
        a, b = as_rational(a), as_rational(b)
        d = math.lcm(a.denominator, b.denominator)
        a, b = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
        for _ in range(n):
            out = [a * lo + b * hi for lo, hi in zip([0] + out, out + [0])]
            den *= d
    return _trim(out), den


def taylor_shift(coeffs: Sequence[int], h: int) -> list:
    """The integer coefficients of a(x + h), for integer coefficients a and
    an integer h: repeated synthetic division by (x - h) gives a(x + h)."""
    out = list(coeffs)
    n = len(out) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            out[j] += h * out[j + 1]
    return out


def sign_changes(p: Sequence) -> int:
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
#: term rows of at least this many values are multiplied one row at a time,
#: narrower ones by np.cumprod (the crossover measured on 1..12 orders)
_WIDE_ROW = 256
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

    A term row holds count values per point in the decay series and one,
    the weight, in the growth series.  Rows of at least _WIDE_ROW values
    are multiplied one onto the next, narrower ones by np.cumprod.  The
    decay ratio of order m and term j, z/(m + 1 + j), depends on m + j
    alone, so a wide block divides once per divisor, size + count - 1 rows
    rather than size * count, and writes its terms into one buffer per call.
    """
    count = len(rows)
    if decay:
        term = np.ones((count, len(z)))
        total = term.copy()
        buf = np.empty(size * count * len(z))
    else:
        w = np.ones_like(z)
        total = np.repeat(1.0 / (rows + 1.0), len(z), axis=1)
    start, j = 0, 0
    block = np.arange(1, size + 1)[:, None, None]
    while start < len(z):
        live = slice(start, None)
        zl = z[live]
        js = j + block  # the next terms, j + 1 .. j + size
        if decay and count * len(zl) >= _WIDE_ROW:
            q = zl / np.arange(j + 2, j + size + count + 1)[:, None]
            terms = buf[:size * count * len(zl)].reshape(size, count, len(zl))
            np.multiply(term[:, live], q[:count], out=terms[0])
            for k in range(1, size):
                np.multiply(terms[k - 1], q[k:k + count], out=terms[k])
            term[:, live] = terms[-1]
        elif decay:
            ratios = zl / (rows + 1 + js)
            ratios[0] *= term[:, live]
            terms = np.cumprod(ratios, axis=0, out=ratios)
            term[:, live] = terms[-1]
        else:
            ws = zl / js[:, 0]
            ws[0] *= w[live]
            if len(zl) >= _WIDE_ROW:
                for k in range(1, size):
                    np.multiply(ws[k - 1], ws[k], out=ws[k])
            else:
                np.cumprod(ws, axis=0, out=ws)
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
