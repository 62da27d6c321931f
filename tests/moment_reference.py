"""The moment series and the moment-route sum the slow and obvious way: the
reference the package's vectorised arithmetic is tested against, bit for
bit.

`moment_series` divides every term ratio z/(m + 1 + j) on its own and takes
each block's products with np.cumprod along the term axis; `moment_sum`
evaluates Psi^(m)/m! by an out-of-place Horner pass.  The package computes
the same floating-point operations in the same order, by other numpy
calls, so the two must agree in every bit, +inf included.
"""

import math

import numpy as np

from kricci import polyexp


def moment_series(decay, z, x, rows, size):
    """`polyexp._moment_series`, one division per term ratio and one
    np.cumprod per block."""
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
        js = j + block
        if decay:
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
        done = (j > zl) & (terms[-1] < polyexp.SERIES_EPS * total[:, live]).all(axis=0)
        if not decay and w[-1] == math.inf:
            done |= w[live] == math.inf
        start += len(done) if done.all() else int(done.argmin())
    sums = total * x ** (rows + 1)
    if decay:
        sums *= np.exp(-z) / (rows + 1)
    return sums


def moment_sum(k, table, x):
    """`profiles._moment_sum`: J on the moment route and the size of its
    terms, by an out-of-place Horner pass and products summed as formed."""
    moments = polyexp.moments(-k, x, table.shape[0])
    both = np.vstack((table, np.abs(table)))
    acc = np.zeros((len(both), len(x)))
    for col in range(table.shape[1] - 1, -1, -1):
        acc = acc * x + both[:, col:col + 1]
    coeffs, scale = acc[:len(table)], acc[len(table):]
    coeffs[1::2] *= -1.0
    return np.sum(coeffs * moments, axis=0), np.sum(scale * moments, axis=0)
