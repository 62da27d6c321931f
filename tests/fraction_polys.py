"""Exact polynomial arithmetic in Fractions: the reference the package's
integer polynomials are tested against.

A polynomial is a list of `fractions.Fraction` coefficients in ascending
degree order with trailing zeros trimmed; the zero polynomial is the empty
list.  These are the helpers the package computed its exact data with
before it moved to integer coefficients over one denominator; they stay
here as the oracle of that data, built the slow and obvious way.
"""

import math
from fractions import Fraction

import numpy as np

from kricci.polyexp import as_rational


def poly_from_coeffs(coeffs):
    """Build a polynomial from ascending coefficients, normalizing to Fraction."""
    return _trim([as_rational(c) for c in coeffs])


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_degree(p):
    """Degree of p; the zero polynomial has degree -1 by convention."""
    return len(p) - 1


def poly_neg(a):
    return [-c for c in a]


def poly_scale(a, r):
    r = as_rational(r)
    return [c * r for c in a] if r else []


def poly_mul(a, b):
    """Exact product; degree adds unless either factor is zero."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def poly_pow(a, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_derivative(a):
    return _trim([c * i for i, c in enumerate(a)][1:])


def poly_antiderivative(a):
    """Antiderivative with zero constant term (exact)."""
    return _trim([Fraction(0)] + [c / (i + 1) for i, c in enumerate(a)])


def poly_eval(a, x):
    """Horner evaluation, exact at an int or Fraction x."""
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_shift(a, h):
    """The coefficients of a(x + h), exactly, by the binomial expansion."""
    h = as_rational(h)
    out = [Fraction(0)] * len(a)
    for k, c in enumerate(a):
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * h ** (k - j)
    return _trim(out)


def build_shifted_product(shifts):
    """prod_i (x + sigma_i)^{n_i} over the (sigma, n) pairs; the empty
    product is 1."""
    out = [Fraction(1)]
    for sigma, n in shifts:
        out = poly_mul(out, poly_pow([as_rational(sigma), Fraction(1)], n))
    return out


def fractions(coeffs, den):
    """Integer coefficients over ``den`` as a Fraction polynomial."""
    return [Fraction(c, den) for c in coeffs]


def v_psi_polys(config, e_star):
    """v = prod_i beta_i^{n_i} and Psi = (e_star + eps*x)*v, exactly."""
    shifts, const = [], Fraction(1)
    for fac, sig in zip(config.factors, config.sigmas):
        if fac.n:
            shifts.append((as_rational(sig), fac.n))
            const *= (-fac.q) ** fac.n
    v_poly = poly_scale(build_shifted_product(shifts), const)
    return v_poly, poly_mul([as_rational(e_star), as_rational(config.epsilon)], v_poly)


def weight_poly(config):
    """w = prod_{n_i > 0} (x - p_i/q_i)^{n_i}, exactly."""
    return build_shifted_product([(-fac.p / fac.q, fac.n) for fac in config.factors if fac.n])


def obstruction_data(config):
    """The float end rows of |w|, x|w| and x^2|w| in the distance from each
    end, the sign of w on (-N0-1, N*+1) and I(0) = int x w dx over it, from
    weight_poly and poly_shift."""
    w = weight_poly(config)
    n0, n_star = config.n_zero, config.n_star
    sign = 1 if poly_eval(w, Fraction(n_star - n0, 2)) > 0 else -1
    rows = {}
    for side, end in ((1, -(n0 + 1)), (-1, n_star + 1)):
        rows[side] = np.zeros((3, len(w) + 2))
        for j in range(3):
            shifted = poly_shift([Fraction(0)] * j + w, end)
            rows[side][j, :len(shifted)] = [float(c) for c in shifted]
        rows[side] *= sign * side ** np.arange(len(w) + 2)
    anti = poly_antiderivative([Fraction(0)] + w)
    return rows, sign, poly_eval(anti, n_star + 1) - poly_eval(anti, -n0 - 1)
