"""Independent high-precision oracle for kricci outputs.

Nothing here imports kricci.  The oracle reads the same JSON config the
program reads, derives the soliton data itself and evaluates the closed
forms in exact (sympy) or high-precision (mpmath) arithmetic:

* v(s) = prod_i (-q_i (s + sigma_i))^{n_i} and Psi(s) = (E* + eps s) v(s),
  with E* = 2(N0 + 1), sigma_i = (E* + 2 p_i/q_i)/eps (eps != 0) and
  s* = 2(N0 + N* + 2) on compact ends;
* alpha(s) = v(s)^{-1} int_0^s Psi(x) e^{kappa1 (s - x)} dx by quadrature;
* the obstruction integral I(kappa) in its x-form and its exact value at 0;
* chi(y) = sum_{k >= N0} k! a_k y^{k - N0} for Psi = sum a_k x^k, exactly;
* t(s) = int_0^s dx / sqrt(alpha) and F(s) = int dx / (kappa1 alpha), the
  quantities behind the flow relation F(s(Xi)) - F(s(t)) = log(1+eps tau)/eps.

The nested integrals t and F use alpha from the exact antiderivative of
Psi e^{-kappa x} evaluated at working precision, which the tests check
against the quadrature form.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import sympy as sp

DPS = 30
#: digits the nested quadratures for t and F aim at: far below every check
#: tolerance, and low enough for Gauss-Legendre to converge at a modest degree
NESTED_DPS = 20
_X = sp.Symbol("x")


def rational(value) -> sp.Rational:
    """Exact rational of a JSON number, a "p/q" string or an mpf (binary
    floats convert exactly)."""
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(value, mp.mpf):
        sign, man, exp, _ = value._mpf_
        return (-1) ** sign * sp.Integer(man) * sp.Integer(2) ** exp
    value = Fraction(value)
    return sp.Rational(value.numerator, value.denominator)


def _mpf(r: sp.Rational):
    return mp.mpf(int(r.p)) / int(r.q)


class Soliton:
    """The soliton a config document describes, with kappa1 supplied
    separately when the document says "solve"."""

    def __init__(self, doc: dict, kappa1=None):
        self.doc = doc
        self.eps = rational(doc["epsilon"])
        self.factors = [(int(f["n"]), rational(f["p"]), rational(f["q"]))
                        for f in doc["factors"]]
        bnd = doc["boundary"]
        end = bnd.get("compact_end")
        self.compact = end is not None
        self.n0 = self.factors[0][0] if bnd["collapse_at_zero"] == "factor" else 0
        self.n_star = self.factors[-1][0] if self.compact and end["collapse"] == "factor" else 0
        self.e_star = sp.Integer(2 * (self.n0 + 1))
        self.s_star = sp.Integer(2 * (self.n0 + self.n_star + 2)) if self.compact else None
        if self.eps == 0:
            self.sigmas = [rational(s) for s in doc["sigmas"]]
        else:
            self.sigmas = [(self.e_star + 2 * p / q) / self.eps for _, p, q in self.factors]
        v = sp.Integer(1)
        for (n, _, q), sig in zip(self.factors, self.sigmas):
            if n:
                v *= (-q * (_X + sig)) ** n
        self.v = sp.Poly(sp.expand(v), _X, domain="QQ")
        self.psi = sp.Poly(sp.expand((self.e_star + self.eps * _X) * v), _X, domain="QQ")
        raw = doc["kappa1"] if kappa1 is None else kappa1
        self.kappa1 = rational(raw)
        self.kappa0 = rational(doc.get("kappa0", 0))
        # a noncompact shrinker solved for kappa1 is calibrated: A(0) below
        # vanishes exactly (it is -chi(1/kappa1)/kappa1^(N0+1))
        self.calibrated = not self.compact and doc["kappa1"] == "solve"
        self._closed = None

    # -- polynomial helpers -------------------------------------------------

    @staticmethod
    def _coeffs(poly: sp.Poly):
        """Ascending mpf coefficients."""
        return [_mpf(c) for c in reversed(poly.all_coeffs())]

    @staticmethod
    def _horner(coeffs, x):
        acc = mp.mpf(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def beta(self, s):
        return [_mpf(-q) * (mp.mpf(s) + _mpf(sig))
                for (_, _, q), sig in zip(self.factors, self.sigmas)]

    def phi(self, s):
        return _mpf(self.kappa1) * (mp.mpf(s) + _mpf(self.kappa0))

    # -- alpha ---------------------------------------------------------------

    def alpha(self, s) -> mp.mpf:
        """alpha(s) from its defining integral by Gauss-Legendre quadrature,
        on panels four decay lengths 1/|kappa1| wide.  On a calibrated
        noncompact shrinker int_0^oo Psi e^{-kappa1 x} dx = 0, so the integral
        over [0, s] equals minus the one over [s, oo), which has no
        e^{kappa1 s} cancellation."""
        with mp.workdps(DPS):
            s = mp.mpf(s)
            k = _mpf(self.kappa1)
            psi = self._coeffs(self.psi)
            v = self._coeffs(self.v)
            width = 4 / abs(k) if k != 0 else s
            if self.calibrated:
                def integrand(u):
                    return -self._horner(psi, s + u) * mp.exp(-k * u)
                lo, hi = mp.mpf(0), 20 * width
            else:
                def integrand(x):
                    return self._horner(psi, x) * mp.exp(k * (s - x))
                lo, hi = (max(s - 20 * width, mp.mpf(0)) if k < 0 else mp.mpf(0)), s
            panels = int(min(max(mp.ceil((hi - lo) / width), 1), 400))
            j = mp.quad(integrand, mp.linspace(lo, hi, panels + 1), method="gauss-legendre")
            return j / self._horner(v, s)

    def _closed_form(self):
        """Ascending coefficients of the polynomial A with
        d/dx [A(x) e^{-kappa1 x}] = Psi(x) e^{-kappa1 x} (or the plain
        antiderivative when kappa1 = 0)."""
        if self._closed is None:
            k = self.kappa1
            if k == 0:
                anti = self.psi.integrate()
            else:
                total = sp.Poly(0, _X, domain="QQ")
                der = self.psi
                power = k
                while not der.is_zero:
                    total -= der * sp.Rational(1) / power
                    der = der.diff(_X)
                    power *= k
                anti = total
            with mp.workdps(2 * DPS):
                self._closed = (self._coeffs(anti), self._coeffs(self.v))
        return self._closed

    def alpha_closed(self, s) -> mp.mpf:
        """alpha(s) through the exact antiderivative.  A(s) - e^{kappa1 s} A(0)
        cancels to O(s^{N0+1}) near s = 0, so it is evaluated with twice the
        working digits.  On a calibrated noncompact shrinker A(0) = 0, and the
        term is dropped rather than left to amplify the root's last digits."""
        anti, v = self._closed_form()
        with mp.workdps(2 * DPS):
            s = mp.mpf(s)
            k = _mpf(self.kappa1)
            if k == 0:
                j = self._horner(anti, s) - self._horner(anti, 0)
            elif self.calibrated:
                j = self._horner(anti, s)
            else:
                j = self._horner(anti, s) - mp.exp(k * s) * self._horner(anti, 0)
            value = j / self._horner(v, s)
        return +value

    def inward_slope(self, end: str) -> mp.mpf:
        """Richardson estimate of d alpha / d(distance) at a collapsed end."""
        with mp.workdps(DPS):
            if end == "zero":
                def a(h):
                    return self.alpha(h)
            else:
                def a(h):
                    return self.alpha(_mpf(self.s_star) - h)
            h = mp.mpf("1e-5")
            return 2 * a(h) / h - a(2 * h) / (2 * h)

    # -- the arclength and flow integrals ------------------------------------

    def t_between(self, s0, s1) -> mp.mpf:
        """int_{s0}^{s1} dx / sqrt(alpha); the x = w^2 substitution absorbs
        the 1/sqrt(2x) singularity when s0 = 0.  Gauss-Legendre keeps its
        nodes far enough from the end for the closed form's cancellation."""
        with mp.workdps(NESTED_DPS):
            s0, s1 = mp.mpf(s0), mp.mpf(s1)
            if s0 == 0:
                return mp.quad(lambda w: 2 * w / mp.sqrt(self.alpha_closed(w * w)),
                               [0, mp.sqrt(s1)], method="gauss-legendre")
            return mp.quad(lambda x: 1 / mp.sqrt(self.alpha_closed(x)), [s0, s1],
                           method="gauss-legendre")

    def t(self, s) -> mp.mpf:
        return self.t_between(0, s)

    def s_of_t(self, t, guess) -> mp.mpf:
        """Invert t(s): bracket the root by doubling from a starting guess,
        then Newton steps (dt/ds = alpha^{-1/2} exactly) kept inside the
        bracket, with bisection when a step leaves it."""
        with mp.workdps(NESTED_DPS):
            t = mp.mpf(t)
            tol = mp.mpf(10) ** (4 - NESTED_DPS) * max(1, abs(t))
            lo, t_lo = mp.mpf(0), mp.mpf(0)
            hi = mp.mpf(guess)
            t_hi = self.t(hi)
            while t_hi < t:
                lo, t_lo, hi = hi, t_hi, 2 * hi
                t_hi = t_lo + self.t_between(lo, hi)
            s, ts = hi, t_hi
            for _ in range(100):
                if abs(t - ts) <= tol:
                    return s
                s_new = s + (t - ts) * mp.sqrt(self.alpha_closed(s))
                if not lo < s_new < hi:
                    s_new = (lo + hi) / 2
                ts += self.t_between(s, s_new) if s_new > s else -self.t_between(s_new, s)
                s = s_new
                if ts < t:
                    lo, t_lo = s, ts
                else:
                    hi, t_hi = s, ts
            raise ArithmeticError(f"t = {t}: inversion did not converge")

    def flow_gap(self, s0, s1) -> mp.mpf:
        """F(s1) - F(s0) = int_{s0}^{s1} dx / (kappa1 alpha)."""
        with mp.workdps(NESTED_DPS):
            k = _mpf(self.kappa1)
            return mp.quad(lambda x: 1 / (k * self.alpha_closed(x)), [mp.mpf(s0), mp.mpf(s1)],
                           method="gauss-legendre")

    def flow_shift(self, tau) -> mp.mpf:
        """log(1 + eps tau)/eps, or tau on steady solitons."""
        with mp.workdps(DPS):
            eps = _mpf(self.eps)
            tau = mp.mpf(tau)
            return tau if eps == 0 else mp.log(1 + eps * tau) / eps

    # -- existence conditions ------------------------------------------------

    def _x_form(self) -> sp.Poly:
        """x * prod_{n_i > 0} (x - p_i/q_i)^{n_i}, shifted to y = x + N0 + 1."""
        w = _X
        for n, p, q in self.factors:
            if n:
                w *= (_X - p / q) ** n
        return sp.Poly(sp.expand(w.subs(_X, _X - (self.n0 + 1))), _X, domain="QQ")

    def obstruction_exact_zero(self) -> sp.Rational:
        """I(0) = int_{-N0-1}^{N*+1} prod (x - p_i/q_i)^{n_i} x dx, exactly."""
        anti = self._x_form().integrate()
        return anti.eval(self.n0 + self.n_star + 2) - anti.eval(0)

    def obstruction(self, kappa, majorant: bool = False) -> mp.mpf:
        """I(kappa) in the x-form, by Gauss-Legendre quadrature (the
        integrand is a polynomial times an exponential on a short interval).
        With `majorant`, every coefficient of the shifted polynomial is
        replaced by its magnitude: the scale of the terms a double-precision
        moment sum for I adds up."""
        with mp.workdps(DPS):
            k2 = 2 * mp.mpf(kappa)
            coeffs = self._coeffs(self._x_form())
            if majorant:
                coeffs = [abs(c) for c in coeffs]
            upper = self.n0 + self.n_star + 2
            return mp.quad(lambda y: self._horner(coeffs, y) * mp.exp(-k2 * y),
                           mp.linspace(0, upper, 3), method="gauss-legendre")

    def obstruction_root(self, guess) -> mp.mpf:
        """High-precision root of I near the program's kappa1."""
        with mp.workdps(DPS):
            return mp.findroot(self.obstruction, mp.mpf(guess), tol=mp.mpf(10) ** (4 - DPS))

    def chi(self) -> sp.Poly:
        """chi(y) = sum_{k >= N0} k! a_k y^{k - N0}, exactly."""
        a = list(reversed(self.psi.all_coeffs()))
        low = next(k for k, c in enumerate(a) if c != 0)
        terms = [math.factorial(k) * a[k] for k in range(low, len(a))]
        return sp.Poly(list(reversed(terms)), _X, domain="QQ")

    def chi_relative(self, y) -> sp.Rational:
        """|chi(y)| over the sum of the magnitudes of its terms, exactly."""
        y = rational(y)
        coeffs = list(reversed(self.chi().all_coeffs()))
        terms = [c * y ** k for k, c in enumerate(coeffs)]
        scale = sum(abs(t) for t in terms)
        return abs(sum(terms)) / scale

    def noncompact_root(self) -> mp.mpf:
        """kappa1 = 1/y* for the positive root y* of chi, at working precision."""
        with mp.workdps(DPS):
            coeffs = [_mpf(c) for c in self.chi().all_coeffs()]
            roots = mp.polyroots(coeffs, maxsteps=200, extraprec=200)
            pos = [r.real for r in roots if abs(r.imag) < mp.mpf(10) ** (-20) and r.real > 0]
            if len(pos) != 1:
                raise ArithmeticError(f"chi has {len(pos)} positive roots")
            return 1 / pos[0]
