"""Problem data for a soliton instance, derivation of its constants, and
admissibility checking.

The geometric setup: a principal circle bundle P over a product of Fano
Kahler-Einstein manifolds (V_i, h_i), i = 1..r, with Euler class
sum_i q_i a_i, where a_i generates H^2(V_i) and c_1(V_i) = p_i a_i.  The
metric ansatz on I x P is

    g = dt^2 + f(t)^2 theta (x) theta + sum_i g_i(t)^2 pi_i^* h_i ,

and everything is rewritten in the arclength-like coordinate s with
ds = f dt, where

    alpha = f^2,  beta_i = g_i^2,  phi = u (the soliton potential),
    v = prod_i beta_i^{n_i}  (n_i = complex dimension of V_i).

The solution family is linear in s:

    beta_i(s) = -q_i (s + sigma_i),      phi(s) = kappa1 * (s + kappa0),

and alpha is determined by a first-order linear ODE whose right-hand side is
eps*s + E_star.  This module derives (E_star, sigma_i, s_star) from the
boundary data, with the first integral c = kappa1 (E_star - eps kappa0), and
checks every algebraic constraint the family must satisfy, each once: the
structural clauses (boundary constants, consistency, beta_i > 0 on the
interval), which already give the class inequalities on (p, q, N0), and
the few clauses that read kappa1.
It also builds a config's exact core (exact_core): its polynomials in
integers, built once and read by the profile, the root finders and the
obstruction integral; their float copies are the only floating point here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from kricci import polyexp
from kricci.polyexp import as_rational

Number = Union[int, float, Fraction]


def _exact_or_float(x: Number):
    """Keep ints/Fractions exact, pass floats through."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return float(x)


class Collapse(str, Enum):
    """What degenerates at an end of the s-interval."""

    CIRCLE = "circle"        # only the circle fibre of P collapses
    FACTOR = "factor"        # a base factor collapses together with the fibre


class SolitonClass(str, Enum):
    STEADY = "Steady"
    EXPANDING = "Expanding"
    SHRINKING_COMPACT = "ShrinkingCompact"
    SHRINKING_NONCOMPACT = "ShrinkingNoncompact"
    EINSTEIN = "Einstein"


@dataclass(frozen=True)
class FanoFactor:
    """One Kahler-Einstein factor: complex dimension n, Einstein constant
    p (c_1 = p*a), and Euler-class coefficient q of the circle bundle.

    n = 0 factors are points kept for collapsing bookkeeping only.  q is
    stored exactly; integer values are the native normalization, rational
    values arise from the flag-bundle reduction.
    """

    n: int
    p: Fraction
    q: Fraction

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError("factor dimension n must be a nonnegative integer")
        object.__setattr__(self, "p", as_rational(self.p))
        object.__setattr__(self, "q", as_rational(self.q))
        if self.p == 0:
            raise ValueError("factor constant p must be nonzero")
        if self.q == 0:
            raise ValueError("factor charge q must be nonzero")


@dataclass(frozen=True)
class CompactEnd:
    """Data of a second collapsed end at s = s_star (compact shrinkers)."""

    collapse: Collapse
    s_star: Optional[Fraction] = None  # filled by derive_config

    def __post_init__(self):
        if self.s_star is not None:
            object.__setattr__(self, "s_star", as_rational(self.s_star))


@dataclass(frozen=True)
class BoundaryStructure:
    """Collapsing structure at the ends of the s-domain.

    `strict_unit_charge` enforces the integral normalization q_1 = -1 (and
    q_r = +1 at a compact end) appropriate for genuinely projective collapsing
    factors.  Configurations reduced from flag-bundle data satisfy the same
    ratio conditions p_i/q_i = -(N0+1) with rational q and are validated with
    the flag turned off.
    """

    collapse_at_zero: Collapse
    compact_end: Optional[CompactEnd] = None
    strict_unit_charge: bool = True


@dataclass(frozen=True)
class SolitonConfig:
    """A fully derived soliton problem instance.

    epsilon: the scale in Ric + Hess(u) + (eps/2) g = 0; < 0 shrinking,
             0 steady, > 0 expanding.
    kappa1:  slope of the potential phi = kappa1*(s + kappa0).
    E_star:  right-hand-side constant of the alpha equation
             alpha' + alpha((log v)' - kappa1) = eps*s + E_star.
    zero_indices, star_indices: the factors whose beta vanishes at s = 0
             and at s_star, read off the sigmas (sigma_i = 0, sigma_i =
             -s_star), so validate can hold them against the boundary
             structure; n_zero and n_star, their total complex dimensions.
    length:  L = n_zero + n_star + 2, the length of the obstruction
             interval (-N0-1, N*+1).
    core:    the exact core (exact_core), built on first use.
    structural: the structural clauses' violations (structural_violations),
             found on first use.  A replace() drops core and structural;
             with_kappa1 keeps both, since kappa1 enters neither.
    """

    epsilon: Number
    factors: tuple
    boundary: BoundaryStructure
    kappa1: Number
    kappa0: Number
    sigmas: tuple
    E_star: Fraction
    zero_indices: tuple = field(init=False, repr=False, compare=False)
    star_indices: tuple = field(init=False, repr=False, compare=False)
    n_zero: int = field(init=False, repr=False, compare=False)
    n_star: int = field(init=False, repr=False, compare=False)
    length: int = field(init=False, repr=False, compare=False)
    core: Optional["ExactCore"] = field(init=False, default=None, repr=False, compare=False)
    structural: Optional[tuple] = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        zero = tuple(i for i, s in enumerate(self.sigmas) if s == 0)
        star = ()
        if self.s_star is not None:
            at_star = -self.s_star
            star = tuple(i for i, s in enumerate(self.sigmas) if s == at_star)
        n_zero = sum(self.factors[i].n for i in zero)
        n_star = sum(self.factors[i].n for i in star)
        for name, value in (("zero_indices", zero), ("star_indices", star), ("n_zero", n_zero),
                            ("n_star", n_star), ("length", n_zero + n_star + 2)):
            object.__setattr__(self, name, value)

    @property
    def r(self) -> int:
        return len(self.factors)

    @property
    def s_star(self) -> Optional[Fraction]:
        if self.boundary.compact_end is None:
            return None
        return self.boundary.compact_end.s_star

    @property
    def is_compact(self) -> bool:
        return self.boundary.compact_end is not None

    @property
    def c(self) -> Number:
        """The value of the first integral, kappa1 (E_star - eps kappa0)."""
        return self.kappa1 * (self.E_star - self.epsilon * self.kappa0)


@dataclass(frozen=True, eq=False)
class ExactCore:
    """The exact polynomials of a config, as integer coefficients (ascending)
    over one positive denominator per family, so that int / den rounds each
    once, as float(Fraction) does.

    ``v`` and ``psi``: v = prod_i beta_i^{n_i} and Psi = (E_star + eps s) v
    in s, over ``den``.  On a compact shrinker (None elsewhere), the
    obstruction weight w = prod_{n_i > 0} (x - p_i/q_i)^{n_i}: ``rows[side]``
    holds the float coefficients of |w|, x|w| and x^2|w| in the distance d
    from an end, x = -N0-1 + d (side 1) or x = N*+1 - d (side -1); ``sign``
    is the sign of w on the interval (|w| = sign w, taken at its midpoint)
    and ``at_zero`` is I(0) = int x w dx over it.
    """

    den: int
    v: tuple
    psi: tuple
    rows: Optional[dict] = None
    sign: int = 0
    at_zero: Optional[Fraction] = None


@dataclass(frozen=True)
class ValidationReport:
    """``structural`` holds the violations of structural_violations(config);
    ``at_kappa1`` those of the clauses that read kappa1: the class sign
    conditions on kappa1 and steady's equality -q(N0+1) = p (prefixed
    "class:"), and a first integral c that overflows."""

    soliton_class: SolitonClass
    structural: tuple
    at_kappa1: tuple

    @property
    def violations(self) -> tuple:
        return self.structural + self.at_kappa1

    @property
    def admissible(self) -> bool:
        return not (self.structural or self.at_kappa1)

    def structural_violations(self) -> tuple:
        """See structural_violations(config)."""
        return self.structural


# ---------------------------------------------------------------------------


def derive_config(
    epsilon: Number,
    factors: Sequence[FanoFactor],
    boundary: BoundaryStructure,
    kappa1: Number,
    kappa0: Number = 0,
    sigmas: Optional[Sequence[Number]] = None,
) -> SolitonConfig:
    """Derive all dependent constants of a soliton instance.

    E_star is fixed by the collapsing structure at s = 0:
    E_star = 2*(N0 + 1) with N0 the total collapsing complex dimension.
    For eps != 0 the consistency condition E_star = eps*sigma_i - 2 p_i/q_i
    determines every sigma_i; for eps = 0 the sigmas are free data and must
    be supplied.
    """
    factors = tuple(factors)
    if not factors:
        raise ValueError("at least one factor is required")
    eps = _exact_or_float(epsilon)
    k1 = _exact_or_float(kappa1)
    k0 = _exact_or_float(kappa0)

    n_zero = factors[0].n if boundary.collapse_at_zero is Collapse.FACTOR else 0
    n_star = 0
    if boundary.compact_end is not None:
        if boundary.compact_end.collapse is Collapse.FACTOR:
            n_star = factors[-1].n
    e_star = Fraction(2) * (n_zero + 1)

    s_star = None
    if boundary.compact_end is not None:
        s_star = Fraction(2) * (n_zero + n_star + 2)
        given = boundary.compact_end.s_star
        if given is not None and given != s_star:
            raise ValueError(
                f"compact end s_star={given} inconsistent with the collapsing "
                f"structure (expected {s_star})"
            )
        boundary = BoundaryStructure(
            collapse_at_zero=boundary.collapse_at_zero,
            compact_end=CompactEnd(boundary.compact_end.collapse, s_star),
            strict_unit_charge=boundary.strict_unit_charge,
        )

    if eps == 0:
        if sigmas is None:
            raise ValueError("steady (epsilon = 0) configurations need explicit sigmas")
        if len(sigmas) != len(factors):
            raise ValueError("sigmas must list one value per factor")
        sig = tuple(_exact_or_float(s) for s in sigmas)
    else:
        if sigmas is not None:
            raise ValueError("sigmas are derived from the consistency condition when epsilon != 0")
        # eps*sigma_i - 2 p_i/q_i = E_star  =>  sigma_i = (E_star + 2 p_i/q_i)/eps
        sig = tuple((e_star + 2 * fac.p / fac.q) / eps for fac in factors)

    return SolitonConfig(
        epsilon=eps,
        factors=factors,
        boundary=boundary,
        kappa1=k1,
        kappa0=k0,
        sigmas=sig,
        E_star=e_star,
    )


def classify(config: SolitonConfig) -> SolitonClass:
    """Soliton class from the sign of epsilon and the boundary structure.

    kappa1 = 0 means the potential is constant: the metric is Kahler-Einstein
    and the instance is flagged accordingly.
    """
    if config.kappa1 == 0:
        return SolitonClass.EINSTEIN
    return _base_class(config)


def _base_class(config: SolitonConfig) -> SolitonClass:
    if config.epsilon == 0:
        return SolitonClass.STEADY
    if config.epsilon > 0:
        return SolitonClass.EXPANDING
    return (
        SolitonClass.SHRINKING_COMPACT
        if config.is_compact
        else SolitonClass.SHRINKING_NONCOMPACT
    )


def structural_violations(config: SolitonConfig) -> tuple:
    """The violations that make the closed-form profile itself meaningless:
    wrong boundary constants, an inconsistent E_star or sigma, nonpositive
    beta.  None of these clauses reads kappa1, so one pass, kept on the
    config, serves it at every kappa1 (with_kappa1).  The class-level sign
    conditions on kappa1 are not among them: profiles with the wrong kappa1
    sign are still well-defined curves, merely geometrically incomplete,
    and the geometry module probes exactly those.

    Given consistency (eps sigma_i - 2 p_i/q_i = E_star = 2(N0+1)), beta_i
    > 0 on the interval is each class's inequality on (p_i, q_i, N0):
    beta_i(0) = -(q_i E_star + 2 p_i)/eps, and on a compact interval
    beta_i(s_star) = 2 p_i - 2(N*+1) q_i.
    """
    if config.structural is None:
        object.__setattr__(config, "structural", _structural_clauses(config))
    return config.structural


def _structural_clauses(config: SolitonConfig) -> tuple:
    v: list = []
    factors = config.factors
    r = len(factors)
    eps = config.epsilon

    zero_set, star_set = set(config.zero_indices), set(config.star_indices)
    n0 = config.n_zero

    # -- boundary structure at s = 0
    if config.boundary.collapse_at_zero is Collapse.FACTOR:
        if 0 not in zero_set:
            v.append("boundary: factor 1 marked collapsing but sigma_1 != 0")
        if config.boundary.strict_unit_charge:
            if factors[0].q != -1:
                v.append("boundary: q_1 must be -1 at a collapsing first factor")
            if factors[0].p != factors[0].n + 1:
                v.append("boundary: collapsing factor 1 must be projective (p_1 = n_1 + 1)")
            for i in sorted(zero_set - {0}):
                v.append(f"boundary: sigma_{i+1} = 0 on a non-collapsing factor (degenerate)")
        else:
            for i in sorted(zero_set):
                if factors[i].q >= 0:
                    v.append(f"boundary: collapsing factor {i+1} needs q < 0")
                elif factors[i].p / factors[i].q != -(n0 + 1):
                    v.append(
                        f"boundary: collapsing factor {i+1} needs p/q = -(N0+1) = {-(n0 + 1)}"
                    )
    else:
        for i in sorted(zero_set):
            v.append(f"boundary: sigma_{i+1} = 0 with circle-only collapse (degenerate)")

    # -- boundary structure at s = s_star
    if config.is_compact:
        s_star = config.s_star
        n1 = config.n_star
        expected = Fraction(2) * (n0 + n1 + 2)
        if s_star != expected:
            v.append(f"boundary: s_star = {s_star} but collapsing dimensions give {expected}")
        if eps != -1:
            v.append(f"boundary: epsilon = {eps} on a compact interval, whose length "
                     f"s_star = 2(N0+N*+2) closes alpha only at epsilon = -1")
        if config.boundary.compact_end.collapse is Collapse.FACTOR:
            if r - 1 not in star_set:
                v.append("boundary: factor r marked collapsing at s_star but sigma_r != -s_star")
            if config.boundary.strict_unit_charge:
                if factors[-1].q != 1:
                    v.append("boundary: q_r must be +1 at a collapsing last factor")
                if factors[-1].p != factors[-1].n + 1:
                    v.append("boundary: collapsing factor r must be projective (p_r = n_r + 1)")
                for i in sorted(star_set - {r - 1}):
                    v.append(f"boundary: sigma_{i+1} = -s_star on a non-collapsing factor")
            else:
                for i in sorted(star_set):
                    if factors[i].q <= 0:
                        v.append(f"boundary: factor {i+1} collapsing at s_star needs q > 0")
                    elif factors[i].p / factors[i].q != config.n_star + 1:
                        v.append(
                            f"boundary: factor {i+1} collapsing at s_star needs "
                            f"p/q = N*+1 = {config.n_star + 1}"
                        )
        else:
            for i in sorted(star_set):
                v.append(f"boundary: sigma_{i+1} = -s_star with circle-only collapse (degenerate)")

    # -- E_star matches the collapsing structure
    if config.E_star != 2 * (n0 + 1):
        v.append(f"derived: E_star = {config.E_star} but collapse at zero gives {2 * (n0 + 1)}")

    # -- consistency condition per factor (only meaningful for eps != 0)
    if eps != 0:
        for i, fac in enumerate(factors):
            lhs = eps * config.sigmas[i] - 2 * fac.p / fac.q
            if not _close(lhs, config.E_star):
                v.append(
                    f"derived: factor {i+1} violates E_star = eps*sigma - 2p/q "
                    f"({lhs} != {config.E_star})"
                )

    # -- beta_i = -q_i (s + sigma_i) > 0 on the open interior: sigma_i >= 0
    # if q_i < 0, sigma_i <= -s_star if q_i > 0 (compact only); compared
    # exactly, where the float product -q_i sigma_i could underflow to 0
    for i, (fac, sig) in enumerate(zip(factors, config.sigmas)):
        if not (sig >= 0 if fac.q < 0 else config.is_compact and sig <= -config.s_star):
            v.append(f"beta: beta_{i+1} is not positive on the open interior")
    return tuple(v)


def validate(config: SolitonConfig) -> ValidationReport:
    """Check every algebraic admissibility condition of the instance.

    Failures are report entries, never exceptions: the structural ones
    (structural_violations, whose beta clause holds each class's
    inequalities on p, q and N0), then the clauses beta positivity cannot
    give: the class sign conditions on kappa1 and steady's equality
    -q(N0+1) = p, whose sigmas are free data, prefixed "class:", and a
    first integral c that overflows.
    """
    v: list = []
    cls = _base_class(config)
    if abs(config.c) == math.inf:
        v.append("derived: first-integral constant c = kappa1*(E_star - eps*kappa0) overflows")
    if cls is SolitonClass.STEADY:
        if config.kappa1 > 0:
            v.append("class: steady requires kappa1 <= 0")
        for i, fac in enumerate(config.factors):  # n = 0 and collapsing factors are exempt
            if fac.n and i not in config.zero_indices and -fac.q * (config.n_zero + 1) != fac.p:
                v.append(f"class: steady equality -q*(N0+1) = p failed for factor {i+1}")
    elif cls is SolitonClass.EXPANDING:
        if config.kappa1 > 0:
            v.append("class: expanding requires kappa1 <= 0")
    elif cls is SolitonClass.SHRINKING_NONCOMPACT:
        if config.kappa1 <= 0:
            v.append("class: noncompact shrinker requires kappa1 > 0")

    return ValidationReport(soliton_class=classify(config),
                            structural=structural_violations(config), at_kappa1=tuple(v))


def _close(a, b, tol: float = 1e-12) -> bool:
    if isinstance(a, Fraction) and isinstance(b, (int, Fraction)):
        return a == b
    return abs(float(a) - float(b)) <= tol * (1.0 + abs(float(a)) + abs(float(b)))


def mirror_config(config: SolitonConfig) -> SolitonConfig:
    """The reflected instance: factor order reversed and every charge negated.

    For a compact shrinker this swaps the two collapsed ends; it is the
    configuration entering the reflection identity of the existence integral.
    """
    factors = tuple(
        FanoFactor(n=f.n, p=f.p, q=-f.q) for f in reversed(config.factors)
    )
    if not config.is_compact:
        raise ValueError("mirror_config is defined for compact instances")
    boundary = BoundaryStructure(
        collapse_at_zero=config.boundary.compact_end.collapse,
        compact_end=CompactEnd(config.boundary.collapse_at_zero),
        strict_unit_charge=config.boundary.strict_unit_charge,
    )
    return derive_config(
        epsilon=config.epsilon,
        factors=factors,
        boundary=boundary,
        kappa1=config.kappa1,
        kappa0=config.kappa0,
    )


def with_kappa1(config: SolitonConfig, kappa1: Number) -> SolitonConfig:
    """``config`` at another kappa1.  It keeps config's exact core and its
    structural verdict, which kappa1 does not enter."""
    out = replace(config, kappa1=_exact_or_float(kappa1))
    for name in ("core", "structural"):
        object.__setattr__(out, name, getattr(config, name))
    return out


def v_psi(config: SolitonConfig, e: Fraction) -> Tuple[tuple, tuple, int]:
    """v = prod_i beta_i^{n_i} and Psi = (e + eps s) v, exactly: their
    integer coefficients in s and their common positive denominator."""
    v, den = polyexp.linear_product([(-fac.q, -fac.q * as_rational(sig), fac.n)
                                     for fac, sig in zip(config.factors, config.sigmas) if fac.n])
    psi, psi_den = polyexp.linear_product([(config.epsilon, e, 1)], v, den)
    return tuple(c * (psi_den // den) for c in v), tuple(psi), psi_den


def exact_core(config: SolitonConfig) -> ExactCore:
    """The exact core of ``config`` (ExactCore), built on the first call and
    kept on the config."""
    if config.core is None:
        object.__setattr__(config, "core", _build_core(config))
    return config.core


def _build_core(config: SolitonConfig) -> ExactCore:
    v, psi, den = v_psi(config, config.E_star)
    if not config.is_compact or config.epsilon >= 0:
        return ExactCore(den, v, psi)
    w, w_den = polyexp.linear_product([(1, -fac.p / fac.q, fac.n)
                                       for fac in config.factors if fac.n])
    mid = config.n_star - config.n_zero  # 2^deg(w) w(mid/2): w's sign on the interval
    sign = 1 if sum(c * mid ** k * 2 ** (len(w) - 1 - k) for k, c in enumerate(w)) > 0 else -1
    rows, shifted = {}, {}
    for side, end in ((1, -(config.n_zero + 1)), (-1, config.n_star + 1)):
        xw = shifted[side] = [polyexp.taylor_shift(w, end)]  # x^j w in x - end, j = 0, 1, 2
        for _ in range(2):
            xw.append(polyexp.linear_product([(1, end, 1)], xw[-1])[0])
        rows[side] = np.zeros((3, len(w) + 2))
        for j, p in enumerate(xw):
            rows[side][j, :len(p)] = [c / w_den for c in p]
        rows[side] *= sign * side ** np.arange(len(w) + 2)  # |w| = sign w, and d = side (x - end)
    xw = shifted[1][1]  # I(0) = int_0^L x w dd, over one common denominator
    m = math.lcm(*range(1, len(xw) + 1))
    at_zero = Fraction(sum(c * (m // (k + 1)) * config.length ** (k + 1) for k, c in enumerate(xw)),
                       m * w_den)
    return ExactCore(den, v, psi, rows, sign, at_zero)
