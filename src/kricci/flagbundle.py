"""Reduction of homogeneous circle-bundle data to the product-base model.

A circle bundle over a generalized flag variety G/Q, with the isotropy
representation split into irreducible summands of real dimension d_i and
metric coefficients g_i^2 = b_i*s + a_i, carries the same scalar ODE system
as the circle bundle over a product of Fano factors: n_i = d_i/2, p_i = 1,
q_i = -b_i, sigma_i = a_i/b_i.  All representation-theoretic facts behind
that reduction (multiplicity-free isotropy, the curvature computation that
fixes b_i) are the caller's responsibility; this module trusts the scalars
and checks only their mutual consistency.

At a collapsed end a group of summands closes up into a round sphere whose
dimension k satisfies k - 1 = sum of the d_i that collapse there; smoothness
then pins a_i = 0 and b_i = 2/(k+1) (at s = 0; the mirrored signs at s_*).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Optional, Tuple

from kricci.model import (
    BoundaryStructure,
    Collapse,
    CompactEnd,
    FanoFactor,
    Number,
    SolitonConfig,
    _close,
    _exact_or_float,
)
from kricci.polyexp import as_rational


@dataclass(frozen=True)
class FlagBundleData:
    """Scalar data of a homogeneous instance.

    d: even real dimensions of the isotropy summands p_1..p_r;
    b, a: the coefficients of g_i^2 = b_i*s + a_i (b_i != 0);
    collapse_zero: 1-based indices of the summands that collapse at s = 0
        (must be the prefix {1..m}; empty means only the circle collapses);
    collapse_star: same at s = s_star (must be a suffix), or None when the
        instance is noncompact;
    closedness_asserted: caller's assertion that sum_i a_i * Theta_i is a
        closed form, needed only when epsilon = 0; it is recorded in reports
        and never inferred.
    """

    d: Tuple[int, ...]
    b: Tuple[Fraction, ...]
    a: Tuple[Fraction, ...]
    collapse_zero: FrozenSet[int] = frozenset()
    collapse_star: Optional[FrozenSet[int]] = None
    closedness_asserted: bool = False

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(int(x) for x in self.d))
        object.__setattr__(self, "b", tuple(as_rational(x) for x in self.b))
        object.__setattr__(self, "a", tuple(as_rational(x) for x in self.a))
        r = len(self.d)
        if len(self.b) != r or len(self.a) != r:
            raise ValueError("d, b, a must have one entry per summand")
        for i, di in enumerate(self.d):
            if di <= 0 or di % 2 != 0:
                raise ValueError(f"summand dimension d_{i+1} = {di} must be even and positive")
        for i, bi in enumerate(self.b):
            if bi == 0:
                raise ValueError(f"coefficient b_{i+1} must be nonzero")
        zero = frozenset(int(i) for i in self.collapse_zero)
        object.__setattr__(self, "collapse_zero", zero)
        if zero != frozenset(range(1, len(zero) + 1)):
            raise ValueError("collapse_zero must be the prefix {1..m} of the summands")
        if self.collapse_star is not None:
            star = frozenset(int(i) for i in self.collapse_star)
            object.__setattr__(self, "collapse_star", star)
            if star != frozenset(range(r - len(star) + 1, r + 1)):
                raise ValueError("collapse_star must be a suffix of the summands")
            if star & zero:
                raise ValueError("a summand cannot collapse at both ends")

    @property
    def r(self) -> int:
        return len(self.d)

    @property
    def sphere_dim_zero(self) -> int:
        """k with k - 1 = total collapsing dimension at s = 0."""
        return 1 + sum(self.d[i - 1] for i in self.collapse_zero)

    @property
    def sphere_dim_star(self) -> Optional[int]:
        if self.collapse_star is None:
            return None
        return 1 + sum(self.d[i - 1] for i in self.collapse_star)


@dataclass(frozen=True)
class SpecialOrbitReport:
    """Pass/fail record of the smooth-collapse conditions."""

    k: int
    k_tilde: Optional[int]
    E_star: Optional[Fraction]
    s_star: Optional[Fraction]
    checks: Dict[str, bool] = field(default_factory=dict)
    closedness_asserted: bool = False

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _common_e_star(data: FlagBundleData, epsilon: Number):
    """E_star = (eps*a_i + 2)/b_i, required identical across summands."""
    eps = _exact_or_float(epsilon)
    values = [(eps * ai + 2) / bi for ai, bi in zip(data.a, data.b)]
    for i, val in enumerate(values[1:], start=2):
        if not _close(val, values[0]):
            raise ValueError(
                f"summand {i} gives E_star = {val}, summand 1 gives {values[0]}; "
                "the coefficients (a_i, b_i) are inconsistent"
            )
    return values[0]


def to_section3_config(
    data: FlagBundleData,
    epsilon: Number,
    kappa1: Number,
    kappa0: Number = 0,
) -> SolitonConfig:
    """Translate flag-bundle scalars into a product-base soliton instance.

    The collapsing structure maps onto sigma_i = 0 (zero end) and
    sigma_i = -s_star (star end); the charges are rational, so the strict
    unit-charge normalization is turned off and admissibility reduces to
    the ratio conditions p_i/q_i = -(N0+1) etc., checked by validate().
    """
    eps = _exact_or_float(epsilon)
    k1 = _exact_or_float(kappa1)
    k0 = _exact_or_float(kappa0)
    e_star = _common_e_star(data, eps)

    factors = tuple(
        FanoFactor(n=di // 2, p=Fraction(1), q=-bi) for di, bi in zip(data.d, data.b)
    )
    sigmas = tuple(ai / bi for ai, bi in zip(data.a, data.b))

    compact_end = None
    if data.collapse_star is not None:
        n_zero = sum(f.n for i, f in enumerate(factors, start=1) if i in data.collapse_zero)
        n_star = sum(f.n for i, f in enumerate(factors, start=1) if i in data.collapse_star)
        s_star = Fraction(2) * (n_zero + n_star + 2)
        collapse = Collapse.FACTOR if data.collapse_star else Collapse.CIRCLE
        compact_end = CompactEnd(collapse=collapse, s_star=s_star)
    boundary = BoundaryStructure(
        collapse_at_zero=Collapse.FACTOR if data.collapse_zero else Collapse.CIRCLE,
        compact_end=compact_end,
        strict_unit_charge=False,
    )
    return SolitonConfig(
        epsilon=eps,
        factors=factors,
        boundary=boundary,
        kappa1=k1,
        kappa0=k0,
        sigmas=sigmas,
        E_star=e_star,
        c=k1 * (e_star - eps * k0),
    )


def special_orbit_conditions(data: FlagBundleData, epsilon: Number = 0) -> SpecialOrbitReport:
    """Check the smooth-collapse conditions at each special orbit.

    Zero end (sphere dimension k): a_i = 0 and b_i = 2/(k+1) for every
    collapsing summand, and E_star = k + 1.  Star end (dimension k_tilde):
    a_i = -b_i*s_star and b_i = -2/(k_tilde+1), with s_star = k + k_tilde + 2.
    Everything is reported, nothing raises.
    """
    eps = _exact_or_float(epsilon)
    k = data.sphere_dim_zero
    kt = data.sphere_dim_star
    checks: Dict[str, bool] = {}

    try:
        e_star = _common_e_star(data, eps)
        checks["E_star_consistent"] = True
    except ValueError:
        e_star = None
        checks["E_star_consistent"] = False
    if e_star is not None:
        checks["E_star_equals_k_plus_1"] = _close(e_star, k + 1)

    for i in sorted(data.collapse_zero):
        ai, bi = data.a[i - 1], data.b[i - 1]
        checks[f"a_{i}_zero"] = ai == 0
        checks[f"b_{i}_matches_sphere"] = _close(bi, Fraction(2, k + 1))

    s_star = None
    if kt is not None:
        s_star = Fraction(k + kt + 2)
        for i in sorted(data.collapse_star):
            ai, bi = data.a[i - 1], data.b[i - 1]
            checks[f"b_{i}_matches_sphere"] = _close(bi, Fraction(-2, kt + 1))
            checks[f"a_{i}_closes_at_s_star"] = _close(ai, -bi * s_star)

    return SpecialOrbitReport(
        k=k,
        k_tilde=kt,
        E_star=e_star,
        s_star=s_star,
        checks=checks,
        closedness_asserted=data.closedness_asserted,
    )
