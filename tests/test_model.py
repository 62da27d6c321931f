"""Constant derivation, admissibility checking, and classification."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import validate_reference
from kricci.flagbundle import FlagBundleData, to_section3_config
from kricci.model import (
    BoundaryStructure,
    Collapse,
    CompactEnd,
    FanoFactor,
    SolitonClass,
    SolitonConfig,
    classify,
    derive_config,
    mirror_config,
    structural_violations,
    validate,
    with_kappa1,
)

COMPACT = BoundaryStructure(Collapse.FACTOR, CompactEnd(Collapse.FACTOR))
OPEN = BoundaryStructure(Collapse.FACTOR)


def mixed_charges(kappa1=0.3):
    return derive_config(
        epsilon=-1,
        factors=[
            FanoFactor(0, 1, -1),
            FanoFactor(2, 3, 1),
            FanoFactor(2, 3, -2),
            FanoFactor(0, 1, 1),
        ],
        boundary=COMPACT,
        kappa1=kappa1,
    )


def test_derived_constants_of_the_mixed_charge_instance():
    cfg = mixed_charges()
    assert cfg.E_star == Fraction(2)
    assert cfg.sigmas == (Fraction(0), Fraction(-8), Fraction(1), Fraction(-4))
    assert cfg.s_star == Fraction(4)
    assert cfg.c == pytest.approx(0.3 * 2.0)
    assert cfg.n_zero == 0 and cfg.n_star == 0
    assert validate(cfg).violations == ()


def test_sigma_consistency_for_every_factor():
    cfg = mixed_charges()
    for fac, sig in zip(cfg.factors, cfg.sigmas):
        assert cfg.epsilon * sig - 2 * fac.p / fac.q == cfg.E_star


def test_factor_collapse_pins_e_star():
    cfg = derive_config(
        epsilon=-1,
        factors=[FanoFactor(1, 2, -1), FanoFactor(2, 3, -1), FanoFactor(0, 1, 1)],
        boundary=COMPACT,
        kappa1=0.1,
    )
    assert cfg.E_star == Fraction(4)          # one complex dimension collapses
    assert cfg.s_star == Fraction(6)
    assert cfg.sigmas == (Fraction(0), Fraction(2), Fraction(-6))
    assert validate(cfg).violations == ()


def test_wrong_first_charge_is_flagged():
    cfg = derive_config(
        epsilon=-1,
        factors=[
            FanoFactor(0, 1, 1),
            FanoFactor(2, 3, 1),
            FanoFactor(2, 3, -2),
            FanoFactor(0, 1, 1),
        ],
        boundary=COMPACT,
        kappa1=0.3,
    )
    report = validate(cfg)
    assert "boundary: q_1 must be -1 at a collapsing first factor" in report.violations
    assert not report.admissible


def test_class_sign_violations_are_not_structural():
    cfg = derive_config(
        epsilon=-1,
        factors=[FanoFactor(0, 1, -1), FanoFactor(1, 2, -1)],
        boundary=OPEN,
        kappa1=-0.5,
    )
    report = validate(cfg)
    assert "class: noncompact shrinker requires kappa1 > 0" in report.violations
    assert report.structural_violations() == ()
    assert not report.admissible


def test_tampered_e_star_is_caught():
    cfg = mixed_charges()
    bad = SolitonConfig(
        epsilon=cfg.epsilon,
        factors=cfg.factors,
        boundary=cfg.boundary,
        kappa1=cfg.kappa1,
        kappa0=cfg.kappa0,
        sigmas=cfg.sigmas,
        E_star=Fraction(6),
    )
    report = validate(bad)
    assert any(v.startswith("derived: E_star = 6") for v in report.violations)


def test_first_integral_clause_holds_at_a_subnormal_kappa1():
    """At kappa1 = -5e-324, c = kappa1 (E_star - eps kappa0) rounds to a
    subnormal, so c/kappa1 misses E_star - eps kappa0 by 0.3; nothing
    divides, and the config is admissible."""
    factors = [FanoFactor(0, 1, -1), FanoFactor(2, 3, -4)]
    cfg = derive_config(epsilon=1, factors=factors, boundary=OPEN, kappa1=-5e-324, kappa0=0.3)
    assert validate(cfg).violations == ()


def test_an_overflowing_first_integral_is_inadmissible():
    """c = kappa1 (E_star - eps kappa0) is a float +-inf past the float
    range; validate rejects the config, as the reference does."""
    factors = [FanoFactor(0, 1, -1), FanoFactor(2, 3, -4)]
    cfg = derive_config(epsilon=1, factors=factors, boundary=OPEN, kappa1=-1e308)
    assert cfg.c == -math.inf
    assert validate(cfg).at_kappa1 == (
        "derived: first-integral constant c = kappa1*(E_star - eps*kappa0) overflows",)
    assert validate_reference.violations(cfg) != ()


@pytest.mark.parametrize("n", [0, 2])
def test_beta_positivity_compares_sigma_exactly(n):
    """beta_1(0) = -q_1 sigma_1 = -2.5e-324 is negative but rounds to -0.0
    as a float product; the beta clause compares sigma_1 with 0 instead.
    For n > 0 the full clause list rejected the config through steady's
    sigma_1 > 0 clause; for n = 0 it admitted a negative beta."""
    cfg = derive_config(epsilon=0, factors=[FanoFactor(n, Fraction(1, 2), Fraction(-1, 2))],
                        boundary=BoundaryStructure(Collapse.CIRCLE), kappa1=-1, sigmas=(-5e-324,))
    assert validate(cfg).violations == ("beta: beta_1 is not positive on the open interior",)
    assert (validate_reference.violations(cfg) == ()) == (n == 0)


def test_classification():
    steady = derive_config(
        epsilon=0, factors=[FanoFactor(0, 1, -1), FanoFactor(2, 3, -3)],
        boundary=OPEN, kappa1=-1, sigmas=(0, 2),
    )
    assert classify(steady) is SolitonClass.STEADY
    expanding = derive_config(
        epsilon=1, factors=[FanoFactor(0, 1, -1), FanoFactor(2, 3, -4)],
        boundary=OPEN, kappa1=-1,
    )
    assert classify(expanding) is SolitonClass.EXPANDING
    assert classify(mixed_charges()) is SolitonClass.SHRINKING_COMPACT
    noncompact = derive_config(
        epsilon=-1, factors=[FanoFactor(0, 1, -1), FanoFactor(1, 2, -1)],
        boundary=OPEN, kappa1=0.7,
    )
    assert classify(noncompact) is SolitonClass.SHRINKING_NONCOMPACT
    einstein = derive_config(
        epsilon=0, factors=[FanoFactor(0, 1, -1), FanoFactor(0, 1, -1)],
        boundary=OPEN, kappa1=0, sigmas=(0, 1),
    )
    assert classify(einstein) is SolitonClass.EINSTEIN


def test_steady_requires_explicit_sigmas():
    with pytest.raises(ValueError, match="need explicit sigmas"):
        derive_config(
            epsilon=0, factors=[FanoFactor(0, 1, -1)], boundary=OPEN, kappa1=-1,
        )


def test_sigmas_are_rejected_when_derivable():
    with pytest.raises(ValueError, match="derived from the consistency condition"):
        derive_config(
            epsilon=-1, factors=[FanoFactor(0, 1, -1)], boundary=OPEN,
            kappa1=0.5, sigmas=(0,),
        )


def test_inconsistent_compact_length_is_rejected():
    with pytest.raises(ValueError, match="inconsistent with the collapsing structure"):
        derive_config(
            epsilon=-1,
            factors=[FanoFactor(0, 1, -1), FanoFactor(0, 1, 1)],
            boundary=BoundaryStructure(
                Collapse.FACTOR, CompactEnd(Collapse.FACTOR, s_star=10)
            ),
            kappa1=0.3,
        )


@pytest.mark.parametrize("epsilon", [Fraction(-1, 2), -2, 0, 1])
def test_compact_interval_needs_epsilon_minus_one(epsilon):
    """s_star = 2(N0+N*+2) makes alpha vanish at s_star with slope -2 only
    at epsilon = -1; any other epsilon on a compact interval is structural."""
    cfg = derive_config(
        epsilon=epsilon,
        factors=[FanoFactor(0, 1, -1), FanoFactor(2, 3, 1), FanoFactor(2, 3, -2)],
        boundary=BoundaryStructure(Collapse.FACTOR, CompactEnd(Collapse.CIRCLE)),
        kappa1=0.3, sigmas=(0, 1, 2) if epsilon == 0 else None,
    )
    message = (f"boundary: epsilon = {Fraction(epsilon)} on a compact interval, whose length "
               "s_star = 2(N0+N*+2) closes alpha only at epsilon = -1")
    assert message in validate(cfg).structural_violations()
    assert not any("epsilon" in v for v in validate(mixed_charges()).violations)


def test_mirror_swaps_ends_and_negates_charges():
    cfg = mixed_charges()
    mir = mirror_config(cfg)
    assert [(f.n, f.p, f.q) for f in mir.factors] == [
        (0, 1, -1), (2, 3, 2), (2, 3, -1), (0, 1, 1),
    ]
    assert mir.s_star == cfg.s_star
    assert mir.E_star == Fraction(2)
    assert validate(mir).violations == ()


def test_mirror_requires_a_compact_instance():
    open_cfg = derive_config(
        epsilon=-1, factors=[FanoFactor(0, 1, -1), FanoFactor(1, 2, -1)],
        boundary=OPEN, kappa1=0.7,
    )
    with pytest.raises(ValueError, match="compact"):
        mirror_config(open_cfg)


def test_factor_input_guards():
    with pytest.raises(ValueError):
        FanoFactor(-1, 1, -1)
    with pytest.raises(ValueError):
        FanoFactor(1, 0, -1)
    with pytest.raises(ValueError):
        FanoFactor(1, 2, 0)


def test_collapsing_index_bookkeeping():
    cfg = mixed_charges()
    assert cfg.zero_indices == (0,)
    assert cfg.star_indices == (3,)
    assert cfg.r == 4


def test_degenerate_sigma_with_circle_collapse_is_flagged():
    cfg = derive_config(
        epsilon=0, factors=[FanoFactor(1, 2, -1)],
        boundary=BoundaryStructure(Collapse.CIRCLE), kappa1=-1, sigmas=(0,),
    )
    report = validate(cfg)
    assert any("circle-only collapse" in v for v in report.violations)


def test_collapsing_dimensions_are_read_off_the_sigmas():
    """n_zero and n_star count every factor whose sigma puts its beta to
    zero at an end, as validate needs them, not the factors the boundary
    marks (derive_config's count, which fixed E_star = 2(1 + 1)): here a
    second factor with sigma = 0 makes N0 = 3, and validate flags it.  The
    counts hold after a replace() of kappa1, which rebuilds them, and in
    with_kappa1, which keeps the structural clauses' verdict."""
    cfg = derive_config(
        epsilon=0, factors=[FanoFactor(1, 2, -1), FanoFactor(2, 3, -3)],
        boundary=OPEN, kappa1=-1, sigmas=(0, 0),
    )
    report = validate(cfg)
    assert "boundary: sigma_2 = 0 on a non-collapsing factor (degenerate)" in report.violations
    assert "derived: E_star = 4 but collapse at zero gives 8" in report.violations
    for c in (cfg, dataclasses.replace(cfg, kappa1=-2), with_kappa1(cfg, -0.5)):
        assert (c.zero_indices, c.n_zero, c.n_star, c.length) == ((0, 1), 3, 0, 5)
        assert structural_violations(c) == report.structural_violations()
    compact = dataclasses.replace(mixed_charges(), kappa1=0.7)
    assert (compact.star_indices, compact.n_star, compact.length) == ((3,), 0, 2)


# p/q one small step, half a unit or more on either side of a class's
# critical ratio -(N0+1) or N*+1 (never 0, so p stays nonzero), or on it
_STEPS = (Fraction(1, 10**12), Fraction(1, 2), Fraction(5, 2))
_EPSILONS = {
    "steady": (0,),
    "expanding": (1, 2, Fraction(1, 3), 0.5, 2.5, 1e12, 1e300),
    "noncompact": (-1, -2, Fraction(-1, 3), -0.5, -1.0, -1e12, -1e300),
    "compact": (-1, -1.0, Fraction(-1), Fraction(-1, 2)),
}
_CHARGES = (Fraction(1), Fraction(1, 2), Fraction(3), Fraction(2, 7), Fraction(1, 10**20))
_SIGMAS = (Fraction(1), Fraction(1, 3), 0.5, 1e-300, 5e-324, 0, -5e-324, -1)


@st.composite
def _configs(draw):
    """A config of one of the four classes, from derive_config or from
    rational flag-bundle data: collapsing factors at zero (and, when
    compact, at s_star) with strict or rational charges, and middle
    factors whose p/q sits on or next to a critical ratio, mostly on the
    side where beta stays positive."""
    cls = draw(st.sampled_from(sorted(_EPSILONS)))
    flag = draw(st.booleans())
    eps = draw(st.sampled_from(_EPSILONS[cls]))
    if flag:
        eps = Fraction(eps)
    factor_zero = draw(st.booleans())
    strict = not flag and draw(st.booleans())
    # steady flag-bundle data share E_star = 2/b_i only when every b_i is
    # 1/(N0+1): no star end and no step off the steady ratio
    compact = (cls == "compact") != draw(st.sampled_from([False] * 5 + [True]))
    compact = compact and not (flag and eps == 0)
    factor_star = compact and draw(st.booleans())
    n_min = 1 if flag else 0
    n0 = draw(st.integers(n_min, 2)) if factor_zero else 0
    n_star = draw(st.integers(n_min, 2)) if factor_star else 0
    zero_ratio, star_ratio = -(n0 + 1), n_star + 1

    def collapsing(n, ratio):
        sign = 1 if ratio > 0 else -1
        if strict:
            return FanoFactor(n, n + 1, sign)
        q = sign * (Fraction(1, abs(ratio)) if flag else draw(st.sampled_from(_CHARGES[:4])))
        return FanoFactor(n, ratio * q, q)

    factors = [collapsing(n0, zero_ratio)] if factor_zero else []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(n_min, 3))
        # the sound sign of q: negative on an open interval, either when compact
        q_sign = -1 if draw(st.integers(0, 4)) else 1
        ratio = star_ratio if compact and q_sign > 0 else zero_ratio
        if cls != "steady" or (not flag and draw(st.integers(0, 3)) == 0):
            side = 1 if cls == "expanding" or q_sign > 0 else -1  # where beta stays positive
            side = -side if draw(st.integers(0, 3)) == 0 else side
            ratio += side * draw(st.sampled_from(_STEPS))
        q = 1 / Fraction(ratio) if flag else q_sign * draw(st.sampled_from(_CHARGES))
        factors.append(FanoFactor(n, ratio * q, q))
    if factor_star:
        factors.append(collapsing(n_star, star_ratio))
    boundary = BoundaryStructure(
        Collapse.FACTOR if factor_zero else Collapse.CIRCLE,
        CompactEnd(Collapse.FACTOR if factor_star else Collapse.CIRCLE) if compact else None,
        strict_unit_charge=strict,
    )
    sigmas = None
    if eps == 0:
        sigmas = [0 if i == 0 and factor_zero else draw(st.sampled_from(_SIGMAS))
                  for i in range(len(factors))]
    kappa1 = draw(st.sampled_from((-1, Fraction(-1, 3), 0, 0.25, 1, -5e-324, 5e-324, -1e308, 1e308)))
    kappa0 = draw(st.sampled_from((0, 0.3, Fraction(1, 2), -2)))
    cfg = derive_config(eps, factors, boundary, kappa1, kappa0, sigmas)
    if not flag:
        return cfg
    zero = frozenset({1}) if factor_zero else frozenset()
    star = (frozenset({len(factors)}) if factor_star else frozenset()) if compact else None
    data = FlagBundleData(d=tuple(2 * f.n for f in factors), b=tuple(-f.q for f in factors),
                          a=tuple(-f.q * Fraction(s) for f, s in zip(factors, cfg.sigmas)),
                          collapse_zero=zero, collapse_star=star)
    return to_section3_config(data, eps, kappa1, kappa0)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_configs())
def test_validate_keeps_the_full_clause_verdict(cfg):
    """validate leaves out each class's inequalities on (p, q, N0), which
    beta positivity implies once the consistency relation holds, and checks
    c only for overflow, since c is derived; its verdict is that of the
    full clause list (validate_reference).  The one exception is that
    list's own defect: where its float product beta_i(0) = -q_i sigma_i
    rounds a negative value to -0.0, it admits a beta that is negative
    near s = 0, which validate rejects."""
    event("structurally sound" if not structural_violations(cfg) else "structurally unsound")
    admissible = validate_reference.violations(cfg) == ()
    if admissible and validate_reference.beta_underflows(cfg):
        event("reference admits a negative beta_i(0)")
        admissible = False
    assert validate(cfg).admissible == admissible
