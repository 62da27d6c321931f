"""Constant derivation, admissibility checking, and classification."""

import dataclasses
from fractions import Fraction

import pytest

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
        c=cfg.c,
    )
    report = validate(bad)
    assert any(v.startswith("derived: E_star = 6") for v in report.violations)


def test_first_integral_clause_holds_at_a_subnormal_kappa1():
    """At kappa1 = -5e-324, c = kappa1 (E_star - eps kappa0) rounds to a
    subnormal, so c/kappa1 misses E_star - eps kappa0 by 0.3; the clause
    compares c with the product and never divides.  A wrong c is caught."""
    factors = [FanoFactor(0, 1, -1), FanoFactor(2, 3, -4)]
    cfg = derive_config(epsilon=1, factors=factors, boundary=OPEN, kappa1=-5e-324, kappa0=0.3)
    assert validate(cfg).violations == ()
    cfg = derive_config(epsilon=1, factors=factors, boundary=OPEN, kappa1=-1, kappa0=0.3)
    report = validate(dataclasses.replace(cfg, c=2 * cfg.c))
    assert any(v.startswith("derived: first-integral constant inconsistent")
               for v in report.violations)


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


def test_validate_runs_the_kappa1_clauses_on_given_structural_ones():
    """validate(config, structural) trusts the structural verdict it is
    given and adds the first-integral and class clauses, in that order."""
    cfg = derive_config(
        epsilon=-1, factors=[FanoFactor(0, 1, -1), FanoFactor(1, 2, -1)],
        boundary=OPEN, kappa1=-0.5,
    )
    report = validate(cfg, ("beta: given",))
    assert report.violations == ("beta: given", "class: noncompact shrinker requires kappa1 > 0")
    assert report.structural_violations() == ("beta: given",)
    assert validate(cfg).violations == ("class: noncompact shrinker requires kappa1 > 0",)
