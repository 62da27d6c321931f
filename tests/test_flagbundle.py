"""Reduction of homogeneous circle-bundle data to the product-base model."""

from fractions import Fraction

import numpy as np
import pytest

from kricci.flagbundle import FlagBundleData, special_orbit_conditions, to_section3_config
from kricci.model import BoundaryStructure, Collapse, FanoFactor, derive_config
from kricci.profiles import build_profile, sample
from kricci.residuals import default_grid, soliton_residuals


def test_single_summand_mapping():
    data = FlagBundleData(d=(2,), b=(Fraction(1),), a=(Fraction(0),))
    cfg = to_section3_config(data, epsilon=0, kappa1=-1)
    assert [(f.n, f.p, f.q) for f in cfg.factors] == [(1, Fraction(1), Fraction(-1))]
    assert cfg.sigmas == (Fraction(0),)
    assert cfg.E_star == Fraction(2)
    assert not cfg.boundary.strict_unit_charge
    assert not cfg.is_compact


def test_sigma_is_the_coefficient_ratio():
    # (eps*a_i + 2)/b_i must agree across summands; with eps = 1 the pair
    # b = (1, 3), a = (0, 4) shares E_star = 2 and has distinct slopes
    data = FlagBundleData(d=(2, 4), b=(Fraction(1), Fraction(3)), a=(Fraction(0), Fraction(4)))
    cfg = to_section3_config(data, epsilon=1, kappa1=-1)
    assert cfg.sigmas == (Fraction(0), Fraction(4, 3))
    assert [f.q for f in cfg.factors] == [Fraction(-1), Fraction(-3)]
    assert [f.n for f in cfg.factors] == [1, 2]
    assert cfg.E_star == Fraction(2)


def test_circle_only_collapse_has_sphere_dimension_one():
    data = FlagBundleData(d=(2,), b=(Fraction(1),), a=(Fraction(0),))
    report = special_orbit_conditions(data, epsilon=0)
    assert report.k == 1
    assert report.k_tilde is None
    assert report.E_star == Fraction(2)
    assert report.checks["E_star_equals_k_plus_1"]
    assert report.passed


def test_three_sphere_collapse_conditions():
    # one 2-dimensional summand collapsing: k = 3, so b = 2/(k+1) = 1/2
    data = FlagBundleData(
        d=(2,), b=(Fraction(1, 2),), a=(Fraction(0),), collapse_zero=frozenset({1}),
    )
    report = special_orbit_conditions(data, epsilon=0)
    assert report.k == 3
    assert report.E_star == Fraction(4)
    assert report.checks["E_star_equals_k_plus_1"]
    assert report.checks["a_1_zero"]
    assert report.checks["b_1_matches_sphere"]
    assert report.passed


def test_wrong_sphere_coefficient_is_reported_not_raised():
    data = FlagBundleData(
        d=(2,), b=(Fraction(1),), a=(Fraction(0),), collapse_zero=frozenset({1}),
    )
    report = special_orbit_conditions(data, epsilon=0)
    assert not report.checks["b_1_matches_sphere"]
    assert not report.checks["E_star_equals_k_plus_1"]
    assert not report.passed


def test_compact_interval_length_from_both_spheres():
    # circle-only collapse at both ends: k = k_tilde = 1, s_star = 4
    data = FlagBundleData(
        d=(2,), b=(Fraction(1),), a=(Fraction(0),),
        collapse_zero=frozenset(), collapse_star=frozenset(),
    )
    report = special_orbit_conditions(data, epsilon=0)
    assert report.k == 1 and report.k_tilde == 1
    assert report.s_star == Fraction(4)


def test_round_trip_matches_the_direct_construction():
    # the reduced configuration must be *identical* in behaviour to the one
    # assembled directly from (n, p, q) = (1, 1, -1/2)
    data = FlagBundleData(
        d=(2,), b=(Fraction(1, 2),), a=(Fraction(0),), collapse_zero=frozenset({1}),
    )
    via_flag = to_section3_config(data, epsilon=0, kappa1=-1)
    direct = derive_config(
        epsilon=0,
        factors=[FanoFactor(1, Fraction(1), Fraction(-1, 2))],
        boundary=BoundaryStructure(Collapse.FACTOR, strict_unit_charge=False),
        kappa1=-1,
        sigmas=(0,),
    )
    assert via_flag == direct
    p1, p2 = build_profile(via_flag), build_profile(direct)
    grid = default_grid(p1, n=60)
    r1, r2 = (soliton_residuals(p, sample(p, grid)) for p in (p1, p2))
    assert np.array_equal(r1.r_t, r2.r_t)
    assert np.array_equal(r1.r_base, r2.r_base)
    assert float(np.max(np.abs(r1.r_t))) < 1e-9


def test_inconsistent_coefficients_raise():
    data = FlagBundleData(
        d=(2, 2), b=(Fraction(1), Fraction(1)), a=(Fraction(2), Fraction(4)),
    )
    with pytest.raises(ValueError, match="inconsistent"):
        to_section3_config(data, epsilon=1, kappa1=-1)
    # with epsilon = 0 the a_i drop out of E_star and the same data is fine
    cfg = to_section3_config(data, epsilon=0, kappa1=-1)
    assert cfg.E_star == Fraction(2)


def test_closedness_flag_is_recorded_never_inferred():
    base = dict(d=(2,), b=(Fraction(1, 2),), a=(Fraction(0),),
                collapse_zero=frozenset({1}))
    asserted = special_orbit_conditions(FlagBundleData(closedness_asserted=True, **base))
    silent = special_orbit_conditions(FlagBundleData(closedness_asserted=False, **base))
    assert asserted.closedness_asserted and not silent.closedness_asserted
    assert asserted.checks == silent.checks


def test_structure_guards():
    with pytest.raises(ValueError, match="even and positive"):
        FlagBundleData(d=(3,), b=(Fraction(1),), a=(Fraction(0),))
    with pytest.raises(ValueError, match="nonzero"):
        FlagBundleData(d=(2,), b=(Fraction(0),), a=(Fraction(0),))
    with pytest.raises(ValueError, match="one entry per summand"):
        FlagBundleData(d=(2, 2), b=(Fraction(1),), a=(Fraction(0),))
    with pytest.raises(ValueError, match="prefix"):
        FlagBundleData(d=(2, 2), b=(Fraction(1), Fraction(1)),
                       a=(Fraction(0), Fraction(0)), collapse_zero=frozenset({2}))
    with pytest.raises(ValueError, match="suffix"):
        FlagBundleData(d=(2, 2), b=(Fraction(1), Fraction(1)),
                       a=(Fraction(0), Fraction(0)), collapse_star=frozenset({1}))
    with pytest.raises(ValueError, match="both ends"):
        FlagBundleData(d=(2,), b=(Fraction(1),), a=(Fraction(0),),
                       collapse_zero=frozenset({1}), collapse_star=frozenset({1}))


def test_sphere_dimension_bookkeeping():
    data = FlagBundleData(
        d=(2, 4, 2),
        b=(Fraction(1, 2), Fraction(1), Fraction(-1, 2)),
        a=(Fraction(0), Fraction(1), Fraction(4)),
        collapse_zero=frozenset({1}),
        collapse_star=frozenset({3}),
    )
    assert data.r == 3
    assert data.sphere_dim_zero == 3
    assert data.sphere_dim_star == 3
