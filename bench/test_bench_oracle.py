"""The benchmark's oracle against closed forms known by hand."""

import json
import math
import os

import mpmath as mp
import pytest
import sympy as sp

from oracle import Soliton

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _working_digits():
    """Compare at the oracle's working precision."""
    with mp.workdps(30):
        yield


def _two_points(kappa1):
    """Two point factors over a collapsing circle, steady, sigmas (0, 1)."""
    return {"epsilon": 0,
            "factors": [{"n": 0, "p": 1, "q": -1}, {"n": 0, "p": 1, "q": -1}],
            "boundary": {"collapse_at_zero": "factor", "compact_end": None},
            "kappa1": kappa1, "sigmas": [0, 1]}


@pytest.mark.parametrize("s", [1e-3, 0.5, 3.0, 40.0])
def test_flat_alpha_is_2s(s):
    sol = Soliton(_two_points(0))
    assert abs(sol.alpha(s) - 2 * s) < 1e-30 * max(1, s)
    assert abs(sol.alpha_closed(s) - 2 * s) < 1e-30 * max(1, s)
    # t = int ds / sqrt(2s) = sqrt(2s), and its inverse s = t^2 / 2
    assert abs(sol.t(s) - math.sqrt(2 * s)) < 1e-14
    assert abs(sol.s_of_t(math.sqrt(2 * s), 1.0) - s) < 1e-14 * max(1, s)


@pytest.mark.parametrize("s", [1e-3, 0.5, 3.0, 40.0])
def test_cigar_alpha(s):
    sol = Soliton(_two_points(-1))
    expected = 2 * (1 - mp.exp(-mp.mpf(s)))
    assert abs(sol.alpha(s) / expected - 1) < 1e-25
    assert abs(sol.alpha_closed(s) / expected - 1) < 1e-25
    assert abs(sol.inward_slope("zero") - 2) < 1e-8


def test_cigar_flow_relation():
    # F' = 1/(kappa1 alpha) = -1/(2 (1 - e^{-s})), so
    # F(b) - F(a) = -(log(e^b - 1) - log(e^a - 1))/2; on steady solitons the
    # flow shift is tau itself
    sol = Soliton(_two_points(-1))
    a, b = mp.mpf(1), mp.mpf(2)
    expected = -(mp.log(mp.e ** b - 1) - mp.log(mp.e ** a - 1)) / 2
    assert abs(sol.flow_gap(a, b) - expected) < 1e-15
    assert sol.flow_shift(0.25) == mp.mpf(0.25)


def test_compact_shrinker_obstruction_at_zero():
    # factors (2,3,1) and (2,3,-2) between point ends: p/q = 3 and -3/2, so
    # I(0) = int_{-1}^{1} x (x-3)^2 (x+3/2)^2 dx
    #      = int_{-1}^{1} x^5 - 3x^4 - (27/4) x^3 + (27/2) x^2 + (81/4) x dx
    #      = -3 (2/5) + (27/2)(2/3) = 39/5
    with open(os.path.join(ROOT, "configs", "compact-shrinker.json")) as fh:
        doc = json.load(fh)
    sol = Soliton(doc, kappa1=0)
    assert sol.obstruction_exact_zero() == sp.Rational(39, 5)
    assert abs(sol.obstruction(0) - mp.mpf(39) / 5) < 1e-30
    root = sol.obstruction_root(0.39)
    assert abs(sol.obstruction(root)) < 1e-30
    assert sol.obstruction(root - 1e-3) * sol.obstruction(root + 1e-3) < 0


def test_noncompact_root():
    # (0,1,-1), (1,2,-1), eps = -1: sigma_2 = 2, Psi = (2 - x)(x + 2) = 4 - x^2,
    # chi(y) = 4 - 2 y^2, so y* = sqrt(2) and kappa1 = 1/sqrt(2)
    doc = {"epsilon": -1,
           "factors": [{"n": 0, "p": 1, "q": -1}, {"n": 1, "p": 2, "q": -1}],
           "boundary": {"collapse_at_zero": "factor", "compact_end": None},
           "kappa1": "solve"}
    sol = Soliton(doc, kappa1=0)
    assert sol.chi() == sp.Poly([-2, 0, 4], sp.Symbol("x"), domain="QQ")
    assert abs(sol.noncompact_root() - 1 / mp.sqrt(2)) < 1e-35
    assert sol.chi_relative(math.sqrt(2)) < 1e-15
    assert sol.chi_relative(1) == sp.Rational(2, 6)
    calibrated = Soliton(doc, kappa1=sol.noncompact_root())
    for s in (0.5, 5.0, 25.0):
        assert abs(calibrated.alpha(s) / calibrated.alpha_closed(s) - 1) < 1e-20
