"""Shared fixtures: solved roots and the acceptance suite are expensive, so
build each profile and run the suite once per session."""

import mpmath as mp
import pytest

from kricci import acceptance as acc
from kricci.obstruction import find_kappa1_compact, find_kappa1_noncompact
from kricci.profiles import build_profile


@pytest.fixture(scope="session")
def mixed_root():
    return find_kappa1_compact(acc.compact_mixed_charges())


@pytest.fixture(scope="session")
def mixed_profile(mixed_root):
    return build_profile(acc.compact_mixed_charges(mixed_root.kappa1))


@pytest.fixture(scope="session")
def two_blowdowns_profile():
    k = find_kappa1_compact(acc.compact_two_blowdowns()).kappa1
    return build_profile(acc.compact_two_blowdowns(k))


@pytest.fixture(scope="session")
def noncompact_root():
    return find_kappa1_noncompact(acc.noncompact_shrinker_small())


@pytest.fixture(scope="session")
def noncompact_profile(noncompact_root):
    return build_profile(acc.noncompact_shrinker_small(noncompact_root.kappa1))


@pytest.fixture(scope="session")
def steady_profile():
    return build_profile(acc.steady_representative())


@pytest.fixture(scope="session")
def expanding_profile():
    return build_profile(acc.expanding_representative())


@pytest.fixture(scope="session")
def flat_profile():
    return build_profile(acc.flat_config())


@pytest.fixture(scope="session")
def cigar_profile():
    return build_profile(acc.cigar_config())


@pytest.fixture(scope="session")
def acceptance_results():
    """One run of the acceptance suite, shared by test_acceptance and the
    paper-examples CLI test."""
    return acc.run_all()


@pytest.fixture(scope="session")
def mp_alpha():
    """alpha = J/v of a profile as a function of s, at the working mpmath
    precision, from its exact v_poly and psi_poly and the exact value of
    its float kappa1.  J(s) = sum_j psi_j s^(j+1)/(j+1) 1F1(1; j+2; kappa1 s)
    is the integral of Psi(x) e^(kappa1 (s - x)) over [0, s] term by term,
    so nothing cancels near s = 0.  On a mirror, s is the distance from s*."""
    def of(prof):
        k = mp.mpf(prof.kappa1)
        den = mp.mpf(prof.poly_den)
        psi = [(j, mp.mpf(c) / den) for j, c in enumerate(prof.psi_poly) if c]
        v = [mp.mpf(c) / den for c in reversed(prof.v_poly)]

        def alpha(s):
            s = mp.mpf(s)
            J = mp.fsum(c * s ** (j + 1) / (j + 1) * mp.hyp1f1(1, j + 2, k * s) for j, c in psi)
            return J / mp.polyval(v, s)
        return alpha
    return of
