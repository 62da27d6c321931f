"""Shared fixtures: solved roots and the acceptance suite are expensive, so
build each profile and run the suite once per session."""

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
