"""kricci: explicit cohomogeneity-one gradient Kahler-Ricci solitons.

The package constructs, in closed form, the one-parameter family of gradient
Kahler-Ricci soliton metrics

    g = dt^2 + f(t)^2 theta (x) theta + sum_i g_i(t)^2 pi_i^* h_i

on circle bundles over a product of Fano Kahler-Einstein manifolds, verifies
the profiles against the full soliton ODE system and its conservation law,
and solves the two root conditions (an obstruction integral for compact
shrinkers, a moment polynomial for noncompact ones) that govern existence.

Modules
-------
polyexp      exact integer polynomials and exp-weighted moment integrals
model        problem data, derivation of constants, admissibility checks,
             the exact core of a config
profiles     closed-form solution profiles alpha, beta_i, phi and derivatives
residuals    ODE residuals, first integral, conservation quantity
obstruction  the existence integral and both root finders
geometry     arclength reconstruction, completeness, the flow diffeomorphism
flagbundle   circle bundles over flag manifolds mapped onto the core model
cli          command-line front end
"""

from kricci.model import (
    Collapse,
    CompactEnd,
    BoundaryStructure,
    FanoFactor,
    SolitonClass,
    SolitonConfig,
    ValidationReport,
    classify,
    derive_config,
    validate,
)
from kricci.profiles import Profile, ProfileSample, build_profile, sample
from kricci.residuals import ResidualGrid, default_grid, soliton_residuals
from kricci.obstruction import (
    FutakiEvaluation,
    RootResult,
    find_kappa1_compact,
    find_kappa1_noncompact,
    futaki_integral,
)
from kricci.geometry import (
    CompletenessClass,
    CompletenessReport,
    MetricFunctions,
    completeness_report,
    flow_trajectory,
    metric_functions,
    s_of_t,
    t_of_s,
)
from kricci.flagbundle import FlagBundleData, special_orbit_conditions, to_section3_config

__version__ = "0.1.0"

__all__ = [
    "Collapse",
    "CompactEnd",
    "BoundaryStructure",
    "FanoFactor",
    "SolitonClass",
    "SolitonConfig",
    "ValidationReport",
    "classify",
    "derive_config",
    "validate",
    "Profile",
    "ProfileSample",
    "build_profile",
    "sample",
    "ResidualGrid",
    "default_grid",
    "soliton_residuals",
    "FutakiEvaluation",
    "RootResult",
    "find_kappa1_compact",
    "find_kappa1_noncompact",
    "futaki_integral",
    "CompletenessClass",
    "CompletenessReport",
    "MetricFunctions",
    "completeness_report",
    "flow_trajectory",
    "metric_functions",
    "s_of_t",
    "t_of_s",
    "FlagBundleData",
    "special_orbit_conditions",
    "to_section3_config",
    "__version__",
]
