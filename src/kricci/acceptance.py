"""End-to-end checks of the whole pipeline on a fixed suite of instances.

Each criterion is a self-contained function returning a CriterionResult;
run_all() executes them in order.  The CLI prints one line per criterion and
the test suite asserts each one individually, so the numbered functions
here are the single source of truth for what "working" means.

The suite covers: exact rational values of the existence integral, its
float evaluation and root finding on both compact and noncompact instances,
residuals of the full ODE system for one representative of every soliton
class, closed-form recovery (flat and cigar profiles), boundary
normalization, the reflection identity, far-field slopes, the Einstein
limit of the steady family, a conservation-law surrogate on a detuned
profile, and the self-similarity flow equation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from kricci.model import (
    BoundaryStructure,
    Collapse,
    CompactEnd,
    FanoFactor,
    SolitonConfig,
    derive_config,
)
from kricci.obstruction import (
    find_kappa1_compact,
    find_kappa1_noncompact,
    futaki_integral,
    symmetry_identity_check,
)
from kricci.profiles import Profile, alpha, build_profile, sample
from kricci.residuals import bianchi_quantity, default_grid, soliton_residuals
from kricci.geometry import flow_trajectory, potential_rate, t_of_s


# ---------------------------------------------------------------------------
# the fixed suite of instances


def flat_config(kappa1=0) -> SolitonConfig:
    """Two point factors over a collapsing circle: alpha = 2s when kappa1=0."""
    return derive_config(
        epsilon=0,
        factors=[FanoFactor(0, 1, -1), FanoFactor(0, 1, -1)],
        boundary=BoundaryStructure(Collapse.FACTOR),
        kappa1=kappa1,
        sigmas=(0, 1),
    )


def cigar_config() -> SolitonConfig:
    """Same structure with kappa1 = -1: alpha = 2(1 - e^{-s})."""
    return derive_config(
        epsilon=0,
        factors=[FanoFactor(0, 1, -1), FanoFactor(0, 1, -1)],
        boundary=BoundaryStructure(Collapse.FACTOR),
        kappa1=-1,
        sigmas=(0, 1),
    )


def steady_representative(kappa1=-1) -> SolitonConfig:
    """Steady instance over one 2-dimensional factor with charge -3."""
    return derive_config(
        epsilon=0,
        factors=[FanoFactor(0, 1, -1), FanoFactor(2, 3, -3)],
        boundary=BoundaryStructure(Collapse.FACTOR),
        kappa1=kappa1,
        sigmas=(0, 2),
    )


def expanding_representative(kappa1=-1) -> SolitonConfig:
    """Expanding instance; the charge -4 satisfies the strict inequality."""
    return derive_config(
        epsilon=1,
        factors=[FanoFactor(0, 1, -1), FanoFactor(2, 3, -4)],
        boundary=BoundaryStructure(Collapse.FACTOR),
        kappa1=kappa1,
    )


def compact_mixed_charges(kappa1=0) -> SolitonConfig:
    """Compact shrinker over two 2-dim factors with charges (+1, -2)."""
    return derive_config(
        epsilon=-1,
        factors=[
            FanoFactor(0, 1, -1),
            FanoFactor(2, 3, 1),
            FanoFactor(2, 3, -2),
            FanoFactor(0, 1, 1),
        ],
        boundary=BoundaryStructure(
            Collapse.FACTOR, compact_end=CompactEnd(Collapse.FACTOR)
        ),
        kappa1=kappa1,
    )


def compact_equal_charges(kappa1=0) -> SolitonConfig:
    """Compact shrinker over two 3-dim factors with equal charges (-1, -1)."""
    return derive_config(
        epsilon=-1,
        factors=[
            FanoFactor(0, 1, -1),
            FanoFactor(3, 2, -1),
            FanoFactor(3, 2, -1),
            FanoFactor(0, 1, 1),
        ],
        boundary=BoundaryStructure(
            Collapse.FACTOR, compact_end=CompactEnd(Collapse.FACTOR)
        ),
        kappa1=kappa1,
    )


def compact_two_blowdowns(kappa1=0) -> SolitonConfig:
    """Compact shrinker with positive-dimensional collapse at both ends."""
    return derive_config(
        epsilon=-1,
        factors=[FanoFactor(1, 2, -1), FanoFactor(4, 3, -1), FanoFactor(1, 2, 1)],
        boundary=BoundaryStructure(
            Collapse.FACTOR, compact_end=CompactEnd(Collapse.FACTOR)
        ),
        kappa1=kappa1,
    )


def noncompact_shrinker_small(kappa1=1) -> SolitonConfig:
    """Noncompact shrinker on the line bundle of charge -1 over a curve."""
    return derive_config(
        epsilon=-1,
        factors=[FanoFactor(0, 1, -1), FanoFactor(1, 2, -1)],
        boundary=BoundaryStructure(Collapse.FACTOR),
        kappa1=kappa1,
    )


def gaussian_config(kappa1=Fraction(1, 2)) -> SolitonConfig:
    """One point factor, shrinking: the flat Gaussian soliton."""
    return derive_config(
        epsilon=-1,
        factors=[FanoFactor(0, 1, -1)],
        boundary=BoundaryStructure(Collapse.FACTOR),
        kappa1=kappa1,
    )


COMPACT_SUITE: Dict[str, Callable[..., SolitonConfig]] = {
    "mixed-charges": compact_mixed_charges,
    "equal-charges": compact_equal_charges,
    "two-blowdowns": compact_two_blowdowns,
}

EXACT_ZERO_VALUES: Dict[str, Fraction] = {
    "mixed-charges": Fraction(39, 5),
    "equal-charges": Fraction(1368, 7),
    "two-blowdowns": Fraction(-7680, 7),
}


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.number:2d} {self.name}: {self.detail}"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0e-300)


# ---------------------------------------------------------------------------
# criteria


def criterion_1_exact_values() -> CriterionResult:
    t0 = time.perf_counter()
    worst_rel = 0.0
    ok = True
    details = []
    for name, builder in COMPACT_SUITE.items():
        cfg = builder()
        ev = futaki_integral(cfg, 0)
        expected = EXACT_ZERO_VALUES[name]
        exact_ok = ev.exact_value == expected
        rel = _rel(ev.value, float(expected))
        worst_rel = max(worst_rel, rel)
        ok = ok and exact_ok and rel < 1.0e-12
        details.append(f"{name}={ev.exact_value}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    return CriterionResult(
        1, "exact-obstruction-values", ok,
        f"{'; '.join(details)}; float rel err {worst_rel:.2e}; "
        + ("within the 1 s budget" if elapsed < 1.0 else f"over the 1 s budget ({elapsed:.2f} s)"),
    )


def criterion_2_value_at_half() -> CriterionResult:
    ev = futaki_integral(compact_mixed_charges(), 0.5)
    err = abs(ev.value - (-0.7289))
    ok = err < 5.0e-4
    return CriterionResult(
        2, "obstruction-at-half", ok,
        f"I(1/2) = {ev.value:.6f}, |diff from -0.7289| = {err:.2e}",
    )


def criterion_3_compact_roots() -> CriterionResult:
    root_mixed = find_kappa1_compact(compact_mixed_charges())
    in_window = 0.0 < root_mixed.kappa1 < 0.5
    small = abs(root_mixed.residual) < 1.0e-10
    others_pos = True
    roots = {"mixed-charges": root_mixed.kappa1}
    for name in ("equal-charges", "two-blowdowns"):
        rr = find_kappa1_compact(COMPACT_SUITE[name]())
        roots[name] = rr.kappa1
        others_pos = others_pos and rr.kappa1 > 0
    ok = in_window and small and others_pos
    detail = "; ".join(f"{k}: kappa1={v:.12f}" for k, v in roots.items())
    return CriterionResult(
        3, "compact-roots", ok,
        f"{detail}; |I(root)| = {abs(root_mixed.residual):.2e}",
    )


def criterion_4_noncompact_root() -> CriterionResult:
    rr = find_kappa1_noncompact(noncompact_shrinker_small())
    target = 1.0 / math.sqrt(2.0)
    err = abs(rr.kappa1 - target)
    ok = err < 1.0e-12 and rr.uniqueness_certificate == 1
    return CriterionResult(
        4, "noncompact-root-certificate", ok,
        f"kappa1 = {rr.kappa1!r}, |diff from 1/sqrt(2)| = {err:.2e}, "
        f"certificate = {rr.uniqueness_certificate}",
    )


def class_representatives() -> Dict[str, Profile]:
    """One built profile per soliton class, compact root solved."""
    k_c = find_kappa1_compact(compact_mixed_charges()).kappa1
    k_n = find_kappa1_noncompact(noncompact_shrinker_small()).kappa1
    return {
        "steady": build_profile(steady_representative()),
        "expanding": build_profile(expanding_representative()),
        "shrinking-compact": build_profile(compact_mixed_charges(k_c)),
        "shrinking-noncompact": build_profile(noncompact_shrinker_small(k_n)),
    }


def criterion_5_residual_suite() -> CriterionResult:
    t0 = time.perf_counter()
    worst_eq = 0.0
    worst_ci = 0.0
    for prof in class_representatives().values():
        grid = default_grid(prof)
        res = soliton_residuals(prof, sample(prof, grid))
        eq_max = max(
            float(np.max(np.abs(res.r_t))),
            float(np.max(np.abs(res.r_fibre))),
            float(np.max(np.abs(res.r_base))) if res.r_base.size else 0.0,
        )
        ci_span = float(np.max(res.c_values) - np.min(res.c_values))
        worst_eq = max(worst_eq, eq_max)
        worst_ci = max(worst_ci, ci_span)
    elapsed = time.perf_counter() - t0
    ok = worst_eq < 1.0e-9 and worst_ci < 1.0e-9 and elapsed < 10.0
    return CriterionResult(
        5, "residual-suite", ok,
        f"max residual {worst_eq:.2e}; first-integral span {worst_ci:.2e}; "
        + ("within the 10 s budget" if elapsed < 10.0 else f"over the 10 s budget ({elapsed:.2f} s)"),
    )


def criterion_6_closed_forms() -> CriterionResult:
    pts = np.linspace(0.0, 20.0, 50)
    prof_flat = build_profile(flat_config())
    prof_cigar = build_profile(cigar_config())
    worst = max(float(np.max(np.abs(alpha(prof_flat, pts) - 2.0 * pts))),
                float(np.max(np.abs(alpha(prof_cigar, pts) - 2.0 * (1.0 - np.exp(-pts))))))
    ok = worst < 1.0e-12
    return CriterionResult(
        6, "closed-form-recovery", ok,
        f"max pointwise error {worst:.2e} on 50 points",
    )


def full_suite_profiles() -> Dict[str, Profile]:
    """Every admissible profile the acceptance suite touches."""
    out = {
        "flat": build_profile(flat_config()),
        "cigar": build_profile(cigar_config()),
    }
    out.update(class_representatives())
    for name in ("equal-charges", "two-blowdowns"):
        k = find_kappa1_compact(COMPACT_SUITE[name]()).kappa1
        out[name] = build_profile(COMPACT_SUITE[name](k))
    return out


def criterion_7_boundary_normalization() -> CriterionResult:
    worst0 = 0.0
    worst_slope = 0.0
    worst_star = 0.0
    for prof in full_suite_profiles().values():
        smp = sample(prof, 0.0)
        worst0 = max(worst0, abs(smp.alpha))
        worst_slope = max(worst_slope, abs(smp.dalpha - 2.0))
        if prof.is_compact:
            worst_star = max(worst_star, abs(sample(prof, float(prof.s_domain[1])).alpha))
    ok = worst0 < 1.0e-10 and worst_slope < 1.0e-10 and worst_star < 1.0e-9
    return CriterionResult(
        7, "boundary-normalization", ok,
        f"max |alpha(0)| {worst0:.2e}; max |alpha'(0)-2| {worst_slope:.2e}; "
        f"max |alpha(s*)| {worst_star:.2e}",
    )


def criterion_8_reflection_identity() -> CriterionResult:
    cfg = compact_mixed_charges()
    worst = 0.0
    for k1 in (0.0, 0.3, -0.7):
        lhs, rhs = symmetry_identity_check(cfg, k1)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0e-300))
    ok = worst < 1.0e-10
    return CriterionResult(
        8, "reflection-identity", ok,
        f"worst relative mismatch {worst:.2e} at kappa1 in {{0, 0.3, -0.7}}",
    )


def criterion_9_asymptotic_slopes() -> CriterionResult:
    prof_s = build_profile(steady_representative())
    a3, a4 = alpha(prof_s, np.array([1.0e3, 1.0e4]))
    steady_dev = abs(a4 / a3 - 1.0)

    prof_e = build_profile(expanding_representative())
    exp_dev = abs(float(alpha(prof_e, 1.0e4)) / 1.0e4 - 1.0)

    k_n = find_kappa1_noncompact(noncompact_shrinker_small()).kappa1
    prof_n = build_profile(noncompact_shrinker_small(k_n))
    shr_dev = abs(float(alpha(prof_n, 1.0e4)) / 1.0e4 * k_n - 1.0)

    ok = steady_dev < 0.02 and exp_dev < 0.02 and shr_dev < 0.02
    return CriterionResult(
        9, "asymptotic-slopes", ok,
        f"steady alpha(1e4)/alpha(1e3)-1 = {steady_dev:.4f}; "
        f"expanding alpha/s-1 = {exp_dev:.4f}; "
        f"shrinker kappa1*alpha/s-1 = {shr_dev:.4f}",
    )


def criterion_10_einstein_limit() -> CriterionResult:
    grid = np.geomspace(1.0e-2, 100.0, 80)
    base = build_profile(steady_representative(kappa1=0))
    alpha0 = alpha(base, grid)
    sups = []
    for k1 in (-1.0, -0.5, -0.25, -0.125):
        alpha_k = alpha(build_profile(steady_representative(kappa1=k1)), grid)
        sups.append(float(np.max(np.abs(alpha_k - alpha0))))
    ok = all(sups[i] > sups[i + 1] for i in range(len(sups) - 1))
    return CriterionResult(
        10, "einstein-limit", ok,
        "sup|alpha_k - alpha_0| = " + ", ".join(f"{s:.4f}" for s in sups),
    )


def criterion_11_detuned_conservation() -> CriterionResult:
    prof = build_profile(steady_representative(), e_star_shift=0.1)
    grid = default_grid(prof, n=120, s_max=10.0)
    vals = bianchi_quantity(prof, sample(prof, grid))
    span = float(np.max(vals) - np.min(vals))
    floor = float(np.min(np.abs(vals)))
    ok = span < 1.0e-8 and floor >= 1.0e-3
    return CriterionResult(
        11, "detuned-conservation", ok,
        f"span {span:.2e} (constant: {'yes' if span < 1e-8 else 'no'}); "
        f"min |value| {floor:.2e} (needs >= 1e-3); the combination is "
        "identically zero for any constant offset, so the floor clause "
        "cannot hold",
    )


def _flow_grid_deviation(prof: Profile, taus: Sequence[float], ts: Sequence[float]) -> float:
    eps = float(prof.config.epsilon)
    h = 2.5e-4
    ts = np.asarray(ts, dtype=float)
    worst = 0.0
    for tau in taus:
        xi_plus = flow_trajectory(prof, tau + h, ts)
        xi_minus = flow_trajectory(prof, tau - h, ts)
        xi = flow_trajectory(prof, tau, ts)
        lhs = (xi_plus - xi_minus) / (2.0 * h)
        rhs = potential_rate(prof, xi) / (1.0 + eps * tau)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def criterion_12_flow_equation() -> CriterionResult:
    reps = class_representatives()
    worst: Dict[str, float] = {}
    taus = np.linspace(-0.45, 0.45, 10)
    for name, prof in reps.items():
        if prof.is_compact:
            t_hi = t_of_s(prof, 0.5 * prof.s_domain[1])
            ts = np.linspace(0.3 * t_hi, 1.2 * t_hi, 10)
        else:
            ts = np.linspace(0.8, 4.0, 10)
        worst[name] = _flow_grid_deviation(prof, taus, ts)
    ok = all(w < 1.0e-6 for w in worst.values())
    detail = "; ".join(f"{k}: {v:.2e}" for k, v in worst.items())
    return CriterionResult(
        12, "flow-equation", ok,
        f"max |dXi/dtau - udot(Xi)/(1+eps*tau)|: {detail}",
    )


ALL_CRITERIA: Tuple[Callable[[], CriterionResult], ...] = (
    criterion_1_exact_values,
    criterion_2_value_at_half,
    criterion_3_compact_roots,
    criterion_4_noncompact_root,
    criterion_5_residual_suite,
    criterion_6_closed_forms,
    criterion_7_boundary_normalization,
    criterion_8_reflection_identity,
    criterion_9_asymptotic_slopes,
    criterion_10_einstein_limit,
    criterion_11_detuned_conservation,
    criterion_12_flow_equation,
)


def run_all() -> List[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]


def format_lines(results: Sequence[CriterionResult]) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
