"""Output checks for the benchmark, run after the timed loop.

Each check reads what one CLI call wrote and compares it with the
independent oracle (`oracle.py`) or with a property the method must have.
A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from typing import Dict, List, Optional

import mpmath as mp
import sympy as sp

from oracle import Soliton

#: acceptance criterion 5: equation residuals and first-integral span
RESIDUAL_BOUND = 1.0e-9
#: pointwise agreement of alpha, t, f, g_i and u with the oracle
VALUE_REL = 1.0e-8
#: d alpha / d(distance) at a collapsed end
SLOPE_TOL = 1.0e-4
#: the flow relation F(s(Xi)) - F(s(t)) = log(1 + eps tau)/eps
FLOW_TOL = 1.0e-7
#: |chi(1/kappa1)| relative to the sum of its terms' magnitudes
CHI_REL = 1.0e-10
#: rounding allowance of a double-precision evaluation of I, in ulps of its scale
ROUNDING_ULPS = 8


def read_csv(path: str) -> Dict[str, List[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(r[j]) for r in body] for j, name in enumerate(header)}


def _rel(a, b) -> float:
    a, b = mp.mpf(a), mp.mpf(b)
    return float(abs(a - b) / max(abs(a), abs(b), mp.mpf(10) ** -300))


def _pick(values: List[float], target: float) -> int:
    """Index of the value closest to target."""
    return min(range(len(values)), key=lambda j: abs(values[j] - target))


def _increasing(values: List[float]) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def calibrated(doc: Dict, kappa1: Optional[float] = None) -> Soliton:
    """The soliton the program solved.  kappa1 = "solve" becomes the
    oracle's own high-precision root of chi on a noncompact shrinker, and
    the program's root `kappa1` on a compact one: near s* alpha depends on
    the root's last digits."""
    if doc["kappa1"] != "solve":
        return Soliton(doc)
    if doc["boundary"].get("compact_end") is not None:
        return Soliton(doc, kappa1=kappa1)
    return Soliton(doc, kappa1=Soliton(doc, kappa1=0).noncompact_root())


def root_problems(sol: Soliton, kappa1: float) -> List[str]:
    """The program's kappa1 must satisfy the existence condition.

    On compact shrinkers |I(kappa1)| may exceed the root finder's tolerance
    1e-12 max(1, |I(0)|) by the rounding error of a double-precision moment
    sum for I, bounded here by ROUNDING_ULPS units in the last place of the
    majorant integral; the sign change across kappa1 +- 1e-6 certifies a
    root next to kappa1 either way."""
    if not sol.compact:
        rel = sol.chi_relative(1 / Fraction(kappa1))
        return [] if rel <= CHI_REL else [f"chi(1/kappa1) relative {float(rel):.2e}"]
    tol = (1.0e-12 * max(1.0, abs(float(sol.obstruction_exact_zero())))
           + ROUNDING_ULPS * 2.0 ** -52 * float(sol.obstruction(kappa1, majorant=True)))
    out = []
    value = sol.obstruction(kappa1)
    if abs(value) > tol:
        out.append(f"|I(kappa1)| = {float(abs(value)):.2e} > {tol:.2e}")
    delta = 1.0e-6 * max(1.0, abs(kappa1))
    if sol.obstruction(kappa1 - delta) * sol.obstruction(kappa1 + delta) >= 0:
        out.append("I does not change sign across kappa1 +- 1e-6")
    return out


def profile_problems(sol: Soliton, s: List[float], alpha: List[float],
                     rows: List[int]) -> List[str]:
    """alpha > 0 on the grid, agreement with the oracle at the given rows,
    and inward slope 2 at each collapsed end.  At a compact star end the
    slope is taken on the exact soliton, the oracle's root next to kappa1:
    the program's root leaves an O(|I(kappa1)|/h^N*) term at distance h."""
    out = []
    if not all(a > 0 for a in alpha):
        out.append("alpha <= 0 in the interior")
    for j in rows:
        expected = sol.alpha(s[j])
        if _rel(alpha[j], expected) > VALUE_REL:
            out.append(f"alpha({s[j]}) = {alpha[j]!r}, oracle {mp.nstr(expected, 17)}")
    ends = [("zero", sol)]
    if sol.compact:
        root = sol.obstruction_root(float(sol.kappa1))
        ends.append(("star", Soliton(sol.doc, kappa1=root)))
    for end, exact in ends:
        slope = exact.inward_slope(end)
        if abs(slope - 2) > SLOPE_TOL:
            out.append(f"inward slope {mp.nstr(slope, 10)} at the {end} end")
    return out


def check_solve(doc: Dict, report_path: str, csv_path: str) -> List[str]:
    with open(report_path) as fh:
        report = json.load(fh)
    table = read_csv(csv_path)
    out = []
    res = report["residuals"]
    for key in ("r_t_max", "r_fibre_max", "r_base_max", "first_integral_span"):
        if not res[key] < RESIDUAL_BOUND:
            out.append(f"{key} = {res[key]:.2e} >= {RESIDUAL_BOUND}")
    kappa1 = float(Fraction(report["derived"]["kappa1"]))
    sol = calibrated(doc, kappa1)
    if doc["kappa1"] == "solve":
        out += root_problems(sol, kappa1)
    if sol.compact:
        fut = report["futaki"]
        if sol.obstruction_exact_zero() != sp.Rational(fut["at_zero_exact"]):
            out.append(f"I(0) = {fut['at_zero_exact']}, oracle {sol.obstruction_exact_zero()}")
        expected_class = "Compact"
    elif float(sol.eps) == 0:
        expected_class = "CigarParaboloid"
    else:
        expected_class = "AsymptoticallyConical"
    if report["completeness"]["class"] != expected_class:
        out.append(f"completeness {report['completeness']['class']}, expected {expected_class}")

    s, alpha, t = table["s"], table["alpha"], table["t"]
    if not _increasing(t):
        out.append("t is not increasing in s")
    # the last compact row sits 1e-3 s* from the star end, where alpha = J/v
    # in doubles carries ~1e-8 of cancellation; 0.9 s* is well conditioned
    far = 0.9 * float(sol.s_star) if sol.compact else 30.0
    rows = sorted({0, _pick(s, 1.0), _pick(s, far)})
    out += profile_problems(sol, s, alpha, rows)
    j = _pick(s, 2.0)
    if _rel(t[j], sol.t(s[j])) > VALUE_REL:
        out.append(f"t({s[j]}) = {t[j]!r}, oracle {mp.nstr(sol.t(s[j]), 17)}")
    return out


def check_find_kappa(doc: Dict, result_path: str) -> List[str]:
    with open(result_path) as fh:
        result = json.load(fh)
    kappa1 = float(result["kappa1"])
    lo, hi = result["bracket"]
    out = [] if lo <= kappa1 <= hi else [f"kappa1 {kappa1} outside its bracket {lo, hi}"]
    return out + root_problems(Soliton(doc, kappa1=0), kappa1)


def check_tabulate(doc: Dict, reconstruct_csv: str, flow_csv: str, tau: float) -> List[str]:
    out = []
    sol = calibrated(doc)
    rec = read_csv(reconstruct_csv)
    t, s, f, u = rec["t"], rec["s"], rec["f"], rec["u"]
    if not _increasing(s[1:]) or s[0] != 0.0:
        out.append("s is not increasing in t")
    for j in (1, len(t) // 2, len(t) - 1):
        if _rel(t[j], sol.t(s[j])) > VALUE_REL:
            out.append(f"t({s[j]}) = {t[j]!r}, oracle {mp.nstr(sol.t(s[j]), 17)}")
        if _rel(f[j], mp.sqrt(sol.alpha(s[j]))) > VALUE_REL:
            out.append(f"f at s = {s[j]} disagrees with sqrt(alpha)")
        for i, beta in enumerate(sol.beta(s[j])):
            if _rel(rec[f"g_{i + 1}"][j], mp.sqrt(beta)) > VALUE_REL:
                out.append(f"g_{i + 1} at s = {s[j]} disagrees with sqrt(beta)")
        if abs(u[j] - float(sol.phi(s[j]))) > VALUE_REL * max(1.0, abs(u[j])):
            out.append(f"u at s = {s[j]} disagrees with kappa1 (s + kappa0)")

    flow = read_csv(flow_csv)
    ft, xi = flow["t"], flow["xi"]
    if not _increasing(ft):
        out.append("flow table t is not increasing")
    shift = sol.flow_shift(tau)
    for j in (len(ft) // 4, (3 * len(ft)) // 4):
        guess_here = s[_pick(t, ft[j])] or 1.0
        guess_there = s[_pick(t, xi[j])] or 1.0
        s_here = sol.s_of_t(ft[j], guess_here)
        s_there = sol.s_of_t(xi[j], guess_there)
        gap = sol.flow_gap(s_here, s_there)
        if abs(gap - shift) > FLOW_TOL * max(1.0, abs(float(shift))):
            out.append(f"flow relation at t = {ft[j]}: F gap {mp.nstr(gap, 12)}, "
                       f"expected {mp.nstr(shift, 12)}")
    return out
