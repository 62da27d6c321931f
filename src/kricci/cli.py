"""Command-line front end.

Config files are JSON documents with the keys

    epsilon   number (< 0 shrinking, 0 steady, > 0 expanding)
    factors   array of {"n": int, "p": rational, "q": rational}
    boundary  {"collapse_at_zero": "circle"|"factor",
               "compact_end": null | {"collapse": "circle"|"factor",
                                      "s_star": rational (optional)},
               "strict_unit_charge": bool (optional, default true)}
    kappa1    number or "solve"
    kappa0    number (optional, default 0)
    sigmas    array of rationals (steady only)
    s_max     number (optional, default 1e4): far end of sampling grids
    grid      int (optional, default 200): number of grid points

Rationals may be written as numbers or strings like "3/2".  Unknown keys
anywhere in the document are rejected.  Exit codes: 0 success, 2 schema
error (the document does not conform to the dialect above, or a flag value
is malformed: a NaN or infinite --s-max, --t-max, --tau, --kappa-min or
--kappa-max, an --s-max or --t-max <= 0, a --grid < 2 or a --steps < 2),
3 inadmissible configuration (it conforms but fails validation, has the
wrong class for the command, or is compact with a kappa1 that misses the
existence condition), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from kricci import acceptance, geometry
from kricci.model import (
    BoundaryStructure,
    Collapse,
    CompactEnd,
    FanoFactor,
    SolitonConfig,
    derive_config,
    structural_violations,
    validate,
    with_kappa1,
)
from kricci.obstruction import (
    find_kappa1_compact,
    find_kappa1_noncompact,
    futaki_integral,
    futaki_sweep,
)
from kricci.profiles import build_profile, sample
from kricci.residuals import default_grid, soliton_residuals

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INADMISSIBLE = 3
EXIT_NUMERIC = 4

_TOP_KEYS = {"epsilon", "factors", "boundary", "kappa1", "kappa0", "sigmas", "s_max", "grid"}
_FACTOR_KEYS = {"n", "p", "q"}
_BOUNDARY_KEYS = {"collapse_at_zero", "compact_end", "strict_unit_charge"}
_COMPACT_KEYS = {"collapse", "s_star"}


class SchemaError(Exception):
    pass


class NumericFailure(Exception):
    pass


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SchemaError(f"{where}: expected a number or a rational string, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _number(value: Any, where: str):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise SchemaError(f"{where}: expected a finite number, got {value!r}")
    if isinstance(value, str):
        return _rational(value, where)
    return value


def _check_keys(obj: Dict[str, Any], allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


def _parse_collapse(value: Any, where: str) -> Collapse:
    if value == "circle":
        return Collapse.CIRCLE
    if value == "factor":
        return Collapse.FACTOR
    raise SchemaError(f'{where}: expected "circle" or "factor", got {value!r}')


def load_config(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    _check_keys(doc, _TOP_KEYS, "config")
    for key in ("epsilon", "factors", "boundary", "kappa1"):
        if key not in doc:
            raise SchemaError(f"config: missing required key '{key}'")
    return doc


def config_from_document(doc: Dict[str, Any]) -> SolitonConfig:
    epsilon = _number(doc["epsilon"], "epsilon")

    if not isinstance(doc["factors"], list) or not doc["factors"]:
        raise SchemaError("factors: expected a nonempty array")
    factors = []
    for idx, raw in enumerate(doc["factors"], start=1):
        _check_keys(raw, _FACTOR_KEYS, f"factors[{idx}]")
        for key in _FACTOR_KEYS:
            if key not in raw:
                raise SchemaError(f"factors[{idx}]: missing key '{key}'")
        if isinstance(raw["n"], bool) or not isinstance(raw["n"], int):
            raise SchemaError(f"factors[{idx}].n: expected an integer")
        try:
            factors.append(
                FanoFactor(
                    n=raw["n"],
                    p=_rational(raw["p"], f"factors[{idx}].p"),
                    q=_rational(raw["q"], f"factors[{idx}].q"),
                )
            )
        except ValueError as exc:
            raise SchemaError(f"factors[{idx}]: {exc}") from exc

    bnd = doc["boundary"]
    _check_keys(bnd, _BOUNDARY_KEYS, "boundary")
    if "collapse_at_zero" not in bnd:
        raise SchemaError("boundary: missing key 'collapse_at_zero'")
    compact_end = None
    if bnd.get("compact_end") is not None:
        ce = bnd["compact_end"]
        _check_keys(ce, _COMPACT_KEYS, "boundary.compact_end")
        if "collapse" not in ce:
            raise SchemaError("boundary.compact_end: missing key 'collapse'")
        s_star = None
        if "s_star" in ce:
            s_star = _rational(ce["s_star"], "boundary.compact_end.s_star")
        compact_end = CompactEnd(
            collapse=_parse_collapse(ce["collapse"], "boundary.compact_end.collapse"),
            s_star=s_star,
        )
    strict = bnd.get("strict_unit_charge", True)
    if not isinstance(strict, bool):
        raise SchemaError("boundary.strict_unit_charge: expected a boolean")
    boundary = BoundaryStructure(
        collapse_at_zero=_parse_collapse(bnd["collapse_at_zero"], "boundary.collapse_at_zero"),
        compact_end=compact_end,
        strict_unit_charge=strict,
    )

    kappa1 = doc["kappa1"]
    if kappa1 == "solve":
        kappa1 = 0
    else:
        kappa1 = _number(kappa1, "kappa1")

    kappa0 = _number(doc.get("kappa0", 0), "kappa0")

    sigmas = None
    if doc.get("sigmas") is not None:
        if not isinstance(doc["sigmas"], list):
            raise SchemaError("sigmas: expected an array")
        sigmas = [_number(x, f"sigmas[{i+1}]") for i, x in enumerate(doc["sigmas"])]

    if "s_max" in doc:
        s_max = _number(doc["s_max"], "s_max")
        if float(s_max) <= 0:
            raise SchemaError("s_max: must be positive")
    if "grid" in doc:
        if isinstance(doc["grid"], bool) or not isinstance(doc["grid"], int) or doc["grid"] < 2:
            raise SchemaError("grid: expected an integer >= 2")

    try:
        return derive_config(
            epsilon=epsilon,
            factors=factors,
            boundary=boundary,
            kappa1=kappa1,
            kappa0=kappa0,
            sigmas=sigmas,
        )
    except ValueError as exc:
        raise InadmissibleError(str(exc)) from exc


class InadmissibleError(Exception):
    pass


def _admissible_config(doc: Dict[str, Any], solve: bool):
    """Return (config, root_result_or_None, validation report) of a document.

    With `solve`, kappa1 is solved first; that needs a structurally sound
    shrinking instance, since class-tag violations about the placeholder
    kappa1 are expected at that stage.  The instance returned, solved or
    not, passes every check of `validate`.  The structural clauses do not
    read kappa1, so they run once, before the root; the solved config keeps
    the exact core the root finder built.
    """
    config = config_from_document(doc)
    structural = structural_violations(config)
    root = None
    if solve:
        if structural:
            raise InadmissibleError("; ".join(structural))
        if float(config.epsilon) >= 0:
            raise InadmissibleError(
                'solving for kappa1 needs a shrinking configuration (epsilon < 0)'
            )
        try:
            if config.is_compact:
                root = find_kappa1_compact(config)
            else:
                root = find_kappa1_noncompact(config)
        except (RuntimeError, ValueError) as exc:
            raise NumericFailure(str(exc)) from exc
        config = with_kappa1(config, root.kappa1)
    report = validate(config, structural)
    if not report.admissible:
        raise InadmissibleError("; ".join(report.violations))
    return config, root, report


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit_json(obj: Any, out_path: Optional[str]) -> None:
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path: Optional[str], header: Sequence[str], rows: Sequence[Sequence[float]]) -> None:
    """Write rows of Python floats (an array's tolist()), each by repr."""
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in rows)
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid_params(doc: Dict[str, Any], args) -> Tuple[float, int]:
    s_max = float(_number(doc.get("s_max", 1.0e4), "s_max"))
    n = int(doc.get("grid", 200))
    if getattr(args, "s_max", None) is not None:
        s_max = args.s_max
    if getattr(args, "grid", None) is not None:
        n = args.grid
    return s_max, n


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    doc = load_config(args.config)
    config, root, report_v = _admissible_config(doc, doc["kappa1"] == "solve")
    profile = _profile(config)
    s_max, n_grid = _grid_params(doc, args)
    grid = default_grid(profile, n=n_grid, s_max=s_max)
    smp = sample(profile, grid)
    res = soliton_residuals(profile, smp)
    summary = {
        "r_t_max": float(np.max(np.abs(res.r_t))),
        "r_fibre_max": float(np.max(np.abs(res.r_fibre))),
        "r_base_max": float(np.max(np.abs(res.r_base))) if res.r_base.size else 0.0,
        "first_integral_span": float(np.max(res.c_values) - np.min(res.c_values)),
        "bianchi_span": float(np.max(res.bianchi) - np.min(res.bianchi)),
    }
    if not all(math.isfinite(v) for v in summary.values()):
        raise NumericFailure("non-finite residuals on the sampling grid")

    futaki_section = None
    if config.is_compact and float(config.epsilon) < 0:
        ev0 = futaki_integral(config, 0)
        ev = futaki_integral(config, config.kappa1)
        futaki_section = {
            "at_zero_exact": ev0.exact_value,
            "at_zero": ev0.value,
            "at_kappa1": ev.value,
        }
        if root is not None:
            futaki_section["solved"] = {
                "kappa1": root.kappa1,
                "residual": root.residual,
                "iterations": root.iterations,
                "bracket": list(root.bracket),
            }
    comp = geometry.completeness_report(profile)

    columns = np.vstack([grid, geometry.t_of_s(profile, grid), smp.alpha, smp.beta,
                         np.sqrt(np.maximum(smp.alpha, 0.0)),
                         np.sqrt(np.maximum(smp.beta, 0.0)), smp.phi])
    csv_rows = columns.T.tolist()
    r = config.r
    header = (
        ["s", "t", "alpha"]
        + [f"beta_{i+1}" for i in range(r)]
        + ["f"]
        + [f"g_{i+1}" for i in range(r)]
        + ["u"]
    )
    if args.csv:
        _write_csv(args.csv, header, csv_rows)

    report = {
        "config": doc,
        "derived": {
            "class": report_v.soliton_class.value,
            "E_star": config.E_star,
            "sigmas": list(config.sigmas),
            "c": config.c,
            "kappa1": config.kappa1,
            "kappa0": config.kappa0,
            "s_star": config.s_star,
        },
        "validation": {
            "admissible": report_v.admissible,
            "violations": list(report_v.violations),
        },
        "residuals": summary,
        "futaki": futaki_section,
        "completeness": {
            "class": comp.completeness_class.value,
            "geodesic_length": comp.geodesic_length,
            "slope_estimates": comp.slope_estimates,
            "note": comp.note,
        },
        "samples": {
            "count": len(csv_rows),
            "csv": args.csv if args.csv else None,
        },
    }
    _emit_json(report, args.out)
    return EXIT_OK


def cmd_futaki(args) -> int:
    doc = load_config(args.config)
    config = config_from_document(doc)
    structural = structural_violations(config)
    if structural:
        raise InadmissibleError("; ".join(structural))
    if not (config.is_compact and float(config.epsilon) < 0):
        raise InadmissibleError("the sweep needs a compact shrinking configuration")
    ks = np.linspace(args.kappa_min, args.kappa_max, args.steps)
    values = futaki_sweep(config, ks.tolist())
    _write_csv(None, ["kappa1", "integral"], np.column_stack([ks, values]).tolist())
    for i in range(len(values) - 1):
        if values[i] == 0.0 or (values[i] < 0.0) != (values[i + 1] < 0.0):
            print(f"# sign change in [{float(ks[i])!r}, {float(ks[i+1])!r}]")
    return EXIT_OK


def cmd_find_kappa(args) -> int:
    _, rr, _ = _admissible_config(load_config(args.config), solve=True)
    _emit_json(
        {
            "kappa1": rr.kappa1,
            "bracket": list(rr.bracket),
            "residual": rr.residual,
            "iterations": rr.iterations,
            "uniqueness_certificate": rr.uniqueness_certificate,
        },
        args.out,
    )
    return EXIT_OK


def _profile(config: SolitonConfig):
    """The profile of an admissible config.  On a compact one, alpha is
    regular at s_star only at a kappa1 that satisfies the existence
    condition, where build_profile glues the mirror profile on."""
    profile = build_profile(config)
    if profile.is_compact and profile.mirror is None:
        raise InadmissibleError(
            f"kappa1 = {config.kappa1} misses the compact existence condition, so alpha "
            f'is singular at s_star; set "kappa1": "solve"')
    return profile


def _admissible_profile(doc: Dict[str, Any]):
    config, _, _ = _admissible_config(doc, doc["kappa1"] == "solve")
    return _profile(config)


def cmd_reconstruct(args) -> int:
    doc = load_config(args.config)
    profile = _admissible_profile(doc)
    if profile.is_compact:
        diameter = geometry.t_of_s(profile, profile.s_domain[1])
        if args.t_max > diameter:
            raise SchemaError(
                f"--t-max {args.t_max!r} is beyond the diameter {float(diameter)!r} "
                f"of the compact profile")
    _, n_grid = _grid_params(doc, args)
    try:
        mf = geometry.metric_functions(profile, np.linspace(0.0, args.t_max, n_grid))
    except ValueError as exc:
        raise NumericFailure(str(exc)) from exc
    r = profile.config.r
    header = ["t", "s", "f"] + [f"g_{i+1}" for i in range(r)] + ["u"]
    rows = np.vstack([mf.t_grid, mf.s_of_t, mf.f, mf.g, mf.u]).T.tolist()
    _write_csv(args.csv, header, rows)
    return EXIT_OK


def cmd_flow(args) -> int:
    doc = load_config(args.config)
    profile = _admissible_profile(doc)
    _, n_grid = _grid_params(doc, args)
    hi = profile.s_domain[1]
    s_hi = float(hi) * 0.95 if profile.is_compact else min(50.0, 1.0e4)
    s_lo = float(hi) * 0.05 if profile.is_compact else 0.05
    try:
        ts = geometry.t_of_s(profile, np.linspace(s_lo, s_hi, n_grid))
        xis = geometry.flow_trajectory(profile, args.tau, ts)
    except ValueError as exc:
        raise NumericFailure(str(exc)) from exc
    _write_csv(args.csv, ["t", "xi"], np.column_stack([ts, xis]).tolist())
    return EXIT_OK


def cmd_paper_examples(args) -> int:
    results = acceptance.run_all()
    print(acceptance.format_lines(results))
    return EXIT_OK if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------


def _check_flags(args) -> None:
    """Refuse the flag values no command can use, as schema errors."""
    for flag in ("s_max", "t_max", "tau", "kappa_min", "kappa_max"):
        value = getattr(args, flag, None)
        if value is not None and not math.isfinite(value):
            raise SchemaError(f"--{flag.replace('_', '-')} must be finite, got {value!r}")
    for flag in ("s_max", "t_max"):
        value = getattr(args, flag, None)
        if value is not None and value <= 0:
            raise SchemaError(f"--{flag.replace('_', '-')} must be positive")
    for flag in ("grid", "steps"):
        value = getattr(args, flag, None)
        if value is not None and value < 2:
            raise SchemaError(f"--{flag} must be at least 2")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    main() call in the process; parse_args leaves no state on it.  It holds
    no command function: main() looks up cmd_<command> when it runs."""
    parser = argparse.ArgumentParser(
        prog="kricci",
        description="Explicit cohomogeneity-one gradient Kahler-Ricci solitons: "
        "profiles, residual verification, existence roots, and flow maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="derive, validate, verify, and report")
    p.add_argument("config")
    p.add_argument("--out", help="write the JSON report here (default: stdout)")
    p.add_argument("--csv", help="write the sample table here")
    p.add_argument("--s-max", type=float, dest="s_max", help="far end of the sampling grid")
    p.add_argument("--grid", type=int, help="number of grid points")

    p = sub.add_parser("futaki", help="sweep the existence integral over kappa1")
    p.add_argument("config")
    p.add_argument("--kappa-min", type=float, required=True)
    p.add_argument("--kappa-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)

    p = sub.add_parser("find-kappa", help="solve the existence condition for kappa1")
    p.add_argument("config")
    p.add_argument("--out", help="write the JSON result here (default: stdout)")

    p = sub.add_parser("reconstruct", help="metric functions on a t-grid (CSV)")
    p.add_argument("config")
    p.add_argument("--t-max", type=float, required=True, dest="t_max")
    p.add_argument("--grid", type=int, help="number of grid points")
    p.add_argument("--csv", help="write the table here (default: stdout)")

    p = sub.add_parser("flow", help="self-similarity flow map at one flow time (CSV)")
    p.add_argument("config")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--grid", type=int, help="number of grid points")
    p.add_argument("--csv", help="write the table here (default: stdout)")

    sub.add_parser("paper-examples", help="run the acceptance suite")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SchemaError as exc:
        return _fail(EXIT_SCHEMA, f"schema error: {exc}")
    except InadmissibleError as exc:
        return _fail(EXIT_INADMISSIBLE, f"inadmissible configuration: {exc}")
    except NumericFailure as exc:
        return _fail(EXIT_NUMERIC, f"numeric failure: {exc}")
    except ValueError as exc:
        return _fail(EXIT_NUMERIC, f"numeric failure: {exc}")


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
