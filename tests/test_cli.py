"""Command-line interface: reports, tables, exit codes, and determinism."""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kricci import acceptance, cli, model, profiles
from kricci.cli import _write_csv, main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


FLAT_DOC = {
    "epsilon": 0,
    "factors": [{"n": 0, "p": 1, "q": -1}, {"n": 0, "p": 1, "q": -1}],
    "boundary": {"collapse_at_zero": "factor", "compact_end": None},
    "kappa1": 0,
    "sigmas": [0, 1],
}

COMPACT_DOC = {
    "epsilon": -1,
    "factors": [
        {"n": 0, "p": 1, "q": -1},
        {"n": 2, "p": 3, "q": 1},
        {"n": 2, "p": 3, "q": -2},
        {"n": 0, "p": 1, "q": 1},
    ],
    "boundary": {"collapse_at_zero": "factor", "compact_end": {"collapse": "factor"}},
    "kappa1": "solve",
}


def test_solve_flat_report(tmp_path, capsys):
    cfg = write_config(tmp_path, FLAT_DOC)
    csv_path = tmp_path / "samples.csv"
    assert main(["solve", cfg, "--csv", str(csv_path), "--grid", "16"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["validation"]["admissible"] is True
    assert report["derived"]["class"] == "Einstein"
    assert report["residuals"]["r_t_max"] < 1e-9
    assert report["residuals"]["first_integral_span"] < 1e-12
    assert report["completeness"]["class"] == "AsymptoticallyConical"
    header = csv_path.read_text().splitlines()[0]
    assert header == "s,t,alpha,beta_1,beta_2,f,g_1,g_2,u"


def test_solve_compact_solves_kappa1(tmp_path, capsys):
    cfg = write_config(tmp_path, COMPACT_DOC)
    assert main(["solve", cfg, "--grid", "24"]) == 0
    report = json.loads(capsys.readouterr().out)
    solved = report["futaki"]["solved"]
    assert solved["kappa1"] == pytest.approx(0.39368379919727464, abs=1e-9)
    assert report["futaki"]["at_zero_exact"] == "39/5"
    assert report["futaki"]["at_zero"] == pytest.approx(7.8)
    assert abs(report["futaki"]["at_kappa1"]) < 1e-9
    assert report["derived"]["class"] == "ShrinkingCompact"
    assert report["completeness"]["class"] == "Compact"
    assert report["completeness"]["geodesic_length"] == pytest.approx(
        4.83608644226425512632, abs=1e-10)
    assert report["residuals"]["r_t_max"] < 1e-9


def test_reports_are_byte_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, COMPACT_DOC)
    csv_path = tmp_path / "samples.csv"
    assert main(["solve", cfg, "--csv", str(csv_path), "--grid", "16"]) == 0
    out_a = capsys.readouterr().out
    bytes_a = csv_path.read_bytes()
    assert main(["solve", cfg, "--csv", str(csv_path), "--grid", "16"]) == 0
    out_b = capsys.readouterr().out
    assert out_a == out_b
    assert bytes_a == csv_path.read_bytes()


@pytest.mark.parametrize("name", ["compact-shrinker.json", "noncompact-shrinker.json"])
def test_solve_samples_its_grid_in_one_call(tmp_path, capsys, monkeypatch, name):
    """One batched profiles.sample feeds both the residuals and the CSV,
    wherever a kricci module holds the function."""
    calls = []
    real = profiles.sample

    def counted(profile, s):
        calls.append(np.shape(s))
        return real(profile, s)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("kricci"):
            for attr, obj in list(vars(module).items()):
                if obj is real:
                    monkeypatch.setattr(module, attr, counted)
    csv_path = tmp_path / "samples.csv"
    assert main(["solve", str(CONFIGS / name), "--csv", str(csv_path), "--grid", "40"]) == 0
    capsys.readouterr()
    assert calls == [(40,)]
    assert len(csv_path.read_text().splitlines()) == 41


def _count_calls(monkeypatch, counts, real, name):
    """Replace ``real`` wherever a kricci module holds it by a wrapper that
    counts its calls in ``counts[name]``."""
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("kricci"):
            for attr, obj in list(vars(module).items()):
                if obj is real:
                    monkeypatch.setattr(module, attr, counted)


@pytest.mark.parametrize("argv, cores, mirrors", [
    (["find-kappa", str(CONFIGS / "compact-shrinker.json")], 1, 0),
    (["solve", str(CONFIGS / "compact-shrinker.json"), "--grid", "24"], 1, 1),
    (["solve", str(CONFIGS / "noncompact-shrinker.json"), "--grid", "24"], 1, 0),
])
def test_one_exact_core_and_one_validate_per_command(capsys, monkeypatch, argv, cores, mirrors):
    """A command builds its config's exact core once: the root finder, the
    futaki block and the profile read it, and the mirror's v and Psi are
    the parent's reflected.  The full validate runs once, on the solved
    config; the structural clauses ran before the root."""
    counts = {}
    for real, name in ((model._build_core, "core"), (model.validate, "validate"),
                       (model.mirror_config, "mirror")):
        _count_calls(monkeypatch, counts, real, name)
    assert main(argv) == 0
    capsys.readouterr()
    assert counts == {"core": cores, "validate": 1, "mirror": mirrors}


def test_csv_values_round_trip_to_doubles(tmp_path):
    cfg = write_config(tmp_path, FLAT_DOC)
    csv_path = tmp_path / "samples.csv"
    assert main(["solve", cfg, "--csv", str(csv_path), "--grid", "12"]) == 0
    lines = csv_path.read_text().splitlines()
    for line in lines[1:]:
        for cell in line.split(","):
            value = float(cell)           # shortest repr parses back exactly
            assert repr(value) == cell
            s = float(line.split(",")[0])
        assert float(line.split(",")[2]) == pytest.approx(2.0 * s, abs=1e-12)


def test_futaki_sweep_table(capsys):
    assert main(["futaki", str(CONFIGS / "compact-shrinker.json"),
                 "--kappa-min", "-1", "--kappa-max", "1", "--steps", "81"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "kappa1,integral"
    assert "0.0,7.8" in out
    assert "# sign change in [0.375, 0.40000000000000013]" in out


def test_futaki_symmetric_config_has_an_exact_zero(capsys):
    assert main(["futaki", str(CONFIGS / "symmetric-compact.json"),
                 "--kappa-min", "0", "--kappa-max", "1", "--steps", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "0.0,0.0"


def test_futaki_rejects_non_compact(tmp_path, capsys):
    cfg = write_config(tmp_path, FLAT_DOC)
    assert main(["futaki", cfg, "--kappa-min", "0", "--kappa-max", "1",
                 "--steps", "3"]) == 3
    assert "compact shrinking configuration" in capsys.readouterr().err


def test_find_kappa_noncompact(capsys):
    assert main(["find-kappa", str(CONFIGS / "noncompact-shrinker.json")]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["kappa1"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert result["uniqueness_certificate"] == 1
    assert result["residual"] < 1e-12


@pytest.mark.parametrize("middle", [
    {"n": 1, "p": 1, "q": -2},
    {"n": 2, "p": 1, "q": -3},
])
def test_find_kappa_validates_the_config(tmp_path, capsys, middle):
    # both break the compact-shrinker inequality -(N0+1)q < p, so beta_2
    # is negative at s = 0: inadmissible, as for `solve`
    doc = dict(COMPACT_DOC, factors=[{"n": 0, "p": 1, "q": -1}, middle,
                                     {"n": 0, "p": 1, "q": 1}])
    cfg = write_config(tmp_path, doc)
    assert main(["find-kappa", cfg]) == 3
    assert "beta_2 is not positive on the open interior" in capsys.readouterr().err
    assert main(["solve", cfg]) == 3


HALF_EPSILON_DOC = {
    "epsilon": "-1/2",
    "factors": [{"n": 0, "p": 1, "q": -1}, {"n": 2, "p": 3, "q": 1}, {"n": 2, "p": 3, "q": -2}],
    "boundary": {"collapse_at_zero": "factor", "compact_end": {"collapse": "circle"}},
    "kappa1": "solve",
}


@pytest.mark.parametrize("command", ["find-kappa", "solve"])
def test_compact_config_off_epsilon_minus_one_is_inadmissible(tmp_path, capsys, command):
    """The compact existence condition and the interval length hold at
    epsilon = -1 only; elsewhere find-kappa used to return that root anyway."""
    assert main([command, write_config(tmp_path, HALF_EPSILON_DOC)]) == 3
    assert ("epsilon = -1/2 on a compact interval, whose length s_star = 2(N0+N*+2) "
            "closes alpha only at epsilon = -1") in capsys.readouterr().err


@pytest.mark.parametrize("doc", [json.loads((CONFIGS / "invalid-positive-charge.json").read_text()),
                                 HALF_EPSILON_DOC], ids=["invalid-positive-charge", "half-epsilon"])
def test_futaki_refuses_structural_violations(tmp_path, capsys, doc):
    """futaki refuses a structurally broken config as solve does, with the
    same message, in place of sweeping an integral that is not its own."""
    cfg = write_config(tmp_path, doc)
    assert main(["solve", cfg]) == 3
    refused = capsys.readouterr().err
    assert main(["futaki", cfg, "--kappa-min", "-1", "--kappa-max", "1", "--steps", "5"]) == 3
    assert capsys.readouterr().err == refused


def test_reconstruct_table(tmp_path, capsys):
    cfg = write_config(tmp_path, FLAT_DOC)
    assert main(["reconstruct", cfg, "--t-max", "2", "--grid", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,s,f,g_1,g_2,u"
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == pytest.approx(2.0)
    assert last[2] == pytest.approx(2.0, rel=1e-9)       # f = t on the flat cone
    assert last[1] == pytest.approx(2.0, rel=1e-9)       # s = t^2/2


@pytest.mark.parametrize("name", ["flat.json", "expanding.json", "noncompact-shrinker.json"])
def test_reconstruct_far_past_the_last_node(capsys, name):
    """Every t of a complete open profile is reached: at t = 1e7 these cones
    are out at s ~ 1e13, far past the last table node at s = 1e5."""
    assert main(["reconstruct", str(CONFIGS / name), "--t-max", "1e7"]) == 0
    rows = [[float(x) for x in line.split(",")]
            for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 200 and all(math.isfinite(x) for row in rows for x in row)
    assert rows[-1][0] == 1e7 and rows[-1][1] > 1e13
    assert all(a[1] < b[1] for a, b in zip(rows, rows[1:]))


def test_reconstruct_beyond_the_diameter_is_a_schema_error(capsys):
    # the symmetric compact profile has diameter sqrt(2)*pi = 4.4429
    assert main(["reconstruct", str(CONFIGS / "symmetric-compact.json"),
                 "--t-max", "4.5", "--grid", "3"]) == 2
    err = capsys.readouterr().err
    assert "schema error" in err
    assert "beyond the diameter 4.44288" in err


def test_flow_table(capsys):
    assert main(["flow", str(CONFIGS / "steady.json"), "--tau", "0.7",
                 "--grid", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,xi"
    assert len(lines) == 7


@pytest.mark.parametrize("name, tau", [("steady.json", 40.0), ("steady.json", 50.0),
                                       ("steady.json", 500.0), ("steady.json", 1e6),
                                       ("noncompact-shrinker.json", 0.999999),
                                       ("expanding.json", -0.9999999)])
def test_flow_near_the_ends_of_its_time_domain(capsys, name, tau):
    """Inside 1 + eps*tau > 0 the flow moves points toward s = 0 or past
    the last table node, and exits 0 on the default 200-point grid; no
    point passes the tip, which the flow fixes."""
    assert main(["flow", str(CONFIGS / name), "--tau", repr(tau)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 200 and all(math.isfinite(float(xi)) for _, xi in rows)
    assert all(float(xi) >= 0.0 for _, xi in rows)


@pytest.mark.parametrize("kappa1", [0.25, 0.5])
def test_compact_kappa1_off_the_existence_condition_is_inadmissible(tmp_path, capsys, kappa1):
    """validate accepts the document, but alpha is singular at s_star unless
    kappa1 solves the existence condition."""
    cfg = write_config(tmp_path, dict(COMPACT_DOC, kappa1=kappa1))
    for argv in (["solve", cfg], ["reconstruct", cfg, "--t-max", "1.0"],
                 ["flow", cfg, "--tau", "0.1"]):
        assert main(argv) == 3
        assert '"kappa1": "solve"' in capsys.readouterr().err


def test_flow_outside_time_domain(capsys):
    assert main(["flow", str(CONFIGS / "compact-shrinker.json"), "--tau", "2.0"]) == 4
    assert "outside the flow's time domain" in capsys.readouterr().err


@pytest.mark.parametrize("kappa1, kappa0", [(-1e-80, 0), (-5e-324, 0.3)])
def test_arithmetic_overflow_is_a_numeric_failure(tmp_path, capsys, kappa1, kappa0):
    """A tiny kappa1 passes validate, and P's coefficient y/(den a^(n-j))
    in profiles._build then leaves the float range: exit 4, no traceback."""
    doc = dict(json.loads((CONFIGS / "expanding.json").read_text()), kappa1=kappa1, kappa0=kappa0)
    assert main(["solve", write_config(tmp_path, doc)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "Traceback" not in err


def test_unknown_keys_are_a_schema_error(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(FLAT_DOC, bad=1))
    assert main(["solve", cfg]) == 2
    assert "schema error" in capsys.readouterr().err


def test_malformed_fraction_is_a_schema_error(tmp_path, capsys):
    doc = dict(FLAT_DOC, kappa1="3//2")
    cfg = write_config(tmp_path, doc)
    assert main(["solve", cfg]) == 2
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    dict(FLAT_DOC, epsilon=float("nan")),
    dict(FLAT_DOC, kappa1=float("inf")),
    dict(FLAT_DOC, sigmas=[0, float("-inf")]),
    dict(FLAT_DOC, factors=[{"n": 0, "p": float("inf"), "q": -1},
                            {"n": 0, "p": 1, "q": -1}]),
])
def test_non_finite_numbers_are_a_schema_error(tmp_path, capsys, doc):
    cfg = write_config(tmp_path, doc)   # json writes NaN / Infinity literals
    assert main(["solve", cfg]) == 2
    assert "schema error" in capsys.readouterr().err


STEADY = str(CONFIGS / "steady.json")
COMPACT = str(CONFIGS / "compact-shrinker.json")


@pytest.mark.parametrize("argv", [
    ["flow", STEADY, "--tau", "nan"],
    ["flow", STEADY, "--tau", "inf"],
    ["flow", STEADY, "--tau", "0.3", "--grid", "0"],
    ["solve", STEADY, "--grid", "0"],
    ["solve", STEADY, "--grid", "-3"],
    ["solve", STEADY, "--grid", "1"],
    ["solve", STEADY, "--s-max", "0"],
    ["solve", STEADY, "--s-max", "-1"],
    ["solve", STEADY, "--s-max", "nan"],
    ["solve", STEADY, "--s-max", "inf"],
    ["reconstruct", STEADY, "--t-max", "1", "--grid", "0"],
    ["reconstruct", STEADY, "--t-max", "nan"],
    ["reconstruct", STEADY, "--t-max", "inf"],
    ["futaki", COMPACT, "--kappa-min", "nan", "--kappa-max", "1", "--steps", "3"],
    ["futaki", COMPACT, "--kappa-min", "-1", "--kappa-max", "inf", "--steps", "3"],
], ids=lambda argv: " ".join(argv[:1] + argv[2:]))
def test_malformed_flag_values_are_schema_errors(capsys, argv):
    """A flag value no command can use is refused as the same value under a
    document key is: exit 2, and no table."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("schema error: --")


def test_a_rejected_call_leaves_the_shared_parser_as_it_was(tmp_path, capsys):
    """After argparse refuses a call that set --csv, --grid and --out before
    its bad value, a valid call in the same process prints what it prints
    in a process of its own."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    alone = subprocess.run([sys.executable, "-m", "kricci.cli", "solve", STEADY],
                           capture_output=True, text=True, env=env, timeout=300)
    assert alone.returncode == 0, alone.stderr
    leak = tmp_path / "leak"
    with pytest.raises(SystemExit) as exc:
        main(["solve", STEADY, "--csv", str(leak) + ".csv", "--out", str(leak) + ".json",
              "--grid", "12", "--s-max", "wide"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["solve", STEADY]) == 0
    assert capsys.readouterr().out == alone.stdout
    assert list(tmp_path.iterdir()) == []


def test_the_parser_offers_exactly_the_command_functions():
    """main() dispatches to cmd_<command>, so each subcommand needs its
    function and each cmd_* function its subcommand; the source hygiene
    scan counts every cmd_* as reached."""
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert {"cmd_" + name.replace("-", "_") for name in sub.choices} == {
        name for name in vars(cli) if name.startswith("cmd_")}


def test_main_runs_the_command_function_bound_when_it_runs(monkeypatch):
    """The shared parser holds no command function, so a command replaced
    after the parser was built (as a tracer wraps it) is the one that runs."""
    assert main(["find-kappa", COMPACT, "--out", os.devnull]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_find_kappa", lambda args: calls.append(args.config) or 0)
    assert main(["find-kappa", COMPACT]) == 0
    assert calls == [COMPACT]


def test_write_csv_matches_the_per_row_repr(tmp_path, capsys):
    """Every float is written by its own repr, signed zero, subnormals,
    NaN and infinities included, and an empty table is its header."""
    def reference(header, rows):
        lines = [",".join(header)]
        lines.extend(",".join(map(repr, row)) for row in rows)
        return "\n".join(lines) + "\n"

    special = [-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, math.nan, math.inf, -math.inf]
    rng = np.random.default_rng(7)
    wide = (rng.standard_normal((200, 8)) * 10.0 ** rng.integers(-320, 300, (200, 8))).tolist()
    for header, rows in [(["a", "b"], [special[i:i + 2] for i in range(0, 8, 2)]),
                         (["v"], [[x] for x in special]),
                         ([f"c{i}" for i in range(8)], [special] + wide),
                         (["t", "xi"], [])]:
        _write_csv(None, header, rows)
        assert capsys.readouterr().out == reference(header, rows)
        _write_csv(str(tmp_path / "table.csv"), header, rows)
        assert (tmp_path / "table.csv").read_text() == reference(header, rows)


def test_solve_requested_on_non_shrinker_is_inadmissible(tmp_path, capsys):
    doc = dict(FLAT_DOC, kappa1="solve")
    cfg = write_config(tmp_path, doc)
    assert main(["solve", cfg]) == 3
    assert "epsilon < 0" in capsys.readouterr().err


def test_inadmissible_config_names_the_violation(capsys):
    assert main(["solve", str(CONFIGS / "invalid-positive-charge.json")]) == 3
    err = capsys.readouterr().err
    assert "inadmissible configuration" in err
    assert "q_1 must be -1" in err


def test_paper_examples_report_honest_failures(capsys, monkeypatch,
                                               acceptance_results):
    # the detuned-conservation criterion cannot meet its nonzero-floor
    # clause (the combination is identically zero), so the suite exits 1;
    # the suite's results are shared with test_acceptance
    monkeypatch.setattr(acceptance, "run_all", lambda: acceptance_results)
    assert main(["paper-examples"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 13
    assert sum(1 for line in out[:-1] if line.startswith("PASS")) == 11
    assert out[10].startswith("FAIL  11 detuned-conservation")
    assert out[-1] == "11/12 criteria passed"


def test_console_script_is_installed(tmp_path):
    exe = shutil.which("kricci")
    if exe is None:
        pytest.skip("console script not on PATH")
    cfg = write_config(tmp_path, FLAT_DOC)
    proc = subprocess.run([exe, "solve", cfg], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["validation"]["admissible"] is True


def test_module_runs_as_a_script(tmp_path):
    cfg = write_config(tmp_path, FLAT_DOC)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-m", "kricci.cli", "solve", cfg],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["validation"]["admissible"] is True


def test_import_leaves_scipy_out():
    """numpy is the only run-time dependency: a fresh import of the CLI,
    and with it every kricci module, loads no scipy."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = "import sys, kricci.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
