"""Benchmark of the kricci command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kricci checkout.  The benchmark generates the
workload's configs from the seed (generator.py), then drives
`kricci.cli.main(argv)` in this one single-threaded process as a closed
loop with one client: each operation starts when the previous one has
returned.  Operations are repeated in whole rounds; after the first round
the loop runs as many further rounds as fit the time budget at the first
round's pace, and three rounds at least.  One untimed warm-up operation
runs first.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics: setup_s (median fresh-interpreter `import kricci.cli`
over several imports after a discarded one), ops_per_s (operations per CPU
second of the fastest round), latency_p50_s and latency_tail_s (over the
operations' shortest times across rounds) and peak_rss_mb.  With --trace 1
the loop runs half its budget untraced and half with every layer wrapped
(tracing.py), and the JSON carries the per-layer figures per operation plus
the tracing overhead.

Times are CPU time (user + system) of the process doing the work, this one
or the fresh interpreter.  The loop is single-threaded and CPU-bound, so on
a core of its own that is its wall time; wall time also counts the time a
hypervisor takes the core away, which reached 15-30% of a core for minutes
at a time on the reference machine and made identical runs differ by up to
2x.  Round planning, which only bounds how long a run lasts, uses wall time.

Every output is checked after the loop, outside the timed section:
round-0 outputs against the independent oracle (checks.py, oracle.py),
later rounds for byte equality with round 0.  An operation fails when a
CLI call exits nonzero or raises, or when its output fails its check.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List

import generator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench-out")

#: fresh-interpreter imports behind setup_s, after one discarded import
SETUP_IMPORTS = 4
#: rounds every loop runs at least: more rounds, more chances that one runs
#: in a quiet stretch of the host
MIN_ROUNDS = 3
#: a latency tail is reported only with at least this many samples
TAIL_MIN_SAMPLES = 40
#: the tail is the highest order statistic with this many samples beyond it
TAIL_BEYOND = 10
#: rows of the tabulate workload's tables: an eighth of the CLI default, so that
#: a run holds four rounds of four profiles
TABULATE_GRID = "25"


# -- workloads ------------------------------------------------------------------


def solve_calls(cfg: str, out: str) -> List[List[str]]:
    return [["solve", cfg, "--out", out + ".json", "--csv", out + ".csv"]]


def find_kappa_calls(cfg: str, out: str) -> List[List[str]]:
    return [["find-kappa", cfg, "--out", out + ".json"]]


def tabulate_calls(cfg: str, out: str) -> List[List[str]]:
    return [["reconstruct", cfg, "--t-max", repr(generator.FLOW_T_MAX),
             "--grid", TABULATE_GRID, "--csv", out + "-reconstruct.csv"],
            ["flow", cfg, "--tau", repr(generator.FLOW_TAU), "--grid", TABULATE_GRID,
             "--csv", out + "-flow.csv"]]


# checks (and with it sympy and mpmath) is imported only once the loop is
# over, so that neither the timed loop nor peak_rss_mb carries the oracle

def check_solve(doc, out):
    import checks
    return checks.check_solve(doc, out + ".json", out + ".csv")


def check_find_kappa(doc, out):
    import checks
    return checks.check_find_kappa(doc, out + ".json")


def check_tabulate(doc, out):
    import checks
    return checks.check_tabulate(doc, out + "-reconstruct.csv", out + "-flow.csv",
                                 generator.FLOW_TAU)


class Workload:
    def __init__(self, calls: Callable, check: Callable, outputs: List[str], tail: bool):
        self.calls = calls
        self.check = check
        self.outputs = outputs  # suffixes of the files one operation writes
        self.tail = tail


WORKLOADS: Dict[str, Workload] = {
    "solve-open": Workload(solve_calls, check_solve, [".json", ".csv"], tail=False),
    "solve-compact": Workload(solve_calls, check_solve, [".json", ".csv"], tail=False),
    "tabulate": Workload(tabulate_calls, check_tabulate,
                         ["-reconstruct.csv", "-flow.csv"], tail=False),
    "existence": Workload(find_kappa_calls, check_find_kappa, [".json"], tail=True),
}


# -- measurement ------------------------------------------------------------------


def measure_setup() -> float:
    """Median CPU time (user + system) of a fresh interpreter running
    `import kricci.cli`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    times = []
    for i in range(SETUP_IMPORTS + 1):
        before = _children_cpu()
        subprocess.run([sys.executable, "-c", "import kricci.cli"], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        if i:
            times.append(_children_cpu() - before)
    return statistics.median(times)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Loop:
    """Closed-loop driver: one client, whole rounds of the same operations."""

    def __init__(self, cli, workload: Workload, configs: List[str], base: str):
        self.cli = cli
        self.workload = workload
        self.configs = configs
        self.base = base
        self.rounds = 0         # rounds run so far, over every phase
        self.records = []       # (round, op index, latency, exit ok, message)

    def out_prefix(self, round_dir: str, index: int) -> str:
        return os.path.join(self.base, round_dir, f"op{index:02d}")

    def run_op(self, index: int, round_dir: str):
        argvs = self.workload.calls(self.configs[index], self.out_prefix(round_dir, index))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.process_time()
            try:
                for argv in argvs:
                    code = self.cli.main(argv)
                    if code != 0:
                        break
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            latency = time.process_time() - start
        return latency, code == 0, sink.getvalue().strip()

    def warm_up(self) -> None:
        os.makedirs(os.path.join(self.base, "warmup"), exist_ok=True)
        self.run_op(0, "warmup")

    def run(self, budget: float, after_op: Callable[[], None] = lambda: None) -> "Rounds":
        """Run one round, then as many more as the loop's wall time has room
        for within `budget` seconds, and MIN_ROUNDS at least."""
        rounds = Rounds()
        start = time.perf_counter()
        planned = None
        while planned is None or len(rounds.cpu) < planned:
            round_dir = f"r{self.rounds}"
            os.makedirs(os.path.join(self.base, round_dir), exist_ok=True)
            cpu_start = time.process_time()
            latencies = []
            for index in range(len(self.configs)):
                latency, ok, message = self.run_op(index, round_dir)
                after_op()
                latencies.append(latency)
                self.records.append((self.rounds, index, latency, ok, message))
            rounds.cpu.append(time.process_time() - cpu_start)
            rounds.latencies.append(latencies)
            self.rounds += 1
            if planned is None:
                planned = max(MIN_ROUNDS, int(budget / (time.perf_counter() - start)))
        return rounds


class Rounds:
    """CPU seconds of each round of one loop, and of each of its operations.

    The statistics take the fastest of the rounds.  Every round runs the
    same deterministic operations, so what one round spends beyond another
    is the host's doing: on the reference machine it alternated, for 5 to
    60 s at a time, between a state in which a round took 1.4 s and one in
    which the same round took 2.0 s, and a statistic over all rounds moved
    with the share of the run spent in each."""

    def __init__(self):
        self.cpu: List[float] = []
        self.latencies: List[List[float]] = []

    @property
    def operations(self) -> int:
        return sum(len(r) for r in self.latencies)

    def ops_per_s(self) -> float:
        """Operations per CPU second of the fastest round."""
        return len(self.latencies[0]) / min(self.cpu)

    def op_latencies(self) -> List[float]:
        """Each operation's shortest CPU time over the rounds."""
        return [min(column) for column in zip(*self.latencies)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_tail(latencies: List[float], tail: bool) -> float:
    """The highest order statistic with TAIL_BEYOND samples beyond it, when
    the workload reports a tail and has the samples; the median otherwise.
    The samples are the operations' shortest times over the rounds."""
    ordered = sorted(latencies)
    if tail and len(ordered) >= TAIL_MIN_SAMPLES:
        return ordered[len(ordered) - TAIL_BEYOND - 1]
    return statistics.median(ordered)


# -- output checks ------------------------------------------------------------------


def check_outputs(loop: Loop, docs: List[dict]) -> tuple:
    """(failed operations, operations whose output failed its check)."""
    workload = loop.workload
    first = {}
    for rnd, index, _, ok, message in loop.records:
        if ok and index not in first:
            first[index] = rnd
    verdicts = {}
    for index, rnd in first.items():
        prefix = loop.out_prefix(f"r{rnd}", index)
        try:
            problems = workload.check(docs[index], prefix)
        except Exception as exc:  # the oracle could not evaluate the output
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        verdicts[index] = problems
        for problem in problems:
            print(f"op{index:02d} ({loop.configs[index]}): {problem}", file=sys.stderr)

    def content(rnd: int, index: int) -> List[bytes]:
        out = []
        for suffix in workload.outputs:
            with open(loop.out_prefix(f"r{rnd}", index) + suffix, "rb") as fh:
                out.append(fh.read().replace(f"{os.sep}r{rnd}{os.sep}".encode(), b"/r/"))
        return out

    failed = bad_output = 0
    reference = {}
    for rnd, index, _, ok, message in loop.records:
        if not ok:
            failed += 1
            print(f"op{index:02d} round {rnd} failed: {message}", file=sys.stderr)
            continue
        if index not in reference:
            reference[index] = content(first[index], index)
        same = content(rnd, index) == reference[index]
        if verdicts[index] or not same:
            failed += 1
            bad_output += 1
            if not same:
                print(f"op{index:02d} round {rnd}: output differs from round {first[index]}",
                      file=sys.stderr)
    return failed, bad_output


# -- main ------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kricci", "cli.py")):
        print(f"kricci sources not found under {SRC}; run from a kricci checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    base = os.path.join(OUT, args.workload, f"seed-{args.seed}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    docs = generator.WORKLOADS[args.workload](args.seed)
    configs = []
    for index, doc in enumerate(docs):
        path = os.path.join(base, f"cfg-{index:02d}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        configs.append(path)

    setup_s = measure_setup() if args.trace == 0 else None

    sys.path.insert(0, SRC)
    from kricci import cli

    loop = Loop(cli, workload, configs, base)
    loop.warm_up()
    gc.collect()
    metrics = {}
    if args.trace == 0:
        rounds = loop.run(args.seconds)
        latencies = rounds.op_latencies()
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (rounds.ops_per_s(), "1/s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_tail_s": (latency_tail(latencies, workload.tail), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        import tracing

        untraced = loop.run(args.seconds / 2).ops_per_s()
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = True
        try:
            rounds = loop.run(args.seconds / 2, after_op=tracer.end_operation)
        finally:
            tracer.enabled = False
            tracer.uninstall()
        traced = rounds.ops_per_s()
        tracer.write(os.path.join(OUT, "traces"), args.workload)
        for name, value in tracer.layer_metrics(rounds.operations).items():
            unit = ("s" if name.endswith("_s") else
                    "samples/query" if name.endswith("samples_per_query") else "count")
            metrics[name] = (value, unit)
        metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
        metrics["trace.traced_ops_per_s"] = (traced, "1/s")
        metrics["trace.overhead"] = (untraced / traced, "ratio")

    with open(os.path.join(base, "records.json"), "w") as fh:
        json.dump([{"round": rnd, "op": index, "latency_s": latency, "ok": ok}
                   for rnd, index, latency, ok, _ in loop.records], fh, indent=0)
    failed, bad_output = check_outputs(loop, docs)
    for rnd in range(1, loop.rounds):
        shutil.rmtree(os.path.join(base, f"r{rnd}"), ignore_errors=True)
    result = {
        "correct": bad_output == 0,
        "attempted": len(loop.records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
