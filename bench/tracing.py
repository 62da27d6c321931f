"""Span tracing of calls into kricci's layers, from outside the program.

`Tracer.install()` wraps every public function of each layer module and
rebinds the wrapper wherever a kricci module holds the function under any
name (`residuals` imports `profiles.sample` as `_profile_sample`, `cli`
imports most of the library by name).  A wrapped call records one span:
the function, its start and end in process CPU time (the clock of the
end-to-end figures), and the span that was open when it began.  Spans live
in flat arrays in memory; `write()` saves them when the run ends, and
`layer_metrics()` derives every per-layer figure from them.

`polyexp.moment` runs about ten times per `profiles.sample` and costs about
as much as a span, so it is counted rather than spanned; its time stays in
its caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from array import array
from typing import Dict, List

import numpy as np

LAYERS = ("cli", "model", "polyexp", "profiles", "residuals", "obstruction", "geometry")
COUNT_ONLY = {"polyexp.moment"}
#: the geometry queries whose sample() cost `geometry.samples_per_query` reports
QUERIES = ("geometry.t_of_s", "geometry.s_of_t", "geometry.flow_trajectory")
#: functions whose first call on each profile builds a cold table
FIRST_CALL = ("geometry.t_of_s", "geometry.flow_trajectory")


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.name_id: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Dict[str, int] = {}
        self.first_calls = array("i")
        self._seen_profiles: Dict[tuple, object] = {}
        self._stack: List[int] = []
        self._patched: List[tuple] = []
        self.enabled = False

    # -- wrapping --------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        first_call = name in FIRST_CALL
        clock = time.process_time
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0.0)
            if first_call:
                key = (nid, id(args[0]))
                if key not in self._seen_profiles:
                    self._seen_profiles[key] = args[0]  # keeps the id unique
                    self.first_calls.append(idx)
            stack.append(idx)
            self.span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                stack.pop()

        return traced

    def _count_wrapper(self, name: str, fn):
        self.counts[name] = 0
        counts = self.counts

        def counted(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every public function of the layer modules in place."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"kricci.{layer}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
                replacements[obj] = make(name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "kricci" and not mod_name.startswith("kricci."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    setattr(module, attr, replacements[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def end_operation(self) -> None:
        """Forget which profiles were seen: the next operation builds its own."""
        self._seen_profiles.clear()

    # -- output ----------------------------------------------------------------

    def write(self, directory: str, stem: str) -> None:
        """Save the spans as `<stem>.spans.npz` and the names and counters
        as `<stem>.names.json`."""
        os.makedirs(directory, exist_ok=True)
        np.savez(os.path.join(directory, f"{stem}.spans.npz"),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start),
                 end=np.frombuffer(self.span_end))
        with open(os.path.join(directory, f"{stem}.names.json"), "w") as fh:
            json.dump({"names": self.names, "counts": self.counts}, fh, indent=1)

    def layer_metrics(self, operations: int) -> Dict[str, float]:
        """Per-operation figures derived from the recorded spans."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(name))
        self_time = dur - child_time

        def ids(*names):
            return [self.name_id[n] for n in names if n in self.name_id]

        def below(mask):
            """Spans with an ancestor in `mask`."""
            under = np.zeros(len(name), dtype=bool)
            if len(name) == 0:
                return under
            while True:
                nxt = has_parent & (mask[np.maximum(parent, 0)] | under[np.maximum(parent, 0)])
                if np.array_equal(nxt, under):
                    return under
                under = nxt

        def spans_of(fn):
            return np.isin(name, ids(fn))

        def busy(fn):
            mask = spans_of(fn)
            return float(dur[mask & ~below(mask)].sum())

        def first_call(fn):
            firsts = np.frombuffer(self.first_calls, dtype=np.int32)
            return float(dur[firsts[np.isin(name[firsts], ids(fn))]].sum())

        query = np.isin(name, ids(*QUERIES))
        under_query = below(query)
        sample = spans_of("profiles.sample")
        top_queries = int((query & ~under_query).sum())
        samples_in_queries = int((sample & under_query).sum())

        def layer_self(layer):
            mask = np.isin(name, [i for n, i in self.name_id.items()
                                  if n.startswith(layer + ".")])
            return float(self_time[mask].sum())

        def calls(fn):
            return int(self.counts[fn]) if fn in self.counts else int(spans_of(fn).sum())

        ops = float(operations)
        per_op = {
            "cli.main.busy_s": busy("cli.main"),
            "cli.self_s": layer_self("cli"),
            "model.validate.calls": calls("model.validate"),
            "profiles.build_profile.busy_s": busy("profiles.build_profile"),
            "profiles.sample.calls": calls("profiles.sample"),
            "profiles.sample.busy_s": busy("profiles.sample"),
            "polyexp.exp_poly_integral.calls": calls("polyexp.exp_poly_integral"),
            "polyexp.moment.calls": calls("polyexp.moment"),
            "residuals.soliton_residuals.busy_s": busy("residuals.soliton_residuals"),
            "obstruction.futaki_integral.calls": calls("obstruction.futaki_integral"),
            "obstruction.futaki_integral.busy_s": busy("obstruction.futaki_integral"),
            "obstruction.find_kappa1_compact.busy_s": busy("obstruction.find_kappa1_compact"),
            "obstruction.find_kappa1_noncompact.busy_s": busy("obstruction.find_kappa1_noncompact"),
            "geometry.t_of_s.calls": calls("geometry.t_of_s"),
            "geometry.t_of_s.self_s": float(self_time[spans_of("geometry.t_of_s")].sum()),
            "geometry.t_of_s.first_call_s": first_call("geometry.t_of_s"),
            "geometry.s_of_t.calls": calls("geometry.s_of_t"),
            "geometry.s_of_t.self_s": float(self_time[spans_of("geometry.s_of_t")].sum()),
            "geometry.flow_trajectory.calls": calls("geometry.flow_trajectory"),
            "geometry.flow_trajectory.first_call_s": first_call("geometry.flow_trajectory"),
            "geometry.flow_trajectory.self_s":
                float(self_time[spans_of("geometry.flow_trajectory")].sum()),
            "geometry.completeness_report.busy_s": busy("geometry.completeness_report"),
        }
        out = {k: v / ops for k, v in per_op.items()}
        out["geometry.samples_per_query"] = (
            samples_in_queries / top_queries if top_queries else 0.0)
        return out
