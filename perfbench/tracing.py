"""Traced run: spans recorded from outside, around calls into each layer.

Each hooked function is replaced, for the traced session only, at the
name its caller looks it up by (``estimator.py`` imports
``estimate_cycles`` by name, so the hook replaces
``repro.estimation.estimator.estimate_cycles``). Spans record only while
a measured window is open and only in the process that installed them:
forked DSE workers inherit the hooks but pass straight through, and
report through the ``ShardOutcome``s that ``run_plan`` returns instead.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans plus the time no span covers
(``unattributed_s``) add up to the summed measured windows.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import repro.dse
import repro.dse.explorer
import repro.estimation.area
import repro.estimation.estimator
import repro.obs
import repro.sim
import repro.synth
from repro.apps import all_benchmarks
from repro.estimation import Estimator
from repro.estimation.train import CorrectionModels
from repro.ir.graph import Design
from repro.ir.node import IRError
from repro.params import ParamSpace
from repro.runtime import CheckpointStore


def _begin_name(args, kwargs) -> str:
    resume = kwargs.get("resume", args[4] if len(args) > 4 else False)
    return "runtime.checkpoint_load" if resume else "runtime.checkpoint_begin"


def _hooks():
    """(owner, attribute, span name) for every traced call."""
    hooks = [
        (repro.dse, "explore", "dse.explore"),
        (repro.dse.explorer, "pareto_front", "dse.pareto"),
        (repro.dse.explorer, "plan_shards", "runtime.plan"),
        (ParamSpace, "sample", "params.sample"),
        (repro.dse.explorer, "run_plan", "runtime.run_plan"),
        (repro.dse.explorer, "merge_outcomes", "runtime.merge"),
        (CheckpointStore, "begin", _begin_name),
        (CheckpointStore, "hydrate", "runtime.checkpoint_hydrate"),
        (Design, "finalize", "ir.finalize"),
        (Estimator, "estimate_many", "estimation.estimate_many"),
        (repro.estimation.estimator, "estimate_cycles", "estimation.cycles"),
        (repro.estimation.area, "raw_area", "estimation.raw_area"),
        (CorrectionModels, "predict_batch", "estimation.nn"),
        (repro.synth, "synthesize", "synth.synthesize"),
        (repro.sim, "simulate", "sim.simulate"),
    ]
    hooks += [(type(b), "build", "apps.build") for b in all_benchmarks()]
    return hooks


#: Every span name a traced run can record, for the self-time table.
SPAN_NAMES = sorted(
    {h[2] for h in _hooks() if isinstance(h[2], str)}
    | {"runtime.checkpoint_load", "runtime.checkpoint_begin"}
)

OBS_CALLS = ("counter", "histogram", "span", "timed")


class Tracer:
    """In-memory span recorder with per-name self-time totals."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.armed = False
        self.spans = []  # (id, name, start, end, parent id), at span end
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.illegal_builds = 0
        self.nn_rows = 0
        self.batch_designs = 0
        self.obs_calls = 0
        self.busy_s = 0.0
        self.pool_capacity_s = 0.0
        self._stack = []  # [span id, start, child time]
        self._next_id = 0
        self._saved = []

    def _record(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            self.spans.append(
                (frame[0], name, frame[1], end, parent and parent[0])
            )
            self.self_s[name] += duration - frame[2]
            self.calls[name] += 1
            if parent is not None:
                parent[2] += duration

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.armed or os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            span = name(args, kwargs) if callable(name) else name
            result = tracer._record(span, fn, args, kwargs)
            return tracer._observe(span, result, args)

        return traced

    def _observe(self, span, result, args):
        """Counts taken where the work happens."""
        if span == "estimation.nn":
            self.nn_rows += len(args[2])
        elif span == "estimation.estimate_many":
            self.batch_designs += len(args[1])
        elif span == "runtime.run_plan" and result.workers > 1:
            estimated = [o for o in result.outcomes if o.estimated]
            if estimated:
                self.busy_s += sum(o.elapsed_s for o in estimated)
                self.pool_capacity_s += result.workers * result.elapsed_s
        return result

    def _wrap_build(self, fn):
        tracer = self
        traced = self._wrap("apps.build", fn)

        @functools.wraps(fn)
        def build(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            except IRError:
                if tracer.armed and os.getpid() == tracer.pid:
                    tracer.illegal_builds += 1
                raise

        return build

    def _wrap_count(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.armed:
                tracer.obs_calls += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for owner, attr, name in _hooks():
            fn = owner.__dict__[attr]
            wrapped = (self._wrap_build(fn) if name == "apps.build"
                       else self._wrap(name, fn))
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
        for attr in OBS_CALLS:
            fn = getattr(repro.obs, attr)
            self._saved.append((repro.obs, attr, fn))
            setattr(repro.obs, attr, self._wrap_count(fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        """Write every recorded span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for span_id, name, start, end, parent in self.spans:
                f.write(json.dumps(
                    {"id": span_id, "name": name, "start": start,
                     "end": end, "parent": parent}
                ) + "\n")


def us_per(total_s: float, count: int) -> float:
    return 1e6 * total_s / count if count else 0.0
