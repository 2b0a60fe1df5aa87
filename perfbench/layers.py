"""Per-layer attribution from outside the program.

:func:`install` wraps the public entry points of each layer in timers
owned by the benchmark; the program's source is not touched.  A
function bound into other modules by ``from ... import`` is replaced
in every ``repro`` module that holds it, so callers see the timer
wherever they look the name up.

Timers nest: a layer's *self* time is its duration minus the time of
timed calls inside it, so the self times of all layers add up to the
time spent inside the outermost timed calls (the experiments), and
``unattributed_s`` is what is left of the whole process.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class LayerClock:
    """A stack of timed frames with self-time accounting."""

    def __init__(self) -> None:
        self._stack: List[list] = []  # [layer, start, child_seconds]
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: inclusive time, counted only for the outermost frame of a layer
        #: so recursion is not double-counted.
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        layer, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.calls[layer] += 1
        self.self_s[layer] += duration - children
        if all(frame[0] != layer for frame in self._stack):
            self.total_s[layer] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, layer: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result, args)
            return result

        return timed

    def to_json(self) -> dict:
        return {
            "layers": {
                layer: {
                    "calls": self.calls[layer],
                    "self_s": self.self_s[layer],
                    "total_s": self.total_s[layer],
                }
                for layer in sorted(self.calls)
            },
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }


def _rebind(original: Callable, replacement: Callable) -> None:
    """Replace ``original`` in every loaded ``repro`` module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(clock: LayerClock, module, attr: str, layer: str, on_result=None) -> None:
    original = getattr(module, attr, None)
    if original is None:
        clock.missing.append(f"{module.__name__}.{attr}")
        return
    _rebind(original, clock.wrap(layer, original, on_result))


def _wrap_method(clock: LayerClock, cls, attr: str, layer: str, on_result=None) -> None:
    raw = cls.__dict__.get(attr)
    if raw is None:
        clock.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
        return
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(clock.wrap(layer, raw.__func__, on_result)))
    else:
        setattr(cls, attr, clock.wrap(layer, raw, on_result))


def install(clock: LayerClock) -> None:
    """Time every layer's entry points; call after the experiments load."""
    from repro.analysis import exp_sampling
    from repro.core import convergence, diskcache, tracestore
    from repro.core.sampling import SamplingProfiler
    from repro.isa.machine import Machine
    from repro.predictors import base as predictor_base
    from repro.workloads import harness

    def count_events(trace, _args) -> None:
        clock.counts["tracestore.events"] += len(trace)

    def count_instructions(result, _args) -> None:
        clock.counts["isa.instructions"] += result.instructions_executed

    def count_store(_result, args) -> None:
        try:
            clock.counts["diskcache.store_bytes"] += os.path.getsize(args[0])
        except OSError:
            pass

    def count_lookup(payload, _args) -> None:
        clock.counts["diskcache.lookups"] += 1
        if payload is not None:
            clock.counts["diskcache.hits"] += 1

    def count_predictions(stats, _args) -> None:
        clock.counts["predictors.events"] += stats.executions

    _wrap_function(clock, harness, "capture_workload_events", "isa.capture", count_events)
    _wrap_method(clock, Machine, "run", "isa.interpret", count_instructions)
    for attr in ("profile_workload", "trace_workload", "run_workload"):
        _wrap_function(clock, harness, attr, "isa.live_profile")
    _wrap_method(clock, tracestore.EventTrace, "to_payload", "tracestore.codec")
    _wrap_method(clock, tracestore.EventTrace, "from_payload", "tracestore.codec")
    _wrap_function(clock, diskcache, "cache_store", "diskcache.store", count_store)
    _wrap_function(clock, diskcache, "cache_load", "diskcache.load", count_lookup)
    for attr in ("replay_profile", "replay_site_traces", "replay_global_events"):
        _wrap_function(clock, tracestore, attr, "fold")
    _wrap_function(clock, predictor_base, "run_trace", "predictors", count_predictions)
    _wrap_function(clock, convergence, "convergence_curve", "sampling")
    _wrap_method(clock, SamplingProfiler, "record_batch", "sampling")
    # The sampler sweep of table-sampling-accuracy feeds every sampler
    # event by event; its feeding loop is the only boundary cheap to time.
    _wrap_function(clock, exp_sampling, "_replay_load_stream", "sampling")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def derive(layer_json: dict, whole_s: float, import_s: float, exit_s: float,
           replay_events: float) -> Dict[str, float]:
    """Per-layer metrics of one traced paper run.

    ``replay_events`` is the program's own ``tracestore.replay_events``
    counter (events the fold replayed).
    """
    layers = layer_json["layers"]
    counts = layer_json["counts"]

    def total(layer: str) -> float:
        return layers.get(layer, {}).get("total_s", 0.0)

    experiments = {
        layer: stats for layer, stats in layers.items() if layer.startswith("experiment.")
    }
    inside = sum(stats["total_s"] for stats in experiments.values())
    metrics = {
        "process.import_s": import_s,
        "process.exit_s": exit_s,
        "isa.capture_s": total("isa.capture"),
        "isa.instructions": counts.get("isa.instructions", 0.0),
        "isa.minstr_per_s": _ratio(counts.get("isa.instructions", 0.0), total("isa.interpret")) / 1e6,
        "tracestore.events": counts.get("tracestore.events", 0.0),
        "tracestore.codec_s": total("tracestore.codec"),
        "diskcache.store_s": total("diskcache.store"),
        "diskcache.store_mb": counts.get("diskcache.store_bytes", 0.0) / 2**20,
        "diskcache.load_s": total("diskcache.load"),
        "diskcache.hit_ratio": _ratio(counts.get("diskcache.hits", 0.0),
                                      counts.get("diskcache.lookups", 0.0)),
        "fold.replay_s": total("fold"),
        "fold.events_per_s": _ratio(replay_events, total("fold")),
        "predictors.run_trace_s": total("predictors"),
        "predictors.run_trace_calls": float(layers.get("predictors", {}).get("calls", 0)),
        "predictors.events_per_s": _ratio(counts.get("predictors.events", 0.0), total("predictors")),
        "sampling.s": total("sampling"),
        "analysis.self_s": sum(stats["self_s"] for stats in experiments.values()),
        "unattributed_s": whole_s - import_s - exit_s - inside,
    }
    for layer, stats in experiments.items():
        metrics[f"{layer}.s"] = stats["total_s"]
    return metrics


def self_time_table(layer_json: dict, whole_s: float, import_s: float, exit_s: float) -> List[tuple]:
    """Rows ``(layer, self_s, calls, share)``: the parts that add up to
    ``whole_s``.  Experiment frames are folded into one ``analysis`` row
    (their self time is analysis and rendering)."""
    rows: Dict[str, List[float]] = {}
    for layer, stats in layer_json["layers"].items():
        key = "analysis" if layer.startswith("experiment.") else layer
        row = rows.setdefault(key, [0.0, 0])
        row[0] += stats["self_s"]
        row[1] += stats["calls"]
    inside = sum(
        stats["total_s"] for layer, stats in layer_json["layers"].items()
        if layer.startswith("experiment.")
    )
    rows["process.import"] = [import_s, 1]
    rows["process.exit"] = [exit_s, 1]
    rows["unattributed"] = [whole_s - import_s - exit_s - inside, 0]
    return sorted(
        ((layer, self_s, int(calls), _ratio(self_s, whole_s))
         for layer, (self_s, calls) in rows.items()),
        key=lambda row: -row[1],
    )
