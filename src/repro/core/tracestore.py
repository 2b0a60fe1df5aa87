"""Simulate-once / replay-many event-trace store.

One instrumented simulation of a (program, input) pair produces a
totally ordered stream of (site, value) events covering *every* profile
family — defining instructions, loads, memory stores, call parameters,
returns.  Everything the analysis layer derives (TNV profiles, per-site
value traces, sampling sweeps, prediction-table simulations) is a pure
function of that stream, so the suite only ever needs to pay the
interpreter cost once per input and can replay the stream for each
downstream consumer.

:class:`EventTrace` is the captured stream in columnar form: an
interned site table, a ``uint32`` site-id column and an ``int64`` value
column (the ISA is 64-bit two's complement, so every event value fits).
Replays filter by :class:`~repro.isa.instrument.ProfileTarget` — each
family's sub-stream is exactly the event sequence a live observer
subscribed to that family would have seen, in the same order.

On disk a trace is one pickle under the source-hash-keyed cache
(:mod:`repro.core.diskcache`): the site table pickled as-is and the two
columns as zlib-compressed raw bytes.  The repetitive site-id column
compresses to a few percent; values are stored at level 1 — cheap, and
still a large win on the mostly-small integers the workloads produce.
"""

from __future__ import annotations

import zlib
from array import array
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.core.fold import SiteFold, fold_values
from repro.core.profile import ProfileDatabase, TNVConfig
from repro.core.sites import Site, SiteKind
from repro.errors import ReproError
from repro.isa.instrument import ALL_TARGETS, ProfileTarget, ValueProfiler
from repro.isa.machine import MachineObserver
from repro.obs.flight import FLIGHT as _FLIGHT
from repro.obs.metrics import METRICS as _METRICS
from repro.obs.timeseries import TIMESERIES as _TIMESERIES

#: which site kind each profile target's events carry.  CALL/PYTHON
#: sites never flow through the machine-event capture path.
TARGET_KINDS: Dict[ProfileTarget, SiteKind] = {
    ProfileTarget.INSTRUCTIONS: SiteKind.INSTRUCTION,
    ProfileTarget.LOADS: SiteKind.LOAD,
    ProfileTarget.MEMORY: SiteKind.MEMORY,
    ProfileTarget.PARAMETERS: SiteKind.PARAMETER,
    ProfileTarget.RETURNS: SiteKind.RETURN,
}

#: bumped when the serialized trace layout changes.
TRACE_FORMAT_VERSION = 1


class TraceStoreError(ReproError):
    """A trace store payload was malformed."""


@dataclass
class EventTrace:
    """The full event stream of one instrumented simulation.

    Attributes:
        program: workload name.
        variant: input-set variant (``train``/``test``).
        scale: input-size multiplier the stream was captured at.
        sites: interned site table; ``site_ids`` indexes into it.
        site_ids: per-event site index, in program order.
        values: per-event value, in program order.
        result: the simulation's :class:`~repro.isa.machine.RunResult`.
        dataset: the exact input/expected-output pair simulated.
        meta: capture provenance (engine, elapsed seconds, ...).
    """

    program: str
    variant: str
    scale: float
    sites: List[Site]
    site_ids: array
    values: array
    result: object
    dataset: object
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.site_ids)

    # ------------------------------------------------------------------
    # replay views
    # ------------------------------------------------------------------

    def _wanted(self, targets: Iterable[ProfileTarget]) -> List[bool]:
        kinds = {TARGET_KINDS[t] for t in targets}
        return [site.kind in kinds for site in self.sites]

    def events(
        self, targets: Iterable[ProfileTarget]
    ) -> Iterator[Tuple[Site, int]]:
        """(site, value) events of the selected families, in program order.

        This is the exact stream a live observer subscribed to
        ``targets`` would have seen — cross-site interleaving preserved,
        which global-order consumers (finite prediction tables, sampling
        policies with shared state) depend on.
        """
        wanted = self._wanted(targets)
        sites = self.sites
        return (
            (sites[sid], value)
            for sid, value in zip(self.site_ids, self.values)
            if wanted[sid]
        )

    def site_values(
        self, targets: Iterable[ProfileTarget]
    ) -> List[Tuple[Site, List[int]]]:
        """Per-site value runs, sites in order of first appearance.

        First-appearance ordering matches what any per-event consumer's
        site dict would have ended up with, so replayed dictionaries
        iterate identically to live-collected ones.
        """
        wanted = self._wanted(targets)
        sites = self.sites
        sink: List[Optional[callable]] = [None] * len(sites)
        order: List[int] = []
        runs: List[Optional[List[int]]] = [None] * len(sites)
        drop = _discard
        for sid, value in zip(self.site_ids, self.values):
            append = sink[sid]
            if append is None:
                if wanted[sid]:
                    run: List[int] = []
                    runs[sid] = run
                    order.append(sid)
                    append = sink[sid] = run.append
                else:
                    append = sink[sid] = drop
            append(value)
        return [(sites[sid], runs[sid]) for sid in order]

    def site_folds(
        self, targets: Iterable[ProfileTarget], interval: Optional[int]
    ) -> List[Tuple[Site, SiteFold]]:
        """Per-site folded runs, sites in order of first appearance.

        The columnar replay path: each site's value run is reduced once
        to its :class:`~repro.core.fold.SiteFold` (grouped counts split
        at ``interval`` boundaries, adjacency/zero scalars), so the
        profile fold downstream touches one object per *distinct* value
        instead of one per event.  Every fold assumes a fresh table
        (``since == 0``), which is what replay always builds.
        """
        return [
            (site, fold_values(values, interval))
            for site, values in self.site_values(targets)
        ]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """Pickle-friendly dict with compressed event columns."""
        return {
            "format": TRACE_FORMAT_VERSION,
            "program": self.program,
            "variant": self.variant,
            "scale": self.scale,
            "sites": self.sites,
            "site_ids": zlib.compress(self.site_ids.tobytes(), 1),
            "values": zlib.compress(self.values.tobytes(), 1),
            "result": self.result,
            "dataset": self.dataset,
            "meta": self.meta,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "EventTrace":
        if payload.get("format") != TRACE_FORMAT_VERSION:
            raise TraceStoreError(
                f"unsupported trace format {payload.get('format')!r}"
            )
        site_ids = array("I")
        site_ids.frombytes(zlib.decompress(payload["site_ids"]))
        values = array("q")
        values.frombytes(zlib.decompress(payload["values"]))
        if len(site_ids) != len(values):
            raise TraceStoreError(
                f"column length mismatch: {len(site_ids)} ids vs "
                f"{len(values)} values"
            )
        return cls(
            program=payload["program"],
            variant=payload["variant"],
            scale=payload["scale"],
            sites=payload["sites"],
            site_ids=site_ids,
            values=values,
            result=payload["result"],
            dataset=payload["dataset"],
            meta=payload.get("meta", {}),
        )


def _discard(value) -> None:
    """Append-sink for events outside the replayed families."""


class TraceCaptureObserver(MachineObserver):
    """Observer that records every profile event into event columns.

    Site interning and event-family fan-out are delegated to an inner
    :class:`ValueProfiler` subscribed to every target, so the captured
    stream is exactly the union of what per-family observers would see.
    """

    def __init__(self, program) -> None:
        self._profiler = ValueProfiler(program, recorder=self, targets=ALL_TARGETS)
        self.sites: List[Site] = []
        self.site_ids: array = array("I")
        self.values: array = array("q")
        self._index: Dict[Site, int] = {}

    # Recorder protocol (the inner ValueProfiler writes into us).
    def record(self, site: Site, value: Hashable) -> None:
        index = self._index
        sid = index.get(site)
        if sid is None:
            sid = index[site] = len(self.sites)
            self.sites.append(site)
        self.site_ids.append(sid)
        self.values.append(value)

    # MachineObserver interface — delegate to the site-interning profiler.
    def on_define(self, inst, value) -> None:
        self._profiler.on_define(inst, value)

    def on_load(self, inst, address, value) -> None:
        self._profiler.on_load(inst, address, value)

    def on_store(self, inst, address, value) -> None:
        self._profiler.on_store(inst, address, value)

    def on_call(self, procedure, args, call_site=-1) -> None:
        self._profiler.on_call(procedure, args, call_site)

    def on_return(self, procedure, value) -> None:
        self._profiler.on_return(procedure, value)

    # Threaded-engine binding — reuse the inner profiler's site logic.
    def bind_define(self, inst):
        return self._profiler.bind_define(inst)

    def bind_load(self, inst):
        return self._profiler.bind_load(inst)

    def bind_store(self, inst):
        return self._profiler.bind_store(inst)

    def bind_call(self, procedure, call_pc):
        return self._profiler.bind_call(procedure, call_pc)

    def bind_return(self, procedure):
        return self._profiler.bind_return(procedure)


# ----------------------------------------------------------------------
# replay consumers
# ----------------------------------------------------------------------


def replay_profile(
    trace: EventTrace,
    targets: Iterable[ProfileTarget],
    config: Optional[TNVConfig] = None,
    exact: bool = True,
    name: str = "",
) -> ProfileDatabase:
    """Rebuild the :class:`ProfileDatabase` a live profiler would produce.

    Every profiling structure keeps per-site state only, so feeding each
    site's run in one piece yields a database state-identical to
    per-event recording.  The run never materializes as per-event
    Python objects at all: the trace folds each site columnarly
    (:meth:`EventTrace.site_folds`) and the database consumes grouped
    ``(value, count)`` chunks.  The flight recorder needs the raw event
    stream, so an enabled recorder takes the per-site batch path.
    """
    database = ProfileDatabase(config=config, exact=exact, name=name)
    events = 0
    if not _FLIGHT.enabled:
        folds = trace.site_folds(targets, database.config.clear_interval)
        chunks = 0
        for site, fold in folds:
            events += fold.n
            chunks += len(fold.chunks)
            database.record_fold(site, fold)
        if _METRICS.enabled:
            _METRICS.inc("tracestore.fold_events", events)
            _METRICS.inc("tracestore.fold_sites", len(folds))
            _METRICS.inc("tracestore.fold_chunks", chunks)
    else:
        for site, values in trace.site_values(targets):
            events += len(values)
            _FLIGHT.record_batch(site, values)
            database.record_batch(site, values)
    if _METRICS.enabled:
        _METRICS.inc("tracestore.replays")
        _METRICS.inc("tracestore.replay_events", events)
    return database


def replay_site_traces(
    trace: EventTrace,
    targets: Iterable[ProfileTarget],
    max_per_site: Optional[int] = None,
) -> Tuple[Dict[Site, List[int]], int]:
    """Rebuild per-site value traces; returns ``(traces, dropped)``.

    Equivalent to running a
    :class:`~repro.isa.instrument.ValueTraceCollector` live: same dict
    iteration order (sites in first-event order), same per-site caps,
    same ``dropped`` count.
    """
    traces: Dict[Site, List[int]] = {}
    dropped = 0
    events = 0
    flight = _FLIGHT if _FLIGHT.enabled else None
    for site, values in trace.site_values(targets):
        events += len(values)
        if flight is not None:
            flight.record_batch(site, values)
        if max_per_site is not None and len(values) > max_per_site:
            dropped += len(values) - max_per_site
            values = values[:max_per_site]
        traces[site] = values
    if _METRICS.enabled:
        _METRICS.inc("tracestore.replays")
        _METRICS.inc("tracestore.replay_events", events)
    _TIMESERIES.advance(events)
    return traces, dropped


def replay_global_events(
    trace: EventTrace,
    targets: Iterable[ProfileTarget],
    max_events: Optional[int] = None,
) -> Tuple[List[Tuple[Site, int]], int]:
    """Rebuild a global-order event list; returns ``(events, dropped)``.

    Equivalent to a live
    :class:`~repro.isa.instrument.GlobalTraceCollector` with the same
    ``max_events`` cap.
    """
    events: List[Tuple[Site, int]] = []
    dropped = 0
    flight = _FLIGHT if _FLIGHT.enabled else None
    for event in trace.events(targets):
        if flight is not None:
            flight.record(*event)
        if max_events is not None and len(events) >= max_events:
            dropped += 1
            continue
        events.append(event)
    if _METRICS.enabled:
        _METRICS.inc("tracestore.replays")
        _METRICS.inc("tracestore.replay_events", len(events) + dropped)
    _TIMESERIES.advance(len(events) + dropped)
    return events, dropped
