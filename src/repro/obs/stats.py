"""Rendering for ``repro stats``: the profiler-of-the-profiler report.

Consumes the artifacts the observability flags write — a JSONL trace
(``--trace``) and/or a metrics snapshot (``--metrics``) — and renders
summary tables:

* **Top time sinks** — spans ranked by *self* time (duration minus
  child durations), so a parent that merely waits on its children does
  not crowd out the phase doing the work.
* **Interpreter throughput** — simulated instructions per second per
  engine (the threaded engine's headline number), from the
  ``machine.*`` counters and the ``machine.run`` timer.
* **Cache behavior** — hit rate across the L1 memo and the persistent
  disk cache.
* **Event-trace store** — simulate-once/replay-many effectiveness:
  captures vs replays, store hit rate, events replayed per second.
* **Replay fold** — the columnar hot path: events/sites folded and
  runs split at clearing boundaries.
* **Measured sampling overhead** — per-policy fraction of dynamic
  executions that actually paid profiling cost, next to the overhead
  story the thesis reports (Ch. VIII), closing the loop on the paper's
  headline cost question.
* **Counter catalog** — every counter, for completeness.
* **Timer catalog** — every timer with count/total/min/max/mean.

:func:`stats_payload` is the machine-readable twin of
:func:`render_stats` (``repro stats --json``), and what ``repro dash``
consumes.

This module is deliberately import-light on the analysis side (only
the table renderer) so ``repro stats`` works on saved files without
touching workloads or experiments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.tables import Table, percentage

#: How the thesis frames each policy's overhead (Ch. VIII); rendered
#: next to the overhead this run actually measured.
THESIS_OVERHEAD = {
    "FullSampling": "100% (order-of-magnitude ATOM slowdown)",
    "PeriodicSampling": "the configured duty cycle (e.g. 10%)",
    "RandomSampling": "the configured sampling rate",
    "ConvergentSampling": "a few % once sites converge",
}

_TOP_SINKS = 10


def _span_label(span: dict) -> str:
    attrs = span.get("attrs", {})
    for key in ("experiment", "workload", "jobs"):
        if key in attrs:
            return f"{span['name']}({attrs[key]})"
    return span["name"]


def self_times(spans: List[dict]) -> List[Tuple[dict, float]]:
    """(span, self_seconds) pairs, longest self time first.

    Self time is the span's duration minus the durations of its direct
    children; clamped at zero for spans whose children's clocks are
    not comparable (worker spans time against their own process).
    """
    child_total: Dict[str, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            child_total[parent] = child_total.get(parent, 0.0) + span.get("duration_s", 0.0)
    ranked = [
        (span, max(0.0, span.get("duration_s", 0.0) - child_total.get(span.get("span_id"), 0.0)))
        for span in spans
    ]
    ranked.sort(key=lambda item: (-item[1], item[0].get("span_id", "")))
    return ranked


def render_time_sinks(spans: List[dict], top: int = _TOP_SINKS) -> str:
    table = Table(
        ("span", "total s", "self s", "span id"),
        title=f"Top time sinks (self time, top {top})",
        precision=3,
    )
    for span, self_s in self_times(spans)[:top]:
        table.add_row(
            _span_label(span), span.get("duration_s", 0.0), self_s, span.get("span_id", "?")
        )
    return table.render()


def interpreter_stats(snapshot: dict) -> dict:
    """Interpreter throughput figures from a metrics snapshot."""
    counters = snapshot.get("counters", {})
    timers = snapshot.get("timers", {})
    run_timer = timers.get("machine.run", {})
    seconds = run_timer.get("total_s", 0.0)
    instructions = counters.get("machine.instructions", 0)
    return {
        "runs": counters.get("machine.runs", 0),
        "threaded_runs": counters.get("machine.engine.threaded_runs", 0),
        "simple_runs": counters.get("machine.engine.simple_runs", 0),
        "tier2_runs": counters.get("machine.engine.tier2_runs", 0),
        "instructions": instructions,
        "seconds": seconds,
        "mips": instructions / seconds / 1e6 if seconds else 0.0,
    }


def render_interpreter(snapshot: dict) -> str:
    stats = interpreter_stats(snapshot)
    table = Table(
        (
            "machine runs",
            "threaded",
            "simple",
            "tier-2",
            "instructions",
            "run s",
            "MIPS",
        ),
        title="Interpreter throughput",
        precision=3,
    )
    table.add_row(
        stats["runs"],
        stats["threaded_runs"],
        stats["simple_runs"],
        stats["tier2_runs"],
        stats["instructions"],
        stats["seconds"],
        stats["mips"],
    )
    return table.render()


def tier2_stats(snapshot: dict) -> dict:
    """Tier-2 quicken/deopt figures from a metrics snapshot.

    Sourced from the ``machine.tier2.*`` counters the tier-2 engine
    emits after each run: lifecycle totals (quickened, requickened,
    despecialized, deopts, guard hits) plus per-workload throughput
    from the ``machine.tier2.instructions.<workload>`` counters and
    ``machine.tier2.run.<workload>`` timers.
    """
    counters = snapshot.get("counters", {})
    timers = snapshot.get("timers", {})
    guard_hits = counters.get("machine.tier2.guards", 0)
    deopts = counters.get("machine.tier2.deopts", 0)
    guarded_entries = guard_hits + deopts
    workloads = []
    prefix = "machine.tier2.instructions."
    for key in sorted(counters):
        if not key.startswith(prefix):
            continue
        name = key[len(prefix):]
        instructions = counters[key]
        seconds = timers.get(f"machine.tier2.run.{name}", {}).get("total_s", 0.0)
        workloads.append(
            {
                "workload": name,
                "instructions": instructions,
                "seconds": seconds,
                "mips": instructions / seconds / 1e6 if seconds else 0.0,
            }
        )
    return {
        "runs": counters.get("machine.engine.tier2_runs", 0),
        "quickened": counters.get("machine.tier2.quickened", 0),
        "requickened": counters.get("machine.tier2.requickened", 0),
        "despecialized": counters.get("machine.tier2.despecialized", 0),
        "deopts": deopts,
        "guard_hits": guard_hits,
        "guard_hit_rate": guard_hits / guarded_entries if guarded_entries else 0.0,
        "workloads": workloads,
    }


def render_tier2(snapshot: dict) -> str:
    stats = tier2_stats(snapshot)
    table = Table(
        (
            "tier-2 runs",
            "quickened",
            "requickened",
            "despecialized",
            "deopts",
            "guard hit%",
        ),
        title="Tier-2 engine",
    )
    table.add_row(
        stats["runs"],
        stats["quickened"],
        stats["requickened"],
        stats["despecialized"],
        stats["deopts"],
        percentage(stats["guard_hit_rate"]),
    )
    sections = [table.render()]
    if stats["workloads"]:
        per_workload = Table(
            ("workload", "tier-2 instructions", "run s", "MIPS"),
            title="Tier-2 throughput by workload",
            precision=3,
        )
        for row in stats["workloads"]:
            per_workload.add_row(
                row["workload"], row["instructions"], row["seconds"], row["mips"]
            )
        sections.append(per_workload.render())
    return "\n\n".join(sections)


def jitlog_stats(snapshot: dict) -> dict:
    """Tier-2 specialization-journal event totals from a snapshot.

    Sourced from the ``machine.tier2.jitlog.<type>`` counters the
    journal bumps on every emit — present only when a run recorded
    with ``--jitlog`` (or the journal was enabled programmatically)
    while metrics were on.  The full event stream with reasons lives
    in the JSONL export; these are the rates that belong in a summary.
    """
    counters = snapshot.get("counters", {})
    prefix = "machine.tier2.jitlog."
    events = {
        key[len(prefix):]: counters[key]
        for key in sorted(counters)
        if key.startswith(prefix)
    }
    return {"events": events, "total": sum(events.values())}


def render_jitlog(snapshot: dict) -> str:
    stats = jitlog_stats(snapshot)
    if not stats["events"]:
        return ""
    table = Table(("journal event", "count"), title="Tier-2 specialization journal")
    for name, count in stats["events"].items():
        table.add_row(name, count)
    table.add_separator()
    table.add_row("TOTAL", stats["total"])
    return table.render()


def cache_stats(counters: Dict[str, int]) -> dict:
    memory_hits = counters.get("cache.memory_hits", 0)
    disk_hits = counters.get("cache.disk_hits", 0)
    misses = counters.get("cache.misses", 0)
    lookups = memory_hits + disk_hits + misses
    return {
        "memory_hits": memory_hits,
        "disk_hits": disk_hits,
        "misses": misses,
        "lookups": lookups,
        "hit_rate": (memory_hits + disk_hits) / lookups if lookups else 0.0,
    }


def render_cache(counters: Dict[str, int]) -> str:
    stats = cache_stats(counters)
    table = Table(
        ("cache lookups", "L1 hits", "disk hits", "misses", "hit rate%"),
        title="Profile cache behavior",
    )
    table.add_row(
        stats["lookups"],
        stats["memory_hits"],
        stats["disk_hits"],
        stats["misses"],
        percentage(stats["hit_rate"]),
    )
    return table.render()


def tracestore_stats(snapshot: dict) -> dict:
    """Simulate-once/replay-many effectiveness from a metrics snapshot."""
    counters = snapshot.get("counters", {})
    timers = snapshot.get("timers", {})
    memory_hits = counters.get("tracestore.memory_hits", 0)
    disk_hits = counters.get("tracestore.disk_hits", 0)
    captures = counters.get("tracestore.captures", 0)
    lookups = memory_hits + disk_hits + captures
    replay_seconds = timers.get("tracestore.replay", {}).get("total_s", 0.0)
    replay_events = counters.get("tracestore.replay_events", 0)
    return {
        "memory_hits": memory_hits,
        "disk_hits": disk_hits,
        "captures": captures,
        "lookups": lookups,
        "hit_rate": (memory_hits + disk_hits) / lookups if lookups else 0.0,
        "replays": counters.get("tracestore.replays", 0),
        "replay_events": replay_events,
        "replay_eps": replay_events / replay_seconds if replay_seconds else 0.0,
    }


def render_tracestore(snapshot: dict) -> str:
    stats = tracestore_stats(snapshot)
    table = Table(
        (
            "trace lookups",
            "L1 hits",
            "disk hits",
            "captures",
            "hit rate%",
            "replays",
            "events replayed",
            "replay Mev/s",
        ),
        title="Event-trace store (simulate once, replay many)",
        precision=2,
    )
    table.add_row(
        stats["lookups"],
        stats["memory_hits"],
        stats["disk_hits"],
        stats["captures"],
        percentage(stats["hit_rate"]),
        stats["replays"],
        stats["replay_events"],
        stats["replay_eps"] / 1e6,
    )
    return table.render()


def fold_stats(snapshot: dict) -> dict:
    """Columnar replay-fold effectiveness from a metrics snapshot."""
    counters = snapshot.get("counters", {})
    return {
        "events_folded": counters.get("tracestore.fold_events", 0),
        "sites_folded": counters.get("tracestore.fold_sites", 0),
        "runs_split": counters.get("tracestore.fold_chunks", 0),
    }


def render_fold(snapshot: dict) -> str:
    stats = fold_stats(snapshot)
    table = Table(
        ("events folded", "sites", "runs split"),
        title="Replay fold (columnar hot path)",
    )
    table.add_row(
        stats["events_folded"],
        stats["sites_folded"],
        stats["runs_split"],
    )
    return table.render()


def sampling_overheads(counters: Dict[str, int]) -> List[Tuple[str, int, int, float]]:
    """(policy, seen, profiled, overhead_fraction) rows, policy-sorted."""
    rows = []
    for name, seen in sorted(counters.items()):
        if not (name.startswith("sampling.") and name.endswith(".seen")):
            continue
        policy = name[len("sampling.") : -len(".seen")]
        profiled = counters.get(f"sampling.{policy}.profiled", 0)
        rows.append((policy, seen, profiled, profiled / seen if seen else 0.0))
    return rows


def render_sampling(counters: Dict[str, int]) -> str:
    table = Table(
        ("policy", "executions seen", "profiled", "measured overhead%", "thesis-reported"),
        title="Measured sampling overhead vs thesis Ch. VIII",
    )
    rows = sampling_overheads(counters)
    for policy, seen, profiled, overhead in rows:
        table.add_row(
            policy,
            seen,
            profiled,
            percentage(overhead),
            THESIS_OVERHEAD.get(policy, "-"),
        )
    if not rows:
        table.add_row("(no sampling counters recorded)", 0, 0, 0.0, "-")
    return table.render()


def render_counters(counters: Dict[str, int]) -> str:
    table = Table(("counter", "value"), title="All counters")
    for name, value in sorted(counters.items()):
        table.add_row(name, value)
    if not counters:
        table.add_row("(empty)", 0)
    return table.render()


def render_timers(timers: Dict[str, dict]) -> str:
    table = Table(
        ("timer", "count", "total s", "min s", "max s", "mean s"),
        title="All timers",
        precision=4,
    )
    for name, stats in sorted(timers.items()):
        count = stats.get("count", 0)
        total = stats.get("total_s", 0.0)
        table.add_row(
            name,
            count,
            total,
            # Snapshots written before the min_s field render "-".
            stats["min_s"] if "min_s" in stats else "-",
            stats.get("max_s", 0.0),
            total / count if count else 0.0,
        )
    if not timers:
        table.add_row("(empty)", 0, 0.0, 0.0, 0.0, 0.0)
    return table.render()


def render_stats(
    spans: Optional[List[dict]] = None, snapshot: Optional[dict] = None
) -> str:
    """The full ``repro stats`` report from whichever inputs exist."""
    sections = []
    if spans:
        sections.append(render_time_sinks(spans))
    counters = (snapshot or {}).get("counters", {})
    if snapshot is not None:
        sections.append(render_interpreter(snapshot))
        sections.append(render_tier2(snapshot))
        jitlog_section = render_jitlog(snapshot)
        if jitlog_section:
            # Only when a journal recorded — captures without one keep
            # their exact pre-jitlog rendering.
            sections.append(jitlog_section)
        sections.append(render_cache(counters))
        sections.append(render_tracestore(snapshot))
        sections.append(render_fold(snapshot))
        sections.append(render_sampling(counters))
        sections.append(render_counters(counters))
        sections.append(render_timers(snapshot.get("timers", {})))
    if not sections:
        return "(nothing to report: no spans and no metrics)"
    return "\n\n".join(sections)


def stats_payload(
    spans: Optional[List[dict]] = None, snapshot: Optional[dict] = None
) -> dict:
    """The machine-readable form of :func:`render_stats`.

    This is the structure ``repro stats --json`` writes and
    ``repro dash`` consumes — the same derived figures the text tables
    show (self-time sinks, cache hit rates, MIPS, sampling overhead),
    plus the raw counter/gauge/timer sections verbatim.
    """
    payload: dict = {}
    if spans:
        payload["time_sinks"] = [
            {
                "span": _span_label(span),
                "total_s": span.get("duration_s", 0.0),
                "self_s": self_s,
                "span_id": span.get("span_id"),
            }
            for span, self_s in self_times(spans)[:_TOP_SINKS]
        ]
    if snapshot is not None:
        counters = snapshot.get("counters", {})
        payload["interpreter"] = interpreter_stats(snapshot)
        payload["tier2"] = tier2_stats(snapshot)
        jitlog = jitlog_stats(snapshot)
        if jitlog["events"]:
            payload["jitlog"] = jitlog
        payload["cache"] = cache_stats(counters)
        payload["tracestore"] = tracestore_stats(snapshot)
        payload["fold"] = fold_stats(snapshot)
        payload["sampling"] = [
            {
                "policy": policy,
                "seen": seen,
                "profiled": profiled,
                "overhead": overhead,
                "thesis": THESIS_OVERHEAD.get(policy, "-"),
            }
            for policy, seen, profiled, overhead in sampling_overheads(counters)
        ]
        payload["counters"] = dict(sorted(counters.items()))
        payload["gauges"] = dict(sorted(snapshot.get("gauges", {}).items()))
        payload["timers"] = {
            name: dict(stats) for name, stats in sorted(snapshot.get("timers", {}).items())
        }
    return payload
