"""Command-line interface: ``value-profiling`` / ``python -m repro``.

Subcommands:

* ``list`` — show all experiments with their paper artifacts.
* ``run <experiment-id> [--scale S]`` — run one experiment and print
  its table/figure.
* ``all [--scale S]`` — run every experiment in order.
* ``profile <workload> [--variant V] [--scale S]`` — ad-hoc profile of
  one workload, printing per-site metrics.
* ``workloads`` — list the benchmark suite.
* ``stats`` — summarize a ``--trace``/``--metrics`` capture: top time
  sinks, cache hit rate, measured sampling overhead vs the thesis
  (``--json FILE`` writes the machine-readable form ``dash`` consumes).
* ``inspect <workload> [--site N] [--top K]`` — per-site TNV health:
  occupancy, churn, promotions, saturation flags; with ``--site``,
  the table's contents and the site's Inv-Top/LVP trajectory across
  clearing intervals.
* ``dash`` — render a self-contained HTML dashboard from captured
  ``--metrics``/``--trace``/``--timeseries`` artifacts plus the bench
  result history; ``--live URL`` scrapes a running ``serve`` daemon
  (``/metrics``, ``/stats``, ``/timeseries``) instead.
* ``serve [--shards N]`` — the sharded live-profiling service: ingests
  batched event streams from concurrent producers and answers
  ``/profile``, ``/inspect``, ``/stats``, ``/timeseries``, ``/metrics``
  over HTTP from merged snapshots (see ``docs/serving.md``).  Accepts
  ``--trace``/``--metrics`` capture flags plus ``--slow-op-threshold``
  for the structured slow-operation log.
* ``push <workload>`` — replay a stored workload trace into a running
  ``serve`` daemon as one producer.
* ``tier2-report <workload>`` — the specialization flight deck: run a
  workload on the tier-2 engine with the jitlog journal recording and
  render per-block lifecycle timelines, the deopt-reason taxonomy,
  top guard-failing registers, and the predicted-vs-observed
  invariance table joining the journal against the TNV profiles
  (see ``docs/observability.md``).

``run``, ``all`` and ``profile`` accept the observability flags
``--trace FILE`` (JSONL span trace), ``--metrics FILE`` (counter
snapshot), ``--timeseries FILE`` (periodic counter/gauge samples on an
event clock; ``.prom`` selects Prometheus text, anything else JSONL),
``--flight`` / ``--flight-dump FILE`` (crash ring of the last profile
events), ``--jitlog FILE`` / ``--jitlog-map FILE`` (tier-2
specialization journal as JSONL / perf-map-style pc-range dump) and
``--log-level LEVEL`` (progress logging to stderr).
With none of them given the observability layer stays disabled and
experiment output is byte-identical to an uninstrumented build.

They also accept ``--engine {threaded,simple,tier2,auto}`` to pick
the interpreter engine (``threaded`` is the pre-decoded
direct-threaded engine, ``simple`` the reference loop, ``tier2`` the
profile-guided superinstruction specializer; all are bit-identical),
and
``run``/``all`` accept ``--no-replay`` to bypass the simulate-once
event-trace store and re-simulate for every consumer.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import List, Optional

from repro.analysis import experiments
from repro.analysis.tables import Table, profile_table
from repro.core.sites import SiteKind
from repro.errors import ReproError
from repro.obs import METRICS, TRACER, configure_logging


def _cmd_list(args: argparse.Namespace) -> int:
    table = Table(("id", "paper artifact", "title"))
    for exp in experiments.all_experiments():
        table.add_row(exp.id, exp.paper_artifact, exp.title)
    print(table.render())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cache_ctx = experiments.caching_disabled() if args.no_cache else nullcontext()
    with cache_ctx:
        result = experiments.run(args.experiment, scale=args.scale)
    print(f"== {result.title} ({result.experiment}) ==")
    print(result.text)
    if args.json:
        import json

        payload = {
            "experiment": result.experiment,
            "title": result.title,
            "scale": args.scale,
            "data": result.data,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, default=str)
        print(f"(data written to {args.json})")
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    results = experiments.run_all(
        scale=args.scale, jobs=args.jobs, use_cache=not args.no_cache
    )
    for result in results:
        print(f"\n== {result.title} ({result.experiment}) ==")
        print(result.text)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.workloads import profile_workload

    run = profile_workload(args.workload, args.variant, scale=args.scale)
    kind = SiteKind(args.kind) if args.kind else SiteKind.LOAD
    print(profile_table(run.database, kind, top=args.top, name=run.name).render())
    if args.json:
        import dataclasses
        import json

        rows = run.database.metrics_by_site(kind)
        payload = {
            "workload": args.workload,
            "variant": args.variant,
            "scale": args.scale,
            "kind": kind.value,
            "sites": [
                {"site": site.qualified_name(), **dataclasses.asdict(metrics)}
                for site, metrics in rows
            ],
            "total": dataclasses.asdict(run.database.summary(kind)),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, default=str)
        print(f"(data written to {args.json})")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import stats as obs_stats
    from repro.obs.metrics import load_snapshot
    from repro.obs.trace import load_trace

    if not args.trace and not args.metrics:
        print("error: stats needs --trace and/or --metrics", file=sys.stderr)
        return 2
    spans = load_trace(args.trace) if args.trace else None
    snapshot = load_snapshot(args.metrics) if args.metrics else None
    if args.metrics and snapshot is None:
        print(f"error: could not read metrics file {args.metrics}", file=sys.stderr)
        return 1
    print(obs_stats.render_stats(spans=spans, snapshot=snapshot))
    if args.json:
        import json

        payload = obs_stats.stats_payload(spans=spans, snapshot=snapshot)
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.obs.inspect import inspect_workload

    kind = SiteKind(args.kind) if args.kind else None
    try:
        report = inspect_workload(
            args.workload,
            args.variant,
            scale=args.scale,
            kind=kind,
            site=args.site,
            top=args.top,
        )
    except IndexError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report)
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    if args.live:
        from repro.obs.dash import render_live_dashboard

        try:
            html = render_live_dashboard(args.live)
        except OSError as error:
            print(f"error: could not scrape {args.live}: {error}", file=sys.stderr)
            return 2
    else:
        from repro.obs.dash import render_dashboard

        html = render_dashboard(
            metrics_path=args.metrics,
            trace_path=args.trace,
            timeseries_path=args.timeseries,
            bench_dir=args.bench_dir,
            jitlog_path=args.jitlog,
        )
    with open(args.output, "w") as handle:
        handle.write(html)
    print(f"(dashboard written to {args.output})")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.analysis.diff import diff_profiles
    from repro.workloads import profile_workload

    kind = SiteKind(args.kind)
    a = profile_workload(args.workload, "train", scale=args.scale)
    b = profile_workload(args.workload, "test", scale=args.scale)
    diff = diff_profiles(
        a.database,
        b.database,
        kind=kind,
        min_executions=args.min_executions,
        drift_threshold=args.threshold,
    )
    print(diff.render(top=args.top))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import build_report
    from repro.workloads import profile_workload

    kind = SiteKind(args.kind)
    run = profile_workload(args.workload, args.variant, scale=args.scale)
    report = build_report(run.database, kind=kind)
    print(report.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve.server import ServeServer

    server = ServeServer(
        shards=args.shards,
        host=args.host,
        ingest_port=args.port,
        http_port=args.http_port,
        queue_size=args.queue_size,
        checkpoint_interval=args.checkpoint_interval or None,
        snapshot_dir=args.snapshot_dir,
        restore=args.restore,
        runtime=args.runtime,
        timeseries_interval=getattr(args, "timeseries_interval", None),
        **(
            {"slow_op_threshold": args.slow_op_threshold}
            if args.slow_op_threshold is not None
            else {}
        ),
    )

    async def _run() -> None:
        await server.start()
        print(
            f"serving {args.shards} shard(s) [{args.runtime}]: "
            f"ingest {server.host}:{server.ingest_port}, "
            f"http {server.host}:{server.http_port}",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await stop.wait()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler platforms
        pass
    return 0


def _cmd_push(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import load_events
    from repro.serve.client import ServeClient

    stream = f"{args.workload}.{args.variant}"
    trace = load_events(args.workload, args.variant, scale=args.scale)
    client = ServeClient(
        args.host,
        args.port,
        client_id=args.client or stream,
        stream=stream,
        window=args.window,
        timeout=args.timeout,
    )
    with client:
        events = client.push_trace(trace, batch_size=args.batch_size)
    print(
        f"pushed {events} events in {client.counters['batches']} batches "
        f"({client.counters['retries']} retries, "
        f"{client.counters['reconnects']} reconnects)"
    )
    return 0


def _cmd_tier2_report(args: argparse.Namespace) -> int:
    from repro.obs import jitreport

    report = jitreport.collect(args.workload, args.variant, scale=args.scale)
    print(jitreport.render_report(report, top=args.top))
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(jitreport.report_payload(report), handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        print(f"(data written to {args.json})")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import all_workloads

    table = Table(("name", "SPEC analogue", "description"))
    for workload in all_workloads():
        table.add_row(workload.name, workload.spec_analogue, workload.description)
    print(table.render())
    return 0


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """The observability surface shared by run/all/profile."""
    parser.add_argument(
        "--trace", help="write a JSONL span trace of this invocation to FILE"
    )
    parser.add_argument(
        "--metrics", help="write the internal metrics snapshot to FILE as JSON"
    )
    parser.add_argument(
        "--timeseries",
        help="sample counters/gauges periodically and write the series to "
        "FILE (.prom = Prometheus text, otherwise JSONL)",
    )
    parser.add_argument(
        "--timeseries-interval",
        type=int,
        default=None,
        metavar="N",
        help="events between time-series samples (default 100000)",
    )
    parser.add_argument(
        "--flight",
        action="store_true",
        help="keep a crash ring of the last profile events; dumped to "
        "flight-crash-<experiment>.jsonl if an experiment raises",
    )
    parser.add_argument(
        "--flight-dump",
        metavar="FILE",
        help="with --flight: also dump the ring to FILE at exit",
    )
    parser.add_argument(
        "--jitlog",
        metavar="FILE",
        help="record the tier-2 specialization journal and write it to "
        "FILE as JSONL at exit (no-op off the tier2 engine)",
    )
    parser.add_argument(
        "--jitlog-map",
        metavar="FILE",
        help="also write a perf-map-style dump of the quickened pc "
        "ranges (START SIZE NAME) to FILE at exit",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        help="enable progress logging to stderr at this level",
    )


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """Interpreter/replay selection shared by the simulating commands."""
    parser.add_argument(
        "--engine",
        choices=("threaded", "simple", "tier2", "auto"),
        help="interpreter engine (default: auto = threaded unless "
        "REPRO_ENGINE names one or REPRO_TIER2 opts into tier2)",
    )
    parser.add_argument(
        "--no-replay",
        action="store_true",
        help="re-simulate for every consumer instead of replaying from "
        "the simulate-once event-trace store",
    )


def _apply_engine_args(args: argparse.Namespace):
    """Propagate --engine/--no-replay process-wide; returns a finalizer.

    Both travel as environment variables so parallel-runner worker
    processes inherit them; the finalizer restores the previous state
    so repeated ``main`` calls in one process stay independent.
    """
    import os

    from repro.isa import machine as machine_module

    engine = getattr(args, "engine", None)
    no_replay = getattr(args, "no_replay", False)
    saved = {
        key: os.environ.get(key)
        for key in ("REPRO_ENGINE", "REPRO_NO_REPLAY")
    }
    replay_before = experiments.replay_enabled()
    # Fail a bad selector (e.g. a typo'd REPRO_ENGINE inherited from
    # the environment) here at startup, with the same clear error for
    # every command, instead of deep inside Machine construction.
    machine_module.resolve_engine(engine)
    if engine:
        os.environ["REPRO_ENGINE"] = engine
    if no_replay:
        os.environ["REPRO_NO_REPLAY"] = "1"
        experiments.set_replay_enabled(False)

    def restore() -> None:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        experiments.set_replay_enabled(replay_before)

    return restore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="value-profiling",
        description="Value Profiling (MICRO'97) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(func=_cmd_list)

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment")
    run_parser.add_argument("--scale", type=float, default=1.0)
    run_parser.add_argument("--json", help="also write the raw data to this JSON file")
    run_parser.add_argument(
        "--no-cache", action="store_true", help="ignore the persistent profile cache"
    )
    _add_obs_args(run_parser)
    _add_engine_args(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    all_parser = sub.add_parser("all", help="run every experiment")
    all_parser.add_argument("--scale", type=float, default=1.0)
    all_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (0 = all CPUs)"
    )
    all_parser.add_argument(
        "--no-cache", action="store_true", help="ignore the persistent profile cache"
    )
    _add_obs_args(all_parser)
    _add_engine_args(all_parser)
    all_parser.set_defaults(func=_cmd_all)

    profile_parser = sub.add_parser("profile", help="profile one workload")
    profile_parser.add_argument("workload")
    profile_parser.add_argument("--variant", default="train", choices=("train", "test"))
    profile_parser.add_argument("--scale", type=float, default=1.0)
    profile_parser.add_argument("--kind", default="load", help="site kind (load, instruction, ...)")
    profile_parser.add_argument("--top", type=int, default=20)
    profile_parser.add_argument(
        "--json", help="also write the per-site metrics to this JSON file"
    )
    _add_obs_args(profile_parser)
    profile_parser.add_argument(
        "--engine",
        choices=("threaded", "simple", "tier2", "auto"),
        help="interpreter engine (default: auto = threaded unless "
        "REPRO_ENGINE names one or REPRO_TIER2 opts into tier2)",
    )
    profile_parser.set_defaults(func=_cmd_profile)

    stats_parser = sub.add_parser(
        "stats", help="summarize a --trace/--metrics capture"
    )
    stats_parser.add_argument("--trace", help="JSONL trace written by --trace")
    stats_parser.add_argument("--metrics", help="metrics JSON written by --metrics")
    stats_parser.add_argument(
        "--json", help="also write the machine-readable stats to this JSON file"
    )
    stats_parser.set_defaults(func=_cmd_stats)

    inspect_parser = sub.add_parser(
        "inspect", help="per-site TNV health for one workload"
    )
    inspect_parser.add_argument("workload")
    inspect_parser.add_argument("--variant", default="train", choices=("train", "test"))
    inspect_parser.add_argument("--scale", type=float, default=1.0)
    inspect_parser.add_argument(
        "--kind", default=None, help="restrict to one site kind (load, instruction, ...)"
    )
    inspect_parser.add_argument(
        "--site",
        type=int,
        default=None,
        metavar="N",
        help="drill into overview row N: TNV contents + Inv-Top/LVP trajectory",
    )
    inspect_parser.add_argument("--top", type=int, default=10)
    _add_obs_args(inspect_parser)
    _add_engine_args(inspect_parser)
    inspect_parser.set_defaults(func=_cmd_inspect)

    dash_parser = sub.add_parser(
        "dash", help="render an HTML dashboard from captured artifacts"
    )
    dash_parser.add_argument("--metrics", help="metrics JSON written by --metrics")
    dash_parser.add_argument("--trace", help="JSONL trace written by --trace")
    dash_parser.add_argument(
        "--timeseries", help="JSONL series written by --timeseries"
    )
    dash_parser.add_argument(
        "--bench-dir",
        default="benchmarks/results",
        help="directory holding BENCH_*.json baselines and BENCH_history.jsonl",
    )
    dash_parser.add_argument(
        "--jitlog",
        help="tier-2 specialization journal (JSONL written by --jitlog) "
        "to render as the Tier-2 panel's event feed",
    )
    dash_parser.add_argument(
        "--live",
        metavar="URL",
        help="scrape a running serve daemon's HTTP endpoint (e.g. "
        "http://127.0.0.1:7572) instead of reading capture files",
    )
    dash_parser.add_argument(
        "-o", "--output", default="repro-dash.html", help="output HTML file"
    )
    dash_parser.set_defaults(func=_cmd_dash)

    diff_parser = sub.add_parser(
        "diff", help="diff a workload's train profile against its test profile"
    )
    diff_parser.add_argument("workload")
    diff_parser.add_argument("--kind", default="load")
    diff_parser.add_argument("--scale", type=float, default=1.0)
    diff_parser.add_argument("--min-executions", type=int, default=10)
    diff_parser.add_argument("--threshold", type=float, default=0.1)
    diff_parser.add_argument("--top", type=int, default=10)
    diff_parser.set_defaults(func=_cmd_diff)

    report_parser = sub.add_parser(
        "report", help="actionable value-profile report for one workload"
    )
    report_parser.add_argument("workload")
    report_parser.add_argument("--variant", default="train", choices=("train", "test"))
    report_parser.add_argument("--scale", type=float, default=1.0)
    report_parser.add_argument("--kind", default="load")
    report_parser.set_defaults(func=_cmd_report)

    t2_parser = sub.add_parser(
        "tier2-report",
        help="specialization flight deck: jitlog lifecycle timelines, "
        "deopt taxonomy, predicted-vs-observed invariance",
    )
    t2_parser.add_argument("workload")
    t2_parser.add_argument("--variant", default="train", choices=("train", "test"))
    t2_parser.add_argument("--scale", type=float, default=1.0)
    t2_parser.add_argument("--top", type=int, default=10)
    t2_parser.add_argument(
        "--json", help="also write the machine-readable report to this JSON file"
    )
    _add_obs_args(t2_parser)
    t2_parser.set_defaults(func=_cmd_tier2_report)

    serve_parser = sub.add_parser(
        "serve", help="run the sharded live-profiling service"
    )
    serve_parser.add_argument("--shards", type=int, default=2)
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=7571, help="ingest listener port (0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--http-port", type=int, default=7572, help="query listener port (0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--runtime",
        choices=("inline", "process"),
        default="process",
        help="shard execution model: worker processes (default) or "
        "asyncio tasks in the server process",
    )
    serve_parser.add_argument(
        "--queue-size",
        type=int,
        default=64,
        metavar="N",
        help="per-shard bounded queue; the backpressure knob",
    )
    serve_parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=200,
        metavar="N",
        help="batches between automatic shard checkpoints (0 = only on "
        "/checkpoint and graceful stop)",
    )
    serve_parser.add_argument(
        "--snapshot-dir",
        help="where snapshots + journals live (default: a temporary "
        "directory, discarded on exit)",
    )
    serve_parser.add_argument(
        "--restore",
        action="store_true",
        help="load shard snapshots/journals from --snapshot-dir on "
        "startup (rolling restart)",
    )
    serve_parser.add_argument(
        "--timeseries-interval",
        type=int,
        default=None,
        metavar="N",
        help="enable the /timeseries collector, sampling every N events",
    )
    serve_parser.add_argument(
        "--slow-op-threshold",
        type=float,
        default=None,
        metavar="SECONDS",
        help="log a structured WARN (and count serve.slow_ops) for any "
        "shard fold or HTTP request slower than this (default 1.0)",
    )
    serve_parser.add_argument(
        "--trace",
        help="record spans (client batches, shard journal/fold, acks) and "
        "write the JSONL span trace to FILE on shutdown",
    )
    serve_parser.add_argument(
        "--metrics",
        help="write the internal metrics snapshot to FILE as JSON on "
        "shutdown (the live view is always at GET /metrics)",
    )
    serve_parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        help="enable progress logging to stderr at this level",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    push_parser = sub.add_parser(
        "push", help="replay a workload trace into a running serve daemon"
    )
    push_parser.add_argument("workload")
    push_parser.add_argument("--variant", default="train", choices=("train", "test"))
    push_parser.add_argument("--scale", type=float, default=1.0)
    push_parser.add_argument("--host", default="127.0.0.1")
    push_parser.add_argument("--port", type=int, default=7571)
    push_parser.add_argument(
        "--client", help="producer identity (default: <workload>.<variant>)"
    )
    push_parser.add_argument("--batch-size", type=int, default=1024)
    push_parser.add_argument("--window", type=int, default=32)
    push_parser.add_argument("--timeout", type=float, default=10.0)
    push_parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        help="enable progress logging to stderr at this level",
    )
    push_parser.set_defaults(func=_cmd_push)

    sub.add_parser("workloads", help="list the benchmark suite").set_defaults(
        func=_cmd_workloads
    )
    return parser


def _setup_observability(args: argparse.Namespace):
    """Enable the obs layer per the parsed flags; returns a finalizer.

    The finalizer writes whatever was collected (best-effort even when
    the command failed — a partial trace is exactly what you want when
    debugging a crash) and restores the disabled default so repeated
    ``main`` calls in one process (tests, notebooks) stay independent.
    """
    trace_file = getattr(args, "trace", None)
    metrics_file = getattr(args, "metrics", None)
    timeseries_file = getattr(args, "timeseries", None)
    timeseries_interval = getattr(args, "timeseries_interval", None)
    flight = getattr(args, "flight", False)
    flight_dump = getattr(args, "flight_dump", None)
    jitlog_file = getattr(args, "jitlog", None)
    jitlog_map_file = getattr(args, "jitlog_map", None)
    log_level = getattr(args, "log_level", None)
    if args.func in (_cmd_stats, _cmd_dash):
        # These read capture files, never record (dash's --jitlog is
        # an *input* journal, rendered, not recorded).
        trace_file = metrics_file = timeseries_file = None
        flight = False
        flight_dump = None
        jitlog_file = jitlog_map_file = None
    if log_level:
        configure_logging(log_level)
    if trace_file or metrics_file or timeseries_file:
        METRICS.reset()
        METRICS.enable()
        if trace_file:
            TRACER.enable()
    if timeseries_file:
        from repro.obs.timeseries import DEFAULT_INTERVAL, TIMESERIES

        TIMESERIES.enable(interval=timeseries_interval or DEFAULT_INTERVAL)
    if flight:
        from repro.obs.flight import FLIGHT

        FLIGHT.enable()
    if jitlog_file or jitlog_map_file:
        from repro.obs.jitlog import JITLOG

        JITLOG.enable()

    def finalize() -> None:
        if trace_file:
            TRACER.write_jsonl(trace_file)
            TRACER.disable()
        if timeseries_file:
            from repro.obs.timeseries import TIMESERIES

            # One final sample so short runs that never crossed the
            # interval still export their end state.
            TIMESERIES.sample()
            if timeseries_file.endswith(".prom"):
                TIMESERIES.write_prometheus(timeseries_file)
            else:
                TIMESERIES.write_jsonl(timeseries_file)
            TIMESERIES.disable()
        if metrics_file:
            METRICS.write(metrics_file)
        if trace_file or metrics_file or timeseries_file:
            METRICS.disable()
        if flight:
            from repro.obs.flight import FLIGHT

            if flight_dump:
                FLIGHT.dump(flight_dump, reason="cli-exit")
            FLIGHT.disable()
        if jitlog_file or jitlog_map_file:
            from repro.obs.jitlog import JITLOG

            if jitlog_file:
                JITLOG.write_jsonl(jitlog_file)
            if jitlog_map_file:
                JITLOG.write_map(jitlog_map_file)
            JITLOG.disable()

    return finalize


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    finalize = _setup_observability(args)
    restore_engine = None
    try:
        restore_engine = _apply_engine_args(args)
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if restore_engine is not None:
            restore_engine()
        finalize()


if __name__ == "__main__":
    sys.exit(main())
