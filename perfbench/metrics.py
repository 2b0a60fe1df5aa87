"""Every workload and metric the benchmark emits, with its unit.

``BENCHMARK.json`` at the checkout root must name exactly these; the
benchmark's own tests hold the two in step.

End-to-end metrics are measured with tracing off and reported by every
workload:

* ``setup_s`` — process launch until ``import repro.cli`` is done
  (interpreter start plus the program's imports), the median over
  many processes that only import.
* ``wall_s`` — process launch to exit of ``repro all``, interpreter
  teardown included.
* ``peak_rss_mb`` — peak resident set of the ``repro all`` process.

There is no serve workload.  On a shared 2-vCPU virtual machine whose
CPU speed changes for minutes at a time, the serve job's end-to-end
time swung between 3.3 s and 6.3 s across runs of the same code
(interquartile spread 0.27-0.34 of the median in two of three ten-run
sets), beyond the largest bound a metric may have: ``repro serve``
slows about three times as much as ``repro all`` in a slow period.  The serve layer is measured per layer instead, in
the traced run of ``paper-warm`` (``serve.py``); per-layer metrics
carry no bound.

Per-layer metrics come from the traced run.  A layer that does no work
on a workload reports 0 there (and its percentiles, with no samples,
report 0 too; the report prints ``n=0`` beside them).
"""

from __future__ import annotations

from typing import Dict

WORKLOADS = {
    "paper-cold": "repro all in fresh processes against an empty cache, as after every "
    "source edit: the only workload where interpret, capture and disk store do real work",
    "paper-warm": "repro all against a filled cache: captures are disk hits, predictors and "
    "fold dominate, an interpreter change must not show; its traced run also drives repro serve",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: experiment ids at the commit that defined the benchmark (one
#: ``experiment.<id>.s`` per-layer metric each).
EXPERIMENT_IDS = (
    "fig-convergence",
    "fig-invariance-distribution",
    "fig-tnv-accuracy",
    "table-all-instructions",
    "table-basic-blocks",
    "table-benchmarks",
    "table-calling-context",
    "table-insn-classes",
    "table-isa-specialization",
    "table-load-speculation",
    "table-load-values",
    "table-memoization",
    "table-memory-locations",
    "table-parameters",
    "table-predictor-filtering",
    "table-predictors",
    "table-pyprof",
    "table-sampling-accuracy",
    "table-specialization",
    "table-top-procedures",
    "table-train-vs-test",
    "table-vht-aliasing",
)

PER_LAYER: Dict[str, str] = {
    "process.import_s": "s",
    "process.exit_s": "s",
    "isa.capture_s": "s",
    "isa.instructions": "count",
    "isa.minstr_per_s": "1/s",
    "tracestore.events": "count",
    "tracestore.codec_s": "s",
    "diskcache.store_s": "s",
    "diskcache.store_mb": "MB",
    "diskcache.load_s": "s",
    "diskcache.hit_ratio": "1",
    "fold.replay_s": "s",
    "fold.events_per_s": "1/s",
    "predictors.run_trace_s": "s",
    "predictors.run_trace_calls": "count",
    "predictors.events_per_s": "1/s",
    "sampling.s": "s",
    "analysis.self_s": "s",
    **{f"experiment.{eid}.s": "s" for eid in EXPERIMENT_IDS},
    "unattributed_s": "s",
    "serve.ingest_events_per_s": "1/s",
    "serve.batch_p50_ms": "ms",
    "serve.batch_p99_ms": "ms",
    "serve.query_p50_ms": "ms",
    "serve.query_p90_ms": "ms",
    "serve.client_send_s": "s",
    "serve.batch_e2e_p50_ms": "ms",
    "serve.journal_sync_p50_ms": "ms",
    "serve.shard_fold_p50_ms": "ms",
    "serve.shard_fold_s": "s",
    "serve.http_request_p50_ms": "ms",
    "serve.queries": "count",
    "serve.retried_batches": "count",
    "serve.duplicate_batches": "count",
    "serve.flow_pauses": "count",
    "serve.checkpoints": "count",
    "obs.tracing_overhead_ratio": "1",
}


def zero_layers() -> Dict[str, float]:
    """Every per-layer metric at 0: the value of a layer that did no work."""
    return {name: 0.0 for name in PER_LAYER}
