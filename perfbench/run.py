"""The repository's benchmark: one command per workload, outputs checked.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 30 --trace 0

Workloads (see ``metrics.WORKLOADS`` for why each exists):

* ``paper-cold`` — ``repro all`` in fresh processes, each against an
  empty cache directory.
* ``paper-warm`` — the same against a cache filled before timing.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that attributes time to each
layer (and also measures with and without the program's own tracing,
for the tracing overhead); on
``paper-warm`` it also drives ``repro serve`` for the serve layer.  Each run
prints its metrics with their sample counts, the host diagnostics, and
as its last line the JSON result.  A traced run also writes its
per-layer report under ``.perfbench_work/reports/``; compare two with
``python3 perfbench/report.py OLD.json NEW.json``.

The workloads' inputs are the fixed experiment suite at ``paper.SCALE``;
``--seed`` picks the order in which the serve layer replays the eight
workloads' traces.

Every run checks the program's outputs: experiment text against
``reference.json``, and in the serve layer's sessions the served
profile against an offline fold.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys

import common
import paper
import report
from common import BenchError, HostDiagnostics, emit_result, print_samples
from metrics import END_TO_END, PER_LAYER, WORKLOADS


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args: argparse.Namespace):
    common.check_checkout()
    common.compile_sources()
    workdir = common.make_workdir(args.workload)
    diagnostics = HostDiagnostics()
    try:
        outcome = paper.run(args.workload, workdir, args.seed, args.seconds,
                            bool(args.trace), diagnostics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome, diagnostics.finish()


def _stop(signum, _frame) -> None:
    # Unwind through every ``finally`` so each started process is stopped.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    try:
        outcome, diagnostics = measure(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in wanted if name not in outcome.metrics]
    tally = outcome.tally
    for problem in tally.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, unit in wanted.items():
        print_samples(name, unit, outcome.metrics[name], outcome.samples.get(name, 0))
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  error_ratio {ratio:g} (failed {tally.failed} of {tally.attempted})")
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    if outcome.raw:
        print("samples " + json.dumps(outcome.raw, sort_keys=True))
    if outcome.report is not None:
        outcome.report["diagnostics"] = diagnostics
        print(report.render(outcome.report))
        print(f"report written to {report.save(outcome.report)}")
    emit_result(
        tally.failed == 0 and tally.attempted > 0,
        max(tally.attempted, 1),
        tally.failed if tally.attempted else 1,
        {name: (outcome.metrics[name], unit) for name, unit in wanted.items()},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
