"""The measured process of the paper workloads.

Every mode records, on the shared monotonic clock, when ``repro``
finished importing; the modes that run the suite also record when the
work returned (what follows is interpreter teardown).

* ``plain`` runs exactly what ``python -m repro all --scale S`` runs
  (``repro.cli.main``).
* ``import`` stops once ``repro.cli`` is imported: the set-up probe.
* ``obs`` runs ``repro all --scale S --trace F --metrics M``, the
  program's own tracing path (``F`` and ``M`` sit beside the marker);
  paired with ``plain`` it gives the tracing overhead.
* ``layers`` instead runs every experiment through ``experiments.run``
  in ``repro all``'s order with the benchmark's layer timers installed,
  printing the same text; it also records the layer timings.

Usage: paper_child.py {plain,import,obs,layers} MARKER_JSON SCALE
"""

import json
import sys
import time

from repro.cli import main  # interpreter start + repro import is setup

READY = time.monotonic()


def _plain(marker: str, scale: str) -> dict:
    return {"code": main(["all", "--scale", scale])}


def _import(marker: str, scale: str) -> dict:
    return {"code": 0}


def _obs(marker: str, scale: str) -> dict:
    code = main(["all", "--scale", scale,
                 "--trace", marker + ".trace.jsonl", "--metrics", marker + ".metrics.json"])
    return {"code": code}


def _layers(marker: str, scale: str) -> dict:
    import traceback

    import layers
    from repro.analysis import experiments
    from repro.obs import METRICS, TRACER

    ids = experiments.experiment_ids()  # loads every experiment module
    clock = layers.LayerClock()
    layers.install(clock)
    METRICS.reset()
    METRICS.enable()
    TRACER.enable()
    raised = []
    for eid in ids:
        clock.enter(f"experiment.{eid}")
        try:
            result = experiments.run(eid, scale=float(scale))
        except Exception:  # reported and counted by the parent
            traceback.print_exc()
            raised.append(eid)
            continue
        finally:
            clock.exit()
        print(f"\n== {result.title} ({result.experiment}) ==")
        print(result.text)
    counters = METRICS.snapshot()["counters"]
    TRACER.disable()
    METRICS.disable()
    return {
        "code": 1 if raised else 0,
        "raised": raised,
        "layers": clock.to_json(),
        "replay_events": counters.get("tracestore.replay_events", 0),
    }


MODES = {"plain": _plain, "import": _import, "obs": _obs, "layers": _layers}


def run(argv) -> int:
    mode, marker, scale = argv
    record = MODES[mode](marker, scale)
    sys.stdout.flush()
    record.update(ready=READY, done=time.monotonic())
    with open(marker, "w") as handle:
        json.dump(record, handle)
    return record["code"]


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
