"""The paper workloads: ``repro all`` cold (empty cache) and warm.

Both run the experiment suite at :data:`SCALE`.  One run first launches
:data:`SETUP_PROBES` processes that only import the program (the
set-up time is their median), then repeats the measured process within
``--seconds`` (at least :data:`MIN_REPEATS` times) and reports the
median of each metric over the repeats.  Every repeat's output is
checked against the reference, so each repeat is 22 attempted
operations.

The traced run repeats rounds of three processes: untraced, traced by
the program's own ``--trace``/``--metrics`` (the tracing overhead is
the median ratio of these back-to-back pairs) and instrumented with
the benchmark's layer timers (the per-layer attribution).
The traced run of ``paper-warm`` also measures the serve layer
(``serve.py``).
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import layers
import stats
from common import (
    BENCH_DIR,
    BenchError,
    ChildRun,
    HostDiagnostics,
    Outcome,
    Tally,
    child_env,
    reap,
    repeat_within,
    start_child,
)
from metrics import zero_layers
from verify import check_output, load_reference

#: the suite's scale; ``reference.json`` must be recorded at it.
SCALE = 0.05
MIN_REPEATS = 3
MAX_REPEATS = 12
#: import-only processes per untraced run.  One import takes ~0.2 s and
#: single ones vary by a third on a shared host, so set-up time is the
#: median of many, taken before any process writes a cache.
SETUP_PROBES = 30
#: rounds of a traced run; the tracing overhead is a few percent, so
#: one pair's ratio is mostly host noise.
MIN_TRACED_ROUNDS = 3


@dataclass
class Repeat:
    """One finished measured process and what it printed."""

    run: ChildRun
    marker: Optional[dict]
    stdout: str

    @property
    def setup_s(self) -> float:
        return self.marker["ready"] - self.run.launched

    @property
    def exit_s(self) -> float:
        return self.run.exited - self.marker["done"]


def check_repeat(tally: Tally, repeat: Repeat, reference: dict, label: str) -> None:
    """Count one repeat's experiments; a crashed process fails them all."""
    attempted, failed, problems = check_output(repeat.stdout, reference)
    if not _ok(repeat):
        problems.append(f"exit code {repeat.run.returncode}"
                        + (" (timed out)" if repeat.run.timed_out else ""))
        failed = attempted
    tally.add(attempted, [f"{label}: {problem}" for problem in problems], failed)


def _ok(repeat: Repeat) -> bool:
    return repeat.marker is not None and repeat.run.returncode == 0


class PaperRunner:
    def __init__(self, workdir: Path, seed: int, diagnostics: HostDiagnostics) -> None:
        self.workdir = workdir
        self.seed = seed
        self.diagnostics = diagnostics
        self.reference = load_reference()
        if self.reference["scale"] != SCALE:
            raise BenchError(f"reference.json was recorded at scale {self.reference['scale']}, "
                             f"the benchmark runs at {SCALE}; re-record it")
        self.tally = Tally()
        self._count = 0

    def fresh_cache(self) -> Path:
        path = self.workdir / f"cache-{self._count}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir()
        return path

    def _start(self, mode: str, cache: Path) -> tuple:
        """Run one ``paper_child.py`` process; ``(run, marker, stdout, tag)``."""
        self._count += 1
        tag = f"{mode}-{self._count}"
        marker_path = self.workdir / f"{tag}.marker.json"
        stdout_path = self.workdir / f"{tag}.out"
        argv = [sys.executable, str(BENCH_DIR / "paper_child.py"), mode, str(marker_path),
                str(SCALE)]
        env = child_env(self.workdir, {"REPRO_CACHE_DIR": str(cache)})
        with open(stdout_path, "wb") as out, open(self.workdir / f"{tag}.err", "wb") as err:
            proc, launched = start_child(argv, env, out, err)
            run = reap(proc, launched)
        self.diagnostics.measured_cpu_s += run.cpu_s
        marker = None
        if marker_path.is_file():
            with open(marker_path) as handle:
                marker = json.load(handle)
        stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
        if marker is None or run.returncode != 0:
            err = (self.workdir / f"{tag}.err").read_text(errors="replace")
            sys.stderr.write(f"{tag} failed:\n{err[-2000:]}\n")
        return run, marker, stdout, tag

    def probe_setup(self, cache: Path) -> Optional[float]:
        """One import-only process: its set-up time, ``None`` if it failed."""
        run, marker, _, tag = self._start("import", cache)
        ok = marker is not None and run.returncode == 0
        self.tally.add(1, [] if ok else [f"{tag}: exit code {run.returncode}"])
        return marker["ready"] - run.launched if ok else None

    def launch(self, cache: Path, mode: str = "plain") -> Repeat:
        run, marker, stdout, tag = self._start(mode, cache)
        repeat = Repeat(run, marker, stdout)
        check_repeat(self.tally, repeat, self.reference, tag)
        return repeat


def run(workload: str, workdir: Path, seed: int, seconds: int, trace: bool,
        diagnostics: HostDiagnostics):
    """Measure one paper workload run."""
    runner = PaperRunner(workdir, seed, diagnostics)
    cold = workload == "paper-cold"
    setup = []
    if not trace:
        probe_cache = runner.fresh_cache()
        setup = [runner.probe_setup(probe_cache) for _ in range(SETUP_PROBES)]
    warm_cache = None
    if not cold:
        # Fill the cache before timing; the fill is checked like a repeat.
        warm_cache = runner.fresh_cache()
        runner.launch(warm_cache)

    def cache() -> Path:
        return runner.fresh_cache() if cold else warm_cache

    if trace:
        return _run_traced(workload, runner, cache, seed, seconds)
    repeats: List[Repeat] = []
    repeat_within(seconds, MIN_REPEATS, MAX_REPEATS,
                  lambda: repeats.append(runner.launch(cache())))
    good = [r for r in repeats if _ok(r)]
    setup = [s for s in setup if s is not None]
    if not good or not setup:
        return Outcome(runner.tally)
    samples = {
        "setup_s": setup,
        "wall_s": [r.run.wall_s for r in good],
        "peak_rss_mb": [r.run.peak_rss_mb for r in good],
    }
    return Outcome(
        runner.tally,
        {name: stats.median(values) for name, values in samples.items()},
        {name: len(values) for name, values in samples.items()},
        raw=samples,
    )


def _run_traced(workload, runner: PaperRunner, cache, seed: int, seconds: int):
    plain: List[Repeat] = []
    obs: List[Repeat] = []
    timed: List[Repeat] = []

    def round_() -> None:
        # Alternate which of the pair goes first, so an order effect
        # (page cache, a process after a heavier one) cancels.
        if len(plain) % 2:
            obs.append(runner.launch(cache(), "obs"))
            plain.append(runner.launch(cache()))
        else:
            plain.append(runner.launch(cache()))
            obs.append(runner.launch(cache(), "obs"))
        timed.append(runner.launch(cache(), "layers"))

    repeat_within(seconds, MIN_TRACED_ROUNDS, MAX_REPEATS, round_)
    # Each pair ran back to back, so its ratio cancels slow host periods.
    ratios = [t.run.wall_s / u.run.wall_s for u, t in zip(plain, obs) if _ok(u) and _ok(t)]
    plain = [r for r in plain if _ok(r)]
    timed = [r for r in timed if _ok(r)]
    if not ratios or not timed:
        return Outcome(runner.tally)
    per_run = [
        layers.derive(r.marker["layers"], r.run.wall_s, r.setup_s, r.exit_s,
                      r.marker["replay_events"])
        for r in timed
    ]
    metrics = zero_layers()
    for name in metrics:
        values = [m[name] for m in per_run if name in m]
        if values:
            metrics[name] = stats.median(values)
    untraced_wall = stats.median([r.run.wall_s for r in plain])
    metrics["obs.tracing_overhead_ratio"] = stats.median(ratios) - 1
    # Layers this workload does not exercise report 0 from 0 samples.
    samples = {name: len(timed) if name in per_run[0] else 0 for name in metrics}
    samples["obs.tracing_overhead_ratio"] = len(ratios)
    serve_table = None
    if workload == "paper-warm":
        import serve

        serve_metrics, serve_samples, serve_table = serve.measure_layers(
            runner.workdir, seed, runner.tally, runner.diagnostics)
        metrics.update(serve_metrics)
        samples.update(serve_samples)
    middle = sorted(timed, key=lambda r: r.run.wall_s)[len(timed) // 2]
    table = layers.self_time_table(middle.marker["layers"], middle.run.wall_s,
                                   middle.setup_s, middle.exit_s)
    report = {
        "workload": workload,
        "seed": seed,
        "scale": SCALE,
        "whole_s": middle.run.wall_s,
        "untraced_wall_s": untraced_wall,
        "traced_runs": len(timed),
        "table": [list(row) for row in table],
        "missing": middle.marker["layers"]["missing"],
        "metrics": metrics,
    }
    if serve_table:
        report["serve_table"] = serve_table
    return Outcome(runner.tally, metrics, samples, report,
                   raw={"obs.tracing_overhead_ratio": [r - 1 for r in ratios]})
