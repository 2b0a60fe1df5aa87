"""Shared plumbing: checkout paths, child processes, host diagnostics.

Everything the benchmark writes lives under :data:`WORK_ROOT` inside
the checkout (caches, child output, temporary files, trace reports),
so a run touches nothing outside the tree it measures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"
REPORT_DIR = WORK_ROOT / "reports"

#: hard ceiling on any one measured process; a hung child is killed and
#: counted as a failure instead of stalling the run.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no result line is printed)."""


@dataclass
class Tally:
    """Operations attempted and failed, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, attempted: int, problems: List[str], failed: Optional[int] = None) -> None:
        self.attempted += attempted
        self.failed += len(problems) if failed is None else failed
        self.problems.extend(problems)


@dataclass
class Outcome:
    """What one workload run measured.

    ``metrics`` maps metric names to values; ``samples`` gives the
    sample count behind each and ``raw`` the per-repeat values a median
    was taken over; ``report`` is the traced run's per-layer report
    (``None`` untraced).
    """

    tally: Tally
    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    report: Optional[dict] = None
    raw: Dict[str, List[float]] = field(default_factory=dict)


def check_checkout() -> None:
    """Refuse to run outside a checkout that holds the program's source."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}; run from a full checkout")


def repeat_within(seconds: float, minimum: int, maximum: int, step: Callable[[], None]) -> int:
    """Call ``step`` at least ``minimum`` times, then again only while a
    call as long as the median one so far still ends within ``seconds``
    of the first; returns the number of calls.

    Predicting the next call's end keeps a run close to ``--seconds`` on
    a slow host as on a fast one, instead of overrunning by a repeat.
    """
    started = time.monotonic()
    durations: List[float] = []
    while len(durations) < maximum:
        elapsed = time.monotonic() - started
        if len(durations) >= minimum and elapsed + stats.median(durations) > seconds:
            break
        begun = time.monotonic()
        step()
        durations.append(time.monotonic() - begun)
    return len(durations)


def compile_sources() -> None:
    """Byte-compile the program before timing, as any repeat user has it.

    Without this the first measured process of a fresh checkout would
    pay for compiling every module, and set-up time would depend on
    which run came first.
    """
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "repro"), str(BENCH_DIR)],
                   check=True, stdout=subprocess.DEVNULL)


def make_workdir(tag: str) -> Path:
    """A fresh private directory for one benchmark run."""
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    (path / "tmp").mkdir(parents=True)
    return path


def child_env(workdir: Path, extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Environment for a measured process.

    Drops every ``REPRO_*`` knob so ambient settings cannot change what
    is measured, lets Python use the byte-code :func:`compile_sources`
    wrote, points imports at the checkout's source and keeps temporary
    files in the run's directory.  The hash seed is fixed, so repeats
    differ in the host's speed only, not in set and dict layouts.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
        and key not in ("PYTHONPATH", "PYTHONHASHSEED", "PYTHONDONTWRITEBYTECODE")
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir / "tmp")
    if extra:
        env.update(extra)
    return env


@dataclass
class ChildRun:
    """One finished measured process."""

    returncode: int
    launched: float  # time.monotonic() just before the launch
    exited: float  # time.monotonic() when the exit was reaped
    peak_rss_mb: float
    cpu_s: float
    timed_out: bool = False

    @property
    def wall_s(self) -> float:
        return self.exited - self.launched


def start_child(argv: List[str], env: Dict[str, str], stdout, stderr) -> tuple:
    """Launch ``argv`` from the checkout root; returns ``(proc, launched)``."""
    launched = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
    return proc, launched


def reap(proc: subprocess.Popen, launched: float, timeout: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Wait for ``proc`` and collect its own exit time, peak RSS and CPU.

    ``os.wait4`` reports the rusage of exactly this child (not of all
    children so far, as ``RUSAGE_CHILDREN`` would).  A timer kills a
    child that overruns ``timeout``.
    """
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(max(0.0, launched + timeout - time.monotonic()), kill)
    timer.daemon = True
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # Interrupted (the benchmark itself is being stopped): leave no
        # child behind.
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        returncode=proc.returncode,
        launched=launched,
        exited=exited,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        timed_out=killed.is_set(),
    )


# ----------------------------------------------------------------------
# host diagnostics
# ----------------------------------------------------------------------


def _cpu_ticks() -> Optional[List[int]]:
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    return [int(value) for value in fields[1:]]


def _loadavg() -> Optional[List[float]]:
    try:
        with open("/proc/loadavg") as handle:
            return [float(value) for value in handle.read().split()[:3]]
    except (OSError, ValueError):
        return None


def host_probe_ms(rounds: int = 15) -> float:
    """Median time of a fixed pure-Python loop, in ms.

    A shared virtual machine's CPU speed can change for minutes at a
    time (on a 2-vCPU one, a loop like this ran about a third slower in
    some periods than in others, with no steal reported), so the probe
    before and after a run tells a run made in a slow period apart from
    a slower program.
    Diagnostic only: no metric is divided by it.
    """
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(time.perf_counter() - started)
    return stats.median(times) * 1e3


@dataclass
class HostDiagnostics:
    """What the host did while a run measured, to tell a host-slowed run
    apart from a slower program.  Recorded beside the metrics, never as
    one."""

    start_ticks: Optional[List[int]] = field(default_factory=_cpu_ticks)
    start_probe_ms: float = field(default_factory=host_probe_ms)
    measured_cpu_s: float = 0.0
    generator_retries: int = 0

    def finish(self) -> dict:
        end = _cpu_ticks()
        result = {
            "measured_cpu_s": round(self.measured_cpu_s, 6),
            "generator_retries": self.generator_retries,
            "loadavg": _loadavg(),
            "clk_tck": os.sysconf("SC_CLK_TCK"),
            "host_probe_ms": [round(self.start_probe_ms, 3), round(host_probe_ms(), 3)],
        }
        if self.start_ticks is not None and end is not None:
            delta = [b - a for a, b in zip(self.start_ticks, end)]
            # /proc/stat cpu fields: user nice system idle iowait irq softirq steal ...
            result["user_sys_ticks"] = delta[0] + delta[1] + delta[2]
            result["idle_ticks"] = delta[3]
            result["steal_ticks"] = delta[7] if len(delta) > 7 else 0
        return result


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def print_samples(name: str, unit: str, value: float, samples: int) -> None:
    """One human-readable metric line, with its sample count."""
    print(f"  {name:<42} {value:>14.6g} {unit:<6} (n={samples})")


def emit_result(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> None:
    """The last stdout line: the machine-read result object."""
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(payload, sort_keys=False), flush=True)
