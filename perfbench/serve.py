"""The serve layer: ingest and queries against ``repro serve``.

Measured inside the traced run of ``paper-warm`` (see ``metrics.py``
for why serve has no workload of its own).  Load shape (closed loop,
the benchmark process is the generator, two connections):

* one ingest connection (one client id) replays the captured ``train``
  traces of all eight workloads, concatenated in a seed-chosen order,
  as batches of :data:`BATCH_SIZE` events with at most :data:`WINDOW`
  unacked;
* one query thread issues ``GET /profile`` after every
  :data:`QUERY_EVERY`-th acked batch.  The trigger is progress, not the
  clock, so every session does the same read work.

A session launches ``repro serve --runtime inline --shards 2`` in its
own process, runs that fixed job, checks the served profile against an
offline fold of the same events in the same order and stops the
server.  Latencies are pooled over :data:`SESSIONS` sessions, so each
percentile has at least ten samples beyond it.  The server uses the
``inline`` runtime: ``process`` puts three server processes beside the
generator, more than a 2-CPU host can run without the processes
queueing for CPUs.
"""

from __future__ import annotations

import http.client
import json
import queue
import random
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import stats
from common import (
    SRC,
    BenchError,
    ChildRun,
    HostDiagnostics,
    Tally,
    child_env,
    reap,
    start_child,
)
from verify import check_profile

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
from repro.errors import ReproError  # noqa: E402

SCALE = 0.1
BATCH_SIZE = 256
#: the client's default window (``DEFAULT_WINDOW``).
WINDOW = 32
QUERY_EVERY = 16
QUERY_PATH = "/profile"
STREAM = "perfbench"
#: sessions per measurement: two pool 2400 batches and 150 queries,
#: enough for every percentile's ten samples beyond it.
SESSIONS = 2
#: resend only on real loss: the client's default (0.25 s) is shorter
#: than a host stall, and each spurious resend is extra server work
#: that depends on timing.
RETRY_INTERVAL_S = 2.0
#: a stalled session fails instead of hanging the run.
SESSION_TIMEOUT_S = 60.0

_LISTEN = re.compile(r"ingest (\S+):(\d+), http (\S+):(\d+)")


def load_events(seed: int) -> Tuple[list, str]:
    """The ingest stream and the served profile it must produce.

    Returns ``(events, expected_json)``: the ``(site, value)`` events of
    every workload's ``train`` trace, workloads in a seed-chosen order,
    and ``ProfileDatabase.to_json()`` of folding them one by one in that
    order (the body ``/profile?format=json`` must return).
    """
    from repro.analysis import experiments
    from repro.core.profile import ProfileDatabase
    from repro.core.tracestore import TARGET_KINDS

    order = list(experiments.programs())
    random.Random(seed).shuffle(order)
    events = []
    with experiments.caching_disabled():
        for name in order:
            events.extend(experiments.load_events(name, "train", SCALE).events(list(TARGET_KINDS)))
    experiments.clear_event_cache()
    offline = ProfileDatabase(name=STREAM)
    for site, value in events:
        offline.record(site, value)
    return events, offline.to_json() + "\n"


def http_get(host: str, port: int, path: str, timeout: float = 30.0) -> Tuple[int, str]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


class AckRecorder:
    """Stands in for the client's batch-latency histogram.

    ``ServeClient`` reports every acked batch's send-to-ack time to
    ``hists["serve.client_batch_e2e"].observe``; keeping the raw samples
    gives exact percentiles, and every :data:`QUERY_EVERY`-th ack
    triggers one query.
    """

    def __init__(self, triggers: "queue.Queue") -> None:
        self.samples: List[float] = []
        self._triggers = triggers

    def observe(self, seconds: float) -> None:
        self.samples.append(seconds)
        if len(self.samples) % QUERY_EVERY == 0:
            self._triggers.put(True)


class QueryLoop(threading.Thread):
    """Issues one ``GET /profile`` per trigger until told to stop."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(name="perfbench-query", daemon=True)
        self.host, self.port = host, port
        self.triggers: "queue.Queue" = queue.Queue()
        self.latencies: List[float] = []
        self.failures: List[str] = []
        self.last_answer = 0.0

    def run(self) -> None:
        while self.triggers.get() is not None:
            started = time.monotonic()
            try:
                status, _ = http_get(self.host, self.port, QUERY_PATH)
            except OSError as error:
                self.failures.append(f"GET {QUERY_PATH}: {error!r}")
                continue
            self.last_answer = time.monotonic()
            if status != 200:
                self.failures.append(f"GET {QUERY_PATH}: HTTP {status}")
                continue
            self.latencies.append(self.last_answer - started)

    def stop(self) -> None:
        self.triggers.put(None)
        self.join(SESSION_TIMEOUT_S)


@dataclass
class Session:
    run: Optional[ChildRun] = None
    job_s: float = 0.0
    ingest_s: float = 0.0
    events: int = 0
    batch_latencies: List[float] = field(default_factory=list)
    query_latencies: List[float] = field(default_factory=list)
    send_s: float = 0.0
    retries: int = 0
    scrape: str = ""
    checkpoints: int = 0
    ok: bool = False


def _read_listen_line(proc, deadline: float) -> Tuple[str, int, int]:
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    buffer = b""
    try:
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not selector.select(remaining):
                raise BenchError("server did not report its ports in time")
            chunk = proc.stdout.read1(4096)
            if not chunk:
                raise BenchError("server exited before listening")
            buffer += chunk
    finally:
        selector.close()
    match = _LISTEN.search(buffer.decode("utf-8", "replace"))
    if not match:
        raise BenchError(f"unexpected server banner: {buffer!r}")
    return match.group(1), int(match.group(2)), int(match.group(4))


def _wait_healthy(host: str, port: int, deadline: float) -> None:
    while True:
        try:
            if http_get(host, port, "/healthz", timeout=5.0)[0] == 200:
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise BenchError("server never answered /healthz")
        time.sleep(0.002)


def run_session(workdir: Path, seed: int, index: int, events: list, expected: str,
                tally: Tally) -> Session:
    """One traced server lifetime: launch, ingest + queries, check, stop.

    Attempted operations are the batches, the queries and the final
    profile check; an unacked batch, a failed query or a profile that
    differs from the offline fold each count one failure, and a session
    that cannot run at all counts one.
    """
    session = Session()
    label = f"session {index}"
    argv = [sys.executable, "-m", "repro", "serve", "--runtime", "inline", "--shards", "2",
            "--port", "0", "--http-port", "0",
            "--trace", str(workdir / f"server-{index}.trace.jsonl")]
    with open(workdir / f"server-{index}.err", "wb") as err:
        proc, launched = start_child(argv, child_env(workdir), subprocess.PIPE, err)
    try:
        _drive(proc, launched, session, label, events, expected, tally)
    except (OSError, ValueError, BenchError, ReproError) as error:
        tally.add(1, [f"{label}: {error!r}"])
        session.ok = False
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        session.run = reap(proc, launched, timeout=SESSION_TIMEOUT_S)
        proc.stdout.close()
    if session.run.returncode != 0:
        tally.add(1, [f"{label}: server exit code {session.run.returncode}"])
        session.ok = False
    return session


def _drive(proc, launched: float, session: Session, label: str, events: list,
           expected: str, tally: Tally) -> None:
    from repro.serve.client import ClientError, ServeClient

    deadline = launched + SESSION_TIMEOUT_S
    host, ingest_port, http_port = _read_listen_line(proc, deadline)
    _wait_healthy(host, http_port, deadline)
    querier = QueryLoop(host, http_port)
    recorder = AckRecorder(querier.triggers)
    client = ServeClient(host, ingest_port, client_id=STREAM, stream=STREAM,
                         window=WINDOW, timeout=30.0, retry_interval=RETRY_INTERVAL_S)
    client.hists["serve.client_batch_e2e"] = recorder
    _time_sends(client, session)
    querier.start()
    problems = []
    started = time.monotonic()
    try:
        client.connect()
        started = time.monotonic()
        client.push_events(events, batch_size=BATCH_SIZE)
        client.flush()
    except ClientError as error:
        problems.append(f"{label}: ingest stalled: {error}")
    finally:
        ingest_end = time.monotonic()
        querier.stop()
    unacked = client.unacked
    client.close(flush=False)
    session.ingest_s = ingest_end - started
    session.job_s = max(ingest_end, querier.last_answer) - started
    session.events = client.counters["events"]
    session.batch_latencies = recorder.samples
    session.query_latencies = querier.latencies
    session.retries = client.counters["retries"]
    problems += [f"{label}: {failure}" for failure in querier.failures]
    failed = unacked + len(querier.failures)
    if unacked or session.events != len(events):
        problems.append(f"{label}: {unacked} batches unacked, "
                        f"{session.events} of {len(events)} events sent")
        failed = max(failed, 1)
    status, served = http_get(host, http_port, "/profile?format=json")
    mismatch = check_profile(served, expected) if status == 200 else [
        f"/profile?format=json answered HTTP {status}"]
    problems += [f"{label}: {problem}" for problem in mismatch]
    failed += bool(mismatch)
    session.scrape = http_get(host, http_port, "/metrics")[1]
    shards = json.loads(http_get(host, http_port, "/stats")[1])["shards"]
    session.checkpoints = sum(shard["counters"].get("checkpoints", 0) for shard in shards)
    attempted = client.counters["batches"] + len(querier.latencies) + len(querier.failures) + 1
    tally.add(attempted, problems, failed)
    session.ok = not problems


def _time_sends(client, session: Session) -> None:
    """Time the generator's calls into the client (instance-level)."""
    for attr in ("send_batch", "flush"):
        method = getattr(client, attr)

        def timed(*args, _method=method, **kwargs):
            started = time.perf_counter()
            try:
                return _method(*args, **kwargs)
            finally:
                session.send_s += time.perf_counter() - started

        setattr(client, attr, timed)


# ----------------------------------------------------------------------
# /metrics scrape
# ----------------------------------------------------------------------

_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{le="([^"]+)"\})? (\S+)$')


def parse_scrape(text: str) -> Tuple[Dict[str, float], Dict[str, List[Tuple[float, float]]]]:
    """``(values, buckets)`` from Prometheus text: plain samples by name,
    and each histogram's cumulative ``(upper bound, count)`` pairs."""
    values: Dict[str, float] = {}
    buckets: Dict[str, List[Tuple[float, float]]] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if not match:
            continue
        name, bound, value = match.groups()
        if bound is not None and name.endswith("_bucket"):
            buckets.setdefault(name[: -len("_bucket")], []).append((float(bound), float(value)))
        elif bound is None:
            values[name] = float(value)
    return values, buckets


def merge_scrapes(scrapes: List[str]):
    """Sum counters and histogram buckets over several sessions' scrapes."""
    values: Dict[str, float] = {}
    buckets: Dict[str, Dict[float, float]] = {}
    for text in scrapes:
        session_values, session_buckets = parse_scrape(text)
        for name, value in session_values.items():
            values[name] = values.get(name, 0.0) + value
        for name, pairs in session_buckets.items():
            merged = buckets.setdefault(name, {})
            for bound, count in pairs:
                merged[bound] = merged.get(bound, 0.0) + count
    return values, {name: sorted(pairs.items()) for name, pairs in buckets.items()}


def bucket_percentile(pairs: List[Tuple[float, float]], pct: int) -> float:
    """A percentile from cumulative log2 buckets, interpolated in its bucket.

    0 with no samples (the layer did no work); guarded like any
    percentile otherwise.
    """
    count = pairs[-1][1] if pairs else 0
    if count == 0:
        return 0.0
    if stats.samples_beyond(int(count), pct) < stats.MIN_BEYOND:
        raise stats.PercentileError(f"p{pct} of {int(count)} bucketed samples")
    rank = count * pct / 100
    low_bound, low_count = 0.0, 0.0
    for bound, cumulative in pairs:
        if cumulative >= rank:
            if bound == float("inf"):
                return low_bound
            fraction = (rank - low_count) / (cumulative - low_count)
            return low_bound + fraction * (bound - low_bound)
        low_bound, low_count = bound, cumulative
    return low_bound


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


def client_metrics(sessions: List[Session]) -> Dict[str, float]:
    """Client-observed figures pooled over sessions (guarded percentiles)."""
    batches = [x for s in sessions for x in s.batch_latencies]
    queries = [x for s in sessions for x in s.query_latencies]
    return {
        "serve.ingest_events_per_s": stats.median([s.events / s.ingest_s for s in sessions]),
        "serve.batch_p50_ms": stats.percentile(batches, 50) * 1e3,
        "serve.batch_p99_ms": stats.percentile(batches, 99) * 1e3,
        "serve.query_p50_ms": stats.percentile(queries, 50) * 1e3,
        "serve.query_p90_ms": stats.percentile(queries, 90) * 1e3,
    }


def _client_samples(sessions: List[Session]) -> Dict[str, int]:
    batches = sum(len(s.batch_latencies) for s in sessions)
    queries = sum(len(s.query_latencies) for s in sessions)
    return {
        "serve.ingest_events_per_s": len(sessions),
        "serve.batch_p50_ms": batches,
        "serve.batch_p99_ms": batches,
        "serve.query_p50_ms": queries,
        "serve.query_p90_ms": queries,
    }


#: server-side layers: (metric stem, Prometheus histogram) per layer.
SERVER_LAYERS = (
    ("serve.batch_e2e", "repro_serve_batch_e2e"),
    ("serve.journal_sync", "repro_serve_journal_sync"),
    ("serve.shard_fold", "repro_serve_shard_fold"),
    ("serve.http_request", "repro_serve_http_request"),
)


def measure_layers(workdir: Path, seed: int, tally: Tally,
                   diagnostics: HostDiagnostics) -> Tuple[Dict[str, float], Dict[str, int], list]:
    """Per-layer serve metrics: the client view plus the servers' ``/metrics``.

    Returns ``(metrics, samples, table)``.  The table splits the
    server's busy time per session into journal sync, shard fold and
    HTTP request handling (histogram sums); ``serve.unattributed`` is
    the rest of the job (routing, framing, acks, idle waits).
    """
    events, expected = load_events(seed)
    sessions: List[Session] = []
    for index in range(1, SESSIONS + 1):
        session = run_session(workdir, seed, index, events, expected, tally)
        diagnostics.measured_cpu_s += session.run.cpu_s
        diagnostics.generator_retries += session.retries
        if session.ok:
            sessions.append(session)
    if len(sessions) < SESSIONS:
        return {}, {}, []
    metrics = client_metrics(sessions)
    samples = _client_samples(sessions)
    values, buckets = merge_scrapes([s.scrape for s in sessions])
    for stem, prom in SERVER_LAYERS:
        pairs = buckets.get(prom, [])
        metrics[f"{stem}_p50_ms"] = bucket_percentile(pairs, 50) * 1e3
        samples[f"{stem}_p50_ms"] = int(pairs[-1][1]) if pairs else 0
    # Sums and counts are per session.
    count = len(sessions)
    metrics["serve.shard_fold_s"] = values.get("repro_serve_shard_fold_sum", 0.0) / count
    for name in ("queries", "retried_batches", "duplicate_batches", "flow_pauses"):
        metrics[f"serve.{name}"] = values.get(f"repro_serve_{name}", 0.0) / count
    # Shards checkpoint on their own every N batches; /stats reports it.
    metrics["serve.checkpoints"] = sum(s.checkpoints for s in sessions) / count
    metrics["serve.client_send_s"] = sum(s.send_s for s in sessions) / count
    for name in ("serve.shard_fold_s", "serve.queries", "serve.retried_batches",
                 "serve.duplicate_batches", "serve.flow_pauses", "serve.checkpoints",
                 "serve.client_send_s"):
        samples[name] = count
    whole = stats.median([s.job_s for s in sessions])
    table = []
    for stem, prom in SERVER_LAYERS[1:]:
        busy = values.get(f"{prom}_sum", 0.0) / count
        calls = int(values.get(f"{prom}_count", 0.0)) // count
        table.append([stem, busy, calls, busy / whole])
    rest = whole - sum(row[1] for row in table)
    table.append(["serve.unattributed", rest, 0, rest / whole])
    table.sort(key=lambda row: -row[1])
    return metrics, samples, table
