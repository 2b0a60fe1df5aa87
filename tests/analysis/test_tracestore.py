"""Tests for the simulate-once/replay-many event-trace store.

The store's contract is strict: every replay view must be
*indistinguishable* from the live observer it replaces — same profile
database JSON, same per-site trace dicts (including iteration order and
cap/drop accounting), same global event order.  These tests pin that
contract on real workload streams, plus the serialization round-trip
the disk cache depends on.
"""

import pickle

import pytest

from repro.core.profile import ProfileDatabase
from repro.core.tracestore import (
    EventTrace,
    TraceCaptureObserver,
    TraceStoreError,
    replay_global_events,
    replay_profile,
    replay_site_traces,
)
from repro.isa.instrument import (
    ALL_TARGETS,
    GlobalTraceCollector,
    ProfileTarget,
    ValueProfiler,
    ValueTraceCollector,
)
from repro.isa.machine import Machine
from repro.workloads.registry import get_workload

SCALE = 0.1
NAME = "compress"


@pytest.fixture(scope="module")
def captured():
    """One captured trace of the reference workload, shared module-wide."""
    workload = get_workload(NAME)
    program = workload.program()
    dataset = workload.dataset("train", scale=SCALE)
    capture = TraceCaptureObserver(program)
    machine = Machine(program, observer=capture)
    machine.set_input(dataset.values)
    result = machine.run()
    return EventTrace(
        program=NAME,
        variant="train",
        scale=SCALE,
        sites=capture.sites,
        site_ids=capture.site_ids,
        values=capture.values,
        result=result,
        dataset=dataset,
    )


def _live_machine(observer):
    workload = get_workload(NAME)
    machine = Machine(workload.program(), observer=observer)
    machine.set_input(workload.dataset("train", scale=SCALE).values)
    machine.run()


class TestSerialization:
    def test_payload_roundtrip_preserves_stream(self, captured):
        payload = pickle.loads(pickle.dumps(captured.to_payload()))
        restored = EventTrace.from_payload(payload)
        assert restored.sites == captured.sites
        assert restored.site_ids == captured.site_ids
        assert restored.values == captured.values
        assert restored.program == NAME
        assert list(restored.result.output) == list(captured.result.output)

    def test_unknown_format_rejected(self, captured):
        payload = captured.to_payload()
        payload["format"] = 999
        with pytest.raises(TraceStoreError):
            EventTrace.from_payload(payload)

    def test_column_length_mismatch_rejected(self, captured):
        import zlib
        from array import array

        payload = captured.to_payload()
        truncated = array("q", list(captured.values)[:-1])
        payload["values"] = zlib.compress(truncated.tobytes(), 1)
        with pytest.raises(TraceStoreError):
            EventTrace.from_payload(payload)


class TestReplayEquivalence:
    @pytest.mark.parametrize(
        "targets",
        [
            (ProfileTarget.INSTRUCTIONS,),
            (ProfileTarget.LOADS,),
            (ProfileTarget.LOADS, ProfileTarget.MEMORY),
            tuple(ALL_TARGETS),
        ],
        ids=["instructions", "loads", "loads+memory", "all"],
    )
    def test_replay_profile_matches_live_profiler(self, captured, targets):
        live = ProfileDatabase(name=NAME)
        _live_machine(
            ValueProfiler(get_workload(NAME).program(), live, targets=targets)
        )
        replayed = replay_profile(captured, targets, name=NAME)
        assert replayed.to_json() == live.to_json()

    def test_replay_site_traces_matches_live_collector(self, captured):
        collector = ValueTraceCollector(
            get_workload(NAME).program(), targets=(ProfileTarget.LOADS,)
        )
        _live_machine(collector)
        traces, dropped = replay_site_traces(captured, (ProfileTarget.LOADS,))
        assert traces == collector.traces
        assert list(traces) == list(collector.traces), "site order differs"
        assert dropped == collector.dropped == 0

    def test_replay_site_traces_cap_matches_live_cap(self, captured):
        collector = ValueTraceCollector(
            get_workload(NAME).program(),
            targets=(ProfileTarget.INSTRUCTIONS,),
            max_per_site=5,
        )
        _live_machine(collector)
        traces, dropped = replay_site_traces(
            captured, (ProfileTarget.INSTRUCTIONS,), max_per_site=5
        )
        assert traces == collector.traces
        assert dropped == collector.dropped > 0

    def test_replay_global_events_matches_live_collector(self, captured):
        collector = GlobalTraceCollector(
            get_workload(NAME).program(),
            targets=(ProfileTarget.INSTRUCTIONS, ProfileTarget.LOADS),
            max_events=1000,
        )
        _live_machine(collector)
        events, dropped = replay_global_events(
            captured,
            (ProfileTarget.INSTRUCTIONS, ProfileTarget.LOADS),
            max_events=1000,
        )
        assert events == collector.events
        assert dropped == collector.dropped > 0


class TestFoldModeEquivalence:
    """Both ``replay_profile`` branches must replay to byte-identical
    profile databases: the columnar fold path (flight recorder off) and
    the raw-event batch path the flight recorder needs (recorder on)."""

    @pytest.mark.parametrize("recorder", [False, True], ids=["recorder-off", "recorder-on"])
    @pytest.mark.parametrize(
        "targets",
        [(ProfileTarget.LOADS,), tuple(ALL_TARGETS)],
        ids=["loads", "all"],
    )
    def test_replay_profile_matches_live_in_every_mode(self, captured, recorder, targets):
        from repro.obs.flight import FLIGHT

        live = ProfileDatabase(name=NAME)
        _live_machine(
            ValueProfiler(get_workload(NAME).program(), live, targets=targets)
        )
        if recorder:
            FLIGHT.enable(capacity=64)
        try:
            replayed = replay_profile(captured, targets, name=NAME)
            teed = FLIGHT.total_events
        finally:
            FLIGHT.disable()
            FLIGHT.reset()
        assert (teed > 0) == recorder
        assert replayed.to_json() == live.to_json()

    def test_site_folds_order_matches_site_values(self, captured):
        """Fold gather must yield sites in the same first-appearance
        order as the list gather."""
        targets = tuple(ALL_TARGETS)
        by_values = [site for site, _ in captured.site_values(targets)]
        by_folds = [site for site, _ in captured.site_folds(targets, 2000)]
        assert by_folds == by_values

    def test_site_folds_counts_are_python_ints(self, captured):
        for _, fold in captured.site_folds((ProfileTarget.LOADS,), 2000):
            value, count = next(iter(fold.counts.items()))
            assert type(value) is int
            assert type(count) is int
            break


class TestValueTraceCollectorDropped:
    def test_uncapped_collection_drops_nothing(self):
        collector = ValueTraceCollector(get_workload(NAME).program())
        _live_machine(collector)
        assert collector.dropped == 0
        assert sum(len(t) for t in collector.traces.values()) > 0

    def test_cap_accounts_for_every_discarded_event(self):
        full = ValueTraceCollector(get_workload(NAME).program())
        _live_machine(full)
        capped = ValueTraceCollector(get_workload(NAME).program(), max_per_site=3)
        _live_machine(capped)
        total = sum(len(t) for t in full.traces.values())
        kept = sum(len(t) for t in capped.traces.values())
        assert capped.dropped == total - kept > 0
        assert all(len(t) <= 3 for t in capped.traces.values())


@pytest.mark.slow
class TestProvenanceSurfaced:
    def test_table_predictors_reports_trace_provenance(self):
        from repro.analysis import experiments

        result = experiments.run("table-predictors", scale=0.1)
        provenance = result.data["trace_provenance"]
        assert set(provenance) == set(experiments.programs())
        for info in provenance.values():
            assert info["source"] in ("replay", "simulation")
            assert info["events"] > 0
            assert info["dropped"] == 0
