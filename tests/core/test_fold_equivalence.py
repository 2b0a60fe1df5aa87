"""The columnar fold path must be indistinguishable from per-event recording.

:mod:`repro.core.fold` reduces a site's value run once — grouped
``(value, count)`` chunks split at clearing boundaries plus the
order-sensitive scalars — and the grouped fast paths
(``TNVTable.record_grouped``, ``SiteProfile.record_fold`` and friends)
consume that reduction.  Every observable result must match the
per-event path bit for bit: resident TNV entries *and* their dict
order, clear positions, health telemetry, LVP/zero/first/last scalars,
exact histograms, serialized JSON.  An ``array('q')`` column and a
plain list must produce identical folds.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fold import fold_from_payload, fold_to_payload, fold_values
from repro.core.metrics import ValueStreamStats
from repro.core.profile import ProfileDatabase, SiteProfile, TNVConfig
from repro.core.sites import load_site
from repro.core.tnv import TNVTable
from repro.errors import ProfileError

SITE = load_site("prog", "main", 1)

#: TNV shapes covering the paper default, clearing disabled, a tiny
#: interval (clears mid-run), and a degenerate steady part.
CONFIGS = [
    dict(capacity=10, steady=5, clear_interval=2000),
    dict(capacity=10, steady=5, clear_interval=None),
    dict(capacity=4, steady=2, clear_interval=7),
    dict(capacity=3, steady=0, clear_interval=5),
    dict(capacity=1, steady=0, clear_interval=3),
]

values_strategy = st.lists(st.integers(min_value=-6, max_value=6), max_size=300)


def tnv_full_state(table: TNVTable):
    """Every bit of TNV state, health telemetry included; ``_entries``
    as an item list so dict insertion order is part of the comparison."""
    return (
        list(table._entries.items()),
        table.total,
        table.clears,
        table._since_clear,
        table.evictions,
        table.promotions,
        table.turnover,
        table.last_turnover,
        table.saturated_clears,
        table._steady_values,
        table._size_after_clear,
    )


def stats_state(stats: ValueStreamStats):
    return {slot: getattr(stats, slot) for slot in ValueStreamStats.__slots__}


def profile_state(profile: SiteProfile):
    state = {
        "tnv": tnv_full_state(profile.tnv),
        "metrics": profile.metrics(),
        "tnv_metrics": profile.tnv_metrics(),
        "lvp": profile.lvp(),
        "first": (profile._has_first, profile._first),
        "last": (profile._has_last, profile._last),
    }
    if profile.exact is not None:
        state["exact"] = stats_state(profile.exact)
    return state


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: str(c["clear_interval"]))
@settings(max_examples=60, deadline=None)
@given(values=values_strategy)
def test_fold_values_matches_per_event_profile(config, values):
    per_event = SiteProfile(SITE, TNVConfig(**config))
    for value in values:
        per_event.record(value)
    folded = SiteProfile(SITE, TNVConfig(**config))
    if values:
        folded.record_fold(fold_values(values, config["clear_interval"]))
    assert profile_state(folded) == profile_state(per_event)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: str(c["clear_interval"]))
@settings(max_examples=40, deadline=None)
@given(head=values_strategy, tail=values_strategy)
def test_fold_splices_onto_nonempty_profile(config, head, tail):
    """A fold split for the table's mid-stream ``since_clear`` position
    must splice on exactly — boundary LVP hit and clear phase included."""
    per_event = SiteProfile(SITE, TNVConfig(**config))
    for value in head + tail:
        per_event.record(value)
    folded = SiteProfile(SITE, TNVConfig(**config))
    for value in head:
        folded.record(value)
    if tail:
        folded.record_fold(
            fold_values(tail, config["clear_interval"], folded.tnv._since_clear)
        )
    assert profile_state(folded) == profile_state(per_event)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: str(c["clear_interval"]))
@settings(max_examples=60, deadline=None)
@given(values=values_strategy)
def test_tnv_health_counters_match_per_event(config, values):
    per_event = TNVTable(**config)
    for value in values:
        per_event.record(value)
    batched = TNVTable(**config)
    batched.record_many(values)
    assert tnv_full_state(batched) == tnv_full_state(per_event)
    assert batched.health() == per_event.health()
    assert batched.to_dict() == per_event.to_dict()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: str(c["clear_interval"]))
@settings(max_examples=40, deadline=None)
@given(values=values_strategy)
def test_array_column_folds_like_list(config, values):
    """An ``array('q')`` column (what the trace store holds) and the
    same run as a plain list must fold identically — chunk maps in the
    same order with the same Python-int values."""
    interval = config["clear_interval"]
    from_list = fold_values(values, interval)
    from_column = fold_values(array("q", values), interval)
    assert from_column.n == from_list.n
    assert from_column.first == from_list.first
    assert from_column.last == from_list.last
    assert from_column.lvp_hits == from_list.lvp_hits
    assert from_column.zeros == from_list.zeros
    assert list(from_column.counts.items()) == list(from_list.counts.items())
    assert [
        (list(counts.items()), n) for counts, n in from_column.chunks
    ] == [(list(counts.items()), n) for counts, n in from_list.chunks]
    for value in from_column.counts:
        assert type(value) is int


@settings(max_examples=40, deadline=None)
@given(values=values_strategy)
def test_fold_payload_roundtrip(values):
    fold = fold_values(values, 7)
    clone = fold_from_payload(fold_to_payload(fold))
    assert clone.n == fold.n
    assert clone.first == fold.first
    assert clone.last == fold.last
    assert clone.lvp_hits == fold.lvp_hits
    assert clone.zeros == fold.zeros
    assert list(clone.counts.items()) == list(fold.counts.items())
    assert [(list(c.items()), n) for c, n in clone.chunks] == [
        (list(c.items()), n) for c, n in fold.chunks
    ]
    assert (clone.interval, clone.since) == (fold.interval, fold.since)


class TestGuards:
    def test_grouped_record_must_not_cross_clear_boundary(self):
        table = TNVTable(capacity=4, steady=2, clear_interval=10)
        table.record_many([1] * 7)
        with pytest.raises(ProfileError):
            table.record_grouped({1: 4}, 4)
        # Landing exactly on the boundary is fine and fires the clear.
        table.record_grouped({1: 3}, 3)
        assert table.clears == 1
        assert table._since_clear == 0

    def test_fold_for_wrong_table_phase_rejected(self):
        profile = SiteProfile(SITE, TNVConfig(capacity=4, steady=2, clear_interval=10))
        with pytest.raises(ProfileError):
            profile.record_fold(fold_values([1, 2, 3], 99))
        profile.record(5)
        with pytest.raises(ProfileError):
            profile.record_fold(fold_values([1, 2, 3], 10))  # since=0, table at 1


class TestDatabaseFold:
    def test_record_fold_matches_record_batch(self):
        import random

        rng = random.Random(99)
        sites = [load_site("prog", "main", pc) for pc in range(4)]
        config = TNVConfig(capacity=4, steady=2, clear_interval=50)
        runs = {site: [rng.randrange(8) for _ in range(rng.randrange(300))] for site in sites}

        batched = ProfileDatabase(config=config)
        folded = ProfileDatabase(config=config)
        for site, values in runs.items():
            batched.record_batch(site, values)
            folded.record_fold(site, fold_values(values, config.clear_interval))
        assert folded.to_json() == batched.to_json()
        for site in sites:
            if runs[site]:
                assert stats_state(folded.profile_for(site).exact) == stats_state(
                    batched.profile_for(site).exact
                )
