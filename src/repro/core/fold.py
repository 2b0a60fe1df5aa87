"""The columnar fold kernel for the replay → profile hot path.

The event-trace store captures each simulation as columnar arrays, but
until this module existed every replay consumer re-materialized the
stream as per-event Python calls that TNV/metrics folded straight back
down.  The kernel here keeps the stream columnar end to end: a site's
value run is reduced **once** into a :class:`SiteFold` — run-length
splitting at clearing-interval boundaries, per-chunk ``(value, count)``
group-by in first-appearance order, plus the order-sensitive scalars
(LVP adjacency hits, zeros, first/last) the grouped representation
cannot carry — and every profile structure consumes that fold through
the grouped fast paths (:meth:`~repro.core.tnv.TNVTable.record_grouped`,
:meth:`~repro.core.profile.SiteProfile.record_fold`,
:meth:`~repro.core.metrics.ValueStreamStats.record_fold`).

The kernel is pure Python on C-level passes: one ``Counter`` pass per
clear-interval chunk (``Counter`` preserves first-appearance order) and
one ``sum(map(eq, ...))`` adjacency pass.  The stdlib is enough; the
trace store's ``array`` columns fold as they are.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from operator import eq
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.metrics import is_zero

Value = Hashable


@dataclass
class SiteFold:
    """One site's value run, reduced to the grouped representation.

    The fold carries everything the profile structures consume, so no
    per-event objects survive past the kernel:

    Attributes:
        n: total number of events in the run.
        first: first value of the run (``None`` iff ``n == 0``).
        last: last value of the run.
        lvp_hits: adjacent-equal pairs *inside* the run (the recorder
            adds the run-boundary hit against its own previous value).
        zeros: events whose value is zero (:func:`is_zero`).
        counts: whole-run ``value -> count`` map in first-appearance
            order (feeds the exact histogram).
        chunks: ``(counts, n)`` per clearing-interval chunk, split
            exactly where per-event recording would clear; each chunk's
            map is first-appearance ordered, which is what makes grouped
            TNV admission bit-identical to per-event recording.
        interval: the clearing interval the chunks were split for.
        since: the table's ``since_clear`` position the split assumed.
    """

    n: int
    first: Value
    last: Value
    lvp_hits: int
    zeros: int
    counts: Dict[Value, int]
    chunks: List[Tuple[Dict[Value, int], int]]
    interval: Optional[int]
    since: int = 0



def chunk_bounds(n: int, interval: Optional[int], since: int) -> List[Tuple[int, int]]:
    """(start, end) offsets splitting ``n`` events at clearing boundaries.

    ``since`` is the table's position in its current clearing interval,
    so the first chunk only fills the room left before the next clear;
    ``interval=None`` (clearing disabled) is one chunk.
    """
    if interval is None:
        return [(0, n)]
    bounds = []
    start = 0
    room = interval - since
    while start < n:
        end = start + room
        if end > n:
            end = n
        bounds.append((start, end))
        start = end
        room = interval
    return bounds


def _merge_chunk_counts(chunks: List[Tuple[Dict[Value, int], int]]) -> Dict[Value, int]:
    """Whole-run counts from chunk counts, first-appearance order kept."""
    if len(chunks) == 1:
        return chunks[0][0]
    merged: Dict[Value, int] = {}
    get = merged.get
    for counts, _ in chunks:
        for value, count in counts.items():
            merged[value] = get(value, 0) + count
    return merged


def _fold_python(values: Sequence[Value], interval: Optional[int], since: int) -> SiteFold:
    """The kernel proper; ``values`` is a list or tuple."""
    n = len(values)
    # Adjacent-equal pairs in one C pass (map+operator.eq beat both the
    # zip genexpr and itertools.groupby on every tested distribution).
    lvp_hits = sum(map(eq, values, islice(values, 1, None))) if n > 1 else 0
    chunks: List[Tuple[Dict[Value, int], int]] = []
    for start, end in chunk_bounds(n, interval, since):
        if start == 0 and end == n:
            counts = Counter(values)
        else:
            counts = Counter(values[start:end])
        chunks.append((counts, end - start))
    if len(chunks) == 1:
        counts = chunks[0][0]
    else:
        # One extra C-level counting pass beats merging the chunk dicts
        # in Python, and yields the same global first-appearance order.
        counts = Counter(values)
    try:
        # Everything ``== 0`` shares one dict slot (equal keys collide),
        # so the zero total is a single lookup — exactly the
        # :func:`is_zero` test for values whose ``==`` doesn't raise.
        zeros = counts.get(0, 0)
    except TypeError:
        zeros = sum(count for value, count in counts.items() if is_zero(value))
    return SiteFold(
        n=n,
        first=values[0],
        last=values[n - 1],
        lvp_hits=lvp_hits,
        zeros=zeros,
        counts=counts,
        chunks=chunks,
        interval=interval,
        since=since,
    )


def fold_values(
    values: Sequence[Value],
    interval: Optional[int],
    since: int = 0,
) -> SiteFold:
    """Reduce one site's value run to its :class:`SiteFold`.

    ``interval``/``since`` must describe the TNV table the fold will be
    fed to (:meth:`~repro.core.profile.SiteProfile.record_fold`
    validates them), so chunk splits land exactly where per-event
    recording would clear.
    """
    n = len(values)
    if n == 0:
        return SiteFold(0, None, None, 0, 0, {}, [], interval, since)
    if not isinstance(values, (list, tuple)):
        values = list(values)
    return _fold_python(values, interval, since)


# ----------------------------------------------------------------------
# shipping (process-parallel fan-out)
# ----------------------------------------------------------------------


def fold_to_payload(fold: SiteFold) -> dict:
    """Primitives-only form of a fold for cross-process shipping.

    The chunk maps flatten to ``(value, count)`` triples-in-lists, so a
    worker's payload is exactly the folded ``(site, value, count)``
    representation the parallel runner ships instead of raw events.
    """
    return {
        "n": fold.n,
        "first": fold.first,
        "last": fold.last,
        "lvp_hits": fold.lvp_hits,
        "zeros": fold.zeros,
        "chunks": [
            (list(counts.items()), chunk_n) for counts, chunk_n in fold.chunks
        ],
        "interval": fold.interval,
        "since": fold.since,
    }


def fold_from_payload(payload: dict) -> SiteFold:
    """Rebuild a :class:`SiteFold` from :func:`fold_to_payload` output."""
    chunks = [
        (dict(pairs), chunk_n) for pairs, chunk_n in payload["chunks"]
    ]
    return SiteFold(
        n=payload["n"],
        first=payload["first"],
        last=payload["last"],
        lvp_hits=payload["lvp_hits"],
        zeros=payload["zeros"],
        counts=_merge_chunk_counts(chunks) if chunks else {},
        chunks=chunks,
        interval=payload["interval"],
        since=payload["since"],
    )
