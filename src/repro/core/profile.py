"""Per-site profiles and the profile database.

A :class:`SiteProfile` couples the paper's bounded TNV table with the
exact reference statistics; a :class:`ProfileDatabase` maps sites to
profiles and is what instrumentation front ends write into and what the
analysis layer reads.

By default both structures are maintained so experiments can compare
TNV estimates against ground truth.  Front ends that want to model the
paper's actual memory budget can construct the database with
``exact=False`` and get TNV-only profiles (LVP is still tracked — it
needs only the previous value, which real value profilers also keep).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.fold import SiteFold, fold_values
from repro.core.metrics import TOP_N, SiteMetrics, ValueStreamStats, aggregate_metrics, is_zero
from repro.core.sites import Site, SiteKind
from repro.core.tnv import TNVTable
from repro.errors import ProfileError
from repro.obs.metrics import METRICS as _METRICS
from repro.obs.timeseries import TIMESERIES as _TIMESERIES

Value = Hashable


@dataclass
class TNVConfig:
    """Configuration shared by every TNV table in a database."""

    capacity: int = 10
    steady: int = 5
    clear_interval: Optional[int] = 2000

    def make_table(self) -> TNVTable:
        return TNVTable(
            capacity=self.capacity,
            steady=self.steady,
            clear_interval=self.clear_interval,
        )


class SiteProfile:
    """All profiling state for one site.

    Attributes:
        site: the profiled entity.
        tnv: the bounded top-value table (always maintained).
        exact: exact reference statistics, or ``None`` when the profile
            was created in TNV-only mode.
    """

    __slots__ = (
        "site",
        "tnv",
        "exact",
        "_total",
        "_zeros",
        "_lvp_hits",
        "_last",
        "_has_last",
        "_first",
        "_has_first",
    )

    def __init__(self, site: Site, config: TNVConfig, exact: bool = True) -> None:
        self.site = site
        self.tnv = config.make_table()
        self.exact: Optional[ValueStreamStats] = ValueStreamStats() if exact else None
        self._total = 0
        self._zeros = 0
        self._lvp_hits = 0
        self._last: Value = None
        self._has_last = False
        self._first: Value = None
        self._has_first = False

    def record(self, value: Value) -> None:
        """Record one dynamic value for this site."""
        self._total += 1
        if is_zero(value):
            self._zeros += 1
        if self._has_last and value == self._last:
            self._lvp_hits += 1
        if not self._has_first:
            self._first = value
            self._has_first = True
        self._last = value
        self._has_last = True
        self.tnv.record(value)
        if self.exact is not None:
            self.exact.record(value)

    def record_many(self, values: Iterable[Value]) -> None:
        """Record a run of dynamic values for this site, in order.

        State-identical to per-value :meth:`record` calls, but the run
        is reduced exactly once (:func:`repro.core.fold.fold_values` —
        one dedup pass split at this table's clearing boundaries, one
        adjacency pass) and the reduction feeds every structure through
        :meth:`record_fold`.  The old path deduplicated three times:
        here for zeros, in the TNV table per chunk, and again in the
        exact statistics.
        """
        if not isinstance(values, (list, tuple)):
            values = list(values)
        if not values:
            return
        self.record_fold(
            fold_values(values, self.tnv.clear_interval, self.tnv._since_clear)
        )

    def record_fold(self, fold: SiteFold) -> None:
        """Fold an already-reduced value run into this profile.

        The columnar fast path: the run arrives as a
        :class:`~repro.core.fold.SiteFold` whose chunks were split for
        exactly this profile's TNV table, so the scalars splice on
        directly and the TNV/exact structures consume grouped counts
        with no further dedup.
        """
        if fold.n == 0:
            return
        tnv = self.tnv
        if fold.interval != tnv.clear_interval or fold.since != tnv._since_clear:
            raise ProfileError(
                f"fold split for clear_interval={fold.interval} at "
                f"since={fold.since} cannot feed a table at "
                f"clear_interval={tnv.clear_interval} "
                f"since={tnv._since_clear}"
            )
        self._total += fold.n
        self._zeros += fold.zeros
        hits = fold.lvp_hits
        if self._has_last and fold.first == self._last:
            hits += 1
        self._lvp_hits += hits
        if not self._has_first:
            self._first = fold.first
            self._has_first = True
        self._last = fold.last
        self._has_last = True
        for counts, chunk_n in fold.chunks:
            tnv.record_grouped(counts, chunk_n)
        if self.exact is not None:
            self.exact.record_fold(fold)

    @property
    def executions(self) -> int:
        return self._total

    def lvp(self) -> float:
        if self._total <= 1:
            return 0.0
        return self._lvp_hits / (self._total - 1)

    def pct_zeros(self) -> float:
        if self._total == 0:
            return 0.0
        return self._zeros / self._total

    def metrics(self, top_n: int = TOP_N, prefer_exact: bool = True) -> SiteMetrics:
        """The per-site result row.

        With exact statistics available (and ``prefer_exact``), the
        invariance and distinct-value numbers are ground truth;
        otherwise they are the TNV table's estimates, with ``distinct``
        reported as the number of resident entries (a lower bound).
        """
        if prefer_exact and self.exact is not None:
            return self.exact.metrics(top_n)
        return SiteMetrics(
            executions=self._total,
            lvp=self.lvp(),
            inv_top1=self.tnv.estimated_invariance(1),
            inv_top_n=self.tnv.estimated_invariance(top_n),
            distinct=len(self.tnv),
            pct_zeros=self.pct_zeros(),
        )

    def tnv_metrics(self, top_n: int = TOP_N) -> SiteMetrics:
        """Metrics as the bounded TNV table reports them."""
        return self.metrics(top_n, prefer_exact=False)

    def merge(self, other: "SiteProfile") -> None:
        """Fold another run's profile of the *same site* into this one.

        The merged LVP matches the concatenated value stream: when
        ``other``'s first value equals this profile's last value, the
        run boundary is itself a last-value hit and is counted.
        """
        if other.site != self.site:
            raise ProfileError(f"cannot merge profiles of different sites: {self.site} vs {other.site}")
        self._total += other._total
        self._zeros += other._zeros
        self._lvp_hits += other._lvp_hits
        if self._has_last and other._has_first and other._first == self._last:
            self._lvp_hits += 1
        if not self._has_first:
            self._first = other._first
            self._has_first = other._has_first
        if other._has_last:
            self._last = other._last
            self._has_last = True
        self.tnv.merge(other.tnv)
        if self.exact is not None and other.exact is not None:
            self.exact.merge(other.exact)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SiteProfile({self.site}, executions={self._total})"


class ProfileDatabase:
    """Mapping of :class:`Site` to :class:`SiteProfile`.

    This is the object instrumentation front ends populate.  It offers
    the query surface the analysis layer needs: filtering by site kind,
    per-site metrics, execution-weighted aggregates, and persistence.

    Args:
        config: TNV knobs applied to every site's table.
        exact: whether to keep exact reference statistics per site.
        name: optional label (workload + input set) used in reports.
    """

    def __init__(
        self,
        config: Optional[TNVConfig] = None,
        exact: bool = True,
        name: str = "",
    ) -> None:
        self.config = config or TNVConfig()
        self.exact = exact
        self.name = name
        self._profiles: Dict[Site, SiteProfile] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record(self, site: Site, value: Value) -> None:
        """Record one dynamic value for ``site``, creating it on demand."""
        profile = self._profiles.get(site)
        if profile is None:
            profile = SiteProfile(site, self.config, exact=self.exact)
            self._profiles[site] = profile
            _METRICS.inc("profile.sites_created")
        profile.record(value)

    def record_batch(self, site: Site, values: Sequence[Value]) -> None:
        """Record a run of dynamic values for ``site``, in order.

        State-identical to per-value :meth:`record` calls but pays the
        site lookup once per run instead of once per event; the batch
        then flows through :meth:`SiteProfile.record_many`.
        """
        if not values:
            return
        profile = self._profiles.get(site)
        if profile is None:
            profile = SiteProfile(site, self.config, exact=self.exact)
            self._profiles[site] = profile
            _METRICS.inc("profile.sites_created")
        _METRICS.inc("profile.batches")
        _METRICS.inc("profile.batch_events", len(values))
        _TIMESERIES.advance(len(values))
        profile.record_many(values)

    def record_fold(self, site: Site, fold: SiteFold) -> None:
        """Record an already-reduced value run for ``site``.

        The columnar replay path: the trace store folds each site's run
        once (:meth:`repro.core.tracestore.EventTrace.site_folds`) and
        this method splices the reduction in with the same batch
        accounting :meth:`record_batch` pays — no per-event objects
        anywhere in between.
        """
        if fold.n == 0:
            return
        profile = self._profiles.get(site)
        if profile is None:
            profile = SiteProfile(site, self.config, exact=self.exact)
            self._profiles[site] = profile
            _METRICS.inc("profile.sites_created")
        _METRICS.inc("profile.batches")
        _METRICS.inc("profile.batch_events", fold.n)
        _TIMESERIES.advance(fold.n)
        profile.record_fold(fold)

    def profile_for(self, site: Site) -> SiteProfile:
        """The profile for ``site``; raises if the site was never seen."""
        try:
            return self._profiles[site]
        except KeyError:
            raise ProfileError(f"no profile recorded for site {site}") from None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, site: Site) -> bool:
        return site in self._profiles

    def __iter__(self) -> Iterator[SiteProfile]:
        return iter(self._profiles.values())

    def sites(self, kind: Optional[SiteKind] = None) -> List[Site]:
        """All sites, optionally restricted to one kind, sorted."""
        sites = self._profiles.keys()
        if kind is not None:
            sites = (site for site in sites if site.kind == kind)
        return sorted(sites)

    def profiles(
        self,
        kind: Optional[SiteKind] = None,
        predicate: Optional[Callable[[Site], bool]] = None,
    ) -> List[SiteProfile]:
        """Profiles filtered by kind and/or an arbitrary site predicate."""
        result = []
        for site, profile in self._profiles.items():
            if kind is not None and site.kind != kind:
                continue
            if predicate is not None and not predicate(site):
                continue
            result.append(profile)
        result.sort(key=lambda p: p.site)
        return result

    def total_executions(self, kind: Optional[SiteKind] = None) -> int:
        return sum(profile.executions for profile in self.profiles(kind))

    def metrics_by_site(
        self, kind: Optional[SiteKind] = None, top_n: int = TOP_N
    ) -> List[Tuple[Site, SiteMetrics]]:
        """(site, metrics) rows sorted hottest-first."""
        rows = [(p.site, p.metrics(top_n)) for p in self.profiles(kind)]
        rows.sort(key=lambda item: (-item[1].executions, item[0]))
        return rows

    def summary(
        self,
        kind: Optional[SiteKind] = None,
        top_n: int = TOP_N,
        predicate: Optional[Callable[[Site], bool]] = None,
    ) -> SiteMetrics:
        """Execution-weighted aggregate metrics over matching sites."""
        rows = [p.metrics(top_n) for p in self.profiles(kind, predicate)]
        return aggregate_metrics(rows)

    def summary_by_procedure(
        self, kind: Optional[SiteKind] = None, top_n: int = TOP_N
    ) -> Dict[str, SiteMetrics]:
        """Aggregate metrics per procedure (thesis Table V.4)."""
        grouped: Dict[str, List[SiteMetrics]] = {}
        for profile in self.profiles(kind):
            grouped.setdefault(profile.site.procedure, []).append(profile.metrics(top_n))
        return {name: aggregate_metrics(rows) for name, rows in grouped.items()}

    def summary_by_opcode(
        self, kind: Optional[SiteKind] = None, top_n: int = TOP_N
    ) -> Dict[str, SiteMetrics]:
        """Aggregate metrics per defining opcode (thesis Table V.3)."""
        grouped: Dict[str, List[SiteMetrics]] = {}
        for profile in self.profiles(kind):
            grouped.setdefault(profile.site.opcode, []).append(profile.metrics(top_n))
        return {name: aggregate_metrics(rows) for name, rows in grouped.items()}

    # ------------------------------------------------------------------
    # combination / persistence
    # ------------------------------------------------------------------

    def merge(self, other: "ProfileDatabase") -> None:
        """Fold another database into this one, site by site."""
        _METRICS.inc("profile.db_merges")
        for site, profile in other._profiles.items():
            mine = self._profiles.get(site)
            if mine is None:
                self._profiles[site] = profile
            else:
                mine.merge(profile)

    def to_json(self) -> str:
        """Serialize TNV snapshots and headline stats to JSON.

        Exact histograms are intentionally not serialized — persisted
        profiles model what a real value profiler would write to disk.
        Values must be JSON-friendly (the ISA front end's integers are).
        """
        payload = {
            "name": self.name,
            "config": {
                "capacity": self.config.capacity,
                "steady": self.config.steady,
                "clear_interval": self.config.clear_interval,
            },
            "sites": [
                self._site_payload(site, profile)
                for site, profile in sorted(self._profiles.items())
            ],
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def _site_payload(site: Site, profile: SiteProfile) -> dict:
        entry = {
            "kind": site.kind.value,
            "program": site.program,
            "procedure": site.procedure,
            "label": site.label,
            "opcode": site.opcode,
            "executions": profile.executions,
            "lvp": profile.lvp(),
            "pct_zeros": profile.pct_zeros(),
            "tnv": profile.tnv.to_dict(),
        }
        # First/last values let merges of reloaded profiles count the
        # run-boundary LVP hit; the keys are present only when the
        # profile saw at least one value, so None stays unambiguous.
        if profile._has_first:
            entry["first"] = profile._first
        if profile._has_last:
            entry["last"] = profile._last
        return entry

    @classmethod
    def from_json(cls, text: str) -> "ProfileDatabase":
        """Rebuild a TNV-only database from :meth:`to_json` output."""
        payload = json.loads(text)
        config = TNVConfig(**payload["config"])
        db = cls(config=config, exact=False, name=payload.get("name", ""))
        for entry in payload["sites"]:
            site = Site(
                kind=SiteKind(entry["kind"]),
                program=entry["program"],
                procedure=entry["procedure"],
                label=entry["label"],
                opcode=entry["opcode"],
            )
            profile = SiteProfile(site, config, exact=False)
            profile.tnv = TNVTable.from_dict(entry["tnv"])
            profile._total = entry["executions"]
            profile._zeros = round(entry["pct_zeros"] * entry["executions"])
            if entry["executions"] > 1:
                profile._lvp_hits = round(entry["lvp"] * (entry["executions"] - 1))
            if "first" in entry:
                profile._first = entry["first"]
                profile._has_first = True
            if "last" in entry:
                profile._last = entry["last"]
                profile._has_last = True
            db._profiles[site] = profile
        return db
