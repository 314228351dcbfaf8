"""Population-level aggregation: a stream of :class:`HomeResult`s → one report.

The fleet report answers the questions one home cannot: how accuracy is
*distributed* across a population (percentiles, not a single Table-6
row), what the per-traffic-class confusion totals look like fleet-wide,
how alerts roll up, and what the merged metrics registry of all shards
says.  The metrics merge is the exact fold of
:mod:`repro.obs.mergetree` (below).

Bounded memory: the fold is *incremental* (:class:`FleetAggregator`),
never a terminal pass over an O(homes) result list.  Three devices keep
the running state O(1) in fleet size:

* population percentiles use a deterministic fixed-size reservoir
  (:class:`SampleReservoir`) — exact up to ``RESERVOIR_CAP`` samples,
  a uniform without-replacement subsample beyond it;
* per-home report rows are kept only for ``ok`` homes in the first
  ``HOME_ROWS_CAP`` spec positions (every failed home's row is always
  kept — failure detail must never be truncated away); the report's
  ``coverage`` block states how many rows were dropped, so truncation
  is never silent;
* fleet metrics fold into one exact (rational-sum)
  :class:`~repro.obs.mergetree.SnapshotAccumulator`; sums are correctly
  rounded once at render time instead of once per shard.

Determinism contract: results fold strictly in spec order, so the
report is a pure function of the ``(spec, per-home results)`` sequence
— byte-identical whether the homes ran serially, on 2 workers or on
32, and byte-identical across a checkpoint/resume boundary (the
aggregator state round-trips exactly through
:meth:`FleetAggregator.to_state`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import MetricsSnapshot
from ..obs.mergetree import SnapshotAccumulator
from ..util import spawn_seed
from .worker import HomeResult

__all__ = [
    "FleetAggregator",
    "FleetReport",
    "SampleReservoir",
    "percentile",
    "RESERVOIR_CAP",
    "HOME_ROWS_CAP",
]

#: Per-device accuracy fields summarised across the population.
POPULATION_FIELDS = (
    "manual_precision",
    "manual_recall",
    "non_manual_precision",
    "non_manual_recall",
    "fp_manual_blocked",
    "fp_non_manual_blocked",
    "false_negative",
)

#: Quantiles reported per population field.
PERCENTILES = (0.1, 0.5, 0.9)

#: Samples kept per population field before reservoir subsampling
#: begins.  Exactness bound: percentiles are exact for populations of
#: up to this many device rows; beyond it they are computed over a
#: uniform without-replacement sample of this size, whose quantile
#: standard error is ~sqrt(q(1-q)/cap) — about 0.008 at the median.
#: Means and counts stay exact at any scale (running sum).
RESERVOIR_CAP = 4096

#: ``ok`` home rows retained in the report, by spec position.
HOME_ROWS_CAP = 256


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of a sequence (deterministic, pure).

    Matches ``numpy.percentile``'s default ``linear`` method but stays
    in plain Python floats so the report bytes never depend on numpy
    version or dtype promotion rules.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be within [0, 1], got {q}")
    if not values:
        return 0.0
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    within = rank - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * within


class SampleReservoir:
    """Deterministic bounded sample of one population field.

    The first ``cap`` values are kept exactly; from value ``i >= cap``
    on, Algorithm-R replacement is driven by
    ``spawn_seed(root, "reservoir", key, i) % (i + 1)`` — a *stateless*
    per-item decision, so the reservoir content is a pure function of
    the value sequence.  That property is what makes it checkpointable:
    serialising ``(values, n_seen, total)`` and resuming mid-stream
    reproduces the uninterrupted reservoir bit for bit, and the fold
    order (spec order) is identical across backends.
    """

    __slots__ = ("root", "key", "cap", "values", "n_seen", "total")

    def __init__(self, root: int, key: str, cap: int = RESERVOIR_CAP) -> None:
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.root = int(root)
        self.key = key
        self.cap = cap
        self.values: List[float] = []
        self.n_seen = 0
        self.total = 0.0

    @property
    def exact(self) -> bool:
        """Whether the reservoir still holds every value seen."""
        return self.n_seen <= self.cap

    def add(self, value: float) -> None:
        value = float(value)
        if self.n_seen < self.cap:
            self.values.append(value)
        else:
            slot = spawn_seed(self.root, "reservoir", self.key, self.n_seen) % (
                self.n_seen + 1
            )
            if slot < self.cap:
                self.values[slot] = value
        self.n_seen += 1
        self.total += value

    def stats(self) -> Dict[str, float]:
        """The report's per-field stats block (mean/count always exact)."""
        stats = {f"p{int(q * 100)}": percentile(self.values, q) for q in PERCENTILES}
        stats["mean"] = self.total / self.n_seen if self.n_seen else 0.0
        stats["n"] = float(self.n_seen)
        return stats

    def to_state(self) -> Dict[str, object]:
        """JSON-safe state (exact round trip; ``root``/``key`` are config)."""
        return {"values": list(self.values), "n_seen": self.n_seen, "total": self.total}

    def restore(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`to_state`."""
        self.values = [float(v) for v in state["values"]]
        self.n_seen = int(state["n_seen"])
        self.total = float(state["total"])


class FleetAggregator:
    """Incremental spec-order fold of :class:`HomeResult`s.

    The durable-runs core: ``add`` one result at a time, ``to_state``/
    ``from_state`` round-trip the whole running aggregate through a
    checkpoint, ``report`` renders the current fold as a
    :class:`FleetReport`.  Re-folding an index that previously failed
    *replaces* the failure (the quarantine-retry path): the old failed
    row is un-counted before the new result is applied, so checkpoint
    replay of a retried home is naturally idempotent.
    """

    STATE_FORMAT = 3

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        #: results folded so far (monotonic; checkpoint records carry it)
        self.epoch = 0
        self.n_ok = 0
        self.n_failed = 0
        self.n_ok_rows_dropped = 0
        self.max_idx = -1
        self.ok_rows: Dict[int, Dict[str, object]] = {}
        self.failed_rows: Dict[int, Dict[str, object]] = {}
        self.samples: Dict[str, SampleReservoir] = {
            field_name: SampleReservoir(seed, field_name)
            for field_name in POPULATION_FIELDS
        }
        self.class_counts: Dict[str, Dict[str, int]] = {}
        self.alerts: Dict[str, int] = {}
        self.metrics = SnapshotAccumulator()

    @property
    def completed(self) -> int:
        """Homes folded (ok + failed), net of quarantine re-folds."""
        return self.n_ok + self.n_failed

    @property
    def quarantined(self) -> List[Tuple[int, str]]:
        """``(idx, home_id)`` of every home currently failed, spec order."""
        return [
            (idx, str(self.failed_rows[idx]["home_id"]))
            for idx in sorted(self.failed_rows)
        ]

    def add(self, idx: int, result: HomeResult) -> None:
        """Fold one result at spec position ``idx`` (spec order!)."""
        self.epoch += 1
        self.max_idx = max(self.max_idx, idx)
        if idx in self.failed_rows:  # quarantined home re-run: replace
            del self.failed_rows[idx]
            self.n_failed -= 1
        if not result.ok:
            self.n_failed += 1
            self.failed_rows[idx] = result.to_dict()
            return
        self.n_ok += 1
        if idx < HOME_ROWS_CAP:
            self.ok_rows[idx] = result.to_dict()
        else:
            self.n_ok_rows_dropped += 1
        for row in result.devices.values():
            for field_name in POPULATION_FIELDS:
                self.samples[field_name].add(float(row[field_name]))
        for cls_name, tally in result.class_counts.items():
            target = self.class_counts.setdefault(cls_name, {"events": 0, "blocked": 0})
            target["events"] += int(tally["events"])
            target["blocked"] += int(tally["blocked"])
        for kind, count in result.alerts.items():
            self.alerts[kind] = self.alerts.get(kind, 0) + int(count)
        self.metrics = self.metrics.merge(
            SnapshotAccumulator.from_snapshot(result.snapshot())
        )

    @property
    def merged(self) -> MetricsSnapshot:
        """The merged fleet metrics of every ok shard folded so far."""
        return self.metrics.snapshot()

    # -- checkpoint round trip ---------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """JSON-safe running state; exact float round trip by contract."""
        return {
            "format": self.STATE_FORMAT,
            "epoch": self.epoch,
            "n_ok": self.n_ok,
            "n_failed": self.n_failed,
            "n_ok_rows_dropped": self.n_ok_rows_dropped,
            "max_idx": self.max_idx,
            # JSON objects key by string; idx round-trips through str()
            "ok_rows": {str(idx): row for idx, row in self.ok_rows.items()},
            "failed_rows": {str(idx): row for idx, row in self.failed_rows.items()},
            "samples": {name: r.to_state() for name, r in self.samples.items()},
            "class_counts": self.class_counts,
            "alerts": self.alerts,
            # The exact sums, not a rounded snapshot: resuming from a
            # checkpoint must reproduce the uninterrupted merge bit for
            # bit, including the deferred single rounding step.
            "metrics": self.metrics.to_state(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object], name: str, seed: int) -> "FleetAggregator":
        """Inverse of :meth:`to_state`; any other format raises ``ValueError``."""
        if state.get("format") != cls.STATE_FORMAT:
            raise ValueError(
                f"unsupported aggregator state format {state.get('format')!r}"
            )
        agg = cls(name, seed)
        agg.epoch = int(state["epoch"])
        agg.n_ok = int(state["n_ok"])
        agg.n_failed = int(state["n_failed"])
        agg.n_ok_rows_dropped = int(state["n_ok_rows_dropped"])
        agg.max_idx = int(state["max_idx"])
        agg.ok_rows = {int(idx): dict(row) for idx, row in state["ok_rows"].items()}
        agg.failed_rows = {
            int(idx): dict(row) for idx, row in state["failed_rows"].items()
        }
        for name_, reservoir in agg.samples.items():
            reservoir.restore(state["samples"][name_])
        agg.class_counts = {
            cls_name: {k: int(v) for k, v in tally.items()}
            for cls_name, tally in state["class_counts"].items()
        }
        agg.alerts = {k: int(v) for k, v in state["alerts"].items()}
        agg.metrics = SnapshotAccumulator.from_state(state["metrics"])
        return agg

    # -- rendering ---------------------------------------------------------------

    def report(
        self, n_planned: Optional[int] = None, partial: bool = False
    ) -> "FleetReport":
        """Render the current fold as a :class:`FleetReport`."""
        planned = self.completed if n_planned is None else int(n_planned)
        population = {
            name: reservoir.stats()
            for name, reservoir in self.samples.items()
            if reservoir.n_seen
        }
        rows = [
            self.ok_rows.get(idx, self.failed_rows.get(idx))
            for idx in sorted({*self.ok_rows, *self.failed_rows})
        ]
        quarantined = [home_id for _, home_id in self.quarantined]
        merged = self.merged
        return FleetReport(
            name=self.name,
            seed=self.seed,
            n_homes=planned,
            n_ok=self.n_ok,
            n_failed=self.n_failed,
            homes=rows,
            population=population,
            class_counts={k: dict(v) for k, v in self.class_counts.items()},
            alerts=dict(self.alerts),
            metrics={
                "counters": merged.counters,
                "gauges": merged.gauges,
                "histograms": merged.histograms,
            },
            quarantined=quarantined,
            coverage={
                "planned": planned,
                "completed": self.completed,
                "ok": self.n_ok,
                "failed": self.n_failed,
                "quarantined": len(quarantined),
                "ok_rows_dropped": self.n_ok_rows_dropped,
                "partial": bool(partial or self.completed < planned),
            },
        )


@dataclass
class FleetReport:
    """The population report: per-home rows plus fleet-level rollups."""

    name: str
    seed: int
    n_homes: int
    n_ok: int
    n_failed: int
    #: one :class:`HomeResult` encoding per retained home, in spec order
    #: (all failed homes + ok homes within the first ``HOME_ROWS_CAP``
    #: spec positions; ``coverage["ok_rows_dropped"]`` counts the rest)
    homes: List[Dict[str, object]] = field(default_factory=list)
    #: accuracy distribution per field: ``{"p10":…, "p50":…, "p90":…, "mean":…, "n":…}``
    population: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: fleet-wide per-ground-truth-class decision tallies
    class_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: alert tallies by kind across all homes
    alerts: Dict[str, int] = field(default_factory=dict)
    #: merged deterministic :class:`MetricsSnapshot` of every ok shard
    metrics: Dict[str, object] = field(default_factory=dict)
    #: homes that exhausted their retry budget, in spec order —
    #: reattemptable with ``--resume --retry-quarantined``
    quarantined: List[str] = field(default_factory=list)
    #: explicit coverage counts (the partial-report contract): planned/
    #: completed/ok/failed/quarantined homes, dropped ok rows, and
    #: whether the run ended early (``partial``)
    coverage: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every home completed."""
        return self.n_failed == 0 and not bool(self.coverage.get("partial"))

    @property
    def failed_homes(self) -> List[str]:
        """IDs of homes that did not complete, in spec order."""
        return [str(h["home_id"]) for h in self.homes if h["status"] != "ok"]

    def snapshot(self) -> MetricsSnapshot:
        """Rehydrate the merged fleet metrics snapshot."""
        return MetricsSnapshot(
            counters=dict(self.metrics.get("counters", {})),
            gauges=dict(self.metrics.get("gauges", {})),
            histograms=dict(self.metrics.get("histograms", {})),
        )

    def to_json(self, indent: int = 2) -> str:
        """Canonical JSON encoding — the fleet determinism artifact.

        Sorted keys and a fixed field set: two runs of the same spec
        must produce byte-identical files regardless of backend or
        ``--jobs`` — and a killed-and-resumed run must produce the same
        bytes as an uninterrupted one.  CI diffs exactly these bytes.
        """
        return json.dumps(
            {
                "name": self.name,
                "seed": self.seed,
                "n_homes": self.n_homes,
                "n_ok": self.n_ok,
                "n_failed": self.n_failed,
                "homes": self.homes,
                "population": self.population,
                "class_counts": self.class_counts,
                "alerts": self.alerts,
                "metrics": self.metrics,
                "quarantined": self.quarantined,
                "coverage": self.coverage,
            },
            indent=indent,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FleetReport":
        """Inverse of :meth:`to_json`."""
        data = json.loads(text)
        return cls(
            name=str(data["name"]),
            seed=int(data["seed"]),
            n_homes=int(data["n_homes"]),
            n_ok=int(data["n_ok"]),
            n_failed=int(data["n_failed"]),
            homes=list(data.get("homes", [])),
            population=dict(data.get("population", {})),
            class_counts=dict(data.get("class_counts", {})),
            alerts=dict(data.get("alerts", {})),
            metrics=dict(data.get("metrics", {})),
            quarantined=list(data.get("quarantined", [])),
            coverage=dict(data.get("coverage", {})),
        )

    def render(self, top: int = 8) -> str:
        """Human-readable digest (the CLI's stdout view)."""
        lines = [
            f"fleet {self.name!r} (seed {self.seed}): "
            f"{self.n_ok}/{self.n_homes} homes ok"
        ]
        if self.coverage.get("partial"):
            lines.append(
                f"  PARTIAL: {self.coverage.get('completed', 0)}/"
                f"{self.coverage.get('planned', self.n_homes)} homes completed"
            )
        if self.n_failed:
            lines.append(f"  failed: {', '.join(self.failed_homes)}")
        if self.quarantined:
            lines.append(
                f"  quarantined ({len(self.quarantined)}): "
                f"{', '.join(self.quarantined)} — rerun with --resume --retry-quarantined"
            )
        if self.population:
            lines.append(f"  {'accuracy field':24s} {'p10':>7s} {'p50':>7s} {'p90':>7s} {'mean':>7s}")
            for name in POPULATION_FIELDS:
                stats = self.population.get(name)
                if stats:
                    lines.append(
                        f"  {name:24s} {stats['p10']:7.3f} {stats['p50']:7.3f} "
                        f"{stats['p90']:7.3f} {stats['mean']:7.3f}"
                    )
        if self.class_counts:
            for cls_name in sorted(self.class_counts):
                tally = self.class_counts[cls_name]
                lines.append(
                    f"  {cls_name:10s} {tally['events']:6d} events, "
                    f"{tally['blocked']:6d} blocked"
                )
        if self.alerts:
            rollup = ", ".join(f"{k}={v}" for k, v in sorted(self.alerts.items()))
            lines.append(f"  alerts: {rollup}")
        rows = [
            (str(h["home_id"]), str(h["status"]), h)
            for h in self.homes
        ]
        for home_id, status, home in rows[:top]:
            detail = (
                f"{len(home.get('devices', {}))} devices, "
                f"{home.get('n_decisions', 0)} decisions"
                if status == "ok"
                else str(home.get("error", ""))
            )
            lines.append(f"  {home_id:12s} {status:7s} {detail}")
        if len(rows) > top:
            lines.append(f"  ... {len(rows) - top} more homes (see the JSON report)")
        dropped = int(self.coverage.get("ok_rows_dropped", 0) or 0)
        if dropped:
            lines.append(f"  ({dropped} ok home rows beyond the retention cap omitted)")
        return "\n".join(lines)

