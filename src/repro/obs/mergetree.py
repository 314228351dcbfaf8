"""Exact merging of :class:`MetricsSnapshot`s.

A plain left fold of snapshots (``merged = merged.merge(shard)``)
rounds every counter and histogram sum once per shard, so the fleet
sums drift with fleet size, and the order of float additions leaks into
the report bytes.  A :class:`SnapshotAccumulator` keeps every additive
quantity as an exact rational (:class:`fractions.Fraction` — every IEEE
double is a dyadic rational, so float ingestion is lossless) and
converts to float exactly once, when :meth:`SnapshotAccumulator.snapshot`
renders it.  Exact addition is associative, so merging partial ranges
in order gives the same bytes as folding every shard one by one.  The
non-additive parts keep the linear-fold semantics: gauges are
last-writer-wins over the ordered sequence, histogram min/max take the
extrema.

The fleet aggregate folds one running accumulator in spec order
(:class:`~repro.fleet.aggregate.FleetAggregator`);
:func:`merge_snapshots` is the same fold over a finished sequence.
For integral values (all counters and histogram counts) the result is
byte-identical to the old float fold; for fractional sums it is the
correctly rounded exact sum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable

from .registry import MetricsSnapshot

__all__ = ["SnapshotAccumulator", "merge_snapshots"]


def _fraction_state(value: Fraction) -> str:
    """JSON-safe exact encoding of one rational."""
    return f"{value.numerator}/{value.denominator}"


class SnapshotAccumulator:
    """Exact running union of one ordered range of shard snapshots.

    Mirrors :meth:`MetricsSnapshot.merge` semantics — counters and
    histograms add, gauges take the later shard's value, histogram
    boundary conflicts resolve to the later shard — but keeps every sum
    as a :class:`~fractions.Fraction` so addition is associative and
    the float conversion happens exactly once, in :meth:`snapshot`.
    """

    __slots__ = ("counters", "gauges", "histograms", "n_shards")

    def __init__(self) -> None:
        self.counters: Dict[str, Dict[str, Fraction]] = {}
        self.gauges: Dict[str, Dict[str, float]] = {}
        #: per series: {"boundaries": [...], "counts": [int], "sum":
        #: Fraction, "count": int, "min": float, "max": float}
        self.histograms: Dict[str, Dict[str, Dict[str, object]]] = {}
        self.n_shards = 0

    # -- ingestion ---------------------------------------------------------------

    @classmethod
    def from_snapshot(cls, snapshot: MetricsSnapshot) -> "SnapshotAccumulator":
        """Lift one shard snapshot into an exact single-shard range.

        Sums may be floats or exact ``"num/den"`` strings, so
        :meth:`from_state` reuses this.
        """
        acc = cls()
        acc.n_shards = 1
        for name, series in snapshot.counters.items():
            acc.counters[name] = {key: Fraction(value) for key, value in series.items()}
        for name, series in snapshot.gauges.items():
            acc.gauges[name] = {key: float(value) for key, value in series.items()}
        for name, series in snapshot.histograms.items():
            target = acc.histograms[name] = {}
            for key, data in series.items():
                count = int(data["count"])
                target[key] = {
                    "boundaries": [float(b) for b in data["boundaries"]],
                    "counts": [int(c) for c in data["counts"]],
                    "sum": Fraction(data["sum"]),
                    "count": count,
                    "min": float("inf") if data.get("min") is None else float(data["min"]),
                    "max": float("-inf") if data.get("max") is None else float(data["max"]),
                }
        return acc

    # -- the associative combine -------------------------------------------------

    def merge(self, later: "SnapshotAccumulator") -> "SnapshotAccumulator":
        """Union with the accumulator of the *next* shard range.

        ``self`` must cover shards that precede every shard in
        ``later`` — gauge last-writer-wins and boundary-conflict
        resolution depend on that order, exactly like the linear fold.
        Neither operand is mutated.
        """
        out = SnapshotAccumulator()
        out.n_shards = self.n_shards + later.n_shards
        out.counters = {name: dict(series) for name, series in self.counters.items()}
        for name, series in later.counters.items():
            target = out.counters.setdefault(name, {})
            for key, value in series.items():
                target[key] = target.get(key, Fraction(0)) + value
        out.gauges = {name: dict(series) for name, series in self.gauges.items()}
        for name, series in later.gauges.items():
            out.gauges.setdefault(name, {}).update(series)
        out.histograms = {
            name: {key: dict(data) for key, data in series.items()}
            for name, series in self.histograms.items()
        }
        for name, series in later.histograms.items():
            target = out.histograms.setdefault(name, {})
            for key, theirs in series.items():
                mine = target.get(key)
                if mine is None or list(mine["boundaries"]) != list(theirs["boundaries"]):
                    # Boundary conflict: the later range wins, as in
                    # MetricsSnapshot.merge.  (The registry pins
                    # boundaries per name, so this only fires across
                    # incompatible code versions.)
                    target[key] = dict(theirs)
                    continue
                target[key] = {
                    "boundaries": list(mine["boundaries"]),
                    "counts": [
                        a + b for a, b in zip(mine["counts"], theirs["counts"])
                    ],
                    "sum": mine["sum"] + theirs["sum"],
                    "count": int(mine["count"]) + int(theirs["count"]),
                    "min": min(mine["min"], theirs["min"]),
                    "max": max(mine["max"], theirs["max"]),
                }
        return out

    # -- rendering ---------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Render to a plain snapshot — the single rounding step."""
        histograms: Dict[str, Dict[str, Dict[str, object]]] = {}
        for name, series in self.histograms.items():
            histograms[name] = {}
            for key, data in series.items():
                count = int(data["count"])
                histograms[name][key] = {
                    "boundaries": list(data["boundaries"]),
                    "counts": list(data["counts"]),
                    "sum": float(data["sum"]),
                    "count": count,
                    "min": None if count == 0 else data["min"],
                    "max": None if count == 0 else data["max"],
                }
        return MetricsSnapshot(
            counters={
                name: {key: float(value) for key, value in series.items()}
                for name, series in self.counters.items()
            },
            gauges={name: dict(series) for name, series in self.gauges.items()},
            histograms=histograms,
        )

    # -- state round trip --------------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """JSON-safe exact state (rationals as ``"num/den"`` strings)."""
        return {
            "n_shards": self.n_shards,
            "counters": {
                name: {key: _fraction_state(value) for key, value in series.items()}
                for name, series in self.counters.items()
            },
            "gauges": {name: dict(series) for name, series in self.gauges.items()},
            "histograms": {
                name: {
                    key: {
                        "boundaries": list(data["boundaries"]),
                        "counts": list(data["counts"]),
                        "sum": _fraction_state(data["sum"]),
                        "count": int(data["count"]),
                        "min": None if data["min"] == float("inf") else data["min"],
                        "max": None if data["max"] == float("-inf") else data["max"],
                    }
                    for key, data in series.items()
                }
                for name, series in self.histograms.items()
            },
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "SnapshotAccumulator":
        """Inverse of :meth:`to_state` (exact by construction)."""
        acc = cls.from_snapshot(
            MetricsSnapshot(
                counters=state.get("counters", {}),
                gauges=state.get("gauges", {}),
                histograms=state.get("histograms", {}),
            )
        )
        acc.n_shards = int(state.get("n_shards", 0))
        return acc


def merge_snapshots(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Exact merge of an ordered shard sequence (one final rounding)."""
    acc = SnapshotAccumulator()
    for snapshot in snapshots:
        acc = acc.merge(SnapshotAccumulator.from_snapshot(snapshot))
    return acc.snapshot()
