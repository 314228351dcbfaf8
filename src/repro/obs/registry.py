"""Shared metrics registry: counters, gauges and fixed-bucket histograms.

Every FIAT component reports into one :class:`MetricsRegistry`, handed
around via the :class:`~repro.obs.handle.Observability` handle on
:class:`~repro.core.config.FiatConfig`.  The registry is deliberately
zero-dependency and synchronous: metric updates are plain dict
operations on the hot path (no locks, no background threads), matching
the single-threaded simulator while keeping the data model compatible
with a sharded deployment — snapshots of independent registries merge
exactly into one through :func:`repro.obs.mergetree.merge_snapshots`.

Labels follow the Prometheus model (a metric name plus a small set of
``key=value`` pairs); per-name label cardinality is capped so a buggy
caller labelling by packet nonce cannot grow the registry without
bound — overflowing label sets collapse into a reserved ``_overflow``
series and are counted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "CounterView",
]

#: Default histogram boundaries for latency metrics, in milliseconds.
#: Spans 1 µs .. 1 s: the bucket heuristic and rule lookups live at the
#: bottom, ML inference and crypto in the middle, transport at the top.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
)

#: Reserved label set absorbing series beyond the cardinality cap.
_OVERFLOW_KEY: Tuple[Tuple[str, str], ...] = (("_overflow", "true"),)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_label_key(key: LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


def _parse_label_key(text: str) -> LabelKey:
    if not text:
        return ()
    pairs = []
    for part in text.split(","):
        k, _, v = part.partition("=")
        pairs.append((k, v))
    return tuple(pairs)


class Histogram:
    """A fixed-boundary histogram with sum/count/min/max sidecars.

    Boundaries are upper bucket edges (an implicit ``+Inf`` bucket
    catches the tail).  Percentiles are estimated by linear
    interpolation inside the bucket containing the requested rank,
    clamped by the observed ``min``/``max`` so single-observation
    histograms report exact values.
    """

    __slots__ = ("boundaries", "counts", "sum", "count", "min", "max")

    def __init__(self, boundaries: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS) -> None:
        if list(boundaries) != sorted(boundaries) or len(set(boundaries)) != len(boundaries):
            raise ValueError("histogram boundaries must be strictly increasing")
        self.boundaries = tuple(float(b) for b in boundaries)
        self.counts: List[int] = [0] * (len(self.boundaries) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        lo, hi = 0, len(self.boundaries)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.boundaries[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) from the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be within [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.boundaries[i - 1] if i > 0 else min(self.min, self.boundaries[0])
                upper = self.boundaries[i] if i < len(self.boundaries) else self.max
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if upper <= lower:
                    return lower
                within = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * within
            cumulative += bucket_count
        return self.max

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable state."""
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Histogram":
        """Inverse of :meth:`to_dict`."""
        histogram = cls(tuple(data["boundaries"]))  # type: ignore[arg-type]
        histogram.counts = [int(c) for c in data["counts"]]  # type: ignore[union-attr]
        histogram.sum = float(data["sum"])  # type: ignore[arg-type]
        histogram.count = int(data["count"])  # type: ignore[arg-type]
        histogram.min = float("inf") if data.get("min") is None else float(data["min"])  # type: ignore[arg-type]
        histogram.max = float("-inf") if data.get("max") is None else float(data["max"])  # type: ignore[arg-type]
        return histogram


class MetricsRegistry:
    """Label-aware counters, gauges and histograms behind one handle."""

    def __init__(self, max_label_sets: int = 64) -> None:
        if max_label_sets < 1:
            raise ValueError("max_label_sets must be >= 1")
        self.max_label_sets = max_label_sets
        self._counters: Dict[str, Dict[LabelKey, float]] = {}
        self._gauges: Dict[str, Dict[LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[LabelKey, Histogram]] = {}
        self._histogram_boundaries: Dict[str, Tuple[float, ...]] = {}
        #: label sets collapsed into ``_overflow`` by the cardinality cap
        self.n_label_overflows = 0

    # -- label handling ----------------------------------------------------------

    def _slot(self, series: Dict[LabelKey, object], key: LabelKey) -> LabelKey:
        if key in series or len(series) < self.max_label_sets:
            return key
        self.n_label_overflows += 1
        return _OVERFLOW_KEY

    # -- counters ----------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` (default 1) to a counter series."""
        series = self._counters.setdefault(name, {})
        key = self._slot(series, _label_key(labels))
        series[key] = series.get(key, 0.0) + value

    def set_counter(self, name: str, value: float, **labels: object) -> None:
        """Set a counter series to an absolute value (view support)."""
        series = self._counters.setdefault(name, {})
        key = self._slot(series, _label_key(labels))
        series[key] = float(value)

    def get_counter(self, name: str, **labels: object) -> float:
        """Current value of a counter series (0 when unseen)."""
        return self._counters.get(name, {}).get(_label_key(labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter over all its label sets."""
        return sum(self._counters.get(name, {}).values())

    # -- gauges ------------------------------------------------------------------

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge series to ``value``."""
        series = self._gauges.setdefault(name, {})
        key = self._slot(series, _label_key(labels))
        series[key] = float(value)

    def get_gauge(self, name: str, default: float = 0.0, **labels: object) -> float:
        """Current value of a gauge series."""
        return self._gauges.get(name, {}).get(_label_key(labels), default)

    # -- histograms --------------------------------------------------------------

    def observe(
        self,
        name: str,
        value: float,
        boundaries: Optional[Tuple[float, ...]] = None,
        **labels: object,
    ) -> None:
        """Record one observation into a histogram series.

        ``boundaries`` is honoured on the first observation of a metric
        name; later calls reuse the established boundaries so all label
        sets of one name stay merge-compatible.
        """
        series = self._histograms.setdefault(name, {})
        key = self._slot(series, _label_key(labels))
        histogram = series.get(key)
        if histogram is None:
            bounds = self._histogram_boundaries.setdefault(
                name, boundaries if boundaries is not None else DEFAULT_LATENCY_BUCKETS_MS
            )
            histogram = series[key] = Histogram(bounds)
        histogram.observe(value)

    def get_histogram(self, name: str, **labels: object) -> Optional[Histogram]:
        """The histogram of one series, or ``None`` when unseen."""
        return self._histograms.get(name, {}).get(_label_key(labels))

    # -- iteration / export ------------------------------------------------------

    def counters(self) -> Iterator[Tuple[str, LabelKey, float]]:
        """Iterate ``(name, label_key, value)`` over all counter series."""
        for name, series in sorted(self._counters.items()):
            for key, value in sorted(series.items()):
                yield name, key, value

    def snapshot(self) -> "MetricsSnapshot":
        """A deep, JSON-serialisable copy of the current state."""
        return MetricsSnapshot(
            counters={
                name: {_render_label_key(k): v for k, v in series.items()}
                for name, series in self._counters.items()
            },
            gauges={
                name: {_render_label_key(k): v for k, v in series.items()}
                for name, series in self._gauges.items()
            },
            histograms={
                name: {_render_label_key(k): h.to_dict() for k, h in series.items()}
                for name, series in self._histograms.items()
            },
        )

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the current state."""
        return self.snapshot().render_prometheus()


def _labels_text(key_text: str) -> str:
    key = _parse_label_key(key_text)
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


@dataclass
class MetricsSnapshot:
    """A frozen, serialisable view of a registry at one instant.

    Label keys are canonical ``k=v,k2=v2`` strings (sorted by key), so
    snapshots survive JSON round-trips unchanged and two snapshots of
    the same registry compare equal series-by-series.
    """

    counters: Dict[str, Dict[str, float]] = field(default_factory=dict)
    gauges: Dict[str, Dict[str, float]] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, Dict[str, object]]] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        """Whether the snapshot carries no series at all."""
        return not (self.counters or self.gauges or self.histograms)

    def counter_total(self, name: str) -> float:
        """Sum of one counter over all its label sets."""
        return sum(self.counters.get(name, {}).values())

    def histogram(self, name: str, labels: str = "") -> Optional[Histogram]:
        """Rehydrate one histogram series (``None`` when unseen)."""
        data = self.histograms.get(name, {}).get(labels)
        return Histogram.from_dict(data) if data is not None else None

    # -- serialisation -----------------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON encoding."""
        return json.dumps(
            {"counters": self.counters, "gauges": self.gauges, "histograms": self.histograms},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "MetricsSnapshot":
        """Inverse of :meth:`to_json`."""
        data = json.loads(text)
        return cls(
            counters=data.get("counters", {}),
            gauges=data.get("gauges", {}),
            histograms=data.get("histograms", {}),
        )

    # -- rendering ---------------------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(self.counters):
            lines.append(f"# TYPE {name} counter")
            for key, value in sorted(self.counters[name].items()):
                lines.append(f"{name}{_labels_text(key)} {value:g}")
        for name in sorted(self.gauges):
            lines.append(f"# TYPE {name} gauge")
            for key, value in sorted(self.gauges[name].items()):
                lines.append(f"{name}{_labels_text(key)} {value:g}")
        for name in sorted(self.histograms):
            lines.append(f"# TYPE {name} histogram")
            for key, data in sorted(self.histograms[name].items()):
                base = _parse_label_key(key)
                cumulative = 0
                for boundary, count in zip(
                    list(data["boundaries"]) + ["+Inf"], data["counts"]
                ):
                    cumulative += int(count)
                    le = boundary if boundary == "+Inf" else f"{float(boundary):g}"
                    label = _render_label_key(base + (("le", str(le)),))
                    lines.append(f"{name}_bucket{_labels_text(label)} {cumulative}")
                lines.append(f"{name}_sum{_labels_text(key)} {float(data['sum']):g}")
                lines.append(f"{name}_count{_labels_text(key)} {int(data['count'])}")
        return "\n".join(lines) + ("\n" if lines else "")


class CounterView:
    """A dict-like read/write view over one labelled counter family.

    Backs :attr:`repro.core.proxy.FiatProxy.health`: the proxy migrated
    its ad-hoc health dict onto the registry, but PR-1 consumers keep
    indexing ``proxy.health["classifier_errors"]`` — this view preserves
    that surface (including ``+=`` via ``__getitem__``/``__setitem__``)
    while every read and write goes through the registry.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        metric: str,
        label: str = "kind",
        initial: Tuple[str, ...] = (),
    ) -> None:
        self._registry = registry
        self._metric = metric
        self._label = label
        self._keys: List[str] = list(initial)
        for key in initial:
            registry.set_counter(metric, 0.0, **{label: key})

    def _known(self) -> List[str]:
        seen = dict.fromkeys(self._keys)
        for name, key, _ in self._registry.counters():
            if name == self._metric:
                labels = dict(key)
                if self._label in labels:
                    seen.setdefault(labels[self._label])
        return list(seen)

    def __getitem__(self, key: str) -> int:
        value = self._registry.get_counter(self._metric, **{self._label: key})
        return int(value) if float(value).is_integer() else value  # type: ignore[return-value]

    def __setitem__(self, key: str, value: float) -> None:
        if key not in self._keys:
            self._keys.append(key)
        self._registry.set_counter(self._metric, value, **{self._label: key})

    def __contains__(self, key: object) -> bool:
        return key in self._known()

    def __iter__(self) -> Iterator[str]:
        return iter(self._known())

    def __len__(self) -> int:
        return len(self._known())

    def keys(self) -> List[str]:
        """Known counter keys (declared plus observed)."""
        return self._known()

    def values(self) -> List[int]:
        """Counter values in :meth:`keys` order."""
        return [self[k] for k in self._known()]

    def items(self) -> List[Tuple[str, int]]:
        """``(key, value)`` pairs in :meth:`keys` order."""
        return [(k, self[k]) for k in self._known()]

    def get(self, key: str, default: Optional[int] = None):
        """Mapping-style ``get``."""
        return self[key] if key in self else default

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict copy of the current values."""
        return dict(self.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CounterView):
            return self.as_dict() == other.as_dict()
        if isinstance(other, Mapping):
            return self.as_dict() == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"CounterView({self.as_dict()!r})"
