"""Committed performance trajectory: record, gate, and render bench history.

Every bench already emits a machine-readable ``BENCH_*.json`` headline
(``FIAT_BENCH_OUT``), but until now nothing retained them — ROADMAP
calls out that "no ``BENCH_*.json`` is committed yet, so there is no
tracked perf trajectory".  This module closes the loop:

* :func:`record_run` scans a bench output directory and appends one
  JSONL entry (run id, UTC stamp, host hints, every bench headline) to
  a *committed* history file, ``benchmarks/baselines/history.jsonl`` by
  default — the trajectory artifact CI and reviewers diff;
* :func:`check_regression` compares the newest entry against the
  median of the preceding entries for every *tracked* metric and fails
  on drift beyond the metric's tolerance — the CI regression gate;
* :func:`render_trend` renders the ``fiat-repro bench-report`` view:
  one sparkline row per tracked metric with the current value, the
  baseline, and the delta.

History entries are append-only and deliberately small (headlines
only, never full metric snapshots), so the committed file stays
reviewable.  Tolerances are wide by design: shared CI runners jitter
by tens of percent, and the gate exists to catch *regressions you
would care about* (a 2x slowdown from an accidental O(n²) fold), not
to flap on scheduler noise.
"""

from __future__ import annotations

import datetime as _datetime
import json
import math
import os
import platform
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "DEFAULT_HISTORY_PATH",
    "TRACKED_METRICS",
    "MetricSpec",
    "Regression",
    "TrajectoryCheck",
    "collect_bench_headlines",
    "flatten_headline",
    "record_run",
    "load_history",
    "check_regression",
    "render_trend",
]

#: The committed trajectory artifact, relative to the repository root.
DEFAULT_HISTORY_PATH = os.path.join("benchmarks", "baselines", "history.jsonl")

#: Entries of the recent window a baseline is derived from (median).
BASELINE_WINDOW = 5

#: Sparkline glyphs, lowest to highest.
_SPARK = "▁▂▃▄▅▆▇█"


@dataclass(frozen=True)
class MetricSpec:
    """How one tracked headline metric is gated.

    ``direction`` is the *good* direction: ``"higher"`` (throughput) or
    ``"lower"`` (overhead, memory).  ``tolerance`` is the allowed
    fractional drift in the bad direction relative to the baseline;
    ``floor`` widens the gate for metrics whose baseline sits near
    zero (a 0.01 → 0.03 overhead jump is 3x relative but harmless).
    """

    direction: str
    tolerance: float
    floor: float = 0.0

    def limit(self, baseline: float) -> float:
        """The gate value: beyond this, the metric is a regression."""
        slack = max(abs(baseline) * self.tolerance, self.floor)
        if self.direction == "higher":
            return baseline - slack
        return baseline + slack

    def regressed(self, current: float, baseline: float) -> bool:
        """Whether ``current`` falls outside the gate."""
        if self.direction == "higher":
            return current < self.limit(baseline)
        return current > self.limit(baseline)


#: The gated metrics: ``{bench: {flattened headline path: spec}}``.
#: "packets/sec" and "homes/sec" — the two ROADMAP trajectory axes —
#: plus the overhead/memory invariants earlier PRs promised.
TRACKED_METRICS: Dict[str, Dict[str, MetricSpec]] = {
    "proxy_throughput": {
        "plain_packets_per_s": MetricSpec("higher", 0.40),
        "instrumented_packets_per_s": MetricSpec("higher", 0.40),
        "overhead_fraction": MetricSpec("lower", 0.50, floor=0.08),
    },
    "fleet_scaling": {
        "homes_per_sec.1": MetricSpec("higher", 0.40),
    },
    "fleet_checkpoint": {
        "homes_per_sec_plain": MetricSpec("higher", 0.40),
        "checkpoint_overhead_pct": MetricSpec("lower", 0.50, floor=25.0),
    },
    "fleet_bounded_memory": {
        "peak_mb.10000": MetricSpec("lower", 0.50),
        "peak_growth_x": MetricSpec("lower", 0.25, floor=0.3),
    },
    "fleet_distrib": {
        "homes_per_sec": MetricSpec("higher", 0.40),
        # Recovery cost is dominated by lease-timeout waits and machine
        # restarts on a tiny fleet; the floor keeps CI jitter out.
        "recovery_overhead_pct": MetricSpec("lower", 0.50, floor=50.0),
    },
}


@dataclass
class Regression:
    """One tracked metric outside its gate."""

    bench: str
    metric: str
    current: float
    baseline: float
    limit: float
    direction: str

    def describe(self) -> str:
        """One human-readable gate-failure line."""
        drift = (
            (self.current - self.baseline) / self.baseline * 100.0
            if self.baseline
            else float("inf")
        )
        return (
            f"{self.bench}:{self.metric} = {self.current:g} "
            f"(baseline {self.baseline:g}, {drift:+.0f}%, "
            f"gate {'>=' if self.direction == 'higher' else '<='} {self.limit:g})"
        )


@dataclass
class TrajectoryCheck:
    """Outcome of one regression-gate evaluation."""

    regressions: List[Regression] = field(default_factory=list)
    #: tracked metrics evaluated (present in both current and baseline)
    n_checked: int = 0
    #: tracked metrics with no prior history to gate against
    n_ungated: int = 0

    @property
    def ok(self) -> bool:
        """Whether every gated metric stayed inside its tolerance."""
        return not self.regressions

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"bench gate: {self.n_checked} metrics checked, "
            f"{self.n_ungated} without history, "
            f"{len(self.regressions)} regression(s)"
        ]
        lines.extend(f"  REGRESSION {r.describe()}" for r in self.regressions)
        return "\n".join(lines)


def flatten_headline(headline: Dict[str, object], prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of one headline dict as ``a.b.c`` paths."""
    flat: Dict[str, float] = {}
    for key, value in headline.items():
        path = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            value = float(value)
            if math.isfinite(value):
                flat[path] = value
        elif isinstance(value, dict):
            flat.update(flatten_headline(value, prefix=f"{path}."))
    return flat


def collect_bench_headlines(bench_dir: str) -> Dict[str, Dict[str, object]]:
    """Read every ``BENCH_*.json`` in a directory → ``{bench: headline}``."""
    headlines: Dict[str, Dict[str, object]] = {}
    for name in sorted(os.listdir(bench_dir)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        with open(os.path.join(bench_dir, name), "r", encoding="utf-8") as handle:
            document = json.load(handle)
        bench = str(document.get("bench", name[len("BENCH_") : -len(".json")]))
        headline = document.get("headline")
        if isinstance(headline, dict):
            headlines[bench] = headline
    return headlines


def record_run(
    bench_dir: str,
    history_path: str = DEFAULT_HISTORY_PATH,
    run_id: Optional[str] = None,
    note: str = "",
) -> Dict[str, object]:
    """Append one trajectory entry from a bench output directory.

    Returns the appended entry.  Raises ``ValueError`` when the
    directory holds no bench results — recording an empty run would
    silently poison every later baseline median.
    """
    headlines = collect_bench_headlines(bench_dir)
    if not headlines:
        raise ValueError(f"no BENCH_*.json results under {bench_dir!r}")
    entry: Dict[str, object] = {
        "run": run_id or "local",
        "recorded_at": _datetime.datetime.now(_datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpus": os.cpu_count() or 0,
        },
        "benches": headlines,
    }
    if note:
        entry["note"] = note
    os.makedirs(os.path.dirname(history_path) or ".", exist_ok=True)
    with open(history_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def load_history(history_path: str = DEFAULT_HISTORY_PATH) -> List[Dict[str, object]]:
    """Every well-formed entry of the history file, oldest first.

    Malformed lines are skipped (a botched merge must not brick the
    gate), missing files read as empty history.
    """
    entries: List[Dict[str, object]] = []
    if not os.path.exists(history_path):
        return entries
    with open(history_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict) and isinstance(entry.get("benches"), dict):
                entries.append(entry)
    return entries


def _metric_series(
    entries: Iterable[Dict[str, object]], bench: str, metric: str
) -> List[float]:
    """The value of one tracked metric across history entries, in order."""
    series: List[float] = []
    for entry in entries:
        headline = entry.get("benches", {}).get(bench)
        if not isinstance(headline, dict):
            continue
        value = flatten_headline(headline).get(metric)
        if value is not None:
            series.append(value)
    return series


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def check_regression(
    entries: List[Dict[str, object]],
    tracked: Optional[Dict[str, Dict[str, MetricSpec]]] = None,
) -> TrajectoryCheck:
    """Gate the newest entry against the preceding history.

    The baseline per metric is the median of up to
    :data:`BASELINE_WINDOW` *prior* entries carrying it — robust to a
    single historic outlier in either direction.  Metrics with no
    prior history pass (counted in ``n_ungated``): the first committed
    run *establishes* the trajectory, it cannot regress from nothing.
    """
    tracked = TRACKED_METRICS if tracked is None else tracked
    check = TrajectoryCheck()
    if not entries:
        return check
    current_entry, prior = entries[-1], entries[:-1]
    for bench, metrics in sorted(tracked.items()):
        headline = current_entry.get("benches", {}).get(bench)
        if not isinstance(headline, dict):
            continue
        flat = flatten_headline(headline)
        for metric, spec in sorted(metrics.items()):
            current = flat.get(metric)
            if current is None:
                continue
            series = _metric_series(prior, bench, metric)
            if not series:
                check.n_ungated += 1
                continue
            baseline = _median(series[-BASELINE_WINDOW:])
            check.n_checked += 1
            if spec.regressed(current, baseline):
                check.regressions.append(
                    Regression(
                        bench=bench,
                        metric=metric,
                        current=current,
                        baseline=baseline,
                        limit=spec.limit(baseline),
                        direction=spec.direction,
                    )
                )
    return check


def _sparkline(values: List[float]) -> str:
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK[0] * len(values)
    return "".join(
        _SPARK[int((v - lo) / (hi - lo) * (len(_SPARK) - 1))] for v in values
    )


def render_trend(
    entries: List[Dict[str, object]],
    last: int = 12,
    tracked: Optional[Dict[str, Dict[str, MetricSpec]]] = None,
) -> str:
    """The ``fiat-repro bench-report`` trend view over the history."""
    tracked = TRACKED_METRICS if tracked is None else tracked
    lines = [f"=== FIAT perf trajectory ({len(entries)} recorded runs) ==="]
    if not entries:
        lines.append(
            "  (no history — run the benches with FIAT_BENCH_OUT set and "
            "record them via tools/bench_track.py)"
        )
        return "\n".join(lines) + "\n"
    newest = entries[-1]
    lines.append(
        f"  newest: run {newest.get('run')!r} at {newest.get('recorded_at')}"
    )
    header = f"  {'metric':44s} {'trend':>{last}s} {'current':>12s} {'baseline':>12s} {'delta':>8s}"
    lines.append(header)
    for bench, metrics in sorted(tracked.items()):
        for metric, spec in sorted(metrics.items()):
            series = _metric_series(entries, bench, metric)
            if not series:
                continue
            window = series[-last:]
            current = series[-1]
            prior = series[:-1]
            if prior:
                baseline = _median(prior[-BASELINE_WINDOW:])
                delta = (
                    f"{(current - baseline) / baseline * 100.0:+.0f}%"
                    if baseline
                    else "n/a"
                )
                base_text = f"{baseline:12g}"
                flag = " <-- REGRESSION" if spec.regressed(current, baseline) else ""
            else:
                delta, base_text, flag = "new", f"{'—':>12s}", ""
            lines.append(
                f"  {bench + ':' + metric:44s} "
                f"{_sparkline(window):>{last}s} {current:12g} {base_text} "
                f"{delta:>8s}{flag}"
            )
    return "\n".join(lines) + "\n"
