"""End-to-end observability for the FIAT pipeline (zero-dependency).

Production operation of FIAT (ROADMAP north star) needs evidence of
what the pipeline did and what it cost: which events were dropped and
why, how long the bucket heuristic / classifier inference / proof
verification actually take, and whether a single humanness proof can be
followed from sensor sampling to the proxy decision it backed.

This package provides that layer without touching behaviour:

``repro.obs.registry``
    Counters, gauges and fixed-bucket histograms with labels; snapshot,
    delta, merge; Prometheus text rendering; label-cardinality cap.
``repro.obs.tracing``
    Deterministic (seeded, wall-clock-free) trace-ID minting and span
    records.
``repro.obs.timing``
    ``perf_counter`` profiling timers feeding latency histograms.
``repro.obs.exporter``
    JSONL audit/event stream writer and snapshot files.
``repro.obs.report``
    The ``fiat-repro obs-report`` text dashboard.
``repro.obs.handle``
    The injectable :class:`Observability` handle carried on
    :attr:`repro.core.config.FiatConfig.obs`.
``repro.obs.mergetree``
    Exact (rational-sum) merging of snapshots behind the fleet
    aggregate.

The invariant every consumer relies on: with observability enabled or
disabled, ``FiatProxy.decision_log()`` is byte-identical on the same
seeded scenario.
"""

from .exporter import (
    JsonlAuditSink,
    MemoryAuditSink,
    events_for_trace,
    load_snapshot,
    read_audit,
    save_snapshot,
    write_bench_snapshot,
)
from .handle import NULL_OBS, Observability
from .mergetree import SnapshotAccumulator, merge_snapshots
from .registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    CounterView,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from .report import render_report, render_trace
from .timing import TIMING_SAMPLE_INTERVAL_S, LatencyTimer
from .tracing import Span, TraceIdMinter

__all__ = [
    "Observability",
    "NULL_OBS",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Histogram",
    "CounterView",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "TraceIdMinter",
    "Span",
    "LatencyTimer",
    "TIMING_SAMPLE_INTERVAL_S",
    "JsonlAuditSink",
    "MemoryAuditSink",
    "read_audit",
    "events_for_trace",
    "save_snapshot",
    "load_snapshot",
    "write_bench_snapshot",
    "render_report",
    "render_trace",
    "SnapshotAccumulator",
    "merge_snapshots",
]
