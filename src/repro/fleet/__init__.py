"""Sharded multi-home fleet simulation with durable, resumable runs.

FIAT's evaluation covers one household; the ROADMAP north star is a
population.  This package turns every existing experiment into a
population experiment: a declarative :class:`FleetSpec` (or a streamed
JSONL spec that never materialises) describes N independent homes
(device mix, routine intensity, attack mix, fault plan), a
shared-nothing worker runs each home's §6 accuracy experiment in its
own :class:`~repro.core.FiatSystem` (serially or on a process pool),
and an *incremental* aggregation layer folds per-home results —
reservoir accuracy percentiles, traffic-class confusion totals, alert
rollups, and the merged :class:`~repro.obs.MetricsSnapshot` of all
shards — into one deterministic population report at bounded memory.

Durability: with a ``state_dir`` every completed home is journaled
(CRC32 frames, reusing :mod:`repro.recovery.journal`) and the running
aggregate is periodically compacted into atomic snapshots, so a run
killed at home 900k of a million resumes (``resume=True``) where it
stopped and still produces a byte-identical report.  Homes that
exhaust their retry/backoff budget are quarantined, reported, and
reattemptable via ``retry_quarantined=True``.

Layering: ``spec`` (data, streaming) → ``worker`` (one home) →
``runner`` (orchestration, failure policy) → ``checkpoint``
(durability) → ``aggregate`` (incremental population report) →
``telemetry`` (out-of-band progress frames + the live
:class:`FleetMonitor` dashboard behind ``fiat-repro fleet --watch`` /
``fleet-top``, for single-machine and distributed runs alike) → ``distrib`` (the multi-machine coordinator: leased
contiguous home-ranges on machine subprocesses, epoch-fenced
submissions, a CRC-framed ledger, and an exact spec-order merge that
stays byte-identical to a single-machine run under machine kills,
stalls, partitions, and coordinator crashes).
Per-home seeds are hash-derived via :func:`repro.util.spawn_seed`,
never ``seed + i`` offsets, so no two homes — and no two components
within a home — share an RNG stream.  The aggregate report is
byte-identical across backends, job counts, and kill/resume boundaries
by contract (CI diffs the bytes).
"""

from .aggregate import FleetAggregator, FleetReport, SampleReservoir, percentile
from .checkpoint import (
    CheckpointMismatch,
    FleetCheckpoint,
    ResumeState,
    load_latest_aggregate,
)
from .distrib import (
    DistribCoordinator,
    DistribError,
    RangeSpecStream,
    SubmissionMismatch,
    machine_telemetry_dirs,
    merge_range_dirs,
    parse_machine_fault,
    partition_ranges,
)
from .runner import BACKENDS, FleetInterrupted, FleetRunner
from .telemetry import (
    FleetMonitor,
    MonitorSnapshot,
    TelemetryWriter,
    telemetry_dir_for,
)
from .spec import (
    FleetSpec,
    HomeSpec,
    JsonlSpecStream,
    MemorySpecStream,
    SpecStream,
    generate_fleet,
    home_seed,
    iter_generate_fleet,
    open_spec,
    write_spec_jsonl,
)
from .worker import HomeResult, run_home

__all__ = [
    "BACKENDS",
    "CheckpointMismatch",
    "DistribCoordinator",
    "DistribError",
    "FleetAggregator",
    "FleetCheckpoint",
    "FleetInterrupted",
    "FleetMonitor",
    "FleetReport",
    "FleetRunner",
    "FleetSpec",
    "HomeResult",
    "MonitorSnapshot",
    "TelemetryWriter",
    "HomeSpec",
    "JsonlSpecStream",
    "MemorySpecStream",
    "RangeSpecStream",
    "ResumeState",
    "SampleReservoir",
    "SpecStream",
    "SubmissionMismatch",
    "generate_fleet",
    "home_seed",
    "iter_generate_fleet",
    "load_latest_aggregate",
    "machine_telemetry_dirs",
    "merge_range_dirs",
    "open_spec",
    "parse_machine_fault",
    "partition_ranges",
    "percentile",
    "run_home",
    "telemetry_dir_for",
    "write_spec_jsonl",
]
