"""Distributed fleet: a fault-tolerant multi-machine coordinator.

Scales a fleet run across N "machines" — subprocesses each running the
existing :class:`~repro.fleet.runner.FleetRunner` over one contiguous
home-range — while keeping the single-machine determinism contract:
the final :class:`~repro.fleet.aggregate.FleetReport` is byte-identical
to a ``--jobs N`` run on one machine, regardless of machine count,
failures, or the order ranges are reassigned and folded.

The interesting part is not the fan-out but surviving it:

Leases and epoch fencing
    Every range is owned by at most one *lease epoch* at a time.  The
    coordinator journals the lease before spawning the machine, watches
    the machine's telemetry frames (heartbeats plus the runner's own
    progress frames) and revokes the lease when the machine exits
    without submitting, or goes quiet past ``lease_timeout_s``.
    Revocation never kills the old machine — a partitioned box cannot
    be reached anyway — it bumps the epoch and re-leases after a
    seeded backoff (:func:`repro.util.spawn_seed`, no wall-clock
    randomness).  Every file a machine writes is namespaced by its
    epoch, so a zombie that wakes up after revocation can only write
    beside the new owner, never under it, and its late submission is
    rejected and counted, never folded.

Per-machine checkpoints
    A machine appends every finished home to a CRC32-framed results
    journal (flushed per record) *before* anything else sees the
    result.  A re-leased machine unions the journals of every prior
    epoch, verifies each record's digest, and resumes from the first
    uncovered home — work done by a crashed or zombie machine is never
    re-run, and conflicting records for the same home fail closed
    (:class:`SubmissionMismatch`), since a correct machine is a pure
    function of the spec.

The coordinator ledger
    All coordination state (leases, revocations, accepted and rejected
    submissions, folded ranges) lives in ``coordinator.journal``, the
    same CRC32 framing as :mod:`repro.recovery.journal`, with aggregator
    snapshots beside it, numbered by ranges folded and pruned to the
    two-epoch window of :class:`~repro.recovery.snapshot.EpochStore`.
    SIGKILL the coordinator at any point and ``resume=True`` reconstructs exactly: completed ranges
    are not re-run, in-flight leases are adopted (their machines keep
    running as orphans and their submissions are still accepted), and
    the fold order — spec order, range by range — is replayed
    bit-identically.

Exact merge
    The coordinator (and the offline ``fleet-merge``) folds each finished
    range by reading its raw home results back from the results journals
    and passing them through :meth:`~repro.fleet.aggregate.FleetAggregator.add`
    in spec order, range after range — the same fold a single-machine
    run does, so the report bytes cannot depend on the partition.
"""

from __future__ import annotations

import json
import logging
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..faults.plan import MachineFault
from ..recovery.journal import JournalWriter, read_journal
from ..recovery.snapshot import EpochStore, read_snapshot, write_snapshot
from ..util import spawn_seed
from .aggregate import FleetAggregator, FleetReport
from .checkpoint import (
    FLEET_STATE_FORMAT,
    CheckpointMismatch,
    intact_results,
    restore_aggregator,
    result_digest,
)
from .runner import KILL_AFTER_ENV, FleetRunner
from .spec import FleetSpec, HomeSpec, JsonlSpecStream, SpecStream, open_spec, write_spec_jsonl
from .telemetry import TelemetryWriter, load_frames
from .worker import HomeResult

__all__ = [
    "DistribCoordinator",
    "DistribError",
    "SubmissionMismatch",
    "RangeSpecStream",
    "partition_ranges",
    "machine_seed",
    "lease_backoff_s",
    "lease_expired",
    "submission_disposition",
    "read_range_results",
    "covered_prefix",
    "newest_frame_t",
    "machine_telemetry_dirs",
    "parse_machine_fault",
    "run_machine",
    "merge_range_dirs",
    "KILL_AFTER_RANGES_ENV",
    "MACHINE_CHANNEL",
    "LEDGER_NAME",
]

logger = logging.getLogger(__name__)

#: Set to ``N`` to SIGKILL the *coordinator* after folding N ranges this
#: run — the crash-injection hook for resume smoke tests (the machine
#: counterpart is the runner's ``FIAT_FLEET_KILL_AFTER``).  Both are
#: stripped from machine subprocess environments.
KILL_AFTER_RANGES_ENV = "FIAT_DISTRIB_KILL_AFTER"

#: Telemetry channel of the machine wrapper: its ``machine-start`` frame
#: and its heartbeats (beside the runner's ``run.jsonl`` in the same
#: per-epoch dir).
MACHINE_CHANNEL = "machine.jsonl"

#: The coordinator's write-ahead ledger file, under the state dir.
LEDGER_NAME = "coordinator.journal"
#: How often a partitioned (``drop``) machine re-reads the ledger for its revoke.
REVOKE_POLL_S = 0.05
#: How often the coordinator polls leases, submissions and the launch queue.
POLL_INTERVAL_S = 0.1

#: The materialised spec copy machines read, under the state dir.
SPEC_COPY_NAME = "spec.jsonl"

#: Coordinator aggregator snapshots, numbered by the ranges folded so far.
COORDINATOR_SNAPSHOT = "coordinator-snapshot-{:04d}.json"
#: Per-lease-epoch entries of a range dir: the submission is the epoch's
#: snapshot and the results log its journal; payload, log and telemetry
#: dir sit beside them.
SUBMIT_FILE = "submit-{:04d}.json"
RESULTS_JOURNAL = "results-{:04d}.journal"
PAYLOAD_FILE = "machine-{:04d}.json"
LOG_FILE = "machine-{:04d}.log"
TELEMETRY_DIR = "telemetry-{:04d}"


class DistribError(RuntimeError):
    """A distributed run cannot proceed (e.g. a range exhausted its leases)."""


class SubmissionMismatch(CheckpointMismatch):
    """A range submission or results log fails a fail-closed check."""


# -- pure helpers ----------------------------------------------------------------


def partition_ranges(n_homes: int, n_machines: int) -> Tuple[Tuple[int, int], ...]:
    """Split ``[0, n_homes)`` into contiguous per-machine ranges.

    Pure and stable: the same inputs always produce the same cover
    (resume re-derives identical ranges), the ranges are disjoint, in
    spec order, non-empty, tile ``[0, n_homes)`` exactly, and sizes
    differ by at most one.  At most ``min(n_machines, n_homes)`` ranges
    are produced — a machine never owns an empty range.
    """
    if n_homes < 0:
        raise ValueError(f"n_homes must be >= 0, got {n_homes}")
    if n_machines < 1:
        raise ValueError(f"n_machines must be >= 1, got {n_machines}")
    n_ranges = min(n_machines, n_homes)
    if n_ranges == 0:
        return ()
    base, extra = divmod(n_homes, n_ranges)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for index in range(n_ranges):
        size = base + (1 if index < extra else 0)
        ranges.append((start, start + size))
        start += size
    return tuple(ranges)


def machine_seed(fleet_seed: int, range_index: int, epoch: int) -> int:
    """The seed for one machine process's operational randomness.

    Derived with :func:`repro.util.spawn_seed` so machines never share
    streams and resume re-derives the same value.  Operational only
    (heartbeat phase jitter): workload randomness lives in each
    :class:`HomeSpec`'s own seed, which is what keeps the report
    byte-identical across machine counts.
    """
    return spawn_seed(fleet_seed, "machine", range_index, epoch)


def lease_backoff_s(
    fleet_seed: int,
    range_index: int,
    epoch: int,
    base_s: float = 0.2,
    max_s: float = 2.0,
) -> float:
    """Seeded exponential backoff before granting lease ``epoch``.

    Same discipline as the runner's retry backoff: the jitter draw is
    keyed by ``(seed, "lease", range, epoch)``, so a resumed
    coordinator re-derives the identical delay.
    """
    jitter = random.Random(spawn_seed(fleet_seed, "lease", range_index, epoch)).random()
    delay = min(max_s, base_s * (2 ** max(0, epoch - 2)))
    return delay * (0.5 + jitter)


def lease_expired(
    granted_at: float,
    newest_frame_t: Optional[float],
    lease_timeout_s: float,
    now: float,
) -> bool:
    """Whether a lease has gone quiet past its timeout.

    Liveness is the newest telemetry frame of the lease's own epoch,
    floored at the grant time (a freshly spawned machine gets the full
    timeout to produce its first frame).  The comparison is strictly
    greater-than: a heartbeat landing *exactly* at the deadline keeps
    the lease.
    """
    alive = granted_at if newest_frame_t is None else max(granted_at, newest_frame_t)
    return (now - alive) > lease_timeout_s


def submission_disposition(
    epoch: int,
    granted_epoch: Optional[int],
    accepted_epoch: Optional[int],
    revoked_epochs: Set[int],
) -> str:
    """Epoch-fencing decision for one on-disk range submission.

    Pure: the coordinator (and its tests) route every submission
    through this single function.  Returns ``"accept"`` only when the
    submission's epoch is the currently granted one and has not been
    revoked, or matches the already-accepted epoch (a re-read of the
    same file); every other combination is a rejection with a reason:

    - ``"reject-duplicate"`` — the range was already folded at a
      different epoch (a double fold, refused).
    - ``"reject-revoked"`` — a zombie submitting after its lease was
      revoked.
    - ``"reject-stale"`` — an epoch that was never (or is no longer)
      the granted one.
    """
    if accepted_epoch is not None:
        return "accept" if epoch == accepted_epoch else "reject-duplicate"
    if epoch in revoked_epochs:
        return "reject-revoked"
    if granted_epoch is not None and epoch == granted_epoch:
        return "accept"
    return "reject-stale"


class RangeSpecStream(SpecStream):
    """A contiguous ``[start, stop)`` slice of another spec stream.

    The machine-side view of its home-range: same fleet header (name
    and seed — home results must not depend on which machine runs
    them), sliced iteration, and a digest derived from the base
    digest plus the bounds so checkpoints of different ranges never
    validate against each other.
    """

    def __init__(self, base: SpecStream, start: int, stop: int) -> None:
        import hashlib

        total = base.n_homes
        if total is None:
            raise ValueError("range slicing needs a sized spec stream")
        if not 0 <= start <= stop <= total:
            raise ValueError(
                f"range [{start}, {stop}) out of bounds for {total} homes"
            )
        self.base = base
        self.start = start
        self.stop = stop
        self.name = base.name
        self.seed = base.seed
        self.n_homes = stop - start
        self.digest = hashlib.sha256(
            f"{base.digest}:{start}:{stop}".encode("utf-8")
        ).hexdigest()

    def iter_homes(self) -> Iterator[HomeSpec]:
        import itertools

        return itertools.islice(self.base.iter_homes(), self.start, self.stop)


# -- on-disk layout --------------------------------------------------------------


def range_dir_name(range_index: int) -> str:
    """Directory name of one range under the coordinator state dir."""
    return f"range-{range_index:04d}"


def range_store(range_dir: str) -> EpochStore:
    """The lease-epoch files of one range dir (submissions and results logs)."""
    return EpochStore(range_dir, SUBMIT_FILE, RESULTS_JOURNAL)


def read_range_results(
    range_dir: str, start: int, stop: int
) -> Dict[int, Dict[str, object]]:
    """Union of every valid home result logged for one range.

    Reads the results journals of *all* lease epochs, oldest first.
    Every record's digest is re-verified; a record that fails (or an
    index outside the range) ends that journal's readable prefix, the
    same contract as a torn tail.  Records for the same home from
    different epochs must agree byte-for-byte — a correct machine is a
    pure function of the spec, so disagreement means corruption or a
    foreign writer and raises :class:`SubmissionMismatch`.
    """
    results: Dict[int, Dict[str, object]] = {}
    digests: Dict[int, str] = {}
    store = range_store(range_dir)
    for epoch in store.journal_epochs():
        records = read_journal(store.journal_path(epoch)).records
        for record in intact_results(records, f"range {range_dir} epoch {epoch}"):
            idx, body, claimed = int(record["idx"]), record["result"], str(record["digest"])
            if not start <= idx < stop:
                logger.warning(
                    "range %s epoch %d: home %d is outside the range; "
                    "ignoring the journal tail", range_dir, epoch, idx,
                )
                break
            if idx in digests and digests[idx] != claimed:
                raise SubmissionMismatch(
                    f"range results disagree for home {idx} across epochs "
                    f"in {range_dir} — refusing to merge"
                )
            results[idx] = body
            digests[idx] = claimed
    return results


def _fold_range_results(
    agg: FleetAggregator, range_dir: str, start: int, stop: int, label: str
) -> None:
    """Fold one finished range's logged results into ``agg``, in spec order.

    The one merge step of the coordinator and of ``fleet-merge``.
    Fail-closed: if the results journals miss any home of
    ``[start, stop)``, nothing is folded and :class:`SubmissionMismatch`
    is raised.
    """
    results = read_range_results(range_dir, start, stop)
    for idx in range(start, stop):
        if idx not in results:
            raise SubmissionMismatch(
                f"{label}: results log is missing home {idx} — "
                "refusing to fold an incomplete range"
            )
    for idx in range(start, stop):
        agg.add(idx, HomeResult.from_dict(results[idx]))


def covered_prefix(results: Dict[int, Dict[str, object]], start: int, stop: int) -> int:
    """First index of ``[start, stop)`` with no logged result."""
    next_idx = start
    while next_idx < stop and next_idx in results:
        next_idx += 1
    return next_idx


def newest_frame_t(directory: str) -> Optional[float]:
    """Newest wall timestamp of any telemetry frame in ``directory``.

    ``None`` when the dir is missing or has no frames yet.  Only the
    frames of the dir given matter: a lease's liveness is judged on its
    *own* epoch's telemetry dir, so a late frame from a revoked epoch
    can never resurrect the old lease.
    """
    frames = load_frames(directory)
    if not frames:
        return None
    return max(float(frame.get("t", 0.0)) for frame in frames)


def machine_telemetry_dirs(state_dir: str) -> List[str]:
    """Newest-epoch telemetry dir of every range under a coordinator dir.

    What :class:`~repro.fleet.telemetry.FleetMonitor` watches for a
    coordinator dir, re-resolved per poll so the set follows re-leases.
    """
    dirs: List[str] = []
    try:
        names = sorted(os.listdir(state_dir))
    except OSError:
        return []
    for name in names:
        if not name.startswith("range-"):
            continue
        store = range_store(os.path.join(state_dir, name))
        epochs = store.epochs(TELEMETRY_DIR)
        if epochs:
            dirs.append(store.path(TELEMETRY_DIR, epochs[-1]))
    return dirs


def parse_machine_fault(text: str) -> MachineFault:
    """Parse a ``KIND:RANGE[:AFTER[:DURATION[:EPOCH]]]`` CLI fault spec.

    Examples: ``kill:0:1`` (SIGKILL range 0's machine after one home),
    ``stall:1:2:6`` (freeze for 6 s after two homes), ``drop:0:1::2``
    (partition range 0's *second* lease holder — empty segments keep
    their defaults).
    """
    parts = text.split(":")
    if len(parts) < 2 or len(parts) > 5:
        raise ValueError(
            f"machine fault must be KIND:RANGE[:AFTER[:DURATION[:EPOCH]]], got {text!r}"
        )
    try:
        return MachineFault(
            kind=parts[0],
            range_index=int(parts[1]),
            after_homes=int(parts[2]) if len(parts) > 2 and parts[2] else 1,
            duration_s=float(parts[3]) if len(parts) > 3 and parts[3] else 8.0,
            epoch=int(parts[4]) if len(parts) > 4 and parts[4] else 1,
        )
    except ValueError as error:
        raise ValueError(f"bad machine fault {text!r}: {error}") from None


# -- the machine wrapper ---------------------------------------------------------


class _MachineHeartbeat:
    """Background thread beating on the machine's telemetry channel."""

    def __init__(
        self,
        directory: str,
        range_index: int,
        epoch: int,
        interval_s: float,
        seed: int,
    ) -> None:
        self.range_index = range_index
        self.epoch = epoch
        self.interval_s = interval_s
        #: homes covered so far (read by the monitor, advisory)
        self.progress = 0
        self._writer = TelemetryWriter(directory, channel=MACHINE_CHANNEL)
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._muted = False
        # Deterministic start-phase jitter so a fleet of machines does
        # not beat in lockstep; seeded, never wall-clock random.
        self._phase = random.Random(seed).random() * interval_s
        self._thread = threading.Thread(
            target=self._loop, name="machine-heartbeat", daemon=True
        )

    def start(self, **range_counts: int) -> None:
        # The range's size and the tally of the homes earlier epochs
        # covered: this epoch's runner counts only the rest of the
        # range, and the monitor adds this tally to its counts.
        self._emit("machine-start", **range_counts)
        # First beat immediately (from this thread, before the loop
        # exists): the coordinator learns liveness before home 0 runs.
        self._beat()
        self._thread.start()

    def _beat(self) -> None:
        self._emit("machine-heartbeat", done=self.progress)

    def _emit(self, kind: str, **fields: object) -> None:
        if not self._muted and not self._paused.is_set():
            self._writer.emit(kind, range=self.range_index, epoch=self.epoch, **fields)

    def _loop(self) -> None:
        if self._stop.wait(self._phase):
            return
        while not self._stop.wait(self.interval_s):
            self._beat()

    def pause(self) -> None:
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    def mute(self) -> None:
        """Silence the channel permanently (network partition)."""
        self._muted = True

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)
        self._writer.close()


def _await_revoke(range_dir: str, range_index: int, epoch: int) -> None:
    """Block until the coordinator ledger beside ``range_dir`` revokes this lease.

    If the coordinator dies first, the machine keeps waiting: a resumed
    coordinator adopts the lease, revokes it once it expires, and the
    machine then submits and exits.
    """
    ledger_path = os.path.join(os.path.dirname(range_dir), LEDGER_NAME)
    while not any(
        record.get("kind") == "revoke"
        and record.get("range") == range_index
        and record.get("epoch") == epoch
        for record in read_journal(ledger_path).records
    ):
        time.sleep(REVOKE_POLL_S)


def run_machine(payload: Dict[str, object]) -> int:
    """Execute one range lease: the body of a machine subprocess.

    Resumes from the union of every prior epoch's results journal,
    runs the uncovered suffix through a :class:`FleetRunner`, logs each
    result (flushed, digest-stamped) before anything else sees it, and
    finishes with one atomic epoch-namespaced submission file.  Injected
    :class:`MachineFault`s whose ``epoch`` matches this lease fire after
    the configured number of homes.  Returns a process exit code.
    """
    source = open_spec(str(payload["spec"]))
    expected_digest = str(payload.get("spec_digest", ""))
    if expected_digest and source.digest != expected_digest:
        print(
            f"machine: spec digest mismatch (have {source.digest[:12]}, "
            f"lease expects {expected_digest[:12]})",
            file=sys.stderr,
        )
        return 2
    range_index = int(payload["range_index"])
    start, stop = int(payload["start"]), int(payload["stop"])
    epoch = int(payload["epoch"])
    range_dir = str(payload["range_dir"])
    os.makedirs(range_dir, exist_ok=True)
    store = range_store(range_dir)

    faults = [MachineFault.from_dict(f) for f in payload.get("faults", [])]
    armed = next((f for f in faults if f.epoch == epoch), None)

    prior = read_range_results(range_dir, start, stop)
    next_idx = covered_prefix(prior, start, stop)

    telemetry_dir = store.path(TELEMETRY_DIR, epoch)
    heartbeat = _MachineHeartbeat(
        telemetry_dir,
        range_index,
        epoch,
        interval_s=float(payload.get("heartbeat_interval_s", 0.5)),
        seed=int(payload.get("machine_seed", 0)),
    )
    heartbeat.progress = next_idx - start

    dropped = False
    runner_box: List[Optional[FleetRunner]] = [None]

    def fire(fault: MachineFault) -> None:
        nonlocal dropped
        if fault.kind == "kill":
            # A powered-off box: no flush, no goodbye frame.
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault.kind == "stall":
            heartbeat.pause()
            time.sleep(fault.duration_s)
            heartbeat.resume()
        else:  # drop: partition — keep working, stop being seen
            dropped = True
            heartbeat.mute()
            if runner_box[0] is not None:
                runner_box[0].mute_telemetry()

    log = JournalWriter(store.journal_path(epoch))
    folded_here = 0

    def on_result(local_idx: int, result: HomeResult) -> None:
        nonlocal folded_here
        body = result.to_dict()
        log.append(
            {"idx": next_idx + local_idx, "digest": result_digest(body), "result": body}
        )
        folded_here += 1
        heartbeat.progress = (next_idx - start) + folded_here
        if armed is not None and folded_here == armed.after_homes:
            fire(armed)

    if armed is not None and armed.after_homes == 0:
        fire(armed)
    covered = [prior[idx] for idx in range(start, next_idx)]
    failed = sum(result.get("status") != "ok" for result in covered)
    heartbeat.start(
        planned=stop - start,
        completed=len(covered),
        ok=len(covered) - failed,
        failed=failed,
        quarantined=failed,
    )
    try:
        if next_idx < stop:
            runner = FleetRunner(
                RangeSpecStream(source, next_idx, stop),
                jobs=int(payload.get("jobs", 1)),
                backend=str(payload.get("backend", "auto")),
                retries=int(payload.get("retries", 0)),
                backoff_base_s=float(payload.get("backoff_base_s", 0.05)),
                backoff_max_s=float(payload.get("backoff_max_s", 2.0)),
                state_root=payload.get("state_root"),
                telemetry_dir=None if dropped else telemetry_dir,
                on_result=on_result,
            )
            runner_box[0] = runner
            runner.run()
        if dropped:
            # The partition heals only once the coordinator has given up on
            # this lease, so the late submission is always a zombie's.
            _await_revoke(range_dir, range_index, epoch)
        submission = {
            "format": FLEET_STATE_FORMAT,
            "range_index": range_index,
            "start": start,
            "stop": stop,
            "epoch": epoch,
            "name": source.name,
            "seed": source.seed,
            "spec_digest": source.digest,
            "n_results": stop - start,
        }
        write_snapshot(store.snapshot_path(epoch), submission)
    finally:
        heartbeat.stop()
        log.close()
    return 0


def _machine_main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.fleet.distrib <payload.json>", file=sys.stderr)
        return 2
    with open(argv[0], "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return run_machine(payload)


# -- the coordinator -------------------------------------------------------------


@dataclass
class _Lease:
    """One live (or adopted) lease the coordinator is tracking."""

    epoch: int
    proc: Optional[subprocess.Popen]
    granted_at: float
    log_handle: Optional[object] = None


class DistribCoordinator:
    """Partition a fleet across machines and fold the exact report.

    See the module docstring for the protocol.  ``machines`` bounds the
    concurrent subprocesses; ranges are fixed at first grant (recorded
    in the ledger header) so a resume with a different ``machines``
    only changes concurrency, never the partition.  ``stats`` exposes
    side-channel robustness counters (leases granted, revocations,
    rejected submissions, ...) — deliberately *not* part of the report,
    whose bytes must match a single-machine run.
    """

    def __init__(
        self,
        spec: "FleetSpec | SpecStream",
        state_dir: str,
        machines: int = 2,
        jobs: int = 1,
        backend: str = "auto",
        resume: bool = False,
        retries: int = 0,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        lease_timeout_s: float = 15.0,
        heartbeat_interval_s: float = 0.5,
        max_leases_per_range: int = 6,
        lease_backoff_base_s: float = 0.2,
        lease_backoff_max_s: float = 2.0,
        machine_faults: Sequence[MachineFault] = (),
        state_root: Optional[str] = None,
        python: Optional[str] = None,
    ) -> None:
        if machines < 1:
            raise ValueError(f"machines must be >= 1, got {machines}")
        if lease_timeout_s <= 0:
            raise ValueError(f"lease_timeout_s must be > 0, got {lease_timeout_s}")
        if max_leases_per_range < 1:
            raise ValueError(
                f"max_leases_per_range must be >= 1, got {max_leases_per_range}"
            )
        self.source: SpecStream = spec.stream() if isinstance(spec, FleetSpec) else spec
        if self.source.n_homes is None:
            raise ValueError("distributed runs need a sized spec stream")
        self.state_dir = state_dir
        self.machines = machines
        self.jobs = jobs
        self.backend = backend
        self.resume = resume
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.lease_timeout_s = lease_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.max_leases_per_range = max_leases_per_range
        self.lease_backoff_base_s = lease_backoff_base_s
        self.lease_backoff_max_s = lease_backoff_max_s
        self.machine_faults = tuple(machine_faults)
        self.state_root = state_root
        self.python = python or sys.executable
        self.stats: Dict[str, int] = {}
        # protocol state, (re)built by run()
        self.ranges: List[Tuple[int, int]] = []
        self._ledger: Optional[JournalWriter] = None
        self._header: Dict[str, object] = {}
        self._granted: Dict[int, int] = {}
        self._done: Dict[int, int] = {}
        self._revoked: Set[Tuple[int, int]] = set()
        self._rejected: Set[Tuple[int, int]] = set()
        self._active: Dict[int, _Lease] = {}
        self._queue: Dict[int, float] = {}
        self._zombies: List[subprocess.Popen] = []
        self._folded_upto = 0
        self._agg: Optional[FleetAggregator] = None
        self._snapshots = EpochStore(state_dir, COORDINATOR_SNAPSHOT)
        self._kill_after = 0

    # -- public API --------------------------------------------------------------

    def run(self) -> FleetReport:
        """Drive the fleet to completion and return the exact report."""
        self.stats = {
            "ranges": 0,
            "leases_granted": 0,
            "re_leases": 0,
            "adopted_leases": 0,
            "rejected_submissions": 0,
            "ranges_folded": 0,
        }
        self._kill_after = int(os.environ.get(KILL_AFTER_RANGES_ENV, "0") or 0)
        os.makedirs(self.state_dir, exist_ok=True)
        ledger_path = os.path.join(self.state_dir, LEDGER_NAME)
        if self.resume and os.path.exists(ledger_path):
            self._load_ledger(ledger_path)
        else:
            self._start_fresh(ledger_path)
        self.stats["ranges"] = len(self.ranges)
        try:
            while self._folded_upto < len(self.ranges):
                self._fold_ready()
                if self._folded_upto >= len(self.ranges):
                    break
                now = time.time()
                self._check_active(now)
                self._scan_submissions()
                self._launch(now)
                time.sleep(POLL_INTERVAL_S)
        finally:
            self._shutdown()
        assert self._agg is not None
        return self._agg.report(n_planned=int(self.source.n_homes or 0))

    # -- lifecycle ---------------------------------------------------------------

    def _spec_copy_path(self) -> str:
        return os.path.join(self.state_dir, SPEC_COPY_NAME)

    def _start_fresh(self, ledger_path: str) -> None:
        # Wipe any previous distributed state: mixing two runs' range
        # dirs would be an invitation to fold foreign results.
        self._snapshots.clear()
        for name in os.listdir(self.state_dir):
            path = os.path.join(self.state_dir, name)
            if name.startswith("range-") and os.path.isdir(path):
                shutil.rmtree(path)
            elif name in (LEDGER_NAME, SPEC_COPY_NAME):
                os.remove(path)
        n_homes = int(self.source.n_homes or 0)
        write_spec_jsonl(
            self._spec_copy_path(),
            self.source.iter_homes(),
            name=self.source.name,
            seed=self.source.seed,
            n_homes=n_homes,
        )
        copy = JsonlSpecStream(self._spec_copy_path())
        self.ranges = list(partition_ranges(n_homes, self.machines))
        self._header = {
            "kind": "header",
            "format": FLEET_STATE_FORMAT,
            "name": self.source.name,
            "seed": self.source.seed,
            "n_homes": n_homes,
            "spec_digest": copy.digest,
            "source_digest": self.source.digest,
            "ranges": [list(r) for r in self.ranges],
        }
        self._ledger = JournalWriter(ledger_path)
        self._ledger.append(self._header, sync=True)
        self._granted = {}
        self._done = {}
        self._revoked = set()
        self._rejected = set()
        self._active = {}
        self._zombies = []
        self._folded_upto = 0
        self._agg = FleetAggregator(self.source.name, self.source.seed)
        now = time.time()
        self._queue = {r: now for r in range(len(self.ranges))}

    def _load_ledger(self, ledger_path: str) -> None:
        result = read_journal(ledger_path)
        if not result.records:
            raise SubmissionMismatch(
                f"cannot resume: coordinator ledger {ledger_path} is unreadable"
            )
        if result.torn:
            logger.warning(
                "coordinator ledger has a torn tail (%s); truncating to the "
                "valid prefix", result.torn_reason,
            )
        header = result.records[0]
        if header.get("kind") != "header" or header.get("format") != FLEET_STATE_FORMAT:
            raise SubmissionMismatch(
                f"coordinator ledger has no format-{FLEET_STATE_FORMAT} header — "
                "refusing to resume (use a fresh --state-dir)"
            )
        if str(header.get("source_digest")) != self.source.digest:
            raise SubmissionMismatch(
                "resume spec does not match the ledger: digest "
                f"{self.source.digest[:12]} != {str(header.get('source_digest'))[:12]}"
            )
        copy_path = self._spec_copy_path()
        if not os.path.exists(copy_path):
            raise SubmissionMismatch(f"cannot resume: {copy_path} is missing")
        copy = JsonlSpecStream(copy_path)
        if copy.digest != str(header.get("spec_digest")):
            raise SubmissionMismatch("cannot resume: the spec copy was modified")
        self._header = header
        self.ranges = [(int(r[0]), int(r[1])) for r in header["ranges"]]
        self._granted = {}
        self._done = {}
        self._revoked = set()
        self._rejected = set()
        self._active = {}
        self._zombies = []
        ledger_folded = 0
        for record in result.records[1:]:
            kind = record.get("kind")
            r = int(record.get("range", -1))
            if kind == "lease":
                self._granted[r] = max(self._granted.get(r, 0), int(record["epoch"]))
            elif kind == "revoke":
                self._revoked.add((r, int(record["epoch"])))
            elif kind == "done":
                self._done[r] = int(record["epoch"])
            elif kind == "reject":
                self._rejected.add((r, int(record["epoch"])))
            elif kind == "folded":
                ledger_folded = max(ledger_folded, r + 1)

        # Newest valid aggregator snapshot wins; ranges folded into the
        # aggregate after that snapshot are re-folded from their range
        # dirs (cheap — the results are on disk, nothing re-runs).
        _, state = self._snapshots.newest_snapshot(
            lambda _folded, state: str(state.get("spec_digest")) == str(header["spec_digest"])
        )
        if state is None:
            self._agg = FleetAggregator(self.source.name, self.source.seed)
            self._folded_upto = 0
        else:
            self._agg = restore_aggregator(state["agg"], self.source.name, self.source.seed)
            self._folded_upto = int(state["folded_upto"])
        self._ledger = JournalWriter(ledger_path, truncate_to=result.valid_bytes)
        if ledger_folded > self._folded_upto:
            logger.info(
                "resume: re-folding ranges %d..%d from disk (snapshot lag)",
                self._folded_upto, ledger_folded - 1,
            )

        now = time.time()
        self._queue = {}
        for r in range(len(self.ranges)):
            if r < self._folded_upto or r in self._done:
                continue
            latest = self._granted.get(r, 0)
            if latest and (r, latest) not in self._revoked:
                # Adopt the orphan lease: its machine may still be
                # running (we were killed, it was not) — give it a
                # fresh grace window; its submission is still welcome.
                self._active[r] = _Lease(epoch=latest, proc=None, granted_at=now)
                self.stats["adopted_leases"] += 1
            else:
                self._queue[r] = now if not latest else now + lease_backoff_s(
                    self.source.seed, r, latest + 1,
                    self.lease_backoff_base_s, self.lease_backoff_max_s,
                )

    def _shutdown(self) -> None:
        for lease in self._active.values():
            self._terminate(lease.proc)
            self._close_handle(lease)
        for proc in self._zombies:
            self._terminate(proc)
        self._zombies = []
        if self._ledger is not None:
            self._ledger.close()
            self._ledger = None

    @staticmethod
    def _terminate(proc: Optional[subprocess.Popen]) -> None:
        if proc is None or proc.poll() is not None:
            return
        proc.kill()
        try:
            proc.wait(timeout=5.0)
        except Exception:  # pragma: no cover - best-effort reaping
            pass

    @staticmethod
    def _close_handle(lease: _Lease) -> None:
        handle = lease.log_handle
        lease.log_handle = None
        if handle is not None:
            try:
                handle.close()
            except OSError:  # pragma: no cover - best-effort
                pass

    # -- folding -----------------------------------------------------------------

    def _range(self, range_index: int) -> EpochStore:
        return range_store(os.path.join(self.state_dir, range_dir_name(range_index)))

    def _fold_ready(self) -> None:
        # Spec order is the fold order: range k folds only after every
        # range before it — that is what makes the reservoirs (keyed on
        # the global fold count) byte-identical to one machine.
        while self._folded_upto < len(self.ranges):
            r = self._folded_upto
            if r not in self._done:
                return
            self._fold_range(r)

    def _fold_range(self, range_index: int) -> None:
        assert self._agg is not None and self._ledger is not None
        epoch = self._done[range_index]
        store = self._range(range_index)
        submission = read_snapshot(store.snapshot_path(epoch))
        error = self._submission_error(submission, range_index, epoch)
        if error:
            raise SubmissionMismatch(f"range {range_index}: {error}")
        start, stop = self.ranges[range_index]
        _fold_range_results(self._agg, store.directory, start, stop, f"range {range_index}")
        self._ledger.append({"kind": "folded", "range": range_index}, sync=True)
        self._folded_upto = range_index + 1
        self.stats["ranges_folded"] += 1
        logger.info(
            "folded range %d (homes [%d, %d), epoch %d)",
            range_index, start, stop, epoch,
        )
        self._write_snapshot()
        if self._kill_after and self.stats["ranges_folded"] >= self._kill_after:
            # Deterministic coordinator-crash injection for resume
            # smoke tests: die the hard way, mid-protocol.
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover

    def _write_snapshot(self) -> None:
        assert self._agg is not None
        write_snapshot(
            self._snapshots.snapshot_path(self._folded_upto),
            {
                "spec_digest": self._header["spec_digest"],
                "folded_upto": self._folded_upto,
                "agg": self._agg.to_state(),
            },
        )
        self._snapshots.prune(self._folded_upto)

    def _submission_error(
        self, submission: Optional[Dict[str, object]], range_index: int, epoch: int
    ) -> Optional[str]:
        if submission is None:
            return "submission file missing or corrupt"
        try:
            if submission["format"] != FLEET_STATE_FORMAT:
                return f"unsupported submission format {submission['format']!r}"
            start, stop = self.ranges[range_index]
            checks = (
                ("range_index", range_index),
                ("start", start),
                ("stop", stop),
                ("epoch", epoch),
                ("n_results", stop - start),
            )
            for key, expected in checks:
                if int(submission[key]) != expected:
                    return f"{key} is {submission[key]!r}, lease expects {expected}"
            if str(submission["name"]) != str(self._header["name"]):
                return "fleet name mismatch"
            if int(submission["seed"]) != int(self._header["seed"]):
                return "fleet seed mismatch"
            if str(submission["spec_digest"]) != str(self._header["spec_digest"]):
                return "spec digest mismatch"
        except (KeyError, TypeError, ValueError) as error:
            return f"malformed submission ({error})"
        return None

    # -- leases ------------------------------------------------------------------

    def _check_active(self, now: float) -> None:
        for r in sorted(self._active):
            lease = self._active[r]
            store = self._range(r)
            submission = read_snapshot(store.snapshot_path(lease.epoch))
            if submission is not None:
                error = self._submission_error(submission, r, lease.epoch)
                if error is None:
                    self._accept(r, lease)
                else:
                    self._reject(r, lease.epoch, f"malformed: {error}")
                    self._revoke(r, lease, "malformed-submission", now)
                continue
            if lease.proc is not None and lease.proc.poll() is not None:
                self._revoke(
                    r, lease, f"machine-exit rc={lease.proc.returncode}", now
                )
                continue
            alive_t = newest_frame_t(store.path(TELEMETRY_DIR, lease.epoch))
            if lease_expired(lease.granted_at, alive_t, self.lease_timeout_s, now):
                self._revoke(r, lease, "lease-expired", now)

    def _accept(self, range_index: int, lease: _Lease) -> None:
        assert self._ledger is not None
        self._ledger.append(
            {"kind": "done", "range": range_index, "epoch": lease.epoch}, sync=True
        )
        self._done[range_index] = lease.epoch
        del self._active[range_index]
        self._close_handle(lease)
        if lease.proc is not None:
            try:
                lease.proc.wait(timeout=10.0)
            except Exception:  # pragma: no cover - a wedged-but-done machine
                self._terminate(lease.proc)

    def _revoke(self, range_index: int, lease: _Lease, reason: str, now: float) -> None:
        assert self._ledger is not None
        logger.warning(
            "revoking lease on range %d epoch %d: %s", range_index, lease.epoch, reason
        )
        self._ledger.append(
            {
                "kind": "revoke",
                "range": range_index,
                "epoch": lease.epoch,
                "reason": reason,
            },
            sync=True,
        )
        self._revoked.add((range_index, lease.epoch))
        del self._active[range_index]
        self._close_handle(lease)
        if lease.proc is not None and lease.proc.poll() is None:
            # Partition semantics: a machine we cannot hear might still
            # be working. We do not kill it — epoch fencing makes its
            # late output harmless — but we keep the handle to reap it
            # at shutdown.
            self._zombies.append(lease.proc)
        self.stats["re_leases"] += 1
        self._queue[range_index] = now + lease_backoff_s(
            self.source.seed,
            range_index,
            lease.epoch + 1,
            self.lease_backoff_base_s,
            self.lease_backoff_max_s,
        )

    def _reject(self, range_index: int, epoch: int, reason: str) -> None:
        assert self._ledger is not None
        if (range_index, epoch) in self._rejected:
            return
        logger.warning(
            "rejecting submission for range %d epoch %d: %s",
            range_index, epoch, reason,
        )
        self._ledger.append(
            {"kind": "reject", "range": range_index, "epoch": epoch, "reason": reason},
            sync=True,
        )
        self._rejected.add((range_index, epoch))
        self.stats["rejected_submissions"] += 1

    def _scan_submissions(self) -> None:
        """Fence off-protocol submissions: zombies, duplicates, stale epochs."""
        for r in range(len(self.ranges)):
            lease = self._active.get(r)
            revoked_epochs = {e for (rr, e) in self._revoked if rr == r}
            for epoch in self._range(r).snapshot_epochs():
                if (r, epoch) in self._rejected:
                    continue
                if lease is not None and epoch == lease.epoch:
                    continue  # the live candidate, judged in _check_active
                disposition = submission_disposition(
                    epoch,
                    granted_epoch=lease.epoch if lease is not None else None,
                    accepted_epoch=self._done.get(r),
                    revoked_epochs=revoked_epochs,
                )
                if disposition != "accept":
                    self._reject(r, epoch, disposition)

    def _launch(self, now: float) -> None:
        free = self.machines - len(self._active)
        for r in sorted(self._queue):
            if free <= 0:
                return
            if self._queue[r] > now:
                continue
            if r in self._done or r < self._folded_upto:
                del self._queue[r]
                continue
            epoch = self._granted.get(r, 0) + 1
            if epoch > self.max_leases_per_range:
                raise DistribError(
                    f"range {r} exhausted its {self.max_leases_per_range} leases — "
                    "the machine pool looks systematically broken; failing closed"
                )
            self._grant(r, epoch, now)
            del self._queue[r]
            free -= 1

    def _grant(self, range_index: int, epoch: int, now: float) -> None:
        assert self._ledger is not None
        start, stop = self.ranges[range_index]
        store = self._range(range_index)
        range_dir = store.directory
        os.makedirs(range_dir, exist_ok=True)
        payload = {
            "spec": self._spec_copy_path(),
            "spec_digest": self._header["spec_digest"],
            "range_index": range_index,
            "start": start,
            "stop": stop,
            "epoch": epoch,
            "range_dir": range_dir,
            "jobs": self.jobs,
            "backend": self.backend,
            "retries": self.retries,
            "backoff_base_s": self.backoff_base_s,
            "backoff_max_s": self.backoff_max_s,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "machine_seed": machine_seed(self.source.seed, range_index, epoch),
            "state_root": self.state_root,
            "faults": [
                fault.to_dict()
                for fault in self.machine_faults
                if fault.range_index == range_index
            ],
        }
        payload_path = store.path(PAYLOAD_FILE, epoch)
        with open(payload_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        # Write-ahead: the lease is durable before the machine exists,
        # so a coordinator crash here resumes into an orphan lease that
        # simply times out and re-leases.
        self._ledger.append(
            {"kind": "lease", "range": range_index, "epoch": epoch}, sync=True
        )
        self._granted[range_index] = epoch
        env = dict(os.environ)
        env.pop(KILL_AFTER_ENV, None)
        env.pop(KILL_AFTER_RANGES_ENV, None)
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        src_root = os.path.dirname(package_root)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            src_root + os.pathsep + existing if existing else src_root
        )
        log_handle = open(store.path(LOG_FILE, epoch), "ab")
        proc = subprocess.Popen(
            [self.python, "-m", "repro.fleet.distrib", payload_path],
            stdout=log_handle,
            stderr=subprocess.STDOUT,
            env=env,
        )
        self._active[range_index] = _Lease(
            epoch=epoch, proc=proc, granted_at=now, log_handle=log_handle
        )
        self.stats["leases_granted"] += 1
        logger.info(
            "leased range %d (homes [%d, %d)) to machine pid %d, epoch %d",
            range_index, start, stop, proc.pid, epoch,
        )


# -- offline merge ---------------------------------------------------------------


def _expand_range_dirs(paths: Sequence[str]) -> List[str]:
    """Resolve CLI paths to range dirs (a coordinator dir expands)."""
    range_dirs: List[str] = []
    for path in paths:
        store = range_store(path)
        if store.snapshot_epochs() or store.journal_epochs():
            range_dirs.append(path)
            continue
        children = sorted(
            os.path.join(path, name)
            for name in (os.listdir(path) if os.path.isdir(path) else [])
            if name.startswith("range-")
            and os.path.isdir(os.path.join(path, name))
        )
        if not children:
            raise SubmissionMismatch(
                f"{path}: neither a range dir nor a coordinator state dir"
            )
        range_dirs.extend(children)
    return range_dirs


def merge_range_dirs(paths: Sequence[str]) -> FleetReport:
    """Fold finished range dirs offline into one exact fleet report.

    The ``fleet-merge`` backend: give it range dirs (or coordinator
    state dirs, which expand to their ranges) whose newest valid
    submissions tile ``[0, N)`` for one fleet, and it folds them in
    spec order — byte-identical to the run that produced them.  All
    fail-closed: a gap, an overlap, a header mismatch between dirs, or
    an incomplete results log raises :class:`SubmissionMismatch`.
    """

    def known_format(_epoch: int, submission: Dict[str, object]) -> bool:
        return submission.get("format") == FLEET_STATE_FORMAT

    entries: List[Tuple[str, Dict[str, object]]] = []
    for range_dir in _expand_range_dirs(paths):
        _, chosen = range_store(range_dir).newest_snapshot(known_format)
        if chosen is None:
            raise SubmissionMismatch(f"{range_dir}: no valid range submission")
        entries.append((range_dir, chosen))
    if not entries:
        raise SubmissionMismatch("no range dirs to merge")
    entries.sort(key=lambda entry: int(entry[1]["start"]))
    first = entries[0][1]
    agg = FleetAggregator(str(first["name"]), int(first["seed"]))
    expect = 0
    for range_dir, submission in entries:
        for key in ("name", "seed", "spec_digest"):
            if submission[key] != first[key]:
                raise SubmissionMismatch(
                    f"{range_dir}: {key} differs from the other ranges — "
                    "these dirs are not one fleet"
                )
        start, stop = int(submission["start"]), int(submission["stop"])
        if start != expect:
            kind = "gap" if start > expect else "overlap"
            raise SubmissionMismatch(
                f"{range_dir}: range {kind} — starts at {start}, expected {expect}"
            )
        _fold_range_results(agg, range_dir, start, stop, range_dir)
        expect = stop
    return agg.report(n_planned=expect)


if __name__ == "__main__":  # pragma: no cover - subprocess entrypoint
    sys.exit(_machine_main())
