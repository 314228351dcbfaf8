"""Fleet telemetry plane: live progress frames and the run monitor.

A checkpointed fleet run can execute for hours; until this module the
only signal it produced was the final report.  Telemetry makes the run
observable *while it executes* without touching the determinism
contract: every frame is out-of-band (wall-clock timestamps and
latencies live here and only here — the fleet report stays
byte-identical with telemetry on or off).

Layout, under ``<state_dir>/telemetry/``:

``run.jsonl``
    The runner's channel: one ``run-start`` frame per (re)start, a
    ``progress`` frame after every folded home, and a ``final`` frame
    on clean completion *or* signal interrupt (so ``--watch`` shows the
    partial-coverage state instead of appearing hung).  A ``SIGKILL``
    leaves no final frame — the monitor reports the run as *stale*
    once frames stop ageing, which is exactly the truth.
``worker-<pid>.jsonl``
    One file per worker process: ``home-start`` / ``home-end`` frames
    with per-phase wall-clock timings.  Files are per-pid so appends
    never interleave across processes.

A distributed run (:mod:`repro.fleet.distrib`) keeps one such dir per
range and lease epoch, ``range-NNNN/telemetry-NNNN/``, where the machine
wrapper adds ``machine.jsonl``: a ``machine-start`` frame (the range's
size and the tally of the homes earlier epochs covered) and periodic
heartbeats.

Every frame is CRC32-framed JSONL, written through
:class:`repro.recovery.journal.JournalWriter` — the same discipline as
the checkpoint journal: a reader never trusts a torn tail, and a
half-written frame from a live writer is simply not visible yet.
:class:`FleetMonitor` folds each watched dir (:func:`fold_frames`),
merges the parts (:func:`merge_monitor_snapshots`) into
progress/rate/ETA/per-phase digests/slowest-shard attribution, and
renders the ``fiat-repro fleet --watch`` / ``fleet-top`` dashboard.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..recovery.journal import JournalWriter, read_journal

__all__ = [
    "TELEMETRY_DIRNAME",
    "RUN_CHANNEL",
    "TelemetryWriter",
    "emit_worker_frame",
    "read_frames",
    "load_frames",
    "MonitorSnapshot",
    "PhaseDigest",
    "fold_frames",
    "merge_monitor_snapshots",
    "FleetMonitor",
    "telemetry_dir_for",
    "telemetry_dirs",
]

logger = logging.getLogger(__name__)

#: Subdirectory of a fleet state dir holding the telemetry channels.
TELEMETRY_DIRNAME = "telemetry"

#: The runner's own channel file name.
RUN_CHANNEL = "run.jsonl"

#: A running fleet emits at least one frame per folded home; a channel
#: this quiet for this long (and no ``final`` frame) means the process
#: is gone or wedged.
STALE_AFTER_S = 30.0

#: Slowest homes surfaced by the dashboard.
SLOWEST_ROWS = 5

#: Home counts a distributed machine carries over from earlier lease
#: epochs of its range (its ``machine-start`` frame) and adds to what
#: its own runner reports.
CARRIED_COUNTS = ("completed", "ok", "failed", "quarantined")


def telemetry_dir_for(state_dir: str) -> str:
    """The telemetry directory of a fleet state dir."""
    return os.path.join(state_dir, TELEMETRY_DIRNAME)


def telemetry_dirs(path: str) -> List[str]:
    """The telemetry dirs a monitor pointed at ``path`` watches right now.

    A telemetry dir itself (``telemetry`` or a distributed machine's
    epoch-suffixed ``telemetry-NNNN``) is watched as is; a coordinator
    dir (one holding the coordinator ledger) gives the newest-epoch
    telemetry dir of each of its ranges; any other path is a
    single-machine state dir and gives ``<path>/telemetry``.
    """
    # Late import: the coordinator module writes through this one.
    from .distrib import LEDGER_NAME, machine_telemetry_dirs

    base = os.path.basename(path.rstrip(os.sep))
    if base == TELEMETRY_DIRNAME or base.startswith(TELEMETRY_DIRNAME + "-"):
        return [path]
    if os.path.exists(os.path.join(path, LEDGER_NAME)):
        return machine_telemetry_dirs(path)
    return [telemetry_dir_for(path)]


def _stamped(kind: str, fields: Dict[str, object]) -> Dict[str, object]:
    """One frame: its kind and fields, stamped with wall time and pid."""
    return {"kind": kind, "t": time.time(), "pid": os.getpid(), **fields}


class TelemetryWriter(JournalWriter):
    """Append CRC-framed telemetry frames to one channel file.

    A :class:`~repro.recovery.journal.JournalWriter` on
    ``<directory>/<channel>``: it holds the handle open (the runner
    emits one frame per folded home) and flushes every frame, so a
    tailing monitor in another process sees it at once.  Telemetry is
    advisory — it is never fsynced and a lost tail costs nothing but a
    momentarily stale dashboard.
    """

    def __init__(self, directory: str, channel: str = RUN_CHANNEL) -> None:
        os.makedirs(directory, exist_ok=True)
        super().__init__(os.path.join(directory, channel))

    def emit(self, kind: str, **fields: object) -> None:
        """Append one frame (stamped with wall time and pid).

        A no-op once closed: a machine's heartbeat thread may beat once
        more while the machine shuts its channel.
        """
        if self._handle is not None:
            self.append(_stamped(kind, fields))


def emit_worker_frame(directory: str, kind: str, **fields: object) -> None:
    """Append one frame to this process's worker channel.

    Open-append-close per frame: a pool worker runs many homes over its
    lifetime and must never hold a handle hostage across them (the
    runner kills abandoned workers on timeout).  Each pid owns its file,
    so frames never interleave.
    """
    with TelemetryWriter(directory, f"worker-{os.getpid()}.jsonl") as channel:
        channel.append(_stamped(kind, fields))


def read_frames(path: str) -> List[Dict[str, object]]:
    """Every valid frame of one channel (torn tails tolerated).

    A frame mid-write by a live producer fails its CRC or lacks its
    newline and simply ends the readable prefix — the next poll sees it
    complete.
    """
    return read_journal(path).records


def load_frames(directory: str) -> List[Dict[str, object]]:
    """All frames of every channel in a telemetry dir, oldest first.

    Stable order: sorted by wall timestamp, ties broken by channel name
    and in-file position so repeated polls of quiescent files agree.

    Robust against a live, possibly dying producer: a directory (or
    channel file) that disappears between the listing and the read, or
    an entry that turns out not to be a readable file, is skipped with
    a warning — a monitor poll must never traceback because the thing
    it watches is being torn down.
    """
    stamped: List[Tuple[float, str, int, Dict[str, object]]] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        # Not a directory, vanished mid-watch, or never created yet —
        # all read as "no frames", which is the truth for a monitor.
        return []
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        path = os.path.join(directory, name)
        try:
            frames = read_frames(path)
        except OSError as error:
            logger.warning(
                "telemetry channel %s unreadable (%s); skipping", path, error
            )
            continue
        for position, frame in enumerate(frames):
            stamped.append((float(frame.get("t", 0.0)), name, position, frame))
    stamped.sort(key=lambda item: (item[0], item[1], item[2]))
    return [frame for _, _, _, frame in stamped]


@dataclass
class PhaseDigest:
    """Latency digest of one worker phase across completed homes."""

    n: int = 0
    total_s: float = 0.0
    max_s: float = 0.0
    samples: List[float] = field(default_factory=list)

    def add(self, seconds: float) -> None:
        self.n += 1
        self.total_s += seconds
        self.max_s = max(self.max_s, seconds)
        self.samples.append(seconds)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.n if self.n else 0.0

    @property
    def p95_s(self) -> float:
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


@dataclass
class MonitorSnapshot:
    """Everything the dashboard needs, reconstructed from the frames."""

    #: "idle" | "running" | "stale" | "interrupted" | "done"
    status: str = "idle"
    fleet: str = ""
    backend: str = ""
    jobs: int = 0
    planned: Optional[int] = None
    #: homes folded into the aggregate (includes resumed prefix)
    completed: int = 0
    ok: int = 0
    failed: int = 0
    retries: int = 0
    quarantined: int = 0
    #: homes folded by prior (resumed-from) runs or earlier lease epochs
    resumed_from: int = 0
    homes_per_sec: float = 0.0
    elapsed_s: float = 0.0
    eta_s: Optional[float] = None
    #: seconds since the newest frame (None when there are no frames)
    age_s: Optional[float] = None
    n_frames: int = 0
    n_runs: int = 0
    phases: Dict[str, PhaseDigest] = field(default_factory=dict)
    #: ``(home_id, total_s, dominant phase)`` — the attribution rows
    slowest: List[Tuple[str, float, str]] = field(default_factory=list)
    #: homes started but not yet finished: ``(home_id, pid, started_at)``
    in_flight: List[Tuple[str, int, float]] = field(default_factory=list)

    @property
    def fraction_done(self) -> Optional[float]:
        if self.planned:
            return self.completed / self.planned
        return None


def _format_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def _eta(snapshot: MonitorSnapshot) -> Optional[float]:
    """Seconds to go at the current rate, for a run still under way."""
    if (
        snapshot.status in ("running", "stale")
        and snapshot.planned is not None
        and snapshot.homes_per_sec > 0
    ):
        return (snapshot.planned - snapshot.completed) / snapshot.homes_per_sec
    return None


def _earlier_epoch_dirs(directory: str) -> List[str]:
    """Telemetry dirs of the earlier lease epochs of a machine's range.

    ``directory`` is one epoch's ``telemetry-NNNN``; its siblings with a
    smaller epoch number are returned, newest first.  Any other dir has
    none.
    """
    parent, name = os.path.split(os.path.normpath(directory))
    stem = name[len(TELEMETRY_DIRNAME) + 1 :]
    if not name.startswith(TELEMETRY_DIRNAME + "-") or not stem.isdecimal():
        return []
    # Late import: the coordinator module writes through this one.
    from .distrib import TELEMETRY_DIR, range_store

    store = range_store(parent)
    return [
        store.path(TELEMETRY_DIR, epoch)
        for epoch in reversed(store.epochs(TELEMETRY_DIR))
        if epoch < int(stem)
    ]


def _carried_home_ends(
    directory: str, frames: Sequence[Dict[str, object]]
) -> List[Dict[str, object]]:
    """``home-end`` frames of earlier lease epochs, for homes not rerun since.

    Their counts are already in the ``machine-start`` tally; these
    frames add only their per-phase timings.  A home that ended in more
    than one epoch keeps the newest epoch's frames.
    """
    ended = {str(f.get("home", "")) for f in frames if f.get("kind") == "home-end"}
    carried: List[Dict[str, object]] = []
    for older in _earlier_epoch_dirs(directory):
        ends = [
            frame
            for frame in load_frames(older)
            if frame.get("kind") == "home-end" and str(frame.get("home", "")) not in ended
        ]
        ended.update(str(frame.get("home", "")) for frame in ends)
        carried = ends + carried
    return carried


def _fold_home_end(
    snapshot: MonitorSnapshot,
    frame: Dict[str, object],
    finished: List[Tuple[str, float, str]],
) -> None:
    """Add one ``home-end`` frame's phase timings to the digests."""
    phases = frame.get("phases")
    if not isinstance(phases, dict):
        return
    summed = 0.0
    dominant, dominant_s = "", -1.0
    for phase, seconds in sorted(phases.items()):
        seconds = float(seconds)
        snapshot.phases.setdefault(str(phase), PhaseDigest()).add(seconds)
        if phase == "total":  # the sum, not a phase
            continue
        summed += seconds
        if seconds > dominant_s:
            dominant, dominant_s = str(phase), seconds
    total = float(phases.get("total", summed) or summed)
    finished.append((str(frame.get("home", "")), total, dominant))


def fold_frames(
    directory: str, now: float, stale_after_s: float = STALE_AFTER_S
) -> MonitorSnapshot:
    """Fold every frame of one telemetry dir into a snapshot.

    A distributed machine's ``machine-start`` frame gives its range's
    size and the tally of the homes earlier lease epochs covered; the
    epoch's runner then counts only the rest of the range, so its
    counts are added to that tally.  The phase digests and slowest rows
    also take the ``home-end`` timings of those earlier epochs.
    """
    frames = load_frames(directory)
    snapshot = MonitorSnapshot(n_frames=len(frames))
    if not frames:
        return snapshot

    carried = dict.fromkeys(CARRIED_COUNTS, 0)
    open_homes: Dict[Tuple[int, str], float] = {}
    finished: List[Tuple[str, float, str]] = []
    for frame in _carried_home_ends(directory, frames):
        _fold_home_end(snapshot, frame, finished)
    newest_t = 0.0
    for frame in frames:
        kind = frame.get("kind")
        stamp = float(frame.get("t", 0.0))
        newest_t = max(newest_t, stamp)
        if kind == "machine-start":
            for name in CARRIED_COUNTS:
                carried[name] = int(frame.get(name, 0))
                setattr(snapshot, name, carried[name])
            snapshot.resumed_from = snapshot.completed
            snapshot.planned = int(frame.get("planned", snapshot.completed))
            snapshot.status = (
                "running" if snapshot.completed < snapshot.planned else "done"
            )
        elif kind == "run-start":
            snapshot.n_runs += 1
            snapshot.status = "running"
            snapshot.fleet = str(frame.get("fleet", snapshot.fleet))
            snapshot.backend = str(frame.get("backend", snapshot.backend))
            snapshot.jobs = int(frame.get("jobs", snapshot.jobs) or 0)
            planned = frame.get("planned")
            snapshot.planned = (
                carried["completed"] + int(planned) if planned is not None else None
            )
            snapshot.resumed_from = carried["completed"] + int(frame.get("resumed", 0) or 0)
            snapshot.completed = snapshot.resumed_from
        elif kind == "progress":
            snapshot.status = "running"
            for name in CARRIED_COUNTS:
                ran = int(frame.get(name, getattr(snapshot, name) - carried[name]))
                setattr(snapshot, name, carried[name] + ran)
            snapshot.retries = int(frame.get("retries", snapshot.retries))
            snapshot.elapsed_s = float(frame.get("elapsed_s", snapshot.elapsed_s))
            snapshot.homes_per_sec = float(
                frame.get("homes_per_sec", snapshot.homes_per_sec)
            )
        elif kind == "final":
            snapshot.status = (
                "interrupted" if frame.get("status") == "interrupted" else "done"
            )
            ran = int(frame.get("completed", snapshot.completed - carried["completed"]))
            snapshot.completed = carried["completed"] + ran
            snapshot.elapsed_s = float(frame.get("elapsed_s", snapshot.elapsed_s))
            open_homes.clear()
        elif kind == "home-start":
            key = (int(frame.get("pid", 0)), str(frame.get("home", "")))
            open_homes[key] = stamp
        elif kind == "home-end":
            key = (int(frame.get("pid", 0)), str(frame.get("home", "")))
            open_homes.pop(key, None)
            _fold_home_end(snapshot, frame, finished)

    snapshot.slowest = sorted(finished, key=lambda row: -row[1])[:SLOWEST_ROWS]
    snapshot.in_flight = sorted(
        ((home, pid, started) for (pid, home), started in open_homes.items()),
        key=lambda row: row[2],
    )
    snapshot.age_s = max(0.0, now - newest_t)
    if snapshot.status == "running" and snapshot.age_s > stale_after_s:
        snapshot.status = "stale"
    snapshot.eta_s = _eta(snapshot)
    return snapshot


def merge_monitor_snapshots(parts: Sequence[MonitorSnapshot]) -> MonitorSnapshot:
    """One fleet-wide snapshot from the snapshots of several telemetry dirs.

    Counts, frames, runs and jobs add up; ``planned`` adds up over the
    parts that know it; elapsed time is the longest part's and the
    frame age the freshest part's.  The rate adds up over the running
    parts, or over every part once none is running.  The status is the
    most urgent one — any stale part makes the fleet stale — and is
    done only when every part is done.  Merging one part gives a
    snapshot equal to it.
    """
    merged = MonitorSnapshot()
    for part in parts:
        merged.completed += part.completed
        merged.ok += part.ok
        merged.failed += part.failed
        merged.retries += part.retries
        merged.quarantined += part.quarantined
        merged.resumed_from += part.resumed_from
        merged.n_frames += part.n_frames
        merged.n_runs += part.n_runs
        merged.jobs += part.jobs
        merged.elapsed_s = max(merged.elapsed_s, part.elapsed_s)
        for phase, digest in part.phases.items():
            target = merged.phases.setdefault(phase, PhaseDigest())
            target.n += digest.n
            target.total_s += digest.total_s
            target.max_s = max(target.max_s, digest.max_s)
            target.samples.extend(digest.samples)
        merged.slowest.extend(part.slowest)
        merged.in_flight.extend(part.in_flight)
    merged.fleet = next((part.fleet for part in parts if part.fleet), "")
    merged.backend = next((part.backend for part in parts if part.backend), "")
    planned = [part.planned for part in parts if part.planned is not None]
    merged.planned = sum(planned) if planned else None
    ages = [part.age_s for part in parts if part.age_s is not None]
    merged.age_s = min(ages) if ages else None
    running = [part for part in parts if part.status == "running"] or parts
    merged.homes_per_sec = sum(part.homes_per_sec for part in running)
    merged.slowest = sorted(merged.slowest, key=lambda row: -row[1])[:SLOWEST_ROWS]
    merged.in_flight.sort(key=lambda row: row[2])
    statuses = {part.status for part in parts}
    urgent = [s for s in ("stale", "running", "interrupted") if s in statuses]
    if urgent:
        merged.status = urgent[0]
    elif "done" in statuses:
        # Some ranges may not have been heard from yet.
        merged.status = "done" if statuses == {"done"} else "running"
    merged.eta_s = _eta(merged)
    return merged


class FleetMonitor:
    """Tail the telemetry of a fleet run and reconstruct its live state.

    Read-only and out-of-process: point it at the state dir of a
    running (or finished, or killed) fleet — single-machine or
    distributed — and :meth:`poll` as often as you like.  Every poll
    re-resolves the watched dirs (:func:`telemetry_dirs`, so a
    distributed dashboard follows re-leases) and re-reads their
    channels from scratch, which at one frame per home stays trivially
    cheap far beyond the fleet sizes a single state dir holds.
    """

    def __init__(self, state_dir: str, stale_after_s: float = STALE_AFTER_S) -> None:
        self.state_dir = state_dir
        self.stale_after_s = stale_after_s
        #: ``(telemetry dir, its snapshot)`` of the last poll
        self.parts: List[Tuple[str, MonitorSnapshot]] = []

    def poll(self, now: Optional[float] = None) -> MonitorSnapshot:
        """Fold every watched dir and merge the per-dir snapshots."""
        now = time.time() if now is None else now
        self.parts = [
            (directory, fold_frames(directory, now, self.stale_after_s))
            for directory in telemetry_dirs(self.state_dir)
        ]
        return merge_monitor_snapshots([part for _, part in self.parts])

    def render(self, snapshot: Optional[MonitorSnapshot] = None) -> str:
        """The text dashboard for one snapshot (polls when not given).

        With more than one watched dir, one row per dir follows.
        """
        snap = self.poll() if snapshot is None else snapshot
        if len(self.parts) == 1:
            title = self.parts[0][0]
        else:
            title = f"{self.state_dir} ({len(self.parts)} telemetry dirs)"
        if snap.status == "idle":
            return (
                f"=== FIAT fleet monitor — {title} ===\n"
                "  (no telemetry frames yet)\n"
            )
        planned = str(snap.planned) if snap.planned is not None else "?"
        percent = (
            f" ({snap.fraction_done * 100:.0f}%)"
            if snap.fraction_done is not None
            else ""
        )
        lines = [
            f"=== FIAT fleet monitor — {title} ===",
            f"  fleet {snap.fleet!r}   status {snap.status.upper()}   "
            f"backend {snap.backend} x{snap.jobs}   runs {snap.n_runs}",
            f"  progress  {snap.completed}/{planned} homes{percent}   "
            f"ok {snap.ok}  failed {snap.failed}  retries {snap.retries}  "
            f"quarantined {snap.quarantined}",
            f"  rate      {snap.homes_per_sec:.2f} homes/s   "
            f"elapsed {_format_duration(snap.elapsed_s)}   "
            f"ETA {_format_duration(snap.eta_s)}",
        ]
        if snap.resumed_from:
            lines.append(
                f"  resumed   {snap.resumed_from} homes carried over from "
                "earlier run(s)"
            )
        if snap.in_flight:
            rows = ", ".join(
                f"{home or '?'} (pid {pid})" for home, pid, _ in snap.in_flight[:6]
            )
            lines.append(f"  in-flight {rows}")
        if snap.phases:
            lines.append(
                f"  {'phase':12s} {'n':>6s} {'mean':>9s} {'p95':>9s} {'max':>9s}"
            )
            for phase, digest in sorted(snap.phases.items()):
                lines.append(
                    f"    {phase:10s} {digest.n:6d} "
                    f"{digest.mean_s * 1000:8.1f}ms "
                    f"{digest.p95_s * 1000:8.1f}ms "
                    f"{digest.max_s * 1000:8.1f}ms"
                )
        if snap.slowest:
            rows = ", ".join(
                f"{home} {_format_duration(total)} ({phase})"
                for home, total, phase in snap.slowest
            )
            lines.append(f"  slowest   {rows}")
        age = f"{snap.age_s:.1f}s" if snap.age_s is not None else "?"
        lines.append(f"  last frame {age} ago ({snap.n_frames} frames)")
        if len(self.parts) > 1:
            for directory, part in self.parts:
                part_age = f"{part.age_s:.1f}s" if part.age_s is not None else "?"
                part_planned = str(part.planned) if part.planned is not None else "?"
                lines.append(
                    f"    {part.status.upper():11s} {part.completed}/{part_planned:4s} "
                    f"last frame {part_age:>7s} ago  {directory}"
                )
        return "\n".join(lines) + "\n"
