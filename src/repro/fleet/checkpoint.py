"""Durable fleet-run progress: a CRC-framed journal plus compacted snapshots.

A fleet run at population scale is hours of work; losing it to a kill
at home 900k of a million is the failure mode the ROADMAP's "fleet at a
million homes" item calls out.  This module makes a run's progress
durable with the same two primitives the crash-safe proxy uses
(:mod:`repro.recovery`):

* **Journal** — one :func:`repro.recovery.journal.frame_record` line
  per completed home: ``(idx, home_id, status, attempts, result
  digest, merged-so-far aggregate epoch)`` plus the full result body,
  appended *after* the result is folded into the running aggregate.
  Appends are flushed to the OS on every record, so a ``SIGKILL`` (the
  process dies, the kernel's page cache does not) never loses an acked
  home; ``fsync=True`` extends the guarantee to power cuts.
* **Snapshot** — every ``snapshot_every`` homes the running
  :class:`~repro.fleet.aggregate.FleetAggregator` state is compacted
  into an atomic checksummed snapshot
  (:func:`repro.recovery.snapshot.write_snapshot`), the journal
  rotates to a fresh segment, and epochs older than the previous one
  are deleted — so both replay time *and* disk stay bounded no matter
  how long the run.  The epoch files are laid out, listed, read back
  and pruned by :class:`~repro.recovery.snapshot.EpochStore`, the same
  store (and the same two-epoch window) proxy recovery uses.

Resume (``FleetRunner(resume=True)``) loads the newest valid snapshot,
replays the journal records after it (CRC-bad frames and torn tails
end the readable prefix, exactly like proxy recovery; the tail is
truncated before new appends), and re-runs only the homes past the
reconstructed prefix.  Every snapshot and journal segment carries the
spec's SHA-256 digest: resuming against a *different* spec raises
:class:`CheckpointMismatch` instead of silently merging populations.
``fiat-repro obs-report <state_dir>`` reads the same prefix through the
same reader, without a spec and without writing.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from ..recovery.journal import JournalWriter, read_journal
from ..recovery.snapshot import EpochStore, write_snapshot
from .aggregate import FleetAggregator
from .worker import HomeResult

__all__ = [
    "FLEET_STATE_FORMAT",
    "CheckpointMismatch",
    "FleetCheckpoint",
    "ResumeState",
    "intact_results",
    "load_latest_aggregate",
    "restore_aggregator",
    "result_digest",
]

logger = logging.getLogger(__name__)

#: Version of every durable fleet file: checkpoint snapshots and journal
#: headers here, the coordinator ledger header and range submissions in
#: :mod:`repro.fleet.distrib`.  Each reader refuses any other version.
#: Bumped whenever the results a state dir holds would no longer match
#: what the current code produces (a change that moves
#: ``tests/golden/fleet.json``): resuming must not mix the two.
FLEET_STATE_FORMAT = 2


class CheckpointMismatch(RuntimeError):
    """A resume was attempted against a checkpoint of a different fleet."""


def result_digest(result_dict: Dict[str, object]) -> str:
    """Stable SHA-256 digest of one home result's canonical encoding."""
    body = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def intact_results(
    records: Iterable[Dict[str, object]], where: str
) -> Iterator[Dict[str, object]]:
    """Yield result records up to the first whose body fails its own digest.

    A record can pass its CRC frame and still not match the digest it
    carries (or miss its ``idx``/``result``/``digest``): that is treated
    like a torn frame, and nothing after it in the segment is trusted
    (fail-closed).  Fleet resume and the distributed results journals
    both read through this check.
    """
    for record in records:
        try:
            int(record["idx"])
            intact = result_digest(record["result"]) == record["digest"]
        except (KeyError, TypeError, ValueError):
            intact = False
        if not intact:
            logger.warning(
                "%s: result digest mismatch at idx %s; discarding the rest of the segment",
                where, record.get("idx"),
            )
            return
        yield record


@dataclass
class ResumeState:
    """What a loaded checkpoint knows: prefix, aggregate, journal tail."""

    #: every home with spec position < ``next_idx`` is already folded
    next_idx: int = 0
    #: aggregator state from the newest valid snapshot (``None`` = none)
    agg_state: Optional[Dict[str, object]] = None
    #: journal ``home`` records newer than the snapshot, in fold order
    records: List[Dict[str, object]] = field(default_factory=list)
    #: epoch whose snapshot seeded ``agg_state`` (0 = journal-only)
    snapshot_epoch: int = 0
    #: the first checkpoint header read (snapshot, else journal)
    header: Optional[Dict[str, object]] = None

    @property
    def empty(self) -> bool:
        """Whether there is nothing to resume from."""
        return self.agg_state is None and not self.records

    def aggregator(self, name: str, seed: int) -> FleetAggregator:
        """The aggregate this state reconstructs: snapshot, then the records."""
        if self.agg_state is None:
            agg = FleetAggregator(name, seed)
        else:
            agg = restore_aggregator(self.agg_state, name, seed)
        for record in self.records:
            agg.add(int(record["idx"]), HomeResult.from_dict(record["result"]))
        return agg


def restore_aggregator(state: Dict[str, object], name: str, seed: int) -> FleetAggregator:
    """:meth:`FleetAggregator.from_state`, refusing another format as a mismatch."""
    try:
        return FleetAggregator.from_state(state, name, seed)
    except ValueError as error:
        raise CheckpointMismatch(
            f"{error} — refusing to resume (start fresh without --resume)"
        ) from None


def _epoch_store(state_dir: str) -> EpochStore:
    return EpochStore(state_dir, "fleet-snapshot-{:08d}.json", "fleet-homes-{:08d}.journal")


def _read_prefix(store: EpochStore, check_header: Callable[[object, str], None]) -> ResumeState:
    """The furthest trustworthy prefix of a state dir, read-only.

    Snapshot selection is fail-soft (a corrupt newest snapshot falls
    back to the previous epoch); every header read goes through
    ``check_header``, which raises on a mismatch.  When snapshots were
    written but none of the retained ones is readable, the folded
    prefix cannot be rebuilt (older journal segments are compacted
    away) and :class:`CheckpointMismatch` is raised.
    """

    def accept(epoch: int, document: Dict[str, object]) -> bool:
        check_header(document.get("header"), f"snapshot epoch {epoch}")
        return True

    state = ResumeState()
    state.snapshot_epoch, document = store.newest_snapshot(accept)
    headers = []
    snapshot_agg_epoch = -1
    if document is not None:
        headers.append(document.get("header"))
        state.agg_state = document["agg"]
        state.next_idx = int(document["next_idx"])
        snapshot_agg_epoch = int(state.agg_state["epoch"])
    elif store.snapshot_epochs():
        raise CheckpointMismatch(
            f"{store.directory}: every retained fleet snapshot is corrupt; "
            "the run cannot be resumed — start fresh without --resume"
        )

    for epoch in store.journal_epochs():
        if epoch < state.snapshot_epoch:
            continue
        read = read_journal(store.journal_path(epoch))
        if read.torn:
            logger.warning(
                "fleet journal epoch %d torn (%s); keeping %d valid bytes",
                epoch, read.torn_reason, read.valid_bytes,
            )
        homes = []
        for record in read.records:
            if record.get("kind") == "header":
                check_header(record.get("header"), f"journal epoch {epoch}")
                headers.append(record.get("header"))
            elif record.get("kind") == "home":
                if int(record.get("agg_epoch", 0)) > snapshot_agg_epoch:
                    homes.append(record)  # else already folded into the snapshot
        state.records.extend(intact_results(homes, f"fleet journal epoch {epoch}"))

    if state.records:
        state.next_idx = max(state.next_idx, max(int(r["idx"]) for r in state.records) + 1)
    state.header = next((h for h in headers if isinstance(h, dict)), None)
    return state


def load_latest_aggregate(state_dir: str) -> FleetAggregator:
    """Read-only view of a fleet state dir's latest aggregate.

    Reads the same prefix a resume would, through the same reader, but
    without the spec, without truncating torn tails, and without taking
    the writer over — safe to call against a *running* fleet.  Used by
    ``fiat-repro obs-report <state-dir>`` to render the merged metrics
    of a checkpointed (possibly in-flight, possibly killed) run.

    Raises ``FileNotFoundError`` when the directory holds no checkpoint
    files, and :class:`CheckpointMismatch` when snapshots exist but
    none of them is readable.
    """
    store = _epoch_store(state_dir)
    if not store.snapshot_epochs() and not store.journal_epochs():
        raise FileNotFoundError(f"{state_dir}: no fleet checkpoint files")
    state = _read_prefix(store, lambda header, where: None)
    header = state.header or {}
    return state.aggregator(str(header.get("name", "fleet")), int(header.get("seed", 0)))


class FleetCheckpoint:
    """Journal + snapshot lifecycle for one fleet run's state dir."""

    def __init__(
        self,
        state_dir: str,
        name: str,
        seed: int,
        spec_digest: str,
        fsync: bool = False,
    ) -> None:
        self.state_dir = state_dir
        self.fsync = fsync
        self.header: Dict[str, object] = {
            "format": FLEET_STATE_FORMAT,
            "name": name,
            "seed": int(seed),
            "spec_digest": spec_digest,
        }
        os.makedirs(state_dir, exist_ok=True)
        self._store = _epoch_store(state_dir)
        self._epoch = 0
        self._writer: Optional[JournalWriter] = None

    @property
    def epoch(self) -> int:
        """Current snapshot/journal epoch."""
        return self._epoch

    # -- lifecycle ---------------------------------------------------------------

    def start_fresh(self) -> None:
        """Begin a brand-new run: wipe any prior checkpoint files."""
        self._store.clear()
        self._epoch = 0
        self._open_writer(truncate_to=None)

    def load(self) -> ResumeState:
        """Reconstruct the furthest trustworthy prefix of a prior run.

        Snapshot selection is fail-soft (a corrupt newest snapshot
        falls back to the previous epoch, like proxy recovery); header
        mismatch is fail-closed (:class:`CheckpointMismatch`) — a
        digest that differs means this state dir belongs to a
        different spec, and "resume" would silently corrupt the
        population.  Journal tails are truncated to their valid prefix
        before the writer reopens for append.
        """
        state = _read_prefix(self._store, self._check_header)
        self._epoch = max([state.snapshot_epoch, *self._store.journal_epochs()])
        # Reopen the newest segment for append, torn tail cut off.
        newest_path = self._store.journal_path(self._epoch)
        if os.path.exists(newest_path):
            read = read_journal(newest_path)
            self._open_writer(truncate_to=read.valid_bytes)
        else:
            self._open_writer(truncate_to=None)
        return state

    # -- appends -----------------------------------------------------------------

    def record_home(
        self,
        idx: int,
        result_dict: Dict[str, object],
        agg_epoch: int,
    ) -> None:
        """Journal one completed home (call *after* folding it)."""
        if self._writer is None:
            raise ValueError("checkpoint is closed (or was never started)")
        self._writer.append(
            {
                "kind": "home",
                "idx": int(idx),
                "home_id": str(result_dict.get("home_id", "")),
                "status": str(result_dict.get("status", "")),
                "attempts": int(result_dict.get("attempts", 1)),
                "digest": result_digest(result_dict),
                "agg_epoch": int(agg_epoch),
                "result": result_dict,
            }
        )

    def compact(self, next_idx: int, agg_state: Dict[str, object]) -> None:
        """Snapshot the running aggregate and rotate the journal.

        Write snapshot ``e+1`` atomically, open journal ``e+1``, then
        delete epochs older than the fallback window — replay cost and
        disk usage stay bounded by ``snapshot_every`` homes regardless
        of run length.
        """
        self._epoch += 1
        write_snapshot(
            self._store.snapshot_path(self._epoch),
            {"header": self.header, "next_idx": int(next_idx), "agg": agg_state},
        )
        self._open_writer(truncate_to=None)
        self._store.prune(self._epoch)

    def close(self) -> None:
        """Flush and close the journal writer (idempotent)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "FleetCheckpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ---------------------------------------------------------------

    def _open_writer(self, truncate_to: Optional[int]) -> None:
        if self._writer is not None:
            self._writer.close()
        path = self._store.journal_path(self._epoch)
        fresh = not os.path.exists(path) or truncate_to == 0
        self._writer = JournalWriter(path, fsync=self.fsync, truncate_to=truncate_to)
        if fresh or self._writer.size_bytes == 0:
            # Every segment self-identifies: resume validates the header
            # even when no snapshot was ever written.
            self._writer.append({"kind": "header", "header": self.header})

    def _check_header(self, header: object, where: str) -> None:
        if not isinstance(header, dict):
            raise CheckpointMismatch(f"{where}: checkpoint header missing")
        for key in ("format", "name", "seed", "spec_digest"):
            if header.get(key) != self.header[key]:
                what = "another state format" if key == "format" else "a different fleet"
                raise CheckpointMismatch(
                    f"{where}: checkpoint {key} {header.get(key)!r} does not match "
                    f"this run's {self.header[key]!r} — refusing to resume "
                    f"{what} (use a fresh --state-dir)"
                )
