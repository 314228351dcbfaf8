"""Supervised crash recovery for the FIAT proxy stack.

:class:`RecoveryManager` makes the proxy's security state durable:

* every externally visible input (packet, authentication wire, manual
  unlock) is appended to a CRC-framed write-ahead journal *before* it is
  applied;
* every ``snapshot_interval_s`` of simulated time the full state
  (``FiatProxy.snapshot()`` + ``HumanValidationService.to_state()``) is
  written as an atomic snapshot and the journal is compacted — once the
  new snapshot is durable, epochs older than the previous one are
  deleted (:class:`~repro.recovery.snapshot.EpochStore`'s two-epoch
  window);
* after a crash, :meth:`recover` builds a fresh proxy stack (via the
  injected factory — code, trained models and TEE keys survive a process
  death on their own), loads the newest valid snapshot (the previous
  epoch's when the newest is corrupt), replays the journal's valid
  prefix through it, truncates any torn tail, and reconciles events left
  open by the crash fail-closed.

Replay is deterministic: the journal holds raw inputs with their
simulated arrival times, and every consumer of randomness in the stack
is seeded, so the same snapshot + journal always reconstructs a
byte-identical decision log — the invariant the chaos harness sweeps.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..net.packet import Packet
from ..obs import NULL_OBS, Observability
from .journal import JournalWriter, read_journal
from .snapshot import EpochStore, write_snapshot

__all__ = ["RecoveryManager", "RecoveryReport"]

logger = logging.getLogger(__name__)

#: Version of the combined stack-state schema written into snapshots.
#: v2: journaled proofs carry the binary wire of
#: :class:`~repro.crypto.keystore.SignedMessage`; a v1 directory holds
#: JSON-envelope wires no receiver decodes, so :meth:`RecoveryManager.recover`
#: refuses it.
STACK_STATE_VERSION = 2


@dataclass
class RecoveryReport:
    """What one :meth:`RecoveryManager.recover` call did."""

    #: epoch whose snapshot seeded the recovered state (0 = cold start)
    snapshot_epoch: int
    #: journal records replayed on top of the snapshot
    n_replayed: int
    #: whether any journal segment ended in a torn/corrupt tail
    torn_tail: bool
    #: simulated time of the last applied record (the recovery horizon —
    #: inputs after this instant were lost with the crash)
    horizon_t: Optional[float]
    #: open events closed fail-closed by reconciliation
    n_reconciled: int
    #: bytes of journal discarded as torn tail
    torn_bytes_discarded: int = 0


class RecoveryManager:
    """Journaled state, periodic snapshots and supervised restart.

    Parameters
    ----------
    state_dir:
        Directory holding ``snapshot-NNNNNN.json`` / ``journal-NNNNNN.jsonl``
        epoch pairs (created if missing).
    factory:
        Zero-argument callable returning a fresh ``(proxy, validation)``
        pair wired exactly like the one being journaled — the restart
        path of the supervisor.  Must be deterministic.
    """

    def __init__(
        self,
        state_dir: str,
        factory: Callable[[], Tuple[object, object]],
        snapshot_interval_s: float = 300.0,
        fsync: bool = False,
        obs: Optional[Observability] = None,
    ) -> None:
        if snapshot_interval_s <= 0:
            raise ValueError("snapshot_interval_s must be positive")
        self.state_dir = state_dir
        self.factory = factory
        self.snapshot_interval_s = snapshot_interval_s
        self.fsync = fsync
        self.obs = obs if obs is not None else NULL_OBS
        os.makedirs(state_dir, exist_ok=True)
        self._store = EpochStore(state_dir, "snapshot-{:06d}.json", "journal-{:06d}.jsonl")
        self._proxy: Optional[object] = None
        self._validation: Optional[object] = None
        self._epoch = 0
        self._writer: Optional[JournalWriter] = None
        self._last_snapshot_t: Optional[float] = None
        self.n_restarts = 0

    # -- attachment / lifecycle ---------------------------------------------------

    @property
    def epoch(self) -> int:
        """Current snapshot/journal epoch (0 until :meth:`start`)."""
        return self._epoch

    @property
    def journal_size_bytes(self) -> int:
        """Size of the active journal segment (0 when not journaling)."""
        return self._writer.size_bytes if self._writer is not None else 0

    def _sync_epoch_to_disk(self) -> None:
        """Raise the epoch counter to the newest on-disk epoch.

        A freshly constructed manager (a real process restart) starts at
        0 regardless of what ``state_dir`` holds.  Rotating from a
        counter *below* the on-disk epochs would leave the stale
        pre-crash snapshot/journal alive — compaction only deletes
        epochs ``<=`` the counter — and a later recovery would restore
        them, silently discarding everything journaled since (including
        the replay cache).  Worse, once the counter caught up the writer
        would append into the old journal file, mixing segments.
        """
        self._epoch = max([self._epoch, *self._on_disk_epochs()])

    def _on_disk_epochs(self) -> Tuple[int, ...]:
        return (*self._store.snapshot_epochs(), *self._store.journal_epochs())

    def start(self, proxy: object, validation: object, now: float = 0.0) -> None:
        """Begin journaling a fresh stack: cut the initial snapshot epoch.

        ``state_dir`` must not already hold recovery state — refusing to
        silently overwrite an existing journal is what makes an
        accidental double-start recoverable.
        """
        if self._on_disk_epochs():
            raise ValueError(
                f"state dir {self.state_dir!r} already holds recovery state; "
                "recover() from it or point at an empty directory"
            )
        self._sync_epoch_to_disk()
        self._proxy = proxy
        self._validation = validation
        self._rotate_epoch(now)

    def close(self) -> None:
        """Flush and close the active journal segment (idempotent)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def simulate_crash(self, corrupt_tail_bytes: int = 0) -> None:
        """Model a process death (chaos harness hook).

        Drops the in-memory attachment without a final snapshot; with
        ``corrupt_tail_bytes > 0`` the last bytes of the active journal
        are flipped, modelling an un-synced page lost by the power cut.
        Bytes already fsync'd to stable storage (see
        :meth:`JournalWriter.append`'s ``sync`` flag) are immune — a
        power cut cannot un-write what the disk acknowledged.
        """
        path = self._store.journal_path(self._epoch)
        synced = self._writer.synced_bytes if self._writer is not None else 0
        self.close()
        self._proxy = None
        self._validation = None
        if corrupt_tail_bytes > 0 and os.path.exists(path):
            size = os.path.getsize(path)
            n = min(corrupt_tail_bytes, max(0, size - synced))
            if n > 0:
                with open(path, "rb+") as handle:
                    handle.seek(size - n)
                    tail = handle.read(n)
                    handle.seek(size - n)
                    handle.write(bytes(b ^ 0xFF for b in tail))

    # -- write-ahead journaling ---------------------------------------------------

    def _append(self, record: Dict[str, object], sync: bool = False) -> None:
        if self._writer is None:
            raise ValueError("RecoveryManager is not journaling; call start() or recover()")
        self._writer.append(record, sync=sync)
        self.obs.inc("recovery_journal_records_total", kind=str(record.get("k", "?")))

    def journal_packet(self, packet: Packet) -> None:
        """Journal one traffic packet ahead of ``proxy.process``."""
        self._append({"k": "pkt", "p": packet.to_dict()})

    def journal_auth(self, wire: bytes, now: float) -> None:
        """Journal one authentication wire ahead of ``proxy.receive_auth``.

        Synced to stable storage before the proxy acts on the proof: a
        consumed proof whose journal record is lost to a torn tail would
        reopen the QUIC 0-RTT replay window after a restart.  Proofs are
        rare (one per human interaction), so the forced fsync stays off
        the per-packet fast path.
        """
        self._append({"k": "auth", "t": now, "w": wire.hex()}, sync=True)

    def journal_unlock(self, device: str, now: float) -> None:
        """Journal a manual device re-authorization ahead of ``proxy.unlock``."""
        self._append({"k": "unlock", "t": now, "d": device})

    @staticmethod
    def _record_time(record: Dict[str, object]) -> Optional[float]:
        if record.get("k") == "pkt":
            return float(record["p"]["timestamp"])  # type: ignore[index]
        t = record.get("t")
        return None if t is None else float(t)

    def _apply(self, proxy: object, record: Dict[str, object]) -> None:
        kind = record.get("k")
        if kind == "pkt":
            proxy.process(Packet.from_dict(record["p"]))  # type: ignore[attr-defined,arg-type]
        elif kind == "auth":
            proxy.receive_auth(  # type: ignore[attr-defined]
                bytes.fromhex(str(record["w"])), float(record["t"])  # type: ignore[arg-type]
            )
        elif kind == "unlock":
            proxy.unlock(str(record["d"]))  # type: ignore[attr-defined]
        else:
            raise ValueError(f"unknown journal record kind: {kind!r}")

    # -- snapshots + compaction ---------------------------------------------------

    def _stack_state(self, now: float) -> Dict[str, object]:
        return {
            "v": STACK_STATE_VERSION,
            "t": now,
            "proxy": self._proxy.snapshot(),  # type: ignore[attr-defined]
            "validation": self._validation.to_state(),  # type: ignore[attr-defined]
        }

    def _rotate_epoch(self, now: float) -> None:
        """Write snapshot-(e+1), open journal-(e+1), delete epoch e-1."""
        self._epoch += 1
        n_bytes = write_snapshot(self._store.snapshot_path(self._epoch), self._stack_state(now))
        self.close()
        self._writer = JournalWriter(self._store.journal_path(self._epoch), fsync=self.fsync)
        self._last_snapshot_t = now
        # Compaction: epoch e stays as the fallback for a corrupt snapshot e+1.
        self._store.prune(self._epoch)
        self.obs.inc("recovery_snapshots_total")
        self.obs.gauge("recovery_snapshot_bytes", float(n_bytes))
        self.obs.gauge("recovery_journal_bytes", 0.0)
        self.obs.emit("recovery.snapshot", t=now, epoch=self._epoch, bytes=n_bytes)

    def maybe_checkpoint(self, now: float) -> bool:
        """Cut a snapshot + compact when the interval elapsed; True if cut."""
        if self._last_snapshot_t is None or now - self._last_snapshot_t >= self.snapshot_interval_s:
            self.checkpoint(now)
            return True
        if self._writer is not None:
            self.obs.gauge("recovery_journal_bytes", float(self._writer.size_bytes))
        return False

    def checkpoint(self, now: float) -> None:
        """Unconditionally snapshot the attached stack and compact."""
        if self._proxy is None:
            raise ValueError("RecoveryManager has no attached stack; call start() or recover()")
        self._rotate_epoch(now)

    # -- recovery -----------------------------------------------------------------

    def recover(
        self, restart_t: Optional[float] = None
    ) -> Tuple[object, object, RecoveryReport]:
        """Rebuild the proxy stack from the newest valid snapshot + journal.

        Returns ``(proxy, validation, report)`` and re-attaches the
        manager to the recovered stack (journaling resumes in a fresh,
        compacted epoch — the torn tail, if any, is truncated away).
        A corrupt snapshot falls back to the previous epoch's snapshot
        plus both journals; with no readable snapshot the journals are
        replayed from a cold start, which is only sound while epoch 1 is
        still on disk — past that, ``ValueError`` (fail-closed: a partial
        replay would forget consumed proofs).  A journal segment's
        corrupt tail ends replay (record order past a bad frame cannot
        be trusted).
        """
        proxy, validation = self.factory()
        self._proxy = proxy
        self._validation = validation
        self._sync_epoch_to_disk()

        def supported(epoch: int, state: Dict[str, object]) -> bool:
            if state.get("v") != STACK_STATE_VERSION:
                raise ValueError(f"unsupported stack state version: {state.get('v')!r}")
            return True

        snapshot_epoch, state = self._store.newest_snapshot(supported)
        on_disk = self._on_disk_epochs()
        if state is None and on_disk and min(on_disk) > 1:
            raise ValueError(
                f"{self.state_dir}: no retained snapshot is readable and epochs "
                f"before {min(on_disk)} were compacted away; the proxy state "
                "cannot be rebuilt"
            )
        horizon_t: Optional[float] = None
        if state is not None:
            proxy.restore(state["proxy"])  # type: ignore[attr-defined,arg-type]
            validation.restore(state["validation"])  # type: ignore[attr-defined,arg-type]
            horizon_t = float(state["t"])  # type: ignore[arg-type]

        n_replayed = 0
        torn = False
        torn_bytes = 0
        for epoch in self._store.journal_epochs():
            if epoch < snapshot_epoch:
                continue
            path = self._store.journal_path(epoch)
            result = read_journal(path)
            for record in result.records:
                self._apply(proxy, record)
                t = self._record_time(record)
                if t is not None:
                    horizon_t = t
                n_replayed += 1
            if result.torn:
                torn = True
                torn_bytes += os.path.getsize(path) - result.valid_bytes
                # The segment stays on disk as the fallback epoch, so it
                # must end where replay ended.
                os.truncate(path, result.valid_bytes)
                logger.warning(
                    "journal epoch %d has a torn tail (%s): %d byte(s) discarded",
                    epoch,
                    result.torn_reason,
                    torn_bytes,
                )
                break  # segments past a corruption cannot be trusted

        # Events left open by the crash close fail-closed: no packet rides
        # through on pre-crash optimism.  Journaling then resumes in a
        # fresh epoch: the recovered state becomes the new snapshot and
        # every stale/torn segment is compacted away.
        checkpoint_t = restart_t if restart_t is not None else (horizon_t or 0.0)
        n_reconciled = proxy.reconcile_after_crash(checkpoint_t)  # type: ignore[attr-defined]
        self._rotate_epoch(checkpoint_t)

        self.n_restarts += 1
        self.obs.inc("recovery_restarts_total")
        self.obs.inc("recovery_replayed_records_total", float(n_replayed))
        if torn:
            self.obs.inc("recovery_torn_tails_total")
        self.obs.emit(
            "recovery.restart",
            t=checkpoint_t,
            snapshot_epoch=snapshot_epoch,
            n_replayed=n_replayed,
            torn_tail=torn,
            n_reconciled=n_reconciled,
        )
        report = RecoveryReport(
            snapshot_epoch=snapshot_epoch,
            n_replayed=n_replayed,
            torn_tail=torn,
            horizon_t=horizon_t,
            n_reconciled=n_reconciled,
            torn_bytes_discarded=torn_bytes,
        )
        return proxy, validation, report
