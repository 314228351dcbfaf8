"""Crash/chaos harness: sweep random crash points, assert recovery invariants.

The harness builds one deterministic workload (bootstrap heartbeats that
become allow rules, then manual / automated / attack / control events
with their signed humanness proofs), runs it once uninterrupted as the
baseline, then replays it many times under randomly drawn
:class:`~repro.faults.CrashWindow` schedules — kill the proxy mid-run,
optionally corrupt the journal tail, restart through
:class:`~repro.recovery.RecoveryManager` — and checks, per trial:

* **log equality modulo downtime** — the recovered run's decision log
  equals the uninterrupted run's outside an exclusion window around the
  outage (inputs that arrived while the proxy was dead are gone; events
  interrupted mid-decision are reconciled fail-closed; the first
  heartbeat after restart strays into an unpredictable event because its
  inter-arrival gap spans the outage);
* **no replayed proof accepted post-restart** — re-sending the last
  pre-crash proof wire after recovery must not register a new validated
  interaction (the restored replay cache or the freshness window rejects
  it — either way the QUIC 0-RTT replay window stays closed across the
  crash);
* **deterministic recovery** — periodically, the same crashed trial is
  run twice from scratch and must produce byte-identical decision logs.

The workload is built *once* and shared by every run: proof wires are
signed by the pairing keystore, which models keys living in the TEE —
they survive a process death, so a restarted proxy must verify the same
wires.  Trained models (humanness validator, event classifiers) likewise
persist on disk and are shared; only volatile memory is rebuilt, via the
system's stack factory.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.plan import CrashWindow
from ..net.packet import Direction, Packet, TrafficClass
from .manager import RecoveryManager, RecoveryReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports us)
    from ..core.pipeline import FiatSystem

__all__ = ["ChaosTrial", "ChaosReport", "build_chaos_workload", "chaos_sweep"]

#: Exclusion window padding before the recovery horizon: must cover the
#: longest event that can be open (or torn off the journal tail) when
#: the crash hits, plus the event gap that would have closed it.
PRE_GUARD_S = 45.0
#: Exclusion window padding after restart: covers the stray heartbeat
#: event caused by the downtime-spanning inter-arrival gap.
POST_GUARD_S = 15.0


@dataclass(frozen=True)
class _Op:
    """One timed workload input: a packet, a proof wire, or an unlock."""

    t: float
    kind: str  # "pkt" | "auth" | "unlock"
    packet: Optional[Packet] = None
    wire: bytes = b""
    device: str = ""


@dataclass
class ChaosTrial:
    """Outcome of one randomized crash/restart cycle."""

    index: int
    crash: CrashWindow
    ok: bool
    failure: str = ""
    #: "replay" / "stale" when the post-restart probe was rejected for
    #: that reason, "none" when no proof preceded the crash.
    replay_probe: str = "none"
    n_replayed: int = 0
    snapshot_epoch: int = 0
    torn_tail: bool = False
    n_reconciled: int = 0
    n_compared: int = 0
    n_excluded_baseline: int = 0
    n_excluded_recovered: int = 0
    #: whether the double-run determinism check ran and what it found
    determinism_checked: bool = False
    deterministic: Optional[bool] = None
    #: state dir kept for post-mortem when the trial failed ("" = removed)
    state_dir: str = ""


@dataclass
class ChaosReport:
    """Aggregate result of a crash sweep."""

    n_trials: int
    n_ok: int
    n_corrupted_tail: int
    n_torn_tails_seen: int
    trials: List[ChaosTrial] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every trial upheld every invariant."""
        return self.n_ok == self.n_trials

    def failures(self) -> List[ChaosTrial]:
        """The failing trials, for artifact dumps."""
        return [t for t in self.trials if not t.ok]


# -- workload -------------------------------------------------------------------


def build_chaos_workload(
    system: "FiatSystem",
    duration_s: float = 240.0,
    heartbeat_s: float = 5.0,
    event_spacing_s: float = 40.0,
    seed: int = 0,
) -> List[_Op]:
    """Build the deterministic input schedule shared by every run.

    Each device sends a strictly periodic heartbeat from t=0 (learned
    into an allow rule during bootstrap), then cycles through
    manual-with-proof, automated, attack-with-stolen-proof and control
    events.  Attacks are followed by an unlock, mirroring the §6
    experiment's per-attempt isolation.  Proof wires are signed now, by
    the shared keystore, and delivered as opaque bytes in every run.
    """
    config = system.config
    rng = np.random.default_rng(seed)
    ops: List[_Op] = []

    for i, profile in enumerate(system.profiles):
        t = 0.5 + 0.05 * i
        while t < duration_s:
            ops.append(
                _Op(
                    t=t,
                    kind="pkt",
                    packet=Packet(
                        timestamp=t,
                        size=96 + 16 * i,
                        src_ip=f"192.168.1.{20 + i}",
                        dst_ip=f"172.16.{i}.1",
                        src_port=40000 + i,
                        dst_port=443,
                        protocol="tcp",
                        direction=Direction.OUTBOUND,
                        device=profile.name,
                        traffic_class=TrafficClass.CONTROL,
                    ),
                )
            )
            t += heartbeat_s

    def proof_ops(device: str, when: float, human: bool) -> List[_Op]:
        interaction = system.phone.interact(device, when, human=human)
        attempt = system.app.authenticate(interaction, when)
        arrive = when + attempt.components["transport"] / 1000.0
        return [_Op(t=arrive, kind="auth", wire=attempt.wire, device=device)]

    cycle = ("manual", "automated", "attack", "control")
    t = config.bootstrap_s + 10.0
    k = 0
    while t < duration_s - 20.0:
        profile = system.profiles[k % len(system.profiles)]
        phase = cycle[(k // len(system.profiles)) % len(cycle)]
        if phase == "manual":
            ops.extend(proof_ops(profile.name, t - 0.5, human=True))
            traffic_class = TrafficClass.MANUAL
        elif phase == "attack":
            # Spyware-captured still-phone proof (§5.1's strongest attacker).
            ops.extend(proof_ops(profile.name, t - 0.5, human=False))
            traffic_class = TrafficClass.ATTACK
        else:
            traffic_class = (
                TrafficClass.AUTOMATED if phase == "automated" else TrafficClass.CONTROL
            )
        for packet in system._event_packets(
            profile, traffic_class, t, int(rng.integers(0, 2**31))
        ):
            ops.append(_Op(t=packet.timestamp, kind="pkt", packet=packet))
        if phase == "attack":
            ops.append(_Op(t=t + event_spacing_s / 2.0, kind="unlock", device=profile.name))
        t += event_spacing_s
        k += 1

    ops.sort(key=lambda op: op.t)
    return ops


# -- runs -----------------------------------------------------------------------


def _apply(proxy: object, op: _Op) -> None:
    if op.kind == "pkt":
        proxy.process(op.packet)  # type: ignore[attr-defined]
    elif op.kind == "auth":
        proxy.receive_auth(op.wire, op.t)  # type: ignore[attr-defined]
    elif op.kind == "unlock":
        proxy.unlock(op.device)  # type: ignore[attr-defined]
    else:  # pragma: no cover - _Op construction is local
        raise ValueError(f"unknown op kind {op.kind!r}")


def run_uninterrupted(ops: Sequence[_Op], factory: Callable[[], Tuple[object, object]]):
    """Run the workload on a fresh stack with no crash; return the proxy."""
    proxy, _validation = factory()
    for op in ops:
        _apply(proxy, op)
    proxy.flush()  # type: ignore[attr-defined]
    return proxy


def run_crashed(
    ops: Sequence[_Op],
    factory: Callable[[], Tuple[object, object]],
    state_dir: str,
    crash: CrashWindow,
    snapshot_interval_s: float,
):
    """Run the workload with a journaling manager and one crash/restart.

    Returns ``(proxy, report, probe_outcome)`` where ``probe_outcome``
    is how the post-restart replayed-proof probe was rejected ("replay"
    / "stale" / "none"), or raises ``AssertionError`` when a replayed
    proof registers — the invariant the sweep exists to enforce.
    """
    manager = RecoveryManager(state_dir, factory, snapshot_interval_s=snapshot_interval_s)
    proxy, validation = factory()
    manager.start(proxy, validation, now=0.0)

    crashed = False
    report: Optional[RecoveryReport] = None
    probe = "none"
    last_wire: Optional[bytes] = None
    for op in ops:
        if not crashed and op.t >= crash.at:
            manager.simulate_crash(corrupt_tail_bytes=crash.corrupt_tail_bytes)
            proxy, validation, report = manager.recover(restart_t=crash.restart_at)
            crashed = True
            if last_wire is not None:
                probe = _probe_replay(proxy, validation, last_wire, crash.restart_at)
        if crashed and crash.at <= op.t < crash.restart_at:
            continue  # the input arrived while the proxy was dead
        if op.kind == "pkt":
            manager.journal_packet(op.packet)  # type: ignore[arg-type]
        elif op.kind == "auth":
            manager.journal_auth(op.wire, op.t)
            if not crashed:
                last_wire = op.wire
        else:
            manager.journal_unlock(op.device, op.t)
        _apply(proxy, op)
        manager.maybe_checkpoint(op.t)
    proxy.flush()  # type: ignore[attr-defined]
    manager.close()
    if report is None:
        raise ValueError(f"crash at t={crash.at} fell outside the workload span")
    return proxy, report, probe


def _probe_replay(proxy: object, validation: object, wire: bytes, now: float) -> str:
    """Re-send a pre-crash proof wire post-restart; it must not register."""
    before = validation.receiver.rejections.copy()  # type: ignore[attr-defined]
    if proxy.receive_auth(wire, now) is not None:  # type: ignore[attr-defined]
        raise AssertionError("replayed proof accepted after crash recovery")
    # One call rejects for at most one reason: the count that grew.
    grown = validation.receiver.rejections - before  # type: ignore[attr-defined]
    return next(iter(grown), "rejected")


# -- comparison -----------------------------------------------------------------


def _split_decisions(decisions, lo: float, hi: float, reconciled_ids=frozenset()):
    """Partition decisions into (comparable, excluded) around the outage.

    A decision is excluded when its event *started* inside ``[lo, hi]``
    (``lo`` sits :data:`PRE_GUARD_S` before the recovery horizon, ``hi``
    sits :data:`POST_GUARD_S` after restart — covering inputs lost with
    the process, the torn journal tail, and the stray heartbeat event
    whose inter-arrival gap spans the downtime), or when it belongs to an
    event the recovery reconciled fail-closed: an event can stay open
    arbitrarily long (until its device's next unpredictable packet), so a
    crash can interrupt — and deliberately drop — an event that started
    well before any fixed window.  The same event ids are excluded from
    the baseline so the remaining sequences stay aligned.
    """
    comparable, excluded = [], []
    for d in decisions:
        out = (
            lo <= d.start <= hi
            or (d.degraded is not None and "recovery:fail-closed" in d.degraded)
            or (d.event_id is not None and d.event_id in reconciled_ids)
        )
        (excluded if out else comparable).append(asdict(d))
    return comparable, excluded


# -- the sweep ------------------------------------------------------------------


def chaos_sweep(
    system: "FiatSystem",
    n_trials: int = 50,
    seed: int = 0,
    duration_s: float = 240.0,
    downtime_range: Tuple[float, float] = (1.0, 12.0),
    corrupt_fraction: float = 0.3,
    determinism_every: int = 10,
    state_root: Optional[str] = None,
    keep_failed: bool = True,
) -> ChaosReport:
    """Sweep randomized crash points over one deterministic workload.

    ``corrupt_fraction`` of the trials additionally flip the tail of the
    active journal segment before restart (a torn, un-synced page).
    Every ``determinism_every``-th trial is run twice from scratch and
    must reproduce a byte-identical decision log.  Failing trials keep
    their state directory (journal + snapshots) plus both decision logs
    on disk for post-mortem when ``keep_failed`` is set.

    The ``system``'s config should use a generous ``lockout_threshold``:
    a crash adds at most one stray blocked event between unlocks, which
    must not tip one run (and not the other) over the lockout edge —
    lockouts are sticky and would diverge the logs far past the outage.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    config = system.config
    ops = build_chaos_workload(system, duration_s=duration_s, seed=seed)
    factory = system.build_stack
    baseline = run_uninterrupted(ops, factory)
    baseline_decisions = list(baseline.decisions)

    own_root = state_root is None
    root = state_root or tempfile.mkdtemp(prefix="fiat-chaos-")
    os.makedirs(root, exist_ok=True)
    rng = np.random.default_rng([seed, n_trials])
    span_lo = 10.0
    span_hi = duration_s - 30.0

    trials: List[ChaosTrial] = []
    n_corrupted = 0
    n_torn_seen = 0
    for i in range(n_trials):
        crash_at = float(rng.uniform(span_lo, span_hi))
        downtime = float(rng.uniform(*downtime_range))
        corrupt = int(rng.integers(1, 200)) if rng.random() < corrupt_fraction else 0
        crash = CrashWindow(at=crash_at, downtime_s=downtime, corrupt_tail_bytes=corrupt)
        if corrupt:
            n_corrupted += 1
        trial_dir = os.path.join(root, f"trial-{i:03d}")
        trial = ChaosTrial(index=i, crash=crash, ok=False)
        try:
            proxy, report, probe = run_crashed(
                ops,
                factory,
                os.path.join(trial_dir, "state"),
                crash,
                snapshot_interval_s=config.snapshot_interval_s,
            )
            trial.replay_probe = probe
            trial.n_replayed = report.n_replayed
            trial.snapshot_epoch = report.snapshot_epoch
            trial.torn_tail = report.torn_tail
            trial.n_reconciled = report.n_reconciled
            if report.torn_tail:
                n_torn_seen += 1

            horizon = min(
                report.horizon_t if report.horizon_t is not None else crash.at, crash.at
            )
            lo, hi = horizon - PRE_GUARD_S, crash.restart_at + POST_GUARD_S
            reconciled = [
                d
                for d in proxy.decisions
                if d.degraded is not None and "recovery:fail-closed" in d.degraded
            ]
            for d in reconciled:
                # Reconciliation may only touch events interrupted by THIS
                # crash — a fail-closed drop of anything else is a bug.
                if d.start > crash.at:
                    raise AssertionError(
                        f"fail-closed reconciliation hit an event that started "
                        f"after the crash (start={d.start}, crash at {crash.at})"
                    )
            reconciled_ids = frozenset(
                d.event_id for d in reconciled if d.event_id is not None
            )
            base_cmp, base_excl = _split_decisions(
                baseline_decisions, lo, hi, reconciled_ids
            )
            rec_cmp, rec_excl = _split_decisions(proxy.decisions, lo, hi, reconciled_ids)
            trial.n_compared = len(base_cmp)
            trial.n_excluded_baseline = len(base_excl)
            trial.n_excluded_recovered = len(rec_excl)
            if rec_cmp != base_cmp:
                raise AssertionError(
                    f"decision logs diverge outside the outage window [{lo:.1f}, {hi:.1f}]: "
                    f"{len(base_cmp)} baseline vs {len(rec_cmp)} recovered comparable decisions"
                )

            if determinism_every > 0 and i % determinism_every == 0:
                trial.determinism_checked = True
                proxy2, report2, _probe2 = run_crashed(
                    ops,
                    factory,
                    os.path.join(trial_dir, "state-repeat"),
                    crash,
                    snapshot_interval_s=config.snapshot_interval_s,
                )
                trial.deterministic = (
                    proxy2.decision_log() == proxy.decision_log()
                    and report2.n_replayed == report.n_replayed
                    and report2.snapshot_epoch == report.snapshot_epoch
                )
                if not trial.deterministic:
                    raise AssertionError("same seed + same crash produced different logs")
            trial.ok = True
        except Exception as exc:  # noqa: BLE001 - every failure becomes a trial record
            trial.failure = f"{type(exc).__name__}: {exc}"
            if keep_failed:
                trial.state_dir = trial_dir
                os.makedirs(trial_dir, exist_ok=True)
                with open(os.path.join(trial_dir, "baseline-decisions.json"), "w") as fh:
                    fh.write(baseline.decision_log().decode("utf-8"))
        if trial.ok and os.path.isdir(trial_dir):
            shutil.rmtree(trial_dir, ignore_errors=True)
        trials.append(trial)

    report = ChaosReport(
        n_trials=n_trials,
        n_ok=sum(t.ok for t in trials),
        n_corrupted_tail=n_corrupted,
        n_torn_tails_seen=n_torn_seen,
        trials=trials,
    )
    if own_root and report.ok:
        shutil.rmtree(root, ignore_errors=True)
    return report
