"""Deterministic fault schedules for resilience experiments.

The paper's FIAT prototype ran on a real home network where humanness
proofs are lost, delayed, duplicated, corrupted and replayed, and where
individual components (a per-device classifier, the humanness validation
service, the phone's sensors) fail independently of the network.  This
module describes such conditions as *data*: a :class:`FaultPlan` is a
frozen, seeded schedule of channel faults and component outages that the
rest of the system consumes.  Determinism is the point — the same plan
and seed must reproduce byte-identical proxy decision logs, so every
random draw derives from :meth:`FaultPlan.stream`, a label-keyed RNG
factory independent of wall clock and call interleaving across streams.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

__all__ = ["OutageWindow", "CrashWindow", "MachineFault", "FaultPlan"]

#: Component name of the proxy-side humanness validation service.
VALIDATION_COMPONENT = "validation"
#: Component name of the phone's motion sensors.
SENSOR_COMPONENT = "sensor"


def classifier_component(device: str) -> str:
    """Component name of one device's manual-event classifier."""
    return f"classifier:{device}"


@dataclass(frozen=True)
class OutageWindow:
    """A half-open interval ``[start, end)`` during which a component is down.

    ``component`` names what fails: ``"validation"`` (the humanness
    validation service), ``"classifier:<device>"`` (one per-device
    manual-event classifier) or ``"sensor"`` (the phone's motion
    sensors).
    """

    component: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"outage ends before it starts: {self}")

    def covers(self, component: str, t: float) -> bool:
        """Whether ``component`` is down at time ``t`` under this window."""
        return self.component == component and self.start <= t < self.end


@dataclass(frozen=True)
class CrashWindow:
    """One scheduled proxy crash: kill at ``at``, restart after ``downtime_s``.

    Models a power cut or process death of the router running the FIAT
    proxy.  Inputs arriving during ``[at, at + downtime_s)`` are lost
    with the process; on restart the supervisor rebuilds state from the
    snapshot + journal (see :class:`~repro.recovery.RecoveryManager`).
    ``corrupt_tail_bytes`` flips that many bytes at the end of the active
    journal segment, modelling an un-synced page torn by the power cut —
    recovery must discard the corrupted suffix, never trust it.
    """

    at: float
    downtime_s: float = 0.0
    corrupt_tail_bytes: int = 0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"crash time must be non-negative, got {self.at}")
        if self.downtime_s < 0:
            raise ValueError(f"downtime must be non-negative, got {self.downtime_s}")
        if self.corrupt_tail_bytes < 0:
            raise ValueError(
                f"corrupt_tail_bytes must be non-negative, got {self.corrupt_tail_bytes}"
            )

    @property
    def restart_at(self) -> float:
        """Simulated instant the supervisor brings the proxy back."""
        return self.at + self.downtime_s


#: Ways a fleet machine can misbehave (see :class:`MachineFault`).
MACHINE_FAULT_KINDS = ("kill", "stall", "drop")


@dataclass(frozen=True)
class MachineFault:
    """One scheduled failure of a distributed-fleet machine.

    Consumed by :mod:`repro.fleet.distrib`: the machine wrapper arms the
    fault when it holds lease ``epoch`` on range ``range_index`` and
    fires it after logging ``after_homes`` home results this process
    (``after_homes=0`` fires before the first home runs).

    ``kind``
        ``"kill"`` — SIGKILL the machine process (a powered-off box).
        ``"stall"`` — freeze the machine (heartbeats included) for
        ``duration_s`` seconds, then let it keep working as a zombie.
        ``"drop"`` — network partition: the machine keeps working at
        full speed but all its telemetry frames stop reaching the
        coordinator, permanently.  Its submission reaches the
        coordinator only after the coordinator has revoked the lease
        (the machine waits for the revoke record in the ledger), so the
        late submission is a zombie's however fast the homes ran.
    """

    kind: str
    range_index: int
    after_homes: int = 1
    duration_s: float = 8.0
    epoch: int = 1

    def __post_init__(self) -> None:
        if self.kind not in MACHINE_FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {MACHINE_FAULT_KINDS}, got {self.kind!r}"
            )
        if self.range_index < 0:
            raise ValueError(f"range_index must be >= 0, got {self.range_index}")
        if self.after_homes < 0:
            raise ValueError(f"after_homes must be >= 0, got {self.after_homes}")
        if self.duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {self.duration_s}")
        if self.epoch < 1:
            raise ValueError(f"epoch must be >= 1, got {self.epoch}")

    def to_dict(self) -> dict:
        """JSON-safe form for the machine payload file."""
        return {
            "kind": self.kind,
            "range_index": self.range_index,
            "after_homes": self.after_homes,
            "duration_s": self.duration_s,
            "epoch": self.epoch,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MachineFault":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=str(data["kind"]),
            range_index=int(data["range_index"]),
            after_homes=int(data.get("after_homes", 1)),
            duration_s=float(data.get("duration_s", 8.0)),
            epoch=int(data.get("epoch", 1)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of faults to inject.

    Channel faults (applied by :class:`~repro.faults.link.FaultyLink`):

    ``loss_rate``
        Probability an authentication message never arrives.
    ``ack_loss_rate``
        Probability the proxy's acknowledgement is lost even though the
        proof arrived (``None`` = same as ``loss_rate``).  A lost ack
        makes the sender retransmit; the replay cache absorbs the copy.
    ``duplicate_rate``
        Probability the network delivers a second copy (QUIC 0-RTT
        replays, middlebox retransmissions).
    ``corruption_rate``
        Probability a delivered copy has one byte flipped in flight;
        corrupted proofs must be rejected, never crash the receiver.
    ``extra_delay_ms`` / ``delay_jitter_ms``
        Constant plus exponentially-jittered extra one-way delay; jitter
        reorders duplicates relative to their originals.
    ``clock_skew_s``
        Offset of the receiver's clock relative to the sender's; large
        skews push honest proofs outside the freshness window.

    Component faults:

    ``sensor_dropout_rate``
        Probability a genuine human interaction yields a still-phone
        sensor window (sensor service died mid-capture).
    ``outages``
        :class:`OutageWindow` intervals during which a named component
        raises instead of answering.
    """

    seed: int = 0
    loss_rate: float = 0.0
    ack_loss_rate: "float | None" = None
    duplicate_rate: float = 0.0
    corruption_rate: float = 0.0
    extra_delay_ms: float = 0.0
    delay_jitter_ms: float = 0.0
    clock_skew_s: float = 0.0
    sensor_dropout_rate: float = 0.0
    outages: Tuple[OutageWindow, ...] = field(default_factory=tuple)
    #: Scheduled proxy crashes (kill/restart cycles) for the chaos
    #: harness; consumed by :func:`repro.recovery.chaos.chaos_sweep`.
    crashes: Tuple[CrashWindow, ...] = field(default_factory=tuple)
    #: Scheduled distributed-fleet machine failures; consumed by the
    #: :mod:`repro.fleet.distrib` machine wrapper.
    machine_faults: Tuple[MachineFault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in ("loss_rate", "duplicate_rate", "corruption_rate", "sensor_dropout_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if self.ack_loss_rate is not None and not 0.0 <= self.ack_loss_rate <= 1.0:
            raise ValueError(f"ack_loss_rate must be within [0, 1], got {self.ack_loss_rate}")
        if self.extra_delay_ms < 0 or self.delay_jitter_ms < 0:
            raise ValueError("delays must be non-negative")
        # Tolerate lists passed for ``outages`` / ``crashes``.
        if not isinstance(self.outages, tuple):
            object.__setattr__(self, "outages", tuple(self.outages))
        if not isinstance(self.crashes, tuple):
            object.__setattr__(self, "crashes", tuple(self.crashes))
        if not isinstance(self.machine_faults, tuple):
            object.__setattr__(self, "machine_faults", tuple(self.machine_faults))

    @property
    def effective_ack_loss_rate(self) -> float:
        """Ack loss rate, defaulting to the forward loss rate."""
        return self.loss_rate if self.ack_loss_rate is None else self.ack_loss_rate

    def stream(self, label: str) -> np.random.Generator:
        """A deterministic RNG for one named consumer of this plan.

        Keyed by ``(seed, crc32(label))`` so independent subsystems
        (link draws, sensor dropout, ...) never perturb each other's
        schedules regardless of call order between them.
        """
        return np.random.default_rng([self.seed, zlib.crc32(label.encode("utf-8"))])

    def is_down(self, component: str, t: float) -> bool:
        """Whether ``component`` is inside any outage window at ``t``."""
        return any(o.covers(component, t) for o in self.outages)

    def outages_for(self, component: str) -> Tuple[OutageWindow, ...]:
        """All outage windows scheduled for one component."""
        return tuple(o for o in self.outages if o.component == component)
