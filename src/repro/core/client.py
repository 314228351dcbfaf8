"""FIAT's client-side app (paper §5.3) as a simulation model.

The Android service monitors the foreground app via the accessibility
service, samples accelerometer + gyroscope at 250 Hz when an IoT
companion app comes up, extracts the 48 features, signs them with the
TEE-held pairing key (Jetpack security / hardware keystore) and ships
the proof to the IoT proxy over QUIC (Cronet), preferring 0-RTT.

Each step's execution cost is modelled after the Table 7 measurements:
app detection 60-90 ms, a full sensor window ~250 ms (or the 60-80 ms
lazy buffer), secure storage access ~50 ms, and the transport-dependent
connection latency from :mod:`repro.quic.transport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..crypto.keystore import SecureKeystore
from ..faults.link import FaultyLink
from ..features.sensor_features import sensor_features
from ..obs import NULL_OBS, Observability
from ..quic.channel import AuthChannel
from ..quic.transport import NetworkPath, Transport
from ..testbed.phone import ManualInteraction

__all__ = ["AuthAttempt", "RetryPolicy", "ReliableAuthReport", "FiatApp"]


@dataclass
class AuthAttempt:
    """One end-to-end authentication attempt with its latency breakdown."""

    wire: bytes
    sent_at: float
    #: milliseconds per component (Table 7 rows)
    components: Dict[str, float]
    #: observability trace ID of this proof ("" = untraced)
    trace_id: str = ""

    @property
    def time_to_validation_ms(self) -> float:
        """Client-side latency until the proof reaches the proxy.

        Sensor sampling is excluded, as in the paper: with 1-RTT it
        overlaps the handshake; with 0-RTT the app keeps a lazy sensor
        buffer, whose top-up cost is inside ``app_detection``.
        """
        return (
            self.components["app_detection"]
            + self.components["secure_storage"]
            + self.components["transport"]
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Retransmission policy of the FIAT app's reliable proof delivery.

    Acknowledgement-driven: the app retransmits the *same* signed proof
    on an exponentially backed-off, jittered schedule until the proxy
    acknowledges or the delivery deadline passes.
    """

    initial_rto_ms: float = 120.0
    backoff: float = 2.0
    max_rto_ms: float = 1500.0
    jitter_ms: float = 40.0
    deadline_ms: float = 4000.0

    def __post_init__(self) -> None:
        if self.initial_rto_ms <= 0 or self.backoff < 1.0:
            raise ValueError("initial_rto_ms must be > 0 and backoff >= 1")

    @classmethod
    def from_config(cls, config) -> "RetryPolicy":
        """Build from the ``retry_*`` knobs of a :class:`FiatConfig`."""
        return cls(
            initial_rto_ms=config.retry_initial_rto_ms,
            backoff=config.retry_backoff,
            max_rto_ms=config.retry_max_rto_ms,
            jitter_ms=config.retry_jitter_ms,
            deadline_ms=config.retry_deadline_ms,
        )


@dataclass
class ReliableAuthReport:
    """Sender-side outcome of one reliable proof delivery."""

    acked: bool
    n_attempts: int
    first_sent_at: float
    acked_at: Optional[float]
    #: milliseconds per component of the first attempt (Table 7 rows)
    components: Dict[str, float] = field(default_factory=dict)
    #: simulated send time of every (re)transmission
    attempt_times: List[float] = field(default_factory=list)
    #: observability trace ID shared by every retransmission ("" = untraced)
    trace_id: str = ""

    @property
    def time_to_validation_ms(self) -> Optional[float]:
        """Client latency until the proof was acknowledged, or ``None``.

        Includes retransmission delay: app detection + secure storage
        plus the wall time from first send to the accepted arrival.
        """
        if not self.acked or self.acked_at is None:
            return None
        return (
            self.components.get("app_detection", 0.0)
            + self.components.get("secure_storage", 0.0)
            + (self.acked_at - self.first_sent_at) * 1000.0
        )


class FiatApp:
    """Client-side FIAT service bound to one paired phone."""

    def __init__(
        self,
        keystore: SecureKeystore,
        key_alias: str,
        device_id: str,
        path: NetworkPath,
        transport: Transport = Transport.QUIC_0RTT,
        seed: Optional[int] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self._rng = np.random.default_rng(seed)
        self.obs = obs if obs is not None else NULL_OBS
        self.channel = AuthChannel(
            keystore=keystore,
            key_alias=key_alias,
            device_id=device_id,
            path=path,
            transport=transport,
            rng=self._rng,
        )

    def _component_ms(self, mean: float, sd: float) -> float:
        return float(max(0.5, self._rng.normal(mean, sd)))

    def _sign(
        self, interaction: ManualInteraction, now: float, mode: str
    ) -> Tuple[bytes, Dict[str, float], str]:
        """Sign one humanness proof: ``(wire, components, trace_id)``.

        Draws the four on-phone component costs, extracts the 48 sensor
        features on-device (raw motion never leaves the phone
        unprocessed), mints the proof's trace ID and signs once; the
        transport latency is drawn by the caller.
        """
        components = {
            "app_detection": self._component_ms(75.0, 9.0),
            "sensor_sampling": self._component_ms(250.0, 7.0),
            "secure_storage": self._component_ms(50.0, 4.0),
            "ml_validation": self._component_ms(2.3, 0.3),  # runs at the proxy
        }
        features = sensor_features(interaction.sensor_window)
        trace_id = self.obs.mint_trace("proof")
        wire = self.channel.prepare(
            interaction.app_package, features.tolist(), now, trace_id=trace_id
        )
        self.obs.inc("proofs_sent_total", mode=mode)
        self.obs.emit(
            "proof.signed", t=now, trace=trace_id, app_package=interaction.app_package
        )
        return wire, components, trace_id

    def authenticate(self, interaction: ManualInteraction, now: float) -> AuthAttempt:
        """Produce a signed humanness proof for one app interaction.

        Signs once and draws one connection latency for the send.
        """
        wire, components, trace_id = self._sign(interaction, now, "single")
        components["transport"] = self.channel.sample_latency()
        return AuthAttempt(wire=wire, sent_at=now, components=components, trace_id=trace_id)

    def authenticate_reliable(
        self,
        interaction: ManualInteraction,
        now: float,
        link: FaultyLink,
        deliver: Callable[[bytes, float], bool],
        policy: Optional[RetryPolicy] = None,
    ) -> ReliableAuthReport:
        """Deliver a humanness proof over a faulty link with retransmission.

        Signs the proof once and retransmits the identical wire bytes on
        an exponential-backoff + jitter schedule until ``deliver`` (the
        proxy's receive path; ``True`` = registered, i.e. accepted or
        absorbed as an already-registered replay) acknowledges and the
        ack survives the return path, or the delivery deadline passes.
        Every copy the link produces — duplicates included — is handed
        to ``deliver`` at its arrival time.
        """
        policy = policy or RetryPolicy()
        wire, components, trace_id = self._sign(interaction, now, "reliable")

        deadline = now + policy.deadline_ms / 1000.0
        rto_ms = policy.initial_rto_ms
        send_at = now
        attempt_times: List[float] = []
        acked = False
        acked_at: Optional[float] = None
        while True:
            attempt_times.append(send_at)
            self.obs.inc("proof_attempts_total")
            self.obs.emit(
                "proof.attempt",
                t=send_at,
                trace=trace_id,
                attempt=len(attempt_times),
            )
            latency_ms = self.channel.sample_latency()
            if len(attempt_times) == 1:
                components["transport"] = latency_ms
            registered_at: Optional[float] = None
            for copy in link.transmit(wire, send_at, latency_ms=latency_ms):
                if deliver(copy.wire, copy.arrive_at) and registered_at is None:
                    registered_at = copy.arrive_at
            if registered_at is not None and not link.ack_lost():
                acked = True
                acked_at = registered_at
                break
            next_at = send_at + (rto_ms + link.retry_jitter_ms(policy.jitter_ms)) / 1000.0
            rto_ms = min(rto_ms * policy.backoff, policy.max_rto_ms)
            if next_at > deadline:
                break
            send_at = next_at
        report = ReliableAuthReport(
            acked=acked,
            n_attempts=len(attempt_times),
            first_sent_at=now,
            acked_at=acked_at,
            components=components,
            attempt_times=attempt_times,
            trace_id=trace_id,
        )
        if acked:
            self.obs.inc("proofs_acked_total")
            ttv = report.time_to_validation_ms
            if ttv is not None:
                self.obs.observe("proof_ttv_ms", ttv)
            self.obs.emit(
                "proof.acked",
                t=acked_at if acked_at is not None else now,
                trace=trace_id,
                attempts=len(attempt_times),
            )
        else:
            self.obs.inc("proofs_expired_total")
            self.obs.emit(
                "proof.expired", t=deadline, trace=trace_id, attempts=len(attempt_times)
            )
        return report
