"""Authenticated fast channel between FIAT's app and IoT proxy (§5.3).

The channel carries *humanness proofs*: the foreground IoT app's
identity plus 48 motion features, signed with the pairing key held in
the phone's TEE.  The proxy end verifies three things before accepting
a proof: the signature (pre-authorized device), freshness (a timestamp
within a small skew window), and non-replay (QUIC 0-RTT replays are
rejected by a :class:`~repro.crypto.replay.ReplayCache`, as the paper
proposes for few-device households).  A signed proof whose body does
not parse, or whose features are not 48 finite numbers, is rejected as
malformed before anything reads its features.
"""

from __future__ import annotations

import json
import logging
import math
import secrets
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..crypto.keystore import SecureKeystore, SignedMessage
from ..crypto.replay import ReplayCache
from ..features.sensor_features import N_SENSOR_FEATURES
from ..obs import NULL_OBS, Observability
from .transport import NetworkPath, Transport, connection_latency

__all__ = ["AuthMessage", "AuthChannel", "ChannelReceiver", "DeliveryResult"]

logger = logging.getLogger(__name__)

#: Maximum accepted age of an authentication message, seconds.
FRESHNESS_WINDOW_S = 30.0


@dataclass(frozen=True)
class AuthMessage:
    """A humanness proof: app identity + sensor features + freshness data."""

    app_package: str
    device_id: str
    sensor_features: Tuple[float, ...]
    sent_at: float
    nonce: str
    #: observability trace ID carried as wire metadata ("" = untraced).
    #: Signed with the rest of the payload, so an attacker cannot
    #: re-attribute a proof to another trace.
    trace_id: str = ""

    def to_payload(self) -> bytes:
        """Serialise for signing."""
        body = {
            "app_package": self.app_package,
            "device_id": self.device_id,
            "sensor_features": list(self.sensor_features),
            "sent_at": self.sent_at,
            "nonce": self.nonce,
            "trace_id": self.trace_id,
        }
        return json.dumps(body, sort_keys=True).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "AuthMessage":
        """Inverse of :meth:`to_payload`.

        Raises :class:`ValueError` unless the sensor features are
        :data:`~repro.features.sensor_features.N_SENSOR_FEATURES` finite
        numbers: the proxy's humanness validator reads exactly that row.
        """
        body = json.loads(payload.decode("utf-8"))
        features = tuple(map(float, body["sensor_features"]))
        if len(features) != N_SENSOR_FEATURES or not all(map(math.isfinite, features)):
            raise ValueError(
                f"sensor features must be {N_SENSOR_FEATURES} finite numbers"
            )
        return cls(
            app_package=str(body["app_package"]),
            device_id=str(body["device_id"]),
            sensor_features=features,
            sent_at=float(body["sent_at"]),
            nonce=str(body["nonce"]),
            trace_id=str(body.get("trace_id", "")),
        )


@dataclass(frozen=True)
class DeliveryResult:
    """Outcome of a channel send: the wire bytes and delivery latency."""

    wire: bytes
    latency_ms: float


class AuthChannel:
    """Phone-side sender: signs and "transmits" authentication messages."""

    def __init__(
        self,
        keystore: SecureKeystore,
        key_alias: str,
        device_id: str,
        path: NetworkPath,
        transport: Transport = Transport.QUIC_0RTT,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.keystore = keystore
        self.key_alias = key_alias
        self.device_id = device_id
        self.path = path
        self.transport = transport
        self._rng = rng if rng is not None else np.random.default_rng()

    def prepare(
        self,
        app_package: str,
        sensor_features: Sequence[float],
        now: float,
        trace_id: str = "",
    ) -> bytes:
        """Sign a humanness proof without transmitting it.

        Used by the reliable sender, which retransmits the same signed
        wire bytes (same nonce) until the proxy acknowledges: a copy
        arriving after the original registered is absorbed by the replay
        cache instead of double-counting the interaction.  ``trace_id``
        rides inside the signed payload so the receiving side can link
        the proof back to its sender-side trace.
        """
        message = AuthMessage(
            app_package=app_package,
            device_id=self.device_id,
            sensor_features=tuple(float(v) for v in sensor_features),
            sent_at=now,
            nonce=secrets.token_hex(12),
            trace_id=trace_id,
        )
        return self.keystore.sign(self.key_alias, message.to_payload()).to_wire()

    def sample_latency(self) -> float:
        """Draw one connection latency for the configured transport/path."""
        return connection_latency(self.transport, self.path, self._rng)

    def send(
        self,
        app_package: str,
        sensor_features: Sequence[float],
        now: float,
        trace_id: str = "",
    ) -> DeliveryResult:
        """Sign a humanness proof and deliver it over the modelled path."""
        wire = self.prepare(app_package, sensor_features, now, trace_id=trace_id)
        return DeliveryResult(wire=wire, latency_ms=self.sample_latency())


class ChannelReceiver:
    """Proxy-side receiver: verifies signature, freshness and non-replay."""

    def __init__(
        self,
        keystore: SecureKeystore,
        replay_cache: Optional[ReplayCache] = None,
        freshness_window_s: float = FRESHNESS_WINDOW_S,
        obs: Optional[Observability] = None,
    ) -> None:
        self.keystore = keystore
        self.replay_cache = replay_cache if replay_cache is not None else ReplayCache()
        self.freshness_window_s = freshness_window_s
        self.obs = obs if obs is not None else NULL_OBS
        self.rejections: List[str] = []

    def _reject(self, reason: str, now: float, trace_id: str = "") -> None:
        self.rejections.append(reason)
        logger.debug("auth message rejected (%s) at t=%.3f", reason, now)
        self.obs.inc("auth_rejections_total", reason=reason)
        self.obs.emit("channel.reject", t=now, trace=trace_id, reason=reason)

    def receive(self, wire: bytes, now: float) -> Optional[AuthMessage]:
        """Verify an incoming proof; return it if acceptable, else ``None``.

        Rejection reasons (recorded in :attr:`rejections`):
        ``malformed`` (undecodable wire bytes, or a signed payload whose
        body cannot be parsed or whose sensor features are not 48 finite
        numbers), ``bad-signature`` (unauthorized device
        or tampering), ``stale`` (outside the freshness window) and
        ``replay``.
        """
        try:
            signed = SignedMessage.from_wire(wire)
        except (ValueError, KeyError):
            self._reject("malformed", now)
            return None
        if not self.keystore.verify(signed):
            self._reject("bad-signature", now)
            return None
        try:
            message = AuthMessage.from_payload(signed.payload)
        except (KeyError, ValueError, TypeError):
            # Signed but malformed: a buggy (or hostile) app shipped a
            # payload missing a key or carrying features that are not 48
            # finite numbers.  Rejected here, such a proof never reaches
            # the validator, so it cannot count as a service failure.
            self._reject("malformed", now)
            return None
        if not (now - self.freshness_window_s <= message.sent_at <= now + 1.0):
            self._reject("stale", now, message.trace_id)
            return None
        if not self.replay_cache.check_and_register(message.nonce, now):
            # Replays link back to the original proof's trace: the audit
            # stream shows retransmitted copies being absorbed here.
            self._reject("replay", now, message.trace_id)
            return None
        self.obs.inc("auth_accepted_total")
        self.obs.emit("channel.accept", t=now, trace=message.trace_id)
        return message
