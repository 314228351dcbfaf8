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

Wire layout (all integers unsigned, floats IEEE-754 float64, little-endian)::

    wire     = format byte 0x01 | HMAC-SHA256 tag (32 B) | alias length (1 B)
               | key alias (UTF-8) | payload                 (SignedMessage)
    payload  = sent_at (f64) | feature count n (1 B) | n features (f64 each)
               | app_package | device_id | nonce | trace_id   (AuthMessage)
    each string = length (1 B) | UTF-8 bytes

float64 round-trips exactly, so the proxy decides on the very features
the phone signed.  Every truncation, flipped bit or stray byte makes the
wire ``malformed`` or ``bad-signature``; nothing past the payload's last
string is allowed.
"""

from __future__ import annotations

import logging
import math
import secrets
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..crypto.keystore import SecureKeystore, SignedMessage
from ..crypto.replay import ReplayCache
from ..features.sensor_features import N_SENSOR_FEATURES
from ..obs import NULL_OBS, Observability
from .transport import NetworkPath, Transport, connection_latency

__all__ = ["AuthMessage", "AuthChannel", "ChannelReceiver"]

logger = logging.getLogger(__name__)

#: Maximum accepted age of an authentication message, seconds.
FRESHNESS_WINDOW_S = 30.0

#: ``sent_at``, the feature count and the features of a 48-feature payload.
_BLOCK = struct.Struct(f"<dB{N_SENSOR_FEATURES}d")
#: What a truncated, mis-sized or mis-encoded wire or payload raises.
_MALFORMED = (ValueError, IndexError, struct.error)


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
        """Serialise for signing (layout in the module docstring)."""
        n = len(self.sensor_features)
        payload = struct.pack(f"<dB{n}d", self.sent_at, n, *self.sensor_features)
        for text in (self.app_package, self.device_id, self.nonce, self.trace_id):
            raw = text.encode("utf-8")
            payload += bytes((len(raw),)) + raw
        return payload

    @classmethod
    def from_payload(cls, payload: bytes) -> "AuthMessage":
        """Inverse of :meth:`to_payload`.

        Raises :class:`ValueError` unless the sensor features are
        :data:`~repro.features.sensor_features.N_SENSOR_FEATURES` finite
        numbers: the proxy's humanness validator reads exactly that row.
        A payload cut short raises :class:`struct.error` or
        :class:`IndexError`, and one with bytes after its last string
        :class:`ValueError`.
        """
        values = _BLOCK.unpack_from(payload)
        features = values[2:]
        if values[1] != N_SENSOR_FEATURES or not all(map(math.isfinite, features)):
            raise ValueError(f"sensor features must be {N_SENSOR_FEATURES} finite numbers")
        strings = []
        at = _BLOCK.size
        for _ in range(4):
            end = at + 1 + payload[at]
            if end > len(payload):
                raise ValueError("string runs past the end of the payload")
            strings.append(payload[at + 1 : end].decode("utf-8"))
            at = end
        if at != len(payload):
            raise ValueError("trailing bytes after the payload")
        app_package, device_id, nonce, trace_id = strings
        return cls(app_package, device_id, features, values[0], nonce, trace_id)


class AuthChannel:
    """Phone-side sender: signs authentication messages and draws their latency."""

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
        """Sign a humanness proof and return its wire bytes.

        The reliable sender retransmits these same bytes (same nonce)
        until the proxy acknowledges: a copy arriving after the original
        registered is absorbed by the replay cache instead of
        double-counting the interaction.  ``trace_id`` rides inside the
        signed payload so the receiving side can link the proof back to
        its sender-side trace.
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
        #: rejected proofs per reason: bounded however many arrive
        self.rejections: Counter[str] = Counter()

    def _reject(self, reason: str, now: float, trace_id: str = "") -> None:
        self.rejections[reason] += 1
        logger.debug("auth message rejected (%s) at t=%.3f", reason, now)
        self.obs.inc("auth_rejections_total", reason=reason)
        self.obs.emit("channel.reject", t=now, trace=trace_id, reason=reason)

    def receive(self, wire: bytes, now: float) -> Optional[AuthMessage]:
        """Verify an incoming proof; return it if acceptable, else ``None``.

        Rejection reasons (counted in :attr:`rejections`):
        ``malformed`` (wire bytes or a signed payload not in the layout
        of the module docstring, or sensor features that are not 48
        finite numbers), ``bad-signature`` (unauthorized device
        or tampering), ``stale`` (outside the freshness window) and
        ``replay``.
        """
        try:
            signed = SignedMessage.from_wire(wire)
        except _MALFORMED:
            self._reject("malformed", now)
            return None
        if not self.keystore.verify(signed):
            self._reject("bad-signature", now)
            return None
        try:
            message = AuthMessage.from_payload(signed.payload)
        except _MALFORMED:
            # Signed but malformed: a buggy (or hostile) app shipped a
            # payload cut short or carrying features that are not 48
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
