"""Proxy-side humanness validation service (paper §5.4).

Receives authentication messages from the FIAT app over the secure
channel, runs the zkSENSE-style humanness classifier on the carried
sensor features, and keeps a short-lived registry of *verified human
interactions* per companion app.  The proxy's access control asks this
service whether a manual event is backed by a fresh human interaction
with the right app on a pre-authorized device.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Dict, List, Optional

from ..crypto.replay import ReplayCache
from ..obs import NULL_OBS, Observability
from ..quic.channel import ChannelReceiver
from ..crypto.keystore import SecureKeystore
from ..sensors.humanness import HumannessValidator

__all__ = ["ValidatedInteraction", "HumanValidationService"]

#: Version of the serialised state schema (see
#: :meth:`HumanValidationService.to_state`).  v2 stores the channel's
#: rejections as per-reason counts; v1 lists load as counts.
_STATE_VERSION = 2


@dataclass(frozen=True)
class ValidatedInteraction:
    """One accepted humanness proof."""

    app_package: str
    device_id: str
    verified_at: float
    human: bool
    #: trace ID carried by the proof's wire message ("" = untraced).
    trace_id: str = ""


class HumanValidationService:
    """Channel receiver + humanness classifier + interaction registry."""

    def __init__(
        self,
        keystore: SecureKeystore,
        validator: Optional[HumannessValidator] = None,
        validity_s: float = 60.0,
        freshness_s: float = 30.0,
        max_interactions: int = 4096,
        obs: Optional[Observability] = None,
    ) -> None:
        if max_interactions < 1:
            raise ValueError("max_interactions must be >= 1")
        self.obs = obs if obs is not None else NULL_OBS
        self.receiver = ChannelReceiver(
            keystore,
            replay_cache=ReplayCache(),
            freshness_window_s=freshness_s,
            obs=self.obs,
        )
        self.validator = validator if validator is not None else HumannessValidator().fit()
        self.validity_s = validity_s
        self.max_interactions = max_interactions
        self._interactions: List[ValidatedInteraction] = []
        self.n_non_human = 0
        self.n_pruned = 0

    def ingest(self, wire: bytes, now: float) -> Optional[ValidatedInteraction]:
        """Process one incoming authentication message.

        Returns the recorded interaction, or ``None`` when the channel
        layer rejected the message (bad signature / stale / replay).
        Messages whose sensor features fail the humanness check are
        recorded with ``human=False`` — they must *not* authorize manual
        traffic, but they still matter for logging (§7: FIAT keeps logs
        of all unpredictable events and validations).
        """
        self.prune(now)
        message = self.receiver.receive(wire, now)
        if message is None:
            self.obs.inc("validations_total", outcome="rejected")
            return None
        if self.obs.enabled:
            t0 = perf_counter()
            human = self.validator.is_human_features(message.sensor_features)
            self.obs.observe(
                "humanness_validation_latency_ms", (perf_counter() - t0) * 1000.0
            )
        else:
            human = self.validator.is_human_features(message.sensor_features)
        if not human:
            self.n_non_human += 1
        self.obs.inc(
            "validations_total",
            outcome="accepted-human" if human else "accepted-non-human",
        )
        interaction = ValidatedInteraction(
            app_package=message.app_package,
            device_id=message.device_id,
            verified_at=now,
            human=human,
            trace_id=message.trace_id,
        )
        self.obs.emit(
            "validation.registered",
            t=now,
            trace=message.trace_id,
            app_package=message.app_package,
            human=human,
        )
        self._interactions.append(interaction)
        if len(self._interactions) > self.max_interactions:
            overflow = len(self._interactions) - self.max_interactions
            del self._interactions[:overflow]
            self.n_pruned += overflow
        return interaction

    @property
    def n_rejected_channel(self) -> int:
        """Proofs the channel rejected, over every reason."""
        return sum(self.receiver.rejections.values())

    def has_recent_human(self, app_package: str, now: float) -> bool:
        """Whether a fresh verified-human interaction exists for the app.

        Only interactions already verified by ``now`` count: a proof
        still in flight (retransmission arriving later) must not
        retroactively authorize an event decided before it landed.
        """
        self.prune(now)
        cutoff = now - self.validity_s
        return any(
            i.human and i.app_package == app_package and cutoff <= i.verified_at <= now
            for i in reversed(self._interactions)
        )

    def recent_human_interaction(
        self, app_package: str, now: float
    ) -> Optional[ValidatedInteraction]:
        """Most recent fresh verified-human interaction for the app, if any.

        Pure read (no pruning, no side effects): used by the proxy's
        observability layer to link a decision back to the proof that
        authorized it without perturbing the registry state that
        :meth:`has_recent_human` already maintains.
        """
        cutoff = now - self.validity_s
        for i in reversed(self._interactions):
            if i.human and i.app_package == app_package and cutoff <= i.verified_at <= now:
                return i
        return None

    # -- durable state ------------------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """Serialise the registry + channel state (versioned, JSON-native).

        Covers the validated-interaction registry, the channel's replay
        cache (the state closing the QUIC 0-RTT replay window) and the
        rejection tallies, per reason, so the state stays bounded however
        many proofs the channel rejects.  The keystore and the trained
        humanness validator are *not* serialised: they live in the TEE
        and on disk respectively and survive a process death on their
        own — only volatile memory needs the journal.
        """
        return {
            "v": _STATE_VERSION,
            "validity_s": self.validity_s,
            "max_interactions": self.max_interactions,
            "interactions": [asdict(i) for i in self._interactions],
            "n_non_human": self.n_non_human,
            "n_pruned": self.n_pruned,
            "receiver": {
                "freshness_window_s": self.receiver.freshness_window_s,
                "rejections": dict(self.receiver.rejections),
                "replay_cache": self.receiver.replay_cache.to_state(),
            },
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Load :meth:`to_state` output into this (freshly built) service.

        A stored ``n_rejected_channel`` tally is ignored: it is the sum
        of the restored per-reason rejections.
        """
        if state.get("v") not in (1, _STATE_VERSION):
            raise ValueError(
                f"unsupported HumanValidationService state version: {state.get('v')!r}"
            )
        self.validity_s = float(state["validity_s"])
        self.max_interactions = int(state["max_interactions"])
        self._interactions = [
            ValidatedInteraction(
                app_package=str(i["app_package"]),
                device_id=str(i["device_id"]),
                verified_at=float(i["verified_at"]),
                human=bool(i["human"]),
                trace_id=str(i.get("trace_id", "")),
            )
            for i in state["interactions"]  # type: ignore[union-attr]
        ]
        self.n_non_human = int(state["n_non_human"])
        self.n_pruned = int(state["n_pruned"])
        receiver_state: Dict[str, object] = state["receiver"]  # type: ignore[assignment]
        self.receiver.freshness_window_s = float(receiver_state["freshness_window_s"])
        rejections = receiver_state["rejections"]
        if state["v"] == 1:  # v1 kept one list entry per rejected proof
            rejections = Counter(rejections)  # type: ignore[arg-type]
        self.receiver.rejections = Counter(
            {str(r): int(n) for r, n in rejections.items()}  # type: ignore[union-attr]
        )
        self.receiver.replay_cache = ReplayCache.from_state(
            receiver_state["replay_cache"]  # type: ignore[arg-type]
        )

    def prune(self, now: float) -> None:
        """Drop interactions older than the validity window.

        Called opportunistically by :meth:`ingest` and
        :meth:`has_recent_human`, so the registry stays bounded by the
        arrival rate within one validity window (plus the
        ``max_interactions`` hard cap against bursts).
        """
        cutoff = now - self.validity_s
        kept = [i for i in self._interactions if i.verified_at >= cutoff]
        self.n_pruned += len(self._interactions) - len(kept)
        self._interactions = kept
