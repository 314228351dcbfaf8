"""FIAT configuration (defaults follow the paper's deployed settings)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net.flows import FlowDefinition
from ..obs import NULL_OBS, Observability

__all__ = ["FiatConfig"]


@dataclass
class FiatConfig:
    """Tunable parameters of a FIAT deployment.

    Defaults mirror the paper: a 20-minute bootstrap (2x the largest
    predictable-flow interval of Fig 1c), the PortLess flow definition
    (superior in Fig 1b), the 5-second event gap (§3.2), features over
    the first 5 packets (§4.1), and a brute-force lockout after repeated
    unauthorized manual events in a short window (§5.4).
    """

    #: Seconds of all-allow learning before enforcement starts.
    bootstrap_s: float = 1200.0
    #: Flow definition used for rules (PortLess deployed by the paper).
    flow_definition: FlowDefinition = FlowDefinition.PORTLESS
    #: IAT quantisation resolution of the bucket heuristic, seconds.
    iat_resolution: float = 0.25
    #: Gap closing an unpredictable event, seconds.
    event_gap_s: float = 5.0
    #: Packets of an unpredictable event allowed through / featurised.
    first_n_packets: int = 5
    #: How long a verified humanness proof authorizes manual traffic, s.
    human_validity_s: float = 60.0
    #: Unauthorized manual events within ``lockout_window_s`` before the
    #: device is disconnected pending manual re-authorization.
    lockout_threshold: int = 3
    lockout_window_s: float = 300.0
    #: Freshness window of the authentication channel, seconds.
    channel_freshness_s: float = 30.0
    #: Drift adaptation (§7): refresh the rule table from the live
    #: predictor every this many seconds (``None`` = freeze at bootstrap,
    #: the paper's prototype behaviour).
    rule_refresh_s: "float | None" = None
    #: Drift adaptation: expire rules unused for this long (``None`` =
    #: never expire).
    rule_ttl_s: "float | None" = None

    # -- resilience: proof retransmission (ack-driven, exponential backoff) --
    #: Initial retransmission timeout of the FIAT app, milliseconds.
    retry_initial_rto_ms: float = 120.0
    #: Multiplicative backoff applied to the RTO after each miss.
    retry_backoff: float = 2.0
    #: Upper bound on the RTO, milliseconds.
    retry_max_rto_ms: float = 1500.0
    #: Maximum uniform jitter added to each backoff step, milliseconds.
    retry_jitter_ms: float = 40.0
    #: Delivery deadline: the app gives up retransmitting a proof this
    #: many milliseconds after the first send.
    retry_deadline_ms: float = 4000.0

    # -- resilience: circuit breakers + degraded-mode policy ------------------
    #: Consecutive component failures before a circuit breaker opens.
    breaker_failure_threshold: int = 3
    #: Seconds an open breaker waits before sending a recovery probe.
    breaker_recovery_s: float = 60.0
    #: Proxy policy while the validation service is down: ``fail-closed``
    #: drops manual events (no unauthenticated manual traffic — the safe
    #: default), ``fail-open`` allows them (availability over security).
    validation_outage_policy: str = "fail-closed"
    #: Proxy policy while a device's classifier is broken and only the
    #: predictability rules remain: ``assume-manual`` treats every
    #: unpredictable event as manual-shaped (requires a humanness proof),
    #: ``allow`` waves unpredictable events through unclassified.
    classifier_fallback: str = "assume-manual"
    #: Hard cap on the validation service's interaction registry.
    max_validated_interactions: int = 4096

    # -- durability: crash-safe state (repro.recovery) ------------------------
    #: Seconds of simulated time between state snapshots when a
    #: :class:`~repro.recovery.RecoveryManager` journals the deployment.
    #: Each snapshot compacts the write-ahead journal (bounded replay).
    snapshot_interval_s: float = 300.0
    #: Whether every journal append is fsync'd to stable storage.  Off by
    #: default: the crash harness models the un-synced tail as journal
    #: corruption/truncation, which recovery must tolerate either way.
    journal_fsync: bool = False

    # -- observability --------------------------------------------------------
    #: Shared :class:`~repro.obs.Observability` handle (metrics registry,
    #: trace-ID minter, optional JSONL audit sink).  ``None`` disables all
    #: instrumentation; enabling it never changes behaviour — the decision
    #: log stays byte-identical either way.
    obs: "Optional[Observability]" = None

    @property
    def observability(self) -> Observability:
        """The configured handle, or the shared disabled one."""
        return self.obs if self.obs is not None else NULL_OBS

    def __post_init__(self) -> None:
        if self.validation_outage_policy not in ("fail-closed", "fail-open"):
            raise ValueError(
                f"validation_outage_policy must be 'fail-closed' or 'fail-open', "
                f"got {self.validation_outage_policy!r}"
            )
        if self.classifier_fallback not in ("assume-manual", "allow"):
            raise ValueError(
                f"classifier_fallback must be 'assume-manual' or 'allow', "
                f"got {self.classifier_fallback!r}"
            )
        if self.snapshot_interval_s <= 0:
            raise ValueError("snapshot_interval_s must be positive")
