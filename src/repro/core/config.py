"""FIAT configuration (defaults follow the paper's deployed settings)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs import NULL_OBS, Observability

__all__ = ["FiatConfig"]


@dataclass
class FiatConfig:
    """The settings a FIAT deployment's callers tune.

    Defaults mirror the paper: a 20-minute bootstrap (2x the largest
    predictable-flow interval of Fig 1c) and a brute-force lockout after
    repeated unauthorized manual events in a short window (§5.4).  The
    paper's other fixed settings are constants in the modules that use
    them: the PortLess flow definition and IAT resolution
    (:class:`~repro.predictability.buckets.BucketPredictor`), the 5-second
    event gap (:data:`~repro.events.grouping.EVENT_GAP_SECONDS`), the
    first-5-packet decision prefix (:data:`~repro.core.classifier.FIRST_N_PACKETS`),
    the validity and freshness windows (:mod:`repro.core.validation`),
    the retry schedule (:class:`~repro.core.client.RetryPolicy`) and the
    breaker threshold (:class:`~repro.faults.breaker.CircuitBreaker`).
    """

    #: Seconds of all-allow learning before enforcement starts.
    bootstrap_s: float = 1200.0
    #: Unauthorized manual events within the lockout window
    #: (:data:`~repro.core.proxy.LOCKOUT_WINDOW_S`) before the device is
    #: disconnected pending manual re-authorization.
    lockout_threshold: int = 3
    #: Drift adaptation (§7): refresh the rule table from the live
    #: predictor every this many seconds (``None`` = freeze at bootstrap,
    #: the paper's prototype behaviour).
    rule_refresh_s: "float | None" = None
    #: Drift adaptation: expire rules unused for this long (``None`` =
    #: never expire).
    rule_ttl_s: "float | None" = None
    #: Seconds an open circuit breaker waits before sending a recovery probe.
    breaker_recovery_s: float = 60.0
    #: Seconds of simulated time between state snapshots when a
    #: :class:`~repro.recovery.RecoveryManager` journals the deployment.
    #: Each snapshot compacts the write-ahead journal (bounded replay).
    snapshot_interval_s: float = 300.0
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
        if self.snapshot_interval_s <= 0:
            raise ValueError("snapshot_interval_s must be positive")
