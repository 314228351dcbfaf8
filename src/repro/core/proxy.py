"""FIAT's server-side IoT proxy (paper §5.4, Figure 4).

The proxy sits on-path for all home IoT traffic (ARP spoofing + NFQUEUE
in the paper's prototype; here it is fed packets in timestamp order) and
runs the access-control pipeline of Figure 4:

1. **Bootstrap** (first 20 minutes): all traffic is allowed while the
   bucket heuristic learns recurring flows; at the end the recurring
   buckets are frozen into an allow-rule table.
2. **Rule match**: a packet hitting a rule is *predictable* — allowed.
3. **Event grouping**: rule misses join the device's current
   unpredictable event (5-second gap rule).
4. **Manual-event classification**: when the decision prefix is
   complete (first packet for rule devices, first N=5 packets for
   BernoulliNB devices) the event is classified.  Non-manual events are
   allowed in full.
5. **Humanness check**: manual events are allowed only when a fresh
   verified-human interaction with the device's companion app exists;
   otherwise the remaining event packets are dropped, the user is
   notified, and repeated violations within a short window disconnect
   the device (brute-force friction).

Every unpredictable event produces an :class:`EventDecision` record —
the proxy keeps logs of all unpredictable events and validations, which
§7 argues an attacker cannot scrub without breaking the TEE.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from ..events.grouping import UnpredictableEvent
from ..faults.breaker import BreakerState, CircuitBreaker
from ..net.dns import DnsTable
from ..net.packet import Packet, TrafficClass
from ..net.trace import Trace
from ..obs import TIMING_SAMPLE_INTERVAL_S, CounterView, MetricsRegistry, MetricsSnapshot
from ..predictability.buckets import BucketPredictor
from .classifier import EventClassifier
from .config import FiatConfig
from .interactions import DeviceInteractionGraph
from .rules import RuleTable
from .validation import HumanValidationService

__all__ = ["EventDecision", "Alert", "FiatProxy"]

logger = logging.getLogger(__name__)

#: Version of the serialised state schema (see :meth:`FiatProxy.snapshot`).
_STATE_VERSION = 1

#: Tolerated clock skew before the pre-start guard drops a packet,
#: seconds.  Capture jitter legitimately stamps the first packets of a
#: deployment a few milliseconds before t=0; only packets meaningfully
#: older than the proxy's start can poison the bucket tables.
PRE_START_TOLERANCE_S = 1.0


@dataclass
class EventDecision:
    """Outcome of one unpredictable event at the proxy."""

    device: str
    start: float
    n_packets: int
    predicted_manual: bool
    human_backed: Optional[bool]  # None when the check was not needed
    action: str  # "allow" | "drop"
    truth: str  # ground-truth class (evaluation only; unused by logic)
    event_id: Optional[str] = None
    #: which degraded-mode policy produced this decision, if any
    #: ("classifier-fallback:..." / "validation-outage:...")
    degraded: Optional[str] = None

    @property
    def blocked(self) -> bool:
        """Whether the event's tail was dropped."""
        return self.action == "drop"


@dataclass
class Alert:
    """A user-facing notification: a security breach or a health event."""

    device: str
    timestamp: float
    reason: str
    #: "security" (potential breach) or "health" (component state change)
    kind: str = "security"


@dataclass
class _OpenEvent:
    packets: List[Packet] = field(default_factory=list)
    decided: bool = False
    allow: bool = True
    predicted_manual: bool = False
    human_backed: Optional[bool] = None
    degraded: Optional[str] = None
    #: observability-only fields — never serialised into the decision log
    trace_id: str = ""
    proof_trace: str = ""

    @property
    def last_time(self) -> float:
        return self.packets[-1].timestamp if self.packets else 0.0


class FiatProxy:
    """The in-home FIAT proxy: learn, then authorize or drop."""

    def __init__(
        self,
        config: FiatConfig,
        dns: Optional[DnsTable],
        classifiers: Dict[str, EventClassifier],
        validation: HumanValidationService,
        app_for_device: Dict[str, str],
        start_time: float = 0.0,
        interactions: Optional["DeviceInteractionGraph"] = None,
        device_ips: Optional[Dict[str, str]] = None,
    ) -> None:
        self.config = config
        self.classifiers = classifiers
        self.validation = validation
        self.app_for_device = app_for_device
        #: §7 "Complex Scenarios": DAG of allowed device-to-device control
        self.interactions = interactions
        self.device_ips = device_ips or {}
        self._obs = config.observability
        self._start_time = start_time
        self._pre_start_alerted = False
        self._bootstrap_end = start_time + config.bootstrap_s
        self._predictor = BucketPredictor(
            definition=config.flow_definition,
            dns=dns,
            resolution=config.iat_resolution,
            obs=self._obs,
        )
        self._rules: Optional[RuleTable] = None
        self._next_refresh: Optional[float] = None
        # Hot-path timing gate: next simulated timestamp at which one
        # packet's bucket lookup / rule match is timed.  Pinned to +inf
        # when observability is off, so the disabled fast path pays a
        # single always-false float compare per packet.
        self._next_sample_at = 0.0 if self._obs.enabled else float("inf")
        self._open: Dict[str, _OpenEvent] = {}
        self._violations: Dict[str, List[float]] = {}
        self._locked: Dict[str, float] = {}
        self.decisions: List[EventDecision] = []
        self.alerts: List[Alert] = []
        self.n_allowed = 0
        self.n_dropped = 0
        #: circuit breakers guarding flaky components (lazily per device)
        self._validation_breaker = CircuitBreaker(
            "validation",
            failure_threshold=config.breaker_failure_threshold,
            recovery_timeout_s=config.breaker_recovery_s,
            obs=self._obs,
        )
        self._classifier_breakers: Dict[str, CircuitBreaker] = {}
        #: operational health counters surfaced next to decisions/alerts.
        #: Historically a plain dict; now a registry-backed view with the
        #: same read surface (``proxy.health["classifier_errors"]``).
        #: With observability disabled the counters land in a private
        #: registry so state never leaks through the shared NULL handle.
        self._health_registry = (
            self._obs.registry if self._obs.enabled else MetricsRegistry()
        )
        self.health: CounterView = CounterView(
            self._health_registry,
            "proxy_health_total",
            label="kind",
            initial=(
                "classifier_errors",
                "classifier_unavailable",
                "validation_errors",
                "validation_unavailable",
                "degraded_decisions",
                "auth_dropped_breaker_open",
                "pre_start_packets",
                "recovered_open_events",
            ),
        )

    # -- circuit breakers ---------------------------------------------------------

    @property
    def breakers(self) -> Dict[str, CircuitBreaker]:
        """All breakers by component name (``validation``, ``classifier:X``)."""
        named = {"validation": self._validation_breaker}
        for device, breaker in self._classifier_breakers.items():
            named[f"classifier:{device}"] = breaker
        return named

    def _breaker_for(self, device: str) -> CircuitBreaker:
        breaker = self._classifier_breakers.get(device)
        if breaker is None:
            breaker = CircuitBreaker(
                f"classifier:{device}",
                failure_threshold=self.config.breaker_failure_threshold,
                recovery_timeout_s=self.config.breaker_recovery_s,
                obs=self._obs,
            )
            self._classifier_breakers[device] = breaker
        return breaker

    def _health_alert(self, device: str, now: float, reason: str) -> None:
        self.alerts.append(Alert(device=device, timestamp=now, reason=reason, kind="health"))

    def _validation_failed(self, now: float) -> None:
        self.health["validation_errors"] += 1
        if self._validation_breaker.record_failure(now):
            self._health_alert("*", now, "validation-service circuit opened")

    def _validation_succeeded(self, now: float) -> None:
        if self._validation_breaker.record_success(now):
            self._health_alert("*", now, "validation-service recovered (probe succeeded)")

    # -- auth channel -------------------------------------------------------------

    def receive_auth(self, wire: bytes, now: float):
        """Feed an authentication message from the FIAT app.

        Returns the registered
        :class:`~repro.core.validation.ValidatedInteraction`, or ``None``
        when the channel rejected the message or the validation service
        is down (breaker open or the call failed).  The return value is
        the proxy's acknowledgement: the app's reliable sender
        retransmits until it sees one.
        """
        if not self._validation_breaker.allow_request(now):
            self.health["auth_dropped_breaker_open"] += 1
            return None
        try:
            result = self.validation.ingest(wire, now)
        except Exception:
            logger.debug("validation ingest failed at t=%.3f", now, exc_info=True)
            self._validation_failed(now)
            return None
        self._validation_succeeded(now)
        return result

    # -- lockout ------------------------------------------------------------------

    def is_locked(self, device: str) -> bool:
        """Whether the device is disconnected pending user action."""
        return device in self._locked

    def unlock(self, device: str) -> None:
        """User manually re-authorizes a disconnected device."""
        self._locked.pop(device, None)
        self._violations.pop(device, None)

    def _record_violation(self, device: str, now: float) -> None:
        history = self._violations.setdefault(device, [])
        history.append(now)
        cutoff = now - self.config.lockout_window_s
        history[:] = [t for t in history if t >= cutoff]
        if len(history) >= self.config.lockout_threshold:
            self._locked[device] = now
            self.alerts.append(
                Alert(device=device, timestamp=now, reason="brute-force lockout")
            )

    # -- event lifecycle ----------------------------------------------------------

    def _decision_prefix(self, device: str) -> int:
        classifier = self.classifiers.get(device)
        if classifier is not None and classifier.uses_rules:
            return 1
        return self.config.first_n_packets

    def _classify_manual(self, device: str, classifier, prefix, now: float):
        """Classify behind the device's circuit breaker.

        Returns ``(manual, degraded)``: ``degraded`` is ``None`` for a
        healthy classification, else the fallback policy applied.  With
        the classifier broken only the predictability rules remain, so
        the configurable fallback either treats every unpredictable
        event as manual-shaped (``assume-manual``, needs a humanness
        proof) or waves it through (``allow``).
        """
        breaker = self._breaker_for(device)
        if breaker.allow_request(now):
            try:
                manual = bool(classifier.is_manual(prefix))
            except Exception:
                logger.debug(
                    "classifier for %s failed at t=%.3f", device, now, exc_info=True
                )
                self.health["classifier_errors"] += 1
                if breaker.record_failure(now):
                    self._health_alert(device, now, "classifier circuit opened")
            else:
                if breaker.record_success(now):
                    self._health_alert(
                        device, now, "classifier recovered (probe succeeded)"
                    )
                return manual, None
        else:
            self.health["classifier_unavailable"] += 1
        if self.config.classifier_fallback == "allow":
            return False, "classifier-fallback:allow"
        return True, "classifier-fallback:assume-manual"

    def _human_backed(self, app: str, now: float):
        """Query the validation service behind its circuit breaker.

        Returns ``(human, degraded)``; when the service is down the
        configured outage policy decides: ``fail-closed`` treats the
        event as unbacked (drop), ``fail-open`` as backed (allow).
        """
        if self._validation_breaker.allow_request(now):
            try:
                human = bool(self.validation.has_recent_human(app, now))
            except Exception:
                logger.debug(
                    "humanness query for %s failed at t=%.3f", app, now, exc_info=True
                )
                self._validation_failed(now)
            else:
                self._validation_succeeded(now)
                return human, None
        else:
            self.health["validation_unavailable"] += 1
        if self.config.validation_outage_policy == "fail-open":
            return True, "validation-outage:fail-open"
        return False, "validation-outage:fail-closed"

    def _decide(self, device: str, event: _OpenEvent, now: float) -> None:
        if self._obs.enabled:
            t0 = perf_counter()
            self._decide_inner(device, event, now)
            self._obs.observe(
                "proxy_decide_latency_ms", (perf_counter() - t0) * 1000.0
            )
        else:
            self._decide_inner(device, event, now)

    def _decide_inner(self, device: str, event: _OpenEvent, now: float) -> None:
        classifier = self.classifiers.get(device)
        if classifier is None:
            # Unknown device: fail open on classification (the paper's
            # production vision downloads a model per identified device).
            event.decided = True
            event.allow = True
            event.predicted_manual = False
            return
        prefix = event.packets[: self._decision_prefix(device)]
        manual, degraded = self._classify_manual(device, classifier, prefix, now)
        event.decided = True
        event.predicted_manual = manual
        event.degraded = degraded
        if not manual:
            event.allow = True
            return
        # §7 extension: a manual-shaped command originating from another
        # in-home device is allowed when an interaction-DAG edge covers
        # the (controller, target) pair (e.g. Alexa -> smart light).
        if self.interactions is not None and any(
            self.interactions.allows_packet(p, self.device_ips) for p in prefix
        ):
            event.allow = True
            event.human_backed = None
            return
        app = self.app_for_device.get(device, "")
        human, human_degraded = self._human_backed(app, now)
        if self._obs.enabled and human and human_degraded is None:
            # Link the decision back to the proof that authorized it.
            # Audit-only read, after the breaker-guarded check succeeded.
            backing = self.validation.recent_human_interaction(app, now)
            if backing is not None:
                event.proof_trace = backing.trace_id
        if human_degraded is not None:
            event.degraded = (
                human_degraded if degraded is None else f"{degraded}+{human_degraded}"
            )
        event.human_backed = human
        event.allow = human
        if not human:
            if event.degraded is not None and "validation-outage" in event.degraded:
                # Degraded drop: the proxy fails closed because it cannot
                # check humanness — report as a health event and do not
                # count it toward the brute-force lockout (it is not
                # evidence of an attack).
                self._health_alert(
                    device,
                    now,
                    "manual event dropped: validation unavailable (fail-closed)",
                )
            else:
                self.alerts.append(
                    Alert(
                        device=device,
                        timestamp=now,
                        reason="unverified manual traffic dropped",
                    )
                )
                self._record_violation(device, now)

    def _close_event(self, device: str, event: _OpenEvent) -> None:
        if not event.packets:
            return
        if not event.decided:
            self._decide(device, event, event.last_time)
        truth = UnpredictableEvent(packets=event.packets).majority_class()
        truth_label = "manual" if truth in (TrafficClass.MANUAL, TrafficClass.ATTACK) else truth.value
        if event.degraded is not None:
            self.health["degraded_decisions"] += 1
        action = "allow" if event.allow else "drop"
        self.decisions.append(
            EventDecision(
                device=device,
                start=event.packets[0].timestamp,
                n_packets=len(event.packets),
                predicted_manual=event.predicted_manual,
                human_backed=event.human_backed,
                action=action,
                truth=truth_label,
                event_id=event.packets[0].event_id,
                degraded=event.degraded,
            )
        )
        if self._obs.enabled:
            self._obs.inc("proxy_decisions_total", action=action)
            self._sync_packet_counters()
            self._obs.emit(
                "proxy.decision",
                t=event.last_time,
                trace=event.trace_id,
                proof_trace=event.proof_trace,
                device=device,
                action=action,
                predicted_manual=event.predicted_manual,
                human_backed=event.human_backed,
                degraded=event.degraded,
            )

    # -- main entry point ---------------------------------------------------------

    def process(self, packet: Packet) -> bool:
        """Process one packet; return ``True`` when it is forwarded."""
        now = packet.timestamp
        device = packet.device
        obs = self._obs

        # Pre-bootstrap guard: a packet stamped before the proxy even
        # started can only come from a skewed clock or a stale capture.
        # Learning from it would poison the bucket tables (and, after a
        # recovery, could rewind rule state), so drop it instead of
        # silently learning and surface a health alert on the first one.
        if now < self._start_time - PRE_START_TOLERANCE_S:
            self.health["pre_start_packets"] += 1
            if not self._pre_start_alerted:
                self._pre_start_alerted = True
                self._health_alert(
                    device,
                    now,
                    "packet timestamped before proxy start (clock skew?) — dropped",
                )
            self.n_dropped += 1
            if obs.enabled:
                obs.inc("proxy_drops_total", reason="pre-start")
            return False

        # Bootstrap: learn, allow everything.  Packet totals sync into the
        # registry lazily (see _sync_packet_counters) — a per-packet
        # counter write here would dominate the sub-microsecond fast path.
        # The shared sim-time sampling gate (see __init__) feeds the
        # bucket-lookup histogram here and the rule-match histogram below.
        if now < self._bootstrap_end:
            self.n_allowed += 1
            if now >= self._next_sample_at:
                self._next_sample_at = now + TIMING_SAMPLE_INTERVAL_S
                self._predictor.timed_observe(packet)
            else:
                self._predictor.observe(packet)
            return True
        if self._rules is None:
            self._rules = RuleTable.from_predictor(self._predictor)
            self._next_refresh = (
                now + self.config.rule_refresh_s
                if self.config.rule_refresh_s is not None
                else None
            )

        # Drift adaptation (§7): keep learning, refresh and age rules.
        if self.config.rule_refresh_s is not None:
            self._predictor.observe(packet)
            if self._next_refresh is not None and now >= self._next_refresh:
                self._rules.merge_from_predictor(
                    self._predictor, now, max_idle_s=self.config.rule_ttl_s
                )
                if self.config.rule_ttl_s is not None:
                    self._rules.expire_stale(now, self.config.rule_ttl_s)
                self._next_refresh = now + self.config.rule_refresh_s

        if self.is_locked(device):
            self.n_dropped += 1
            if obs.enabled:
                obs.inc("proxy_drops_total", reason="locked")
            return False

        if now >= self._next_sample_at:
            self._next_sample_at = now + TIMING_SAMPLE_INTERVAL_S
            t0 = perf_counter()
            matched = self._rules.matches(packet)
            obs.observe("rule_match_latency_ms", (perf_counter() - t0) * 1000.0)
        else:
            matched = self._rules.matches(packet)
        if matched:
            self.n_allowed += 1
            return True

        # Unpredictable: event grouping per device.
        event = self._open.get(device)
        if event is not None and now - event.last_time > self.config.event_gap_s:
            self._close_event(device, event)
            event = None
        if event is None:
            event = _OpenEvent(trace_id=obs.mint_trace("event"))
            self._open[device] = event
            if obs.enabled:
                obs.emit("proxy.event_open", t=now, trace=event.trace_id, device=device)
        event.packets.append(packet)

        if not event.decided and len(event.packets) >= self._decision_prefix(device):
            # Decide exactly once the decision prefix is complete.  For
            # rule devices this happens on the first packet, *before*
            # forwarding it (the proxy delays packets via NFQUEUE), so a
            # one-packet plug command can still be blocked.
            self._decide(device, event, now)

        if event.decided:
            allowed = event.allow
        else:
            allowed = True  # within the allowed first-N prefix
        if allowed:
            self.n_allowed += 1
        else:
            self.n_dropped += 1
            if obs.enabled:
                obs.inc("proxy_drops_total", reason="manual-unverified")
        return allowed

    #: The packet entry point :class:`~repro.core.pipeline.FiatSystem`
    #: feeds: every verdict is decided before the call returns.
    ingest = process

    def run_trace(self, trace: Trace) -> None:
        """Convenience: process a whole trace in timestamp order."""
        for packet in trace:
            self.process(packet)
        self.flush()

    def flush(self) -> None:
        """Close all open events (end of capture).

        Events close in chronological order of their first packet (ties
        broken by device name), not dict insertion order: insertion order
        is an accident of history that a crash/restart resets, and the
        decision log must be identical either way.
        """
        for device, event in sorted(
            self._open.items(),
            key=lambda kv: (kv[1].packets[0].timestamp if kv[1].packets else 0.0, kv[0]),
        ):
            self._close_event(device, event)
        self._open.clear()
        self._sync_packet_counters()

    def _sync_packet_counters(self) -> None:
        """Publish the per-packet tallies into the registry.

        ``n_allowed``/``n_dropped`` are plain-int counters on the packet
        fast path; the registry copies (``proxy_packets_total``) are
        refreshed here — at event close, flush and snapshot time —
        instead of per packet, keeping instrumentation overhead off the
        rule-match path.
        """
        if self._obs.enabled:
            registry = self._obs.registry
            registry.set_counter("proxy_packets_total", self.n_allowed, action="allow")
            registry.set_counter("proxy_packets_total", self.n_dropped, action="drop")

    # -- evaluation helpers -------------------------------------------------------

    @property
    def rules(self) -> Optional[RuleTable]:
        """The frozen rule table (``None`` while bootstrapping)."""
        return self._rules

    def decisions_for(self, device: str) -> List[EventDecision]:
        """Decision records of one device."""
        return [d for d in self.decisions if d.device == device]

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Snapshot of the registry backing this proxy's metrics.

        With observability enabled this is the shared session registry;
        otherwise it is the private registry holding only the
        :attr:`health` counters.
        """
        self._sync_packet_counters()
        return self._health_registry.snapshot()

    def decision_log(self) -> bytes:
        """Canonical JSON serialisation of all decision records.

        Stable field order and float repr make the log byte-comparable:
        two runs with the same seeds and the same fault plan must
        produce identical bytes (the determinism contract of
        ``repro.faults``).
        """
        return json.dumps(
            [asdict(d) for d in self.decisions], sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    # -- durable state (repro.recovery) -------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Serialise every security-relevant piece of proxy state.

        JSON-native and versioned; the inverse is :meth:`restore`.  Pure
        read — taking a snapshot never perturbs behaviour, so
        ``decision_log()`` is byte-identical whether or not snapshots
        were cut mid-run (the behaviour-neutrality contract the
        recovery property tests enforce).

        Covers: learned bucket tables, the frozen rule table, open
        unpredictable events (packets included), lockout/violation
        state, circuit breakers, decision/alert logs, packet tallies
        and the operational :attr:`health` counters.  Config,
        classifiers, the validation service (serialised separately via
        its own ``to_state``) and the DNS table are process-local and
        re-injected on restore.
        """
        return {
            "v": _STATE_VERSION,
            "start_time": self._start_time,
            "bootstrap_end": self._bootstrap_end,
            "pre_start_alerted": self._pre_start_alerted,
            "next_refresh": self._next_refresh,
            "predictor": self._predictor.to_state(),
            "rules": None if self._rules is None else self._rules.to_state(),
            "open": {
                device: {
                    "packets": [p.to_dict() for p in event.packets],
                    "decided": event.decided,
                    "allow": event.allow,
                    "predicted_manual": event.predicted_manual,
                    "human_backed": event.human_backed,
                    "degraded": event.degraded,
                    "trace_id": event.trace_id,
                    "proof_trace": event.proof_trace,
                }
                for device, event in self._open.items()
            },
            "violations": {d: list(ts) for d, ts in self._violations.items()},
            "locked": dict(self._locked),
            "decisions": [asdict(d) for d in self.decisions],
            "alerts": [asdict(a) for a in self.alerts],
            "n_allowed": self.n_allowed,
            "n_dropped": self.n_dropped,
            "health": self.health.as_dict(),
            "breakers": {
                "validation": self._validation_breaker.to_state(),
                "classifiers": {
                    device: breaker.to_state()
                    for device, breaker in self._classifier_breakers.items()
                },
            },
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Load a :meth:`snapshot` into this (freshly constructed) proxy.

        The proxy must have been built with the same config, classifiers
        and validation service wiring; ``restore`` replaces only the
        volatile security state a process death would lose.
        """
        if state.get("v") != _STATE_VERSION:
            raise ValueError(f"unsupported FiatProxy state version: {state.get('v')!r}")
        self._start_time = float(state["start_time"])
        self._bootstrap_end = float(state["bootstrap_end"])
        self._pre_start_alerted = bool(state["pre_start_alerted"])
        next_refresh = state["next_refresh"]
        self._next_refresh = None if next_refresh is None else float(next_refresh)
        dns = self._predictor.dns
        self._predictor = BucketPredictor.from_state(
            state["predictor"], dns=dns, obs=self._obs  # type: ignore[arg-type]
        )
        rules_state = state["rules"]
        self._rules = (
            None
            if rules_state is None
            else RuleTable.from_state(rules_state, dns=dns)  # type: ignore[arg-type]
        )
        self._open = {}
        for device, encoded in state["open"].items():  # type: ignore[union-attr]
            event = _OpenEvent(
                packets=[Packet.from_dict(p) for p in encoded["packets"]],
                decided=bool(encoded["decided"]),
                allow=bool(encoded["allow"]),
                predicted_manual=bool(encoded["predicted_manual"]),
                human_backed=encoded["human_backed"],
                degraded=encoded["degraded"],
                trace_id=str(encoded.get("trace_id", "")),
                proof_trace=str(encoded.get("proof_trace", "")),
            )
            self._open[device] = event
        self._violations = {
            d: [float(t) for t in ts]
            for d, ts in state["violations"].items()  # type: ignore[union-attr]
        }
        self._locked = {
            d: float(t) for d, t in state["locked"].items()  # type: ignore[union-attr]
        }
        self.decisions = [
            EventDecision(**d) for d in state["decisions"]  # type: ignore[union-attr]
        ]
        self.alerts = [Alert(**a) for a in state["alerts"]]  # type: ignore[union-attr]
        self.n_allowed = int(state["n_allowed"])
        self.n_dropped = int(state["n_dropped"])
        for key, value in state.get("health", {}).items():  # type: ignore[union-attr]
            self.health[key] = value
        breakers: Dict[str, object] = state["breakers"]  # type: ignore[assignment]
        self._validation_breaker = CircuitBreaker.from_state(
            breakers["validation"], obs=self._obs  # type: ignore[index,arg-type]
        )
        self._classifier_breakers = {
            device: CircuitBreaker.from_state(encoded, obs=self._obs)
            for device, encoded in breakers["classifiers"].items()  # type: ignore[index,union-attr]
        }

    def reconcile_after_crash(self, now: float) -> int:
        """Close events left open by a crash, fail-closed.

        A crash interrupts open unpredictable events mid-decision: the
        proxy cannot know which of their packets were forwarded during
        the outage, so recovery must not let an incomplete manual-shaped
        event ride through on pre-crash optimism.  Events that were
        still undecided, or decided manual, are closed as ``drop`` with
        a ``recovery:fail-closed`` marker; events positively classified
        non-manual close with their (complete) allow decision.  None of
        the forced drops count toward the brute-force lockout — a crash
        is not evidence of an attack.  Returns the number of events
        reconciled.
        """
        reconciled = 0
        for device, event in sorted(self._open.items()):
            if not event.packets:
                continue
            if not event.decided or event.predicted_manual:
                event.decided = True
                event.allow = False
                event.degraded = (
                    "recovery:fail-closed"
                    if event.degraded is None
                    else f"{event.degraded}+recovery:fail-closed"
                )
            self.health["recovered_open_events"] += 1
            self._close_event(device, event)
            reconciled += 1
        self._open.clear()
        if reconciled:
            self._health_alert(
                "*", now, f"crash recovery: {reconciled} open event(s) reconciled fail-closed"
            )
        return reconciled
