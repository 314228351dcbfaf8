"""End-to-end FIAT system wiring and the §6 accuracy experiment.

:class:`FiatSystem` assembles the full deployment: pairing (phone TEE +
proxy enclave keys), the client app, per-device event classifiers
(simple rules or BernoulliNB trained on labelled events), the humanness
validation service, and the IoT proxy.  :meth:`FiatSystem.run_accuracy`
then reproduces the Table-6 experiment: scripted manual operations with
genuine human motion, non-manual (control/automated) events, and
account-compromise attacks that ship spyware-captured (still-phone)
sensor proofs — the strongest attacker the threat model admits short of
the §7 piggyback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..crypto.keystore import pair
from ..faults import FaultPlan, FaultyLink, FlakyClassifier, FlakyValidationService
from ..net.packet import TrafficClass
from ..obs import MetricsSnapshot
from ..quic.transport import Transport
from ..testbed.cloud import CloudDirectory, Location
from ..testbed.devices import DeviceProfile, profile_for
from ..testbed.household import generate_labeled_events, render_event
from ..testbed.phone import APP_PACKAGES, Phone
from ..sensors.humanness import HumannessValidator
from ..util import spawn_seed
from .classifier import train_event_classifier
from .client import FiatApp, ReliableAuthReport, RetryPolicy
from .config import FiatConfig
from .latency import LAN_SCENARIO, Scenario
from .proxy import FiatProxy
from .validation import HumanValidationService

if TYPE_CHECKING:  # pragma: no cover - avoids a module-level import cycle
    from ..recovery import ChaosReport, RecoveryManager

__all__ = ["DeviceAccuracy", "FiatSystem"]

_KEY_ALIAS = "fiat-pairing"


@dataclass
class DeviceAccuracy:
    """Table-6 row: empirical accuracy of FIAT for one device."""

    device: str
    #: event classifier precision/recall on manual and non-manual events
    manual_precision: float
    manual_recall: float
    non_manual_precision: float
    non_manual_recall: float
    #: FIAT end-to-end error rates (fractions)
    fp_non_manual_blocked: float
    fp_manual_blocked: float
    false_negative: float
    n_manual: int = 0
    n_non_manual: int = 0
    n_attacks: int = 0


class FiatSystem:
    """A complete FIAT deployment over the simulated testbed."""

    def __init__(
        self,
        devices: Sequence[Union[str, DeviceProfile]],
        config: Optional[FiatConfig] = None,
        location: Location = Location.US,
        scenario: Scenario = LAN_SCENARIO,
        transport: Transport = Transport.QUIC_0RTT,
        seed: int = 0,
        n_training_events: int = 120,
    ) -> None:
        self.config = config or FiatConfig(bootstrap_s=0.0)
        self.location = location
        self.profiles: List[DeviceProfile] = [
            profile_for(d) if isinstance(d, str) else d for d in devices
        ]
        self.obs = self.config.observability
        # Component seeds are hash-derived (never ``seed + k`` offsets):
        # systems built from adjacent seeds — fleet homes — must not
        # share any RNG stream across components.
        self.cloud = CloudDirectory(seed=spawn_seed(seed, "cloud"))
        self._rng = np.random.default_rng(spawn_seed(seed, "system"))
        self.phone = Phone(seed=spawn_seed(seed, "phone"))

        # Pairing: the shared key lives in both TEEs, never on the wire.
        # The proxy-side keystore is kept so a cold restart can rebuild
        # the stack around the *same* key — pairing survives a process
        # death (the key lives in the enclave, not in proxy memory).
        phone_keystore, proxy_keystore = pair(
            "phone", "iot-proxy", alias=_KEY_ALIAS, obs=self.obs
        )
        self._proxy_keystore = proxy_keystore
        self.app = FiatApp(
            keystore=phone_keystore,
            key_alias=_KEY_ALIAS,
            device_id="galaxy-s10",
            path=scenario.auth_path,
            transport=transport,
            seed=spawn_seed(seed, "app"),
            obs=self.obs,
        )
        #: trained humanness validator (on disk in a deployment: it
        #: survives a restart, so every stack built here shares it)
        self.validator = HumannessValidator(seed=spawn_seed(seed, "validator")).fit()

        # Per-device classifiers, trained as deployed (§6 footnote 2).
        self.classifiers = {}
        for profile in self.profiles:
            training = None
            if not profile.uses_simple_rules:
                training = generate_labeled_events(
                    profile,
                    location=location,
                    n_manual=n_training_events // 2,
                    n_automated=n_training_events,
                    n_control=n_training_events,
                    seed=spawn_seed(seed, "training", profile.name),
                    cloud=self.cloud,
                )
            self.classifiers[profile.name] = train_event_classifier(
                profile, training, first_n=self.config.first_n_packets, obs=self.obs
            )

        self.proxy, self.validation = self.build_stack()
        #: humanness-validation confusion accumulated during experiments
        self.human_confusion = {"tp": 0, "fn": 0, "tn": 0, "fp": 0}
        #: fault injection (installed by :meth:`install_faults`)
        self._fault_plan: Optional[FaultPlan] = None
        self._fault_link: Optional[FaultyLink] = None
        self._sensor_rng: Optional[np.random.Generator] = None
        self._last_registered = None
        #: per-proof delivery reports when running under a fault plan
        self.auth_reports: List[ReliableAuthReport] = []
        #: crash-safe durability (installed by :meth:`enable_recovery`)
        self.recovery: "Optional[RecoveryManager]" = None

    # -- fault injection -------------------------------------------------------------

    def install_faults(self, plan: FaultPlan) -> None:
        """Route the deployment through a fault plan.

        Wraps the auth channel in a :class:`~repro.faults.FaultyLink`,
        the per-device classifiers and the validation service in outage
        injectors, and seeds the sensor-dropout stream.  Proof delivery
        switches to the app's acknowledgement-driven retransmission.
        """
        self._fault_plan = plan
        self._fault_link = FaultyLink(plan)
        self._sensor_rng = plan.stream("sensor")
        self.proxy.validation = FlakyValidationService(self.validation, plan)
        self.proxy.classifiers = {
            name: FlakyClassifier(classifier, plan)
            for name, classifier in self.classifiers.items()
        }

    def _deliver_wire(self, wire: bytes, arrive_at: float) -> bool:
        """Deliver one proof copy to the proxy; ``True`` = registered.

        A replay rejection also counts as registered — it means an
        earlier copy of the same proof already landed, so the sender's
        retransmission loop can stop (the ack for the original was
        lost, not the proof).
        """
        assert self._fault_link is not None
        receiver_now = self._fault_link.receiver_clock(arrive_at)
        replays = self.validation.receiver.rejections.get("replay", 0)
        result = self._receive_auth(wire, receiver_now)
        if result is not None:
            self._last_registered = result
            return True
        return self.validation.receiver.rejections.get("replay", 0) > replays

    # -- crash-safe durability (repro.recovery) --------------------------------------

    def build_stack(self) -> Tuple[FiatProxy, HumanValidationService]:
        """Build a fresh proxy + validation pair around the durable parts.

        The system's first stack and every restarted one come from here.
        The pairing key (TEE), the trained humanness validator and the
        trained per-device classifiers (on-disk models) are shared by
        all of them — a process death does not lose them.  Only the
        volatile security state is fresh; it is exactly what the
        :class:`~repro.recovery.RecoveryManager` journal restores.
        """
        validation = HumanValidationService(
            self._proxy_keystore,
            validator=self.validator,
            validity_s=self.config.human_validity_s,
            freshness_s=self.config.channel_freshness_s,
            max_interactions=self.config.max_validated_interactions,
            obs=self.obs,
        )
        proxy = FiatProxy(
            config=self.config,
            dns=self.cloud.dns,
            classifiers=self.classifiers,
            validation=validation,
            app_for_device=dict(APP_PACKAGES),
            start_time=0.0,
        )
        return proxy, validation

    def cold_restart(self) -> Tuple[FiatProxy, HumanValidationService]:
        """Swap in a freshly built stack (a supervised process restart).

        Returns the new ``(proxy, validation)`` pair; fault injectors
        installed by :meth:`install_faults` are *not* re-applied — the
        caller restores state and re-installs what the experiment needs.
        """
        self.proxy, self.validation = self.build_stack()
        return self.proxy, self.validation

    def enable_recovery(self, state_dir: str, now: float = 0.0) -> "RecoveryManager":
        """Journal this deployment's security state into ``state_dir``.

        Every packet, proof wire and unlock fed through the system's
        input helpers is write-ahead journaled, with periodic snapshots
        per ``config.snapshot_interval_s``.  Returns the manager (also
        kept as ``self.recovery``); after a crash,
        ``self.recovery.recover()`` rebuilds the stack via
        :meth:`build_stack` and replays the journal.
        """
        from ..recovery import RecoveryManager

        manager = RecoveryManager(
            state_dir,
            self.build_stack,
            snapshot_interval_s=self.config.snapshot_interval_s,
            fsync=self.config.journal_fsync,
            obs=self.obs,
        )
        manager.start(self.proxy, self.validation, now=now)
        self.recovery = manager
        return manager

    def chaos_sweep(self, n_trials: int = 50, seed: int = 0, **kwargs) -> "ChaosReport":
        """Run the crash/chaos sweep over this deployment.

        Delegates to :func:`repro.recovery.chaos.chaos_sweep` (see there
        for the invariants checked and the knobs accepted).
        """
        from ..recovery import chaos_sweep

        return chaos_sweep(self, n_trials=n_trials, seed=seed, **kwargs)

    def _process(self, packet) -> bool:
        """Feed one packet to the proxy, journaling it first when enabled.

        Returns the forwarding verdict.
        """
        if self.recovery is not None:
            self.recovery.journal_packet(packet)
        allowed = self.proxy.ingest(packet)
        if self.recovery is not None:
            self.recovery.maybe_checkpoint(packet.timestamp)
        return allowed

    def _receive_auth(self, wire: bytes, now: float):
        """Feed one proof wire to the proxy, journaling it first when enabled."""
        if self.recovery is not None:
            self.recovery.journal_auth(wire, now)
        return self.proxy.receive_auth(wire, now)

    def _unlock(self, device: str, now: float) -> None:
        """Re-authorize a device, journaling the action first when enabled."""
        if self.recovery is not None:
            self.recovery.journal_unlock(device, now)
        self.proxy.unlock(device)

    # -- experiment building blocks ------------------------------------------------

    def _event_packets(
        self, profile: DeviceProfile, traffic_class: TrafficClass, start: float, seed: int
    ):
        rng = np.random.default_rng(seed)
        templates = {
            TrafficClass.MANUAL: profile.manual_templates(),
            TrafficClass.ATTACK: profile.manual_templates(),
            TrafficClass.AUTOMATED: (profile.automated,),
            TrafficClass.CONTROL: (profile.control_noise,),
        }[traffic_class]
        template = templates[int(rng.integers(0, len(templates)))]
        endpoints = {
            service: self.cloud.endpoint(profile.vendor, service, self.location)
            for service in template.services()
        }
        return render_event(
            profile,
            template,
            start,
            traffic_class,
            device_ip="192.168.1.10",
            endpoints=endpoints,
            rng=rng,
            event_id=f"{profile.name}-{traffic_class.value}-{start:.0f}",
        )

    def _send_proof(self, device: str, when: float, human: bool) -> None:
        # Sensor dropout: the sensor service died mid-capture, so a
        # genuine human interaction yields a still-phone window.
        if human and self._fault_plan is not None:
            plan = self._fault_plan
            dropped = plan.is_down("sensor", when)
            if self._sensor_rng is not None and plan.sensor_dropout_rate > 0.0:
                dropped = dropped or float(self._sensor_rng.random()) < plan.sensor_dropout_rate
            human = not dropped and human
        interaction = self.phone.interact(device, when, human=human)

        if self._fault_link is not None:
            self._last_registered = None
            report = self.app.authenticate_reliable(
                interaction,
                when,
                link=self._fault_link,
                deliver=self._deliver_wire,
                policy=RetryPolicy.from_config(self.config),
            )
            self.auth_reports.append(report)
            recorded = self._last_registered
        else:
            attempt = self.app.authenticate(interaction, when)
            recorded = self._receive_auth(
                attempt.wire, when + attempt.components["transport"] / 1000.0
            )
        if recorded is not None:
            if human and recorded.human:
                self.human_confusion["tp"] += 1
            elif human and not recorded.human:
                self.human_confusion["fn"] += 1
            elif not human and not recorded.human:
                self.human_confusion["tn"] += 1
            else:
                self.human_confusion["fp"] += 1

    # -- the §6 accuracy experiment --------------------------------------------------

    def run_accuracy(
        self,
        n_manual: int = 50,
        n_non_manual: int = 120,
        n_attacks: int = 50,
        attack_with_proof: float = 0.3,
        seed: int = 100,
        faults: Optional[FaultPlan] = None,
    ) -> Dict[str, DeviceAccuracy]:
        """Run the Table-6 experiment for every device in the system.

        * ``n_manual`` user operations: a genuine human interaction (with
          its signed sensor proof, delivered ahead of the traffic — FIAT
          is faster, Table 7) followed by the manual IoT event;
        * ``n_non_manual`` unpredictable control/automated events with no
          proof in flight;
        * ``n_attacks`` account-compromise injections.  A fraction
          ``attack_with_proof`` of the attackers additionally run
          user-space spyware that forwards a *still-phone* sensor proof
          (they can read sensors but not fake them, §5.1) — these
          exercise the validator's non-human recall; the rest send no
          proof at all.

        ``faults`` installs a :class:`~repro.faults.FaultPlan` before the
        run (see :meth:`install_faults`): proofs then travel over the
        faulty link with acknowledgement-driven retransmission, and
        component outages exercise the proxy's circuit breakers and
        degraded-mode policies.  Identical seeds + identical plan
        reproduce a byte-identical ``proxy.decision_log()``.
        """
        if faults is not None:
            self.install_faults(faults)
        rng = np.random.default_rng(seed)
        results: Dict[str, DeviceAccuracy] = {}
        t = self.config.bootstrap_s + 10.0
        spacing = max(30.0, self.config.human_validity_s / 2.0 + 5.0)

        for profile in self.profiles:
            start_index = len(self.proxy.decisions)
            phases: List[tuple] = []
            for k in range(n_manual):
                phases.append(("manual", t))
                t += spacing
            for k in range(n_non_manual):
                cls = TrafficClass.AUTOMATED if k % 2 == 0 else TrafficClass.CONTROL
                phases.append((cls, t))
                t += spacing
            for k in range(n_attacks):
                phases.append(("attack", t))
                self._unlock(profile.name, t)  # isolate per-attempt outcome
                t += spacing

            for phase, when in phases:
                if phase == "manual":
                    self._send_proof(profile.name, when - 0.5, human=True)
                    packets = self._event_packets(
                        profile, TrafficClass.MANUAL, when, int(rng.integers(0, 2**31))
                    )
                elif phase == "attack":
                    if rng.random() < attack_with_proof:
                        self._send_proof(profile.name, when - 0.5, human=False)
                    packets = self._event_packets(
                        profile, TrafficClass.ATTACK, when, int(rng.integers(0, 2**31))
                    )
                else:
                    packets = self._event_packets(
                        profile, phase, when, int(rng.integers(0, 2**31))
                    )
                for packet in packets:
                    self._process(packet)
                self._unlock(profile.name, when)
            self.proxy.flush()

            decisions = self.proxy.decisions[start_index:]
            manual_dec = [d for d in decisions if d.event_id and "-manual-" in d.event_id]
            attack_dec = [d for d in decisions if d.event_id and "-attack-" in d.event_id]
            nonman_dec = [
                d
                for d in decisions
                if d.event_id and ("-automated-" in d.event_id or "-control-" in d.event_id)
            ]

            # Event-classifier confusion over legitimate events + attacks
            # (attacks are ground-truth manual-shaped).
            tp = sum(d.predicted_manual for d in manual_dec + attack_dec)
            fn = sum(not d.predicted_manual for d in manual_dec + attack_dec)
            fp = sum(d.predicted_manual for d in nonman_dec)
            tn = sum(not d.predicted_manual for d in nonman_dec)
            manual_precision = tp / (tp + fp) if tp + fp else 0.0
            manual_recall = tp / (tp + fn) if tp + fn else 0.0
            non_manual_precision = tn / (tn + fn) if tn + fn else 0.0
            non_manual_recall = tn / (tn + fp) if tn + fp else 0.0

            results[profile.name] = DeviceAccuracy(
                device=profile.name,
                manual_precision=manual_precision,
                manual_recall=manual_recall,
                non_manual_precision=non_manual_precision,
                non_manual_recall=non_manual_recall,
                fp_non_manual_blocked=(
                    sum(d.blocked for d in nonman_dec) / len(nonman_dec) if nonman_dec else 0.0
                ),
                fp_manual_blocked=(
                    sum(d.blocked for d in manual_dec) / len(manual_dec) if manual_dec else 0.0
                ),
                false_negative=(
                    sum(not d.blocked for d in attack_dec) / len(attack_dec)
                    if attack_dec
                    else 0.0
                ),
                n_manual=len(manual_dec),
                n_non_manual=len(nonman_dec),
                n_attacks=len(attack_dec),
            )
        return results

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Snapshot of the whole deployment's metrics.

        With observability enabled this is the shared registry every
        component reports into; with it disabled only the proxy's
        private health counters exist.  Delegates to the proxy so the
        packet tallies are synced before the snapshot is cut.
        """
        return self.proxy.metrics_snapshot()

    def human_validation_rates(self) -> Dict[str, float]:
        """Precision/recall of humanness validation accumulated so far."""
        c = self.human_confusion
        return {
            "human_precision": c["tp"] / (c["tp"] + c["fp"]) if c["tp"] + c["fp"] else 0.0,
            "human_recall": c["tp"] / (c["tp"] + c["fn"]) if c["tp"] + c["fn"] else 0.0,
            "non_human_precision": c["tn"] / (c["tn"] + c["fn"]) if c["tn"] + c["fn"] else 0.0,
            "non_human_recall": c["tn"] / (c["tn"] + c["fp"]) if c["tn"] + c["fp"] else 0.0,
        }
