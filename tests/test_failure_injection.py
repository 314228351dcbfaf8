"""Failure-injection tests: the system must degrade safely, not crash."""

import json

import numpy as np

from repro.core import (
    FiatConfig,
    FiatProxy,
    FiatSystem,
    HumanValidationService,
    train_event_classifier,
)
from repro.crypto import ReplayCache, pair
from repro.faults import BreakerState, FaultPlan, OutageWindow
from repro.net import Direction, Packet, Trace, TrafficClass
from repro.predictability import label_predictable
from repro.quic import AuthMessage
from repro.sensors import HumannessValidator, generate_humanness_dataset
from repro.testbed import profile_for
from tests.conftest import make_packet


def _proxy(bootstrap_s=0.0, lockout_threshold=3):
    _, proxy_ks = pair("phone", "proxy")
    return FiatProxy(
        config=FiatConfig(bootstrap_s=bootstrap_s, lockout_threshold=lockout_threshold),
        dns=None,
        classifiers={"SP10": train_event_classifier(profile_for("SP10"))},
        validation=HumanValidationService(
            proxy_ks, validator=HumannessValidator(n_train_per_class=60, seed=0).fit()
        ),
        app_for_device={},
    )


class TestMalformedInput:
    def test_garbage_auth_message(self):
        proxy = _proxy()
        proxy.receive_auth(b"\x00\xffgarbage", now=0.0)
        proxy.receive_auth(b"", now=1.0)
        proxy.receive_auth(b'{"payload": "zz"}', now=2.0)
        assert proxy.validation.n_rejected_channel == 3

    def test_truncated_json_auth(self):
        proxy = _proxy()
        proxy.receive_auth(b'{"payload": "00", "signature"', now=0.0)
        assert proxy.validation.n_rejected_channel == 1

    def test_empty_trace_flush(self):
        proxy = _proxy()
        proxy.flush()  # must not raise
        assert proxy.decisions == []


class TestTimingAnomalies:
    def test_identical_timestamps(self):
        packets = [make_packet(timestamp=5.0) for _ in range(10)]
        labels = label_predictable(Trace(packets))
        assert len(labels) == 10  # zero IATs handled (bin 0 repeats)

    def test_out_of_order_packets_to_proxy(self):
        """A slightly reordered feed must not crash the proxy."""
        proxy = _proxy()
        times = [10.0, 10.4, 10.2, 10.9, 10.7]
        for t in times:
            proxy.process(
                make_packet(timestamp=t, device="SP10", size=int(200 + t * 10))
            )
        proxy.flush()
        assert len(proxy.decisions) >= 1

    def test_event_spanning_bootstrap_boundary(self):
        proxy = _proxy(bootstrap_s=10.0)
        # packets at 9.9 (bootstrap) and 10.1 (enforcement)
        assert proxy.process(make_packet(timestamp=9.9, device="SP10", size=235))
        proxy.process(make_packet(timestamp=10.1, device="SP10", size=180))
        proxy.flush()
        # enforcement-side packet starts a fresh event; no crash, a decision exists
        assert len(proxy.decisions) == 1


class TestResourceExhaustion:
    def test_replay_cache_flood(self):
        cache = ReplayCache(window_seconds=1e9, max_entries=100)
        for i in range(10_000):
            cache.check_and_register(f"nonce-{i}", now=float(i))
        assert len(cache) <= 101

    def test_many_devices_many_events(self):
        proxy = _proxy()
        rng = np.random.default_rng(0)
        t = 0.0
        for i in range(300):
            device = f"ghost-{i % 20}"
            proxy.process(
                make_packet(
                    timestamp=t, device=device, size=int(rng.integers(100, 1400))
                )
            )
            t += 7.0
        proxy.flush()
        # unknown devices fail open but are all logged
        assert len(proxy.decisions) == 300


class TestAdversarialEdgeCases:
    def test_attacker_mimics_rule_size_still_needs_human(self):
        """Knowing the 235 B signature does not help without a proof."""
        proxy = _proxy()
        allowed = proxy.process(make_packet(timestamp=0.0, device="SP10", size=235))
        proxy.flush()
        assert not allowed

    def test_lockout_not_triggered_by_benign_traffic(self):
        proxy = _proxy()
        for i in range(10):
            proxy.process(
                make_packet(timestamp=float(i * 30), device="SP10", size=150 + i)
            )
        proxy.flush()
        assert not proxy.is_locked("SP10")

    def test_lockout_threshold_respected(self):
        proxy = _proxy(lockout_threshold=2)
        for i in range(2):
            proxy.process(make_packet(timestamp=float(i * 30), device="SP10", size=235))
        assert proxy.is_locked("SP10")

    def test_violations_outside_window_forgotten(self):
        proxy = _proxy(lockout_threshold=3)
        # three violations, but spread far beyond the lockout window
        for i in range(3):
            proxy.process(
                make_packet(timestamp=float(i * 1000), device="SP10", size=235)
            )
        assert not proxy.is_locked("SP10")

    def test_zero_size_packets(self):
        proxy = _proxy()
        proxy.process(make_packet(timestamp=0.0, device="SP10", size=0))
        proxy.flush()
        assert len(proxy.decisions) == 1

    def test_signed_but_malformed_payload_rejected_not_crash(self):
        """A valid signature over a garbage payload is a 'malformed' reject."""
        proxy = _proxy()
        phone_ks, _ = pair("phone2", "proxy2")
        # Re-pair the proxy's receiver so the signature verifies.
        _, proxy_ks = pair("phone", "proxy")
        receiver_ks = proxy.validation.receiver.keystore
        bad_payloads = [
            b'{"app_package": "a"}',  # missing keys
            b'{"app_package": "a", "device_id": "d", "sensor_features": ["x"],'
            b' "sent_at": 0.0, "nonce": "n"}',  # non-numeric feature
            b'{"app_package": "a", "device_id": "d", "sensor_features": null,'
            b' "sent_at": 0.0, "nonce": "n"}',  # null features
            b"[1, 2, 3]",  # not an object
            b'{"app_package": "a", "device_id": "d", "sensor_features": [1.0],'
            b' "sent_at": "never", "nonce": "n"}',  # non-numeric timestamp
        ]
        for payload in bad_payloads:
            wire = receiver_ks.sign("fiat-pairing", payload).to_wire()
            proxy.receive_auth(wire, now=0.0)
        assert proxy.validation.n_rejected_channel == len(bad_payloads)
        assert proxy.validation.receiver.rejections["malformed"] == len(bad_payloads)


class TestNonFiniteProof:
    def test_nan_features_do_not_open_validation_breaker(self):
        """A signed proof whose features are not finite is a channel
        ``malformed`` reject, not a validation-service failure: after as
        many of them as the breaker's failure threshold, a genuine proof
        still registers."""
        proxy = _proxy()
        keystore = proxy.validation.receiver.keystore
        genuine = generate_humanness_dataset(n_per_class=1, seed=3)[0][0].tolist()
        poisoned = list(genuine)
        poisoned[7] = float("nan")

        def proof(features, nonce, now):
            message = AuthMessage(
                app_package="app", device_id="phone", sensor_features=tuple(features),
                sent_at=now, nonce=nonce,
            )
            return keystore.sign("fiat-pairing", message.to_payload()).to_wire()

        threshold = proxy.config.breaker_failure_threshold
        for i in range(threshold):
            assert proxy.receive_auth(proof(poisoned, f"bad-{i}", 1.0 + i), now=1.0 + i) is None
        assert proxy.validation.receiver.rejections == {"malformed": threshold}
        assert proxy.health["validation_errors"] == 0
        assert proxy.breakers["validation"].state is BreakerState.CLOSED
        interaction = proxy.receive_auth(proof(genuine, "good", 5.0), now=5.0)
        assert interaction is not None and interaction.app_package == "app"
        assert proxy.health["auth_dropped_breaker_open"] == 0


def _system(config=None, seed=0, devices=("SP10",)):
    """A small rule-device FIAT deployment (no ML training: fast + exact)."""
    return FiatSystem(
        list(devices), config=config or FiatConfig(bootstrap_s=0.0), seed=seed
    )


def _manual_decisions(system):
    return [
        d
        for d in system.proxy.decisions
        if d.event_id and "-manual-" in d.event_id
    ]


class TestResilientProofDelivery:
    """Retransmission over a lossy channel recovers manual authorizations."""

    def test_lossy_channel_recovers_authorizations(self):
        """30% proof loss: >= 95% of the lossless authorizations survive."""
        def run(plan):
            system = _system()
            system.run_accuracy(n_manual=40, n_non_manual=10, n_attacks=5, faults=plan)
            return system

        lossless = run(FaultPlan(seed=7))
        lossy = run(FaultPlan(seed=7, loss_rate=0.3))
        baseline = sum(not d.blocked for d in _manual_decisions(lossless))
        recovered = sum(not d.blocked for d in _manual_decisions(lossy))
        assert baseline > 0
        assert recovered >= 0.95 * baseline
        # the channel really was lossy, and retransmission really ran
        assert lossy._fault_link.n_lost > 0
        assert any(r.n_attempts > 1 for r in lossy.auth_reports)
        assert all(r.acked for r in lossy.auth_reports if r.n_attempts == 1)

    def test_retransmission_backoff_is_exponential_with_deadline(self):
        system = _system(
            config=FiatConfig(
                bootstrap_s=0.0,
                retry_initial_rto_ms=100.0,
                retry_backoff=2.0,
                retry_jitter_ms=0.0,
                retry_deadline_ms=1000.0,
            )
        )
        system.run_accuracy(n_manual=5, n_non_manual=0, n_attacks=0,
                            faults=FaultPlan(seed=0, loss_rate=1.0))
        for report in system.auth_reports:
            assert not report.acked
            gaps = np.diff(report.attempt_times)
            # gaps double: 0.1, 0.2, 0.4 — the next (0.8) lands past the deadline
            assert np.allclose(gaps, [0.1, 0.2, 0.4])
            assert report.attempt_times[-1] - report.attempt_times[0] <= 1.0

    def test_duplicates_and_corruption_do_not_double_count(self):
        plan = FaultPlan(seed=5, duplicate_rate=0.5, corruption_rate=0.2,
                         delay_jitter_ms=30.0)
        system = _system()
        system.run_accuracy(n_manual=20, n_non_manual=5, n_attacks=0, faults=plan)
        manual = _manual_decisions(system)
        # duplicates are absorbed by the replay cache, corruption by the
        # signature check; no crash, and most events still authorize
        assert sum(not d.blocked for d in manual) >= 0.9 * len(manual)
        rejections = system.validation.receiver.rejections
        if system._fault_link.n_duplicated:
            assert "replay" in rejections
        if system._fault_link.n_corrupted:
            assert any(r in ("malformed", "bad-signature") for r in rejections)

    def test_clock_skew_defeats_freshness_then_retry_gives_up(self):
        """Skew beyond the freshness window rejects every honest proof."""
        plan = FaultPlan(seed=0, clock_skew_s=120.0)
        system = _system()
        system.run_accuracy(n_manual=10, n_non_manual=0, n_attacks=0, faults=plan)
        assert all(not r.acked for r in system.auth_reports)
        assert "stale" in system.validation.receiver.rejections
        assert all(d.blocked for d in _manual_decisions(system))


class TestRetryDeterminism:
    """Same seed + same fault plan => identical schedules and decisions."""

    def test_decision_log_byte_identical(self):
        def run():
            system = _system()
            system.run_accuracy(
                n_manual=10, n_non_manual=6, n_attacks=4,
                faults=FaultPlan(seed=11, loss_rate=0.3, duplicate_rate=0.1,
                                 corruption_rate=0.05, delay_jitter_ms=20.0),
            )
            return system

        a, b = run(), run()
        assert a.proxy.decision_log() == b.proxy.decision_log()
        # decision_log is canonical JSON, parseable and field-stable
        log = json.loads(a.proxy.decision_log())
        assert all("degraded" in entry for entry in log)

    def test_retransmission_schedule_reproducible(self):
        def schedules():
            system = _system()
            system.run_accuracy(n_manual=12, n_non_manual=0, n_attacks=0,
                                faults=FaultPlan(seed=3, loss_rate=0.4))
            return [tuple(r.attempt_times) for r in system.auth_reports]

        assert schedules() == schedules()

    def test_different_seed_different_schedule(self):
        def run(seed):
            system = _system()
            system.run_accuracy(n_manual=12, n_non_manual=0, n_attacks=0,
                                faults=FaultPlan(seed=seed, loss_rate=0.4))
            return [tuple(r.attempt_times) for r in system.auth_reports]

        assert run(3) != run(4)


class TestDegradedModes:
    """Component outages: circuit breakers + configurable degraded policy."""

    def test_validation_outage_fails_closed_and_recovers(self):
        plan = FaultPlan(seed=1, outages=(OutageWindow("validation", 200.0, 400.0),))
        system = _system(config=FiatConfig(bootstrap_s=0.0, breaker_recovery_s=20.0))
        system.run_accuracy(n_manual=30, n_non_manual=5, n_attacks=0, faults=plan)
        manual = _manual_decisions(system)
        during = [d for d in manual if 200.0 <= d.start < 400.0]
        after = [d for d in manual if d.start >= 430.0]
        # fail-closed: no unauthenticated manual traffic during the outage
        assert during and all(d.blocked for d in during)
        assert all(d.degraded == "validation-outage:fail-closed" for d in during)
        # health alerts fired, and none of the degraded drops locked the device
        health = [a for a in system.proxy.alerts if a.kind == "health"]
        assert any("circuit opened" in a.reason for a in health)
        assert any("fail-closed" in a.reason for a in health)
        assert not system.proxy.is_locked("SP10")
        # automatic recovery once the breaker's probe succeeds
        assert after and all(not d.blocked for d in after)
        assert any("recovered" in a.reason for a in health)
        assert system.proxy.health["degraded_decisions"] == len(during)

    def test_classifier_outage_rule_only_fallback(self):
        """A broken classifier leaves rules: unpredictable => needs a proof."""
        plan = FaultPlan(seed=1, outages=(OutageWindow("classifier:SP10", 100.0, 500.0),))
        system = _system(config=FiatConfig(bootstrap_s=0.0, breaker_recovery_s=30.0))
        system.run_accuracy(n_manual=10, n_non_manual=10, n_attacks=0, faults=plan)
        degraded = [d for d in system.proxy.decisions
                    if d.degraded and d.degraded.startswith("classifier-fallback")]
        assert degraded
        # assume-manual: events with a fresh proof pass, the rest drop
        manual_deg = [d for d in degraded if d.event_id and "-manual-" in d.event_id]
        nonman_deg = [d for d in degraded if d.event_id and (
            "-automated-" in d.event_id or "-control-" in d.event_id)]
        # humanness validation still has its intrinsic false-reject rate
        # (low-intensity touches), so demand "most", not "all"
        assert manual_deg
        assert sum(not d.blocked for d in manual_deg) >= 0.8 * len(manual_deg)
        assert all(d.human_backed is False for d in manual_deg if d.blocked)
        # non-manual events drop unless a recent proof still covers them
        # (a manual proof's 60 s validity can bleed into the next event)
        assert nonman_deg
        assert all(d.blocked for d in nonman_deg if not d.human_backed)
        assert any(d.blocked for d in nonman_deg)
        assert system.proxy.health["classifier_errors"] > 0

    def test_sensor_dropout_blocks_manual_but_never_crashes(self):
        plan = FaultPlan(seed=2, sensor_dropout_rate=1.0)
        system = _system()
        system.run_accuracy(n_manual=10, n_non_manual=0, n_attacks=0, faults=plan)
        manual = _manual_decisions(system)
        # still-phone windows fail the humanness check: manual is blocked,
        # modulo the validator's small still-window false-positive rate
        # (§5) — one FP's 60 s validity can also cover the next event
        assert manual
        blocked = sum(d.blocked for d in manual)
        assert blocked > len(manual) / 2
        assert system.human_confusion["tp"] == 0  # no genuine proof ever sent
        assert 2 * system.human_confusion["fp"] >= len(manual) - blocked
        assert all(r.acked for r in system.auth_reports)
