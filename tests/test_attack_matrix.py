"""End-to-end threat-model matrix: every §5.1/§7 attacker vs FIAT."""

import numpy as np
import pytest

from repro.core import FiatConfig, FiatSystem
from repro.core.validation import HUMAN_VALIDITY_S
from repro.testbed import (
    AccountCompromiseAttack,
    BruteForceAttack,
    ReplayAttack,
    SpywareSyncAttack,
)

DEVICE = "SP10"  # rule device: classification is deterministic


@pytest.fixture
def system():
    return FiatSystem([DEVICE], config=FiatConfig(bootstrap_s=0.0), seed=21)


def _run(system, packets):
    allowed = [system.proxy.process(p) for p in packets]
    system.proxy.flush()
    return all(allowed)


class TestAccountCompromise:
    def test_blocked_without_any_proof(self, system):
        attack = AccountCompromiseAttack(system.cloud, seed=1)
        for i in range(5):
            event = attack.launch(DEVICE, start=100.0 + 40.0 * i)
            assert not _run(system, event.packets)
            system.proxy.unlock(DEVICE)

    def test_alerts_generated(self, system):
        attack = AccountCompromiseAttack(system.cloud, seed=1)
        _run(system, attack.launch(DEVICE, start=100.0).packets)
        assert system.proxy.alerts


class TestReplay:
    def test_replayed_proof_rejected(self, system):
        # Capture a genuine proof...
        interaction = system.phone.interact(DEVICE, 50.0, human=True, intensity=1.2)
        attempt = system.app.authenticate(interaction, now=50.0)
        system.proxy.receive_auth(attempt.wire, now=50.1)
        # ...the original command goes through:
        attack = ReplayAttack(system.cloud, seed=2)
        genuine = attack.launch(DEVICE, start=51.0)
        assert _run(system, genuine.packets)
        # Much later, the attacker replays the captured wire:
        system.proxy.receive_auth(attempt.wire, now=400.0)
        replayed = attack.launch_with_wire(DEVICE, 401.0, attempt.wire)
        assert not _run(system, replayed.packets)
        assert "replay" in system.validation.receiver.rejections or (
            "stale" in system.validation.receiver.rejections
        )

    def test_immediate_replay_also_rejected(self, system):
        """Replay inside the freshness window is caught by the nonce cache."""
        interaction = system.phone.interact(DEVICE, 50.0, human=True, intensity=1.2)
        attempt = system.app.authenticate(interaction, now=50.0)
        assert system.validation.ingest(attempt.wire, now=50.1) is not None
        assert system.validation.ingest(attempt.wire, now=50.5) is None
        assert "replay" in system.validation.receiver.rejections


class TestBruteForce:
    def test_lockout_engages(self, system):
        attack = BruteForceAttack(system.cloud, seed=3)
        for event in attack.launch_burst(DEVICE, start=100.0, attempts=5, gap_s=20.0):
            _run(system, event.packets)
        assert system.proxy.is_locked(DEVICE)

    def test_lockout_blocks_even_rule_hits(self, system):
        attack = BruteForceAttack(system.cloud, seed=3)
        for event in attack.launch_burst(DEVICE, start=100.0, attempts=5, gap_s=20.0):
            _run(system, event.packets)
        # even an otherwise-fine control packet is now dropped
        from tests.conftest import make_packet

        assert not system.proxy.process(make_packet(timestamp=300.0, device=DEVICE))


class TestSpywarePiggyback:
    def test_succeeds_when_synchronized(self, system):
        """The §7 residual risk, reproduced end-to-end."""
        when = 100.0
        interaction = system.phone.interact(DEVICE, when - 0.5, human=True, intensity=1.2)
        attempt = system.app.authenticate(interaction, now=when - 0.5)
        system.proxy.receive_auth(attempt.wire, now=when - 0.4)
        attack = SpywareSyncAttack(system.cloud, seed=4)
        event = attack.launch(DEVICE, start=when)
        assert event.synchronized_with_user
        assert _run(system, event.packets)  # piggybacks on the real human

    def test_fails_outside_validity_window(self, system):
        interaction = system.phone.interact(DEVICE, 100.0, human=True, intensity=1.2)
        attempt = system.app.authenticate(interaction, now=100.0)
        system.proxy.receive_auth(attempt.wire, now=100.1)
        attack = SpywareSyncAttack(system.cloud, seed=4)
        # the attacker waits too long: the proof has expired
        event = attack.launch(DEVICE, start=100.1 + HUMAN_VALIDITY_S + 5.0)
        assert not _run(system, event.packets)

    def test_still_phone_spyware_fails(self, system):
        """Spyware that forwards sensor data from an untouched phone."""
        when = 100.0
        interaction = system.phone.interact(DEVICE, when - 0.5, human=False)
        attempt = system.app.authenticate(interaction, now=when - 0.5)
        system.proxy.receive_auth(attempt.wire, now=when - 0.4)
        attack = SpywareSyncAttack(system.cloud, seed=5)
        assert not _run(system, attack.launch(DEVICE, start=when).packets)
