"""Unit tests for the validation service and the client app."""

import json

import pytest

from repro.core import FiatApp, HumanValidationService
from repro.crypto import pair
from repro.quic import LAN_PATH, Transport
from repro.sensors import HumannessValidator
from repro.testbed import Phone


@pytest.fixture(scope="module")
def stack():
    phone_ks, proxy_ks = pair("phone", "proxy")
    app = FiatApp(
        keystore=phone_ks,
        key_alias="fiat-pairing",
        device_id="phone-1",
        path=LAN_PATH,
        transport=Transport.QUIC_0RTT,
        seed=0,
    )
    service = HumanValidationService(
        proxy_ks, validator=HumannessValidator(n_train_per_class=150, seed=0).fit()
    )
    return app, service, Phone(seed=0)


class TestClientApp:
    def test_attempt_components(self, stack):
        app, _, phone = stack
        interaction = phone.interact("Nest-E", 10.0, human=True, intensity=1.0)
        attempt = app.authenticate(interaction, now=10.0)
        for key in ("app_detection", "sensor_sampling", "secure_storage", "transport",
                    "ml_validation"):
            assert attempt.components[key] > 0.0

    def test_time_to_validation_excludes_sampling(self, stack):
        app, _, phone = stack
        interaction = phone.interact("Nest-E", 10.0, human=True)
        attempt = app.authenticate(interaction, now=10.0)
        total = attempt.time_to_validation_ms
        assert total < sum(attempt.components.values())
        assert total == pytest.approx(
            attempt.components["app_detection"]
            + attempt.components["secure_storage"]
            + attempt.components["transport"]
        )


class TestValidationService:
    def test_human_proof_registers(self, stack):
        app, service, phone = stack
        interaction = phone.interact("Nest-E", 20.0, human=True, intensity=1.2)
        attempt = app.authenticate(interaction, now=20.0)
        recorded = service.ingest(attempt.wire, now=20.1)
        assert recorded is not None and recorded.human
        assert service.has_recent_human(interaction.app_package, now=25.0)

    def test_non_human_proof_does_not_authorize(self, stack):
        app, service, phone = stack
        interaction = phone.interact("SP10", 40.0, human=False)
        attempt = app.authenticate(interaction, now=40.0)
        recorded = service.ingest(attempt.wire, now=40.1)
        assert recorded is not None and not recorded.human
        assert not service.has_recent_human(interaction.app_package, now=41.0)

    def test_validity_window_expires(self, stack):
        app, service, phone = stack
        interaction = phone.interact("E4", 100.0, human=True, intensity=1.2)
        attempt = app.authenticate(interaction, now=100.0)
        service.ingest(attempt.wire, now=100.1)
        assert service.has_recent_human(interaction.app_package, now=120.0)
        assert not service.has_recent_human(interaction.app_package, now=100.1 + 61.0)

    def test_wrong_app_not_authorized(self, stack):
        app, service, phone = stack
        interaction = phone.interact("Blink", 200.0, human=True, intensity=1.2)
        attempt = app.authenticate(interaction, now=200.0)
        service.ingest(attempt.wire, now=200.1)
        assert not service.has_recent_human("com.other.app", now=201.0)

    def test_channel_rejection_counted(self, stack):
        _, service, _ = stack
        before = service.n_rejected_channel
        assert service.ingest(b"garbage", now=0.0) is None
        assert service.n_rejected_channel == before + 1

    def test_prune(self, stack):
        app, service, phone = stack
        interaction = phone.interact("WP3", 300.0, human=True, intensity=1.2)
        attempt = app.authenticate(interaction, now=300.0)
        service.ingest(attempt.wire, now=300.1)
        service.prune(now=1000.0)
        assert not service.has_recent_human(interaction.app_package, now=1000.0)


class TestChannelRejectCounts:
    def test_replays_of_one_wire_keep_state_bounded(self, stack):
        _, shared, phone = stack
        phone_ks, proxy_ks = pair("phone", "proxy")
        app = FiatApp(
            keystore=phone_ks, key_alias="fiat-pairing", device_id="phone-1", path=LAN_PATH,
            seed=1,
        )
        service = HumanValidationService(proxy_ks, validator=shared.validator)
        interaction = phone.interact("Nest-E", 10.0, human=True, intensity=1.2)
        wire = app.authenticate(interaction, now=10.0).wire
        assert service.ingest(wire, now=10.1) is not None
        assert service.ingest(wire, now=10.2) is None
        size_after_first_replay = len(json.dumps(service.to_state()))
        for _ in range(9999):
            assert service.ingest(wire, now=10.2) is None
        assert service.receiver.rejections["replay"] == 10000
        assert service.n_rejected_channel == 10000
        # Only the digits of the one replay tally grow ("1" -> "10000").
        assert len(json.dumps(service.to_state())) - size_after_first_replay == 4

    def test_counts_survive_restore(self, stack):
        _, shared, _ = stack
        service = HumanValidationService(pair("phone", "proxy")[1], validator=shared.validator)
        for _ in range(3):
            service.ingest(b"garbage", now=0.0)
        restored = HumanValidationService(pair("phone", "proxy")[1], validator=shared.validator)
        restored.restore(json.loads(json.dumps(service.to_state())))
        assert restored.receiver.rejections == {"malformed": 3}
        assert restored.to_state() == service.to_state()

    @pytest.mark.parametrize("version", [1, 3])
    def test_other_versions_refused(self, stack, version):
        """Only v2 loads: a v1 state (one rejection list entry per proof) is refused."""
        _, shared, _ = stack
        service = HumanValidationService(pair("phone", "proxy")[1], validator=shared.validator)
        service.ingest(b"garbage", now=0.0)
        before = json.dumps(service.to_state())
        state = json.loads(before)
        state["v"] = version
        if version == 1:
            state["receiver"]["rejections"] = ["replay", "stale", "replay"]
        with pytest.raises(ValueError, match=f"state version: {version}"):
            service.restore(state)
        assert json.dumps(service.to_state()) == before

    def test_state_with_stored_tallies_loads(self, stack):
        """States that also stored the channel and replay tallies still load."""
        _, shared, _ = stack
        service = HumanValidationService(pair("phone", "proxy")[1], validator=shared.validator)
        state = service.to_state()
        state["n_rejected_channel"] = 3
        state["receiver"]["rejections"] = {"replay": 2, "malformed": 1}
        state["receiver"]["replay_cache"]["n_replays_detected"] = 2
        service.restore(state)
        assert service.n_rejected_channel == 3
        assert "n_rejected_channel" not in service.to_state()
        with pytest.raises(AttributeError):
            service.n_rejected_channel = 0
