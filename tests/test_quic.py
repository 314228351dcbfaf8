"""Unit tests for transport latency models and the auth channel."""

import numpy as np
import pytest

from repro.crypto import pair
from repro.quic import (
    LAN_PATH,
    MOBILE_PATH,
    AuthChannel,
    AuthMessage,
    ChannelReceiver,
    NetworkPath,
    Transport,
    connection_latency,
)


class TestLatencyModel:
    def test_zero_rtt_fastest(self, rng):
        samples = {
            transport: np.mean(
                [connection_latency(transport, LAN_PATH, rng) for _ in range(200)]
            )
            for transport in Transport
        }
        assert samples[Transport.QUIC_0RTT] < samples[Transport.QUIC_1RTT]
        assert samples[Transport.QUIC_1RTT] < samples[Transport.TCP_TLS]

    def test_mobile_slower_than_lan(self, rng):
        lan = np.mean([connection_latency(Transport.QUIC_0RTT, LAN_PATH, rng) for _ in range(100)])
        mob = np.mean(
            [connection_latency(Transport.QUIC_0RTT, MOBILE_PATH, rng) for _ in range(100)]
        )
        assert mob > 3 * lan

    def test_lan_zero_rtt_paper_band(self, rng):
        # Table 7: QUIC 0-RTT on LAN is ~21-23 ms.
        mean = np.mean([connection_latency(Transport.QUIC_0RTT, LAN_PATH, rng) for _ in range(300)])
        assert 10.0 < mean < 40.0

    def test_path_sampling_positive(self, rng):
        path = NetworkPath("x", base_rtt_ms=50.0, jitter_sigma=0.5)
        assert all(path.sample_rtt(rng) > 0 for _ in range(100))


#: A proof's sensor features: the channel accepts exactly 48 finite numbers.
FEATURES = [0.125 * i for i in range(48)]


def _channel_pair(transport=Transport.QUIC_0RTT):
    phone_ks, proxy_ks = pair("phone", "proxy")
    channel = AuthChannel(
        keystore=phone_ks,
        key_alias="fiat-pairing",
        device_id="phone-1",
        path=LAN_PATH,
        transport=transport,
        rng=np.random.default_rng(0),
    )
    receiver = ChannelReceiver(proxy_ks)
    return channel, receiver


class TestAuthChannel:
    def test_roundtrip(self):
        channel, receiver = _channel_pair()
        wire = channel.prepare("com.nest.android", FEATURES, now=100.0)
        message = receiver.receive(wire, now=100.2)
        assert message is not None
        assert message.app_package == "com.nest.android"
        assert message.sensor_features == tuple(FEATURES)

    def test_replay_rejected(self):
        channel, receiver = _channel_pair()
        wire = channel.prepare("app", FEATURES, now=100.0)
        assert receiver.receive(wire, now=100.1) is not None
        assert receiver.receive(wire, now=100.2) is None
        assert receiver.receive(wire, now=100.3) is None
        assert receiver.rejections == {"replay": 2}

    def test_stale_message_rejected(self):
        channel, receiver = _channel_pair()
        wire = channel.prepare("app", FEATURES, now=100.0)
        assert receiver.receive(wire, now=500.0) is None
        assert "stale" in receiver.rejections

    def test_future_message_rejected(self):
        channel, receiver = _channel_pair()
        wire = channel.prepare("app", FEATURES, now=200.0)
        assert receiver.receive(wire, now=100.0) is None

    def test_unauthorized_device_rejected(self):
        _, receiver = _channel_pair()
        rogue_channel, _ = _channel_pair()  # different pairing
        wire = rogue_channel.prepare("app", FEATURES, now=100.0)
        assert receiver.receive(wire, now=100.1) is None
        assert "bad-signature" in receiver.rejections

    def test_malformed_wire_rejected(self):
        _, receiver = _channel_pair()
        assert receiver.receive(b"garbage", now=0.0) is None
        assert "malformed" in receiver.rejections

    def test_message_payload_roundtrip(self):
        message = AuthMessage(
            app_package="a", device_id="d", sensor_features=tuple(FEATURES), sent_at=5.0,
            nonce="n",
        )
        assert AuthMessage.from_payload(message.to_payload()) == message

    @pytest.mark.parametrize(
        "features",
        [
            FEATURES[:7] + [float("nan")] + FEATURES[8:],
            FEATURES[:-1] + [float("inf")],
            [float("-inf")] + FEATURES[1:],
            FEATURES[:-1],
            FEATURES + [1.0],
        ],
        ids=["nan", "inf", "-inf", "47-features", "49-features"],
    )
    def test_features_not_48_finite_numbers_are_malformed(self, features):
        channel, receiver = _channel_pair()
        wire = channel.prepare("app", features, now=100.0)
        assert receiver.receive(wire, now=100.1) is None
        assert receiver.rejections == {"malformed": 1}

    def test_overflowing_feature_literal_is_malformed(self):
        message = AuthMessage(
            app_package="a", device_id="d", sensor_features=tuple(FEATURES), sent_at=5.0,
            nonce="n",
        )
        payload = message.to_payload().replace(b"0.125,", b"1e999,", 1)
        with pytest.raises(ValueError, match="48 finite numbers"):
            AuthMessage.from_payload(payload)

    def test_latency_attached(self):
        channel, _ = _channel_pair()
        assert channel.sample_latency() > 0.0
