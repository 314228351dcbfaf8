"""Unit tests for transport latency models and the auth channel."""

import random
import struct

import numpy as np
import pytest

from repro.crypto import SignedMessage, pair
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

    def test_latency_attached(self):
        channel, _ = _channel_pair()
        assert channel.sample_latency() > 0.0



class TestWireRobustness:
    """Damaged wires are rejected with exactly one reason and never raise."""

    NOW = 100.1

    @pytest.fixture()
    def sent(self):
        channel, receiver = _channel_pair()
        wire = channel.prepare("com.nest.android", FEATURES, now=100.0, trace_id="t-1")
        return wire, receiver

    @staticmethod
    def _rejected_once(receiver, wire, now=NOW):
        before = sum(receiver.rejections.values())
        assert receiver.receive(wire, now) is None
        assert sum(receiver.rejections.values()) == before + 1

    @staticmethod
    def _payload(**changes):
        fields = dict(app_package="app", device_id="phone-1", sensor_features=tuple(FEATURES),
                      sent_at=100.0, nonce="n-1", trace_id="")
        fields.update(changes)
        return AuthMessage(**fields).to_payload()

    @staticmethod
    def _signed(receiver, payload):
        """``payload`` signed with the pairing key, as wire bytes."""
        return receiver.keystore.sign("fiat-pairing", payload).to_wire()

    def test_every_truncation_is_rejected(self, sent):
        wire, receiver = sent
        for end in range(len(wire)):
            self._rejected_once(receiver, wire[:end])
        assert set(receiver.rejections) <= {"malformed", "bad-signature"}
        assert receiver.receive(wire, self.NOW) is not None  # the intact wire still verifies

    def test_every_single_bit_flip_is_rejected(self, sent):
        wire, receiver = sent
        for index in range(len(wire)):
            for bit in range(8):
                damaged = bytearray(wire)
                damaged[index] ^= 1 << bit
                self._rejected_once(receiver, bytes(damaged))
        assert set(receiver.rejections) <= {"malformed", "bad-signature"}
        assert receiver.rejections["malformed"] >= 8  # at least every flip of the format byte

    def test_random_bytes_are_rejected(self, sent):
        wire, receiver = sent
        rng = random.Random(0)
        for _ in range(500):
            junk = rng.randbytes(rng.randrange(len(wire) + 64))
            self._rejected_once(receiver, junk)
            self._rejected_once(receiver, wire[:1] + junk)  # past the format byte
            self._rejected_once(receiver, wire[: 34 + wire[33]] + junk)  # past the key alias
        before = receiver.rejections["malformed"]
        for _ in range(500):
            junk = rng.randbytes(rng.randrange(600))
            self._rejected_once(receiver, self._signed(receiver, junk))
        assert receiver.rejections["malformed"] == before + 500  # signed junk never parses

    @pytest.mark.parametrize("n_features", [47, 49])
    def test_signed_wrong_feature_count_is_malformed(self, sent, n_features):
        _, receiver = sent
        features = (FEATURES * 2)[:n_features]
        payload = self._payload(sensor_features=tuple(features))
        assert receiver.receive(self._signed(receiver, payload), self.NOW) is None
        assert receiver.rejections == {"malformed": 1}

    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: p + b"\x00",
            lambda p: p + b"\x02ab",
            lambda p: p[:-1] + b"\x05",  # the last string's length runs past the end
            lambda p: p[:-1],  # the last string's length byte is missing
            lambda p: p[:100],  # cut inside the feature block
            lambda p: p.replace(b"\x03n-1", b"\x03\xff\xfe\xfd"),  # nonce not UTF-8
        ],
        ids=["trailing-byte", "trailing-string", "length-past-end", "no-length", "short-block",
             "bad-utf8"],
    )
    def test_signed_malformed_payload(self, sent, damage):
        _, receiver = sent
        wire = self._signed(receiver, damage(self._payload()))
        assert receiver.receive(wire, self.NOW) is None
        assert receiver.rejections == {"malformed": 1}

    def test_signed_payload_roundtrip_is_exact(self, sent):
        _, receiver = sent
        features = tuple(float.fromhex(f"0x1.{i:013x}p-{i}") for i in range(48))
        payload = self._payload(sensor_features=features, sent_at=100.0 + 2.0**-40, trace_id="é")
        message = receiver.receive(self._signed(receiver, payload), self.NOW)
        assert message.sensor_features == features
        assert message.sent_at == 100.0 + 2.0**-40
        assert message.trace_id == "é"

    def test_feature_block_layout(self):
        payload = self._payload()
        sent_at, count, *features = struct.unpack_from("<dB48d", payload)
        assert (sent_at, count, features) == (100.0, 48, FEATURES)
        assert payload[struct.calcsize("<dB48d"):] == b"\x03app\x07phone-1\x03n-1\x00"
