"""Unit tests for the 66 packet-event features (§4.1)."""

import numpy as np
import pytest

from repro.events import UnpredictableEvent
from repro.features import (
    FEATURE_NAMES,
    FIRST_N_PACKETS,
    N_FEATURES,
    event_features,
    event_labels,
    events_to_matrix,
)
from repro.net import Direction, TrafficClass
from tests.conftest import make_packet


def _event(n, **kwargs):
    return UnpredictableEvent(
        packets=[make_packet(timestamp=float(i) * 0.1, **kwargs) for i in range(n)]
    )


class TestLayout:
    def test_exactly_66_features(self):
        assert N_FEATURES == 66
        assert len(FEATURE_NAMES) == 66

    def test_names_match_paper_table4(self):
        # Table 4 references these exact names.
        for name in ("pkt1-proto", "pkt1-direction", "pkt3-tls", "pkt3-tcp-flags",
                     "pkt1-dst-ip1", "pkt2-dst-ip1"):
            assert name in FEATURE_NAMES

    def test_vector_length(self):
        assert event_features(_event(3)).shape == (66,)

    def test_empty_event_rejected(self):
        with pytest.raises(ValueError):
            event_features(UnpredictableEvent(packets=[]))


class TestValues:
    def test_short_event_zero_padded(self):
        features = event_features(_event(2))
        # pkt3..pkt5 blocks all zero
        for i in range(3, 6):
            start = FEATURE_NAMES.index(f"pkt{i}-direction")
            assert np.all(features[start : start + 11] == 0.0)

    def test_only_first_n_counted(self):
        features = event_features(_event(20))
        n_packets_index = FEATURE_NAMES.index("n-packets")
        assert features[n_packets_index] == FIRST_N_PACKETS

    def test_direction_encoding(self):
        out = event_features(_event(1, direction=Direction.OUTBOUND))
        assert out[FEATURE_NAMES.index("pkt1-direction")] == 1.0
        inb = event_features(
            _event(1, direction=Direction.INBOUND, src_ip="1.2.3.4", dst_ip="192.168.1.10")
        )
        assert inb[FEATURE_NAMES.index("pkt1-direction")] == 0.0

    def test_remote_ip_octets(self):
        features = event_features(_event(1, dst_ip="172.16.5.9"))
        base = FEATURE_NAMES.index("pkt1-dst-ip1")
        assert list(features[base : base + 4]) == [172.0, 16.0, 5.0, 9.0]

    def test_malformed_ip_zeroed(self):
        features = event_features(_event(1, dst_ip="not-an-ip"))
        base = FEATURE_NAMES.index("pkt1-dst-ip1")
        assert list(features[base : base + 4]) == [0.0] * 4

    def test_iat_features(self):
        features = event_features(_event(3))
        assert features[FEATURE_NAMES.index("pkt2-iat")] == pytest.approx(0.1)
        assert features[FEATURE_NAMES.index("pkt5-iat")] == 0.0

    def test_aggregates(self):
        event = UnpredictableEvent(
            packets=[
                make_packet(timestamp=0.0, size=100),
                make_packet(timestamp=1.0, size=300),
            ]
        )
        features = event_features(event)
        assert features[FEATURE_NAMES.index("total-bytes")] == 400.0
        assert features[FEATURE_NAMES.index("mean-len")] == 200.0
        assert features[FEATURE_NAMES.index("duration")] == 1.0


class TestSequences:
    def test_sequence_shapes(self):
        from repro.features import event_sequences

        events = [_event(3), _event(8)]
        sequences = event_sequences(events, n=5)
        assert sequences[0].shape == (3, 12)
        assert sequences[1].shape == (5, 12)  # truncated to first N

    def test_iat_column(self):
        from repro.features import event_sequences

        sequences = event_sequences([_event(3)])
        iats = sequences[0][:, -1]
        assert iats[0] == 0.0
        assert iats[1] == pytest.approx(0.1)

    def test_per_packet_rows_match_flat_features(self):
        from repro.features import event_sequences

        event = _event(2, dst_ip="172.16.5.9")
        seq = event_sequences([event])[0]
        flat = event_features(event)
        # the first 11 columns of row 0 equal the pkt1 block
        assert list(seq[0, :11]) == list(flat[:11])


class TestMatrixAndLabels:
    def test_matrix_shape(self):
        events = [_event(3), _event(5), _event(1)]
        assert events_to_matrix(events).shape == (3, 66)

    def test_empty_matrix(self):
        assert events_to_matrix([]).shape == (0, 66)
        assert events_to_matrix([], 3).shape == events_to_matrix([_event(3)], 3)[:0].shape

    def test_labels_three_way(self):
        events = [
            _event(2, traffic_class=TrafficClass.CONTROL),
            _event(2, traffic_class=TrafficClass.MANUAL),
            _event(2, traffic_class=TrafficClass.ATTACK),
        ]
        assert list(event_labels(events)) == ["control", "manual", "manual"]

    def test_labels_binary(self):
        events = [
            _event(2, traffic_class=TrafficClass.AUTOMATED),
            _event(2, traffic_class=TrafficClass.MANUAL),
        ]
        assert list(event_labels(events, binary=True)) == ["non_manual", "manual"]
