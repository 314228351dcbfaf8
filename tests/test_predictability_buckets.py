"""Unit tests for the §2.1 bucket predictability heuristic."""

import pytest

from repro.net import DnsTable, FlowDefinition, Trace
from repro.predictability import BucketPredictor, label_predictable, quantize_iat
from tests.conftest import make_packet


class TestQuantize:
    def test_zero_and_negative_clamp(self):
        assert quantize_iat(0.0) == 0
        assert quantize_iat(-3.0) == 0

    def test_rounding_to_nearest_bin(self):
        assert quantize_iat(0.25, resolution=0.25) == 1
        assert quantize_iat(0.37, resolution=0.25) == 1
        assert quantize_iat(0.38, resolution=0.25) == 2

    def test_resolution_scales(self):
        assert quantize_iat(10.0, resolution=1.0) == 10
        assert quantize_iat(10.0, resolution=0.5) == 20


class TestOfflineLabelling:
    def test_periodic_flow_fully_predictable(self, periodic_trace):
        labels = label_predictable(periodic_trace)
        assert all(labels)

    def test_random_sizes_unpredictable(self, rng):
        packets = [
            make_packet(timestamp=float(t), size=int(rng.integers(100, 2000)))
            for t in range(0, 100, 10)
        ]
        labels = label_predictable(Trace(packets))
        # Distinct sizes -> distinct buckets -> no repeated IATs.
        assert not any(labels)

    def test_irregular_intervals_unpredictable(self):
        times = [0.0, 3.0, 10.0, 30.0, 70.0, 150.0]
        packets = [make_packet(timestamp=t) for t in times]
        labels = label_predictable(Trace(packets))
        assert not any(labels)

    def test_retroactive_marking(self):
        # One irregular packet, then a regular run: the first pair of the
        # repeated IAT must be marked too ("previous or future").
        times = [0.0, 7.3, 17.3, 27.3, 37.3]
        labels = label_predictable(Trace([make_packet(timestamp=t) for t in times]))
        assert labels == [False, True, True, True, True]

    def test_mask_length_matches(self, periodic_trace):
        assert len(label_predictable(periodic_trace)) == len(periodic_trace)

    def test_portless_merges_port_churn(self):
        # Same flow re-opened from a new source port every two packets:
        # each Classic bucket sees a single IAT (never repeated) while
        # the PortLess bucket sees the full periodic run.
        packets = [
            make_packet(timestamp=float(t), src_port=40000 + 7 * (t // 20))
            for t in range(0, 100, 10)
        ]
        trace = Trace(packets)
        portless = label_predictable(trace, FlowDefinition.PORTLESS)
        classic = label_predictable(trace, FlowDefinition.CLASSIC)
        assert all(portless)
        assert not any(classic)

    def test_domain_rotation_only_portless_predicts(self):
        # Load-balanced service: the flow hops between pool IPs of one
        # domain such that no per-IP bucket ever repeats an IAT.
        ips = ["a", "a", "b", "a", "c", "b", "d", "c", "d", "d"]
        pool = {name: f"172.0.0.{i + 1}" for i, name in enumerate("abcd")}
        dns = DnsTable([(ip, "api.x.com") for ip in pool.values()])
        packets = [
            make_packet(timestamp=float(t * 10), dst_ip=pool[ips[t]])
            for t in range(len(ips))
        ]
        trace = Trace(packets, dns=dns)
        assert all(label_predictable(trace, FlowDefinition.PORTLESS))
        assert not any(label_predictable(trace, FlowDefinition.CLASSIC))


class TestOnlinePredictor:
    def test_first_packets_not_predictable(self):
        predictor = BucketPredictor()
        assert predictor.observe(make_packet(timestamp=0.0)) is False
        assert predictor.observe(make_packet(timestamp=10.0)) is False

    def test_third_matching_packet_predictable(self):
        predictor = BucketPredictor()
        predictor.observe(make_packet(timestamp=0.0))
        predictor.observe(make_packet(timestamp=10.0))
        assert predictor.observe(make_packet(timestamp=20.0)) is True

    def test_learn_trace_builds_rules(self, periodic_trace):
        predictor = BucketPredictor()
        predictor.learn_trace(periodic_trace)
        recurring = predictor.recurring_buckets()
        assert len(recurring) == 1
        key, bins = recurring[0]
        assert quantize_iat(10.0) in bins

    def test_neighbor_bin_tolerance(self):
        predictor = BucketPredictor(resolution=0.25, neighbor_bins=1)
        predictor.observe(make_packet(timestamp=0.0))
        predictor.observe(make_packet(timestamp=10.0))
        # 10.2 s IAT falls into the adjacent bin: still a match.
        assert predictor.observe(make_packet(timestamp=20.2)) is True

    def test_no_neighbor_tolerance_strict(self):
        predictor = BucketPredictor(resolution=0.25, neighbor_bins=0)
        predictor.observe(make_packet(timestamp=0.0))
        predictor.observe(make_packet(timestamp=10.0))
        assert predictor.observe(make_packet(timestamp=20.2)) is False

    def test_n_buckets(self):
        predictor = BucketPredictor()
        predictor.observe(make_packet(size=100))
        predictor.observe(make_packet(size=200))
        assert predictor.n_buckets == 2

    def test_learned_bins_unknown_bucket_empty(self):
        predictor = BucketPredictor()
        assert predictor.learned_bins(("nope",)) == set()


class TestMaskMismatch:
    def test_group_events_rejects_bad_mask(self, periodic_trace):
        from repro.events import group_events

        with pytest.raises(ValueError, match="mask length"):
            group_events(periodic_trace, [True])


class TestQuantizeBinEdges:
    def test_docstring_edge_pins(self):
        # Rounds to *nearest* bin: 0.124 < res/2 stays in bin 0, 0.125
        # lands exactly on the half-way edge and rounds up into bin 1.
        assert quantize_iat(0.124) == 0
        assert quantize_iat(0.125) == 1

    def test_half_open_upper_edges(self):
        # Bin k >= 1 covers ((k - 0.5) * res, (k + 0.5) * res].
        assert quantize_iat(0.375) == 2
        assert quantize_iat(0.3749999) == 1
        assert quantize_iat(0.625) == 3


def _random_packets(seed, n=500, n_flows=8):
    import numpy as np

    rng = np.random.default_rng(seed)
    t = 0.0
    packets = []
    for _ in range(n):
        t += float(rng.choice([0.1, 0.25, 1.0, 7.5, 12.0]))
        flow = int(rng.integers(n_flows))
        packets.append(
            make_packet(timestamp=t, size=100 + flow, dst_ip=f"172.1.2.{flow}")
        )
    return packets


class TestOnlineMemoryBounded:
    def test_state_size_flat_over_long_run(self):
        """The memory-leak regression: per-packet history must be opt-in.

        A predictor fed 100k packets from a fixed set of flows and IATs
        must serialise to exactly the same size as one fed 10k — the
        online learner's state is O(buckets x bins), not O(packets).
        """
        import json

        def state_size(n):
            predictor = BucketPredictor()
            predictor.learn_trace(_random_packets(3, n=1000) * (n // 1000))
            return len(json.dumps(predictor.to_state()))

        small, large = state_size(10_000), state_size(100_000)
        # 10x the packets must not grow the state materially: only the
        # bin *counters* and n_observed gain digits.  The pre-fix
        # per-packet history would have grown this 10x.
        assert large < small * 1.2

    def test_tracking_opt_in_grows(self):
        predictor = BucketPredictor(track_packet_bins=True)
        packets = _random_packets(4, n=200)
        for packet in packets:
            predictor.observe(packet)
        total_history = sum(
            len(b.packet_bins) for b in predictor._buckets.values()
        )
        # One history entry per packet *with* a same-bucket predecessor.
        assert total_history == len(packets) - predictor.n_buckets

    def test_default_predictor_keeps_no_history(self):
        predictor = BucketPredictor()
        for packet in _random_packets(4, n=200):
            predictor.observe(packet)
        assert all(b.packet_bins == [] for b in predictor._buckets.values())


class TestStateVersioning:
    def _v1_state(self):
        tracking = BucketPredictor(track_packet_bins=True)
        for packet in _random_packets(6, n=120):
            tracking.observe(packet)
        state = tracking.to_state()
        state["v"] = 1
        del state["track_packet_bins"]  # v1 predates the flag
        return state, tracking

    def test_v1_state_lifts_as_non_tracking(self):
        state, _ = self._v1_state()
        lifted = BucketPredictor.from_state(state)
        assert lifted.track_packet_bins is False
        # The retroactive memory fix: v1 per-packet history is dropped.
        assert all(b.packet_bins == [] for b in lifted._buckets.values())

    def test_v1_lift_preserves_learning(self):
        state, original = self._v1_state()
        lifted = BucketPredictor.from_state(state)
        assert lifted.recurring_buckets() == original.recurring_buckets()
        assert lifted._n_observed == original._n_observed

    def test_v2_round_trip_exact(self):
        import json

        predictor = BucketPredictor()
        predictor.learn_trace(_random_packets(8, n=300))
        state = predictor.to_state()
        assert state["v"] == 2
        assert json.dumps(BucketPredictor.from_state(state).to_state()) == json.dumps(
            state
        )

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="state version"):
            BucketPredictor.from_state({"v": 99})
