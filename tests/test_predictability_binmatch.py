"""Unit tests for the vectorized bin-matching core (repro.predictability.binmatch)."""

import numpy as np
import pytest

from repro.net import DnsTable, FlowDefinition, Trace
from repro.net.flows import flow_key
from repro.predictability import label_predictable, quantize_iat
from repro.predictability.buckets import _label_predictable_scalar
from repro.predictability.binmatch import (
    PAIR_SHIFT,
    KeyInterner,
    chain_prev,
    codes_safe,
    neighbor_counts,
    pair_codes,
    quantize_iat_array,
)
from tests.conftest import make_packet


def _random_trace(rng, n=400, n_flows=12, jitter=0.5):
    """Timestamp-ordered trace mixing periodic and jittered flows."""
    packets = []
    t = 0.0
    for _ in range(n):
        t += float(rng.exponential(2.0))
        flow = int(rng.integers(n_flows))
        packets.append(
            make_packet(
                timestamp=t + float(rng.uniform(-jitter, jitter)),
                size=100 + flow,
                dst_ip=f"172.1.2.{flow}",
                device=f"dev{flow % 3}",
            )
        )
    packets.sort(key=lambda p: p.timestamp)
    return Trace(packets)


class TestQuantizeArray:
    def test_bit_equal_to_scalar(self, rng):
        iats = np.concatenate(
            [
                rng.uniform(-2.0, 50.0, size=500),
                np.array([0.0, -0.0, 0.124, 0.125, 0.25, 0.375, 1e-9, 1e6]),
            ]
        )
        for resolution in (0.25, 0.5, 1.0, 0.01):
            vec = quantize_iat_array(iats, resolution)
            ref = [quantize_iat(float(v), resolution) for v in iats]
            assert vec.tolist() == ref, resolution

    def test_bin_edge_pins(self):
        # Rounds to nearest: 0.124/0.25 + 0.5 < 1 stays in bin 0,
        # 0.125 lands exactly on the bin-1 edge.
        assert quantize_iat_array(np.array([0.124, 0.125]), 0.25).tolist() == [0, 1]

    def test_nan_clamps_to_zero(self):
        assert quantize_iat_array(np.array([np.nan]), 0.25).tolist() == [0]


class TestChainPrev:
    def test_matches_scalar_chains(self, rng):
        kids = rng.integers(0, 7, size=200)
        ts = np.sort(rng.uniform(0, 100, size=200))
        prev_index, prev_ts = chain_prev(kids, ts)
        last_seen = {}
        for i, kid in enumerate(kids.tolist()):
            expect = last_seen.get(kid, -1)
            assert prev_index[i] == expect
            if expect >= 0:
                assert prev_ts[i] == ts[expect]
            else:
                assert np.isnan(prev_ts[i])
            last_seen[kid] = i

    def test_empty(self):
        prev_index, prev_ts = chain_prev(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        )
        assert len(prev_index) == 0 and len(prev_ts) == 0


class TestNeighborLookups:
    def test_neighbor_counts_brute_force(self, rng):
        kids = rng.integers(0, 3, size=120)
        bins = rng.integers(0, 12, size=120)
        codes = pair_codes(kids, bins)
        uniq, counts = np.unique(codes, return_counts=True)
        from collections import Counter

        tally = Counter(codes.tolist())
        for nb in (0, 1):
            got = neighbor_counts(uniq, counts, kids, bins, nb)
            want = [
                sum(tally[k * PAIR_SHIFT + b + d] for d in range(-nb, nb + 1))
                for k, b in zip(kids.tolist(), bins.tolist())
            ]
            assert got.tolist() == want, nb


class TestCodesSafe:
    def test_overflow_bin_rejected(self):
        kids = np.array([0], dtype=np.int64)
        assert codes_safe(kids, np.array([PAIR_SHIFT - 1]), 1) is False
        assert codes_safe(kids, np.array([PAIR_SHIFT - 2]), 1) is True
        assert codes_safe(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 1)


class TestKeyInterner:
    def test_ids_in_first_occurrence_order(self):
        interner = KeyInterner(FlowDefinition.PORTLESS, None)
        a = make_packet(dst_ip="172.1.2.3")
        b = make_packet(dst_ip="172.9.9.9")
        assert interner.intern(a) == 0
        assert interner.intern(b) == 1
        assert interner.intern(a) == 0
        assert interner.keys[0] == flow_key(a, FlowDefinition.PORTLESS, None)


class TestVectorizedLabelling:
    @pytest.mark.parametrize("definition", [FlowDefinition.PORTLESS, FlowDefinition.CLASSIC])
    def test_matches_scalar_on_random_traces(self, rng, definition):
        for seed in range(3):
            trace = _random_trace(np.random.default_rng(seed))
            vec = label_predictable(trace, definition=definition)
            ref = _label_predictable_scalar(trace, definition, None, 0.25, 1)
            assert vec == ref, (definition, seed)

    def test_matches_scalar_with_dns(self, rng):
        dns = DnsTable()
        dns.add_record("172.1.2.3", "cloud.example.com")
        trace = _random_trace(np.random.default_rng(7), n_flows=6)
        vec = label_predictable(trace, dns=dns)
        ref = _label_predictable_scalar(trace, FlowDefinition.PORTLESS, dns, 0.25, 1)
        assert vec == ref
