"""Unit tests for the IoT-Inspector 5-second aggregation analysis."""

import pytest

from repro.net import FlowDefinition, Trace
from repro.predictability import aggregate_trace, windowed_predictability
from repro.testbed import TESTBED, Household, HouseholdConfig
from tests.conftest import make_packet

from oracles import scalar_windowed_predictability


class TestAggregation:
    def test_windows_collapse_packets(self):
        packets = [make_packet(timestamp=t) for t in (0.0, 1.0, 2.0, 6.0)]
        records = aggregate_trace(Trace(packets), window=5.0)
        assert len(records) == 2
        assert records[0].n_packets == 3
        assert records[0].total_bytes == 300
        assert records[1].n_packets == 1

    def test_flows_separate_windows(self):
        packets = [make_packet(timestamp=0.0, size=100), make_packet(timestamp=0.0, size=100, dst_ip="9.9.9.9")]
        records = aggregate_trace(Trace(packets), window=5.0)
        assert len(records) == 2

    def test_empty_trace(self):
        assert aggregate_trace(Trace([])) == []
        assert windowed_predictability(Trace([])) == 0.0


class TestWindowedPredictability:
    def test_periodic_flow_predictable_windows(self):
        # One packet per 10 s -> identical byte-sums in alternating
        # windows at a constant window gap: predictable.
        packets = [make_packet(timestamp=float(t)) for t in range(0, 200, 10)]
        assert windowed_predictability(Trace(packets), window=5.0) > 0.8

    def test_noise_poisons_windows(self, rng):
        # A periodic flow plus one random-size packet in each window:
        # the per-window byte-sum keeps changing, killing predictability
        # (the coarsening effect the paper describes).
        packets = [make_packet(timestamp=float(t)) for t in range(0, 100, 10)]
        packets += [
            make_packet(timestamp=float(t) + 1.0, size=int(rng.integers(1, 1400)))
            for t in range(0, 100, 10)
        ]
        packet_level = windowed_predictability(Trace(packets), window=5.0)
        assert packet_level < 0.5

    def test_pure_periodicity_beats_noisy(self, rng):
        clean = [make_packet(timestamp=float(t)) for t in range(0, 200, 10)]
        noisy = clean + [
            make_packet(timestamp=float(t) + 0.5, size=int(rng.integers(1, 1400)))
            for t in range(0, 200, 20)
        ]
        assert windowed_predictability(Trace(clean)) > windowed_predictability(Trace(noisy))


class TestMatchesScalarOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("definition", [FlowDefinition.PORTLESS, FlowDefinition.CLASSIC])
    def test_household_traces_per_device_and_whole(self, seed, definition):
        result = Household(list(TESTBED), HouseholdConfig(duration_s=3600.0, seed=seed)).simulate()
        trace, dns = result.trace, result.cloud.dns
        traces = {"*": trace, **{d: trace.for_device(d) for d in trace.devices()}}
        assert len(traces) == len(TESTBED) + 1
        for name, part in traces.items():
            vec = windowed_predictability(part, definition, dns=dns)
            ref = scalar_windowed_predictability(part, definition, dns=dns)
            assert vec == ref, (seed, definition, name)

    def test_small_windows_and_gaps_of_several_windows(self, rng):
        packets = [
            make_packet(timestamp=float(t), size=100 + int(rng.integers(0, 3)))
            for t in sorted(rng.uniform(0.0, 600.0, size=300))
        ]
        for window in (1.0, 5.0, 30.0):
            vec = windowed_predictability(Trace(packets), window=window)
            ref = scalar_windowed_predictability(Trace(packets), window=window)
            assert vec == ref, window
