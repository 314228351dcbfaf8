"""The event renderer and the 66-feature block against their scalar oracles.

``render_event`` replays its uniforms from PCG64 raw words and
``events_to_matrix`` computes all rows as one block.  Both must reproduce
the per-draw and per-event loops in ``tests/oracles.py`` exactly: the same
packets, the same feature bytes, and the generator left in the same state
(including PCG64's 32-bit ``has_uint32``/``uinteger`` buffer) on every call
path that renders events.
"""

import numpy as np
import pytest

import repro.testbed.attacks as attacks_module
import repro.testbed.household as household_module
from repro.events.grouping import UnpredictableEvent
from repro.features import event_features, event_sequences, events_to_matrix
from repro.net.packet import Direction, Packet, TrafficClass
from repro.testbed import (
    TESTBED,
    AccountCompromiseAttack,
    CloudDirectory,
    Household,
    HouseholdConfig,
    Location,
    generate_labeled_events,
)
from repro.testbed.household import render_event

from oracles import (
    scalar_event_features,
    scalar_event_sequences,
    scalar_events_to_matrix,
    scalar_render_event,
)

PROFILES = sorted(TESTBED)


def entry_generator(seed, has_uint32):
    """A PCG64 generator whose 32-bit half-word buffer is empty or full."""
    rng = np.random.default_rng(seed)
    if has_uint32:
        rng.integers(0, 7)
    assert rng.bit_generator.state["has_uint32"] == has_uint32
    return rng


def states(generators):
    return [rng.bit_generator.state for rng in generators]


def with_oracle(monkeypatch, run):
    """``run()`` once as is and once with the scalar renderer patched in.

    Returns ``(fast, oracle)`` as ``(result, generator states)`` pairs.
    """
    made = []
    real = np.random.default_rng

    def default_rng(seed=None):
        made.append(real(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    fast = run()
    fast_states = states(made)
    made.clear()
    with monkeypatch.context() as patch:
        patch.setattr(household_module, "render_event", scalar_render_event)
        patch.setattr(attacks_module, "render_event", scalar_render_event)
        oracle = run()
    return (fast, fast_states), (oracle, states(made))


class TestRenderEvent:
    @pytest.mark.parametrize("name", PROFILES)
    @pytest.mark.parametrize("has_uint32", [0, 1])
    def test_packets_and_state_match_oracle(self, name, has_uint32):
        profile = TESTBED[name]
        cloud = CloudDirectory(seed=5)
        templates = [*profile.manual_templates(), profile.automated, profile.control_noise]
        for seed in range(3):
            fast_rng = entry_generator(seed, has_uint32)
            oracle_rng = entry_generator(seed, has_uint32)
            t = 0.0
            for k in range(24):
                template = templates[k % len(templates)]
                endpoints = {
                    s: cloud.endpoint(profile.vendor, s, Location.US) for s in template.services()
                }
                args = (profile, template, t, TrafficClass.MANUAL, "192.168.1.10", endpoints)
                fast = render_event(*args, fast_rng, event_id=f"e{k}")
                oracle = scalar_render_event(*args, oracle_rng, event_id=f"e{k}")
                assert fast == oracle
                assert [p.to_dict() for p in fast] == [p.to_dict() for p in oracle]
                assert fast_rng.bit_generator.state == oracle_rng.bit_generator.state
                # A direct bounded draw between events flips the 32-bit buffer.
                if k % 3 == 0:
                    assert fast_rng.integers(0, 5) == oracle_rng.integers(0, 5)
                t = fast[-1].timestamp + 30.0


class TestCallPaths:
    @pytest.mark.parametrize("name", PROFILES)
    def test_generate_labeled_events(self, monkeypatch, name):
        for seed in (0, 3, 11):
            (fast, fast_states), (oracle, oracle_states) = with_oracle(
                monkeypatch,
                lambda: generate_labeled_events(
                    name, n_manual=15, n_automated=20, n_control=20, seed=seed
                ),
            )
            assert [e.packets for e in fast] == [e.packets for e in oracle]
            assert fast_states == oracle_states and len(fast_states) == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_household_simulate(self, monkeypatch, seed):
        config = HouseholdConfig(duration_s=3 * 3600.0, seed=seed)
        (fast, fast_states), (oracle, oracle_states) = with_oracle(
            monkeypatch, lambda: Household(PROFILES, config).simulate()
        )
        assert list(fast.trace) == list(oracle.trace)
        assert fast_states == oracle_states

    def test_attacks(self, monkeypatch):
        def launch():
            attack = AccountCompromiseAttack(CloudDirectory(seed=2), seed=4)
            return [attack.launch(name, 100.0 * k).packets for k, name in enumerate(PROFILES * 3)]

        (fast, fast_states), (oracle, oracle_states) = with_oracle(monkeypatch, launch)
        assert fast == oracle
        assert fast_states == oracle_states


def random_event(rng, n_packets):
    """An event of ``n_packets`` packets with every feature column varied."""
    ips = ["52.94.3.7", "10.0.0.1", "255.255.255.0", "::1", "not-an-ip", "1.2.3", "7.8.9.x"]
    packets = []
    t = float(rng.uniform(0.0, 1e5))
    for _ in range(n_packets):
        outbound = bool(rng.integers(0, 2))
        tcp = bool(rng.integers(0, 2))
        remote = ips[int(rng.integers(0, len(ips)))]
        local = "192.168.1.10"
        packets.append(
            Packet(
                timestamp=t,
                size=int(rng.integers(0, 1500)),
                src_ip=local if outbound else remote,
                dst_ip=remote if outbound else local,
                src_port=int(rng.integers(0, 65536)),
                dst_port=int(rng.integers(0, 65536)),
                protocol="tcp" if tcp else "udp",
                direction=Direction.OUTBOUND if outbound else Direction.INBOUND,
                tcp_flags=int(rng.integers(0, 32)) if tcp else 0,
                tls_version=int(rng.choice([0, 10, 12, 13])) if tcp else 0,
            )
        )
        # equal, tiny, large and (out of order) negative gaps
        t += float(rng.choice([0.0, 1e-9, rng.uniform(0.01, 3.0), 1e4, -rng.uniform(0, 2)]))
    return UnpredictableEvent(packets=packets)


class TestFeatureBlock:
    # n >= 8 reaches np.sum's pairwise summation (8 sizes, 8 or 9 IATs).
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 10, 12])
    def test_matrix_bytes_match_oracle(self, n):
        rng = np.random.default_rng(n)
        events = [random_event(rng, int(k)) for k in rng.integers(1, 14, size=300)]
        fast = events_to_matrix(events, n)
        assert fast.tobytes() == scalar_events_to_matrix(events, n).tobytes()
        assert fast.shape == (300, 11 * n + (n - 1) + 7)
        for event, row in zip(events[:40], fast):
            one = event_features(event, n)
            assert one.tobytes() == row.tobytes()
            assert one.tobytes() == scalar_event_features(event, n).tobytes()

    @pytest.mark.parametrize("n_packets", range(1, 10))
    def test_each_event_length(self, n_packets):
        rng = np.random.default_rng(100 + n_packets)
        events = [random_event(rng, n_packets) for _ in range(50)]
        assert events_to_matrix(events).tobytes() == scalar_events_to_matrix(events).tobytes()

    def test_rendered_training_events(self):
        for name in PROFILES:
            events = generate_labeled_events(name, n_manual=10, n_automated=10, n_control=10)
            expected = scalar_events_to_matrix(events)
            assert events_to_matrix(events).tobytes() == expected.tobytes()

    def test_negative_zero_timestamps(self):
        # np.sum([-0.0]) is 0.0: its sums start from 0.0, and so must the block's.
        packets = random_event(np.random.default_rng(0), 2).packets
        event = UnpredictableEvent(
            packets=[packets[0].with_timestamp(0.0), packets[1].with_timestamp(-0.0)]
        )
        assert event_features(event).tobytes() == scalar_event_features(event).tobytes()

    def test_sequences_match_oracle(self):
        rng = np.random.default_rng(9)
        events = [random_event(rng, int(k)) for k in rng.integers(1, 10, size=100)]
        events.append(UnpredictableEvent(packets=[]))
        for n in (1, 5, 8):
            fast, oracle = event_sequences(events, n), scalar_event_sequences(events, n)
            assert [(a.shape, a.tobytes()) for a in fast] == [(b.shape, b.tobytes()) for b in oracle]

    def test_empty_event_rejected(self):
        event = random_event(np.random.default_rng(1), 3)
        with pytest.raises(ValueError, match="empty event"):
            event_features(UnpredictableEvent(packets=[]))
        with pytest.raises(ValueError, match="empty event"):
            events_to_matrix([event, UnpredictableEvent(packets=[])])
