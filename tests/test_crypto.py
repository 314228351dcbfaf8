"""Unit tests for the keystore, pairing and replay protection."""

import random

import pytest
from oracles import ScanReplayCache

from repro.crypto import (
    KeystoreError,
    ReplayCache,
    SecureKeystore,
    SignedMessage,
    pair,
)


class TestKeystore:
    def test_sign_verify_roundtrip(self):
        store = SecureKeystore("phone")
        store.generate_key("k1")
        message = store.sign("k1", b"hello")
        assert store.verify(message)

    def test_tampered_payload_fails(self):
        store = SecureKeystore("phone")
        store.generate_key("k1")
        message = store.sign("k1", b"hello")
        forged = SignedMessage(payload=b"evil", signature=message.signature, key_alias="k1")
        assert not store.verify(forged)

    def test_unknown_alias_verifies_false(self):
        store = SecureKeystore("proxy")
        message = SignedMessage(payload=b"x", signature=bytes(32), key_alias="ghost")
        assert not store.verify(message)

    def test_sign_unknown_alias_raises(self):
        with pytest.raises(KeystoreError):
            SecureKeystore("p").sign("nope", b"x")

    def test_short_key_rejected(self):
        with pytest.raises(KeystoreError):
            SecureKeystore("p").install_key("k", b"short")

    def test_wire_roundtrip(self):
        store = SecureKeystore("phone")
        store.generate_key("k1")
        message = store.sign("k1", b"payload-bytes")
        assert SignedMessage.from_wire(message.to_wire()) == message

    def test_no_public_key_access(self):
        store = SecureKeystore("phone")
        store.generate_key("k1")
        public = [name for name in dir(store) if not name.startswith("_")]
        assert "keys" not in public  # TEE contract: no key extraction API


class TestPairing:
    def test_paired_stores_interoperate(self):
        phone, proxy = pair("phone", "proxy")
        message = phone.sign("fiat-pairing", b"proof")
        assert proxy.verify(message)

    def test_foreign_device_rejected(self):
        phone, proxy = pair("phone", "proxy")
        attacker, _ = pair("attacker-phone", "attacker-proxy")
        message = attacker.sign("fiat-pairing", b"proof")
        assert not proxy.verify(message)


class TestReplayCache:
    def test_fresh_then_replay(self):
        cache = ReplayCache(window_seconds=60.0)
        assert cache.check_and_register("n1", now=0.0)
        assert not cache.check_and_register("n1", now=10.0)

    def test_expired_identifier_accepted_again(self):
        cache = ReplayCache(window_seconds=60.0)
        cache.check_and_register("n1", now=0.0)
        assert cache.check_and_register("n1", now=120.0)

    def test_eviction_bounds_memory(self):
        cache = ReplayCache(window_seconds=1e9, max_entries=10)
        for i in range(50):
            cache.check_and_register(f"n{i}", now=float(i))
        assert len(cache) <= 11

    def test_clear(self):
        cache = ReplayCache()
        cache.check_and_register("n1", now=0.0)
        cache.clear()
        assert cache.check_and_register("n1", now=1.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ReplayCache(window_seconds=0)
        with pytest.raises(ValueError):
            ReplayCache(max_entries=0)


class TestReplayCacheBoundaries:
    """Exact-boundary behaviour of the time window and the entry cap."""

    def test_reobservation_exactly_at_window_is_replay(self):
        cache = ReplayCache(window_seconds=60.0)
        cache.check_and_register("n1", now=0.0)
        # age == window_seconds: still inside the closed window
        assert not cache.check_and_register("n1", now=60.0)

    def test_reobservation_just_past_window_is_fresh(self):
        cache = ReplayCache(window_seconds=60.0)
        cache.check_and_register("n1", now=0.0)
        assert cache.check_and_register("n1", now=60.0 + 1e-6)

    def test_eviction_requires_age_strictly_beyond_window(self):
        cache = ReplayCache(window_seconds=60.0)
        cache.check_and_register("n1", now=0.0)
        cache.check_and_register("n2", now=60.0)  # n1 age == window: kept
        assert len(cache) == 2
        cache.check_and_register("n3", now=61.0)  # now n1 is evicted
        assert len(cache) == 2

    def test_max_entries_overflow_evicts_oldest_first(self):
        cache = ReplayCache(window_seconds=1e9, max_entries=3)
        for i in range(5):
            cache.check_and_register(f"n{i}", now=float(i))
        # oldest identifiers fell out; the newest are replay-protected
        assert cache.check_and_register("n0", now=5.0)  # evicted => fresh again
        assert not cache.check_and_register("n4", now=5.0)

    def test_reregistered_evicted_nonce_restarts_its_window(self):
        cache = ReplayCache(window_seconds=50.0)
        cache.check_and_register("n1", now=0.0)
        assert cache.check_and_register("n1", now=100.0)  # expired, fresh again
        assert not cache.check_and_register("n1", now=120.0)  # new window active

    def test_replay_does_not_refresh_recency_order(self):
        """A detected replay leaves the original registration untouched.

        The attacker cannot keep an identifier hot by replaying it: the
        eviction order is set by first registration only, so under cap
        pressure the oldest original is still evicted first.
        """
        cache = ReplayCache(window_seconds=1e9, max_entries=2)
        cache.check_and_register("a", now=0.0)
        cache.check_and_register("b", now=1.0)
        assert not cache.check_and_register("a", now=2.0)  # replay: no refresh
        cache.check_and_register("c", now=3.0)  # overflow evicts "a" (oldest)
        assert cache.check_and_register("a", now=4.0)  # evicted => fresh again


class TestReplayCacheEvictionRegressions:
    """Regressions for the exceed-by-one and stale-behind-fresh-head bugs."""

    def test_cap_holds_immediately_after_every_insert(self):
        cache = ReplayCache(window_seconds=1e9, max_entries=3)
        for i in range(10):
            cache.check_and_register(f"n{i}", now=float(i))
            # The bound must hold *within* the call, not merely at the
            # start of the next one: an exceed-by-one cache is unbounded
            # for a caller that never registers again.
            assert len(cache) <= 3

    def test_stale_entry_behind_fresh_head_is_evicted(self):
        """Clock regression must not shield expired entries.

        Under a clock-skew fault an entry can be *inserted* with a later
        timestamp than an entry registered after it.  Time-based eviction
        that stops scanning at the first fresh entry (insertion order)
        would then keep the stale one alive forever.
        """
        cache = ReplayCache(window_seconds=60.0)
        cache.check_and_register("fresh", now=100.0)
        cache.check_and_register("old", now=0.0)  # clock regressed
        # now=90: "old" is 90s past its registration (> window) while the
        # insertion-order head "fresh" is not expired.
        cache.check_and_register("other", now=90.0)
        assert len(cache) == 2  # "old" gone despite sitting behind "fresh"
        assert cache.check_and_register("old", now=90.0)  # fresh again

    def test_expired_entries_do_not_consume_cap(self):
        cache = ReplayCache(window_seconds=10.0, max_entries=2)
        cache.check_and_register("a", now=0.0)
        cache.check_and_register("b", now=1.0)
        # both expired by now=50: the cap has room without evicting "c"
        cache.check_and_register("c", now=50.0)
        cache.check_and_register("d", now=51.0)
        assert len(cache) == 2
        assert not cache.check_and_register("c", now=52.0)
        assert not cache.check_and_register("d", now=52.0)


class TestReplayCacheMatchesScan:
    """Expiry-order eviction keeps exactly the state the full scan keeps."""

    @pytest.mark.parametrize("seed", range(12))
    def test_state_matches_scan_after_every_call(self, seed):
        rng = random.Random(seed)
        window = rng.choice([1.0, 10.0, 60.0])
        cap = rng.choice([1, 3, 8, 1000])
        cache, oracle = ReplayCache(window, cap), ScanReplayCache(window, cap)
        pool = [f"n{i}" for i in range(rng.choice([4, 20, 200]))]
        now = 0.0
        for step in range(600):
            # Quarter-window steps land entries exactly on the window's edge.
            roll, quarters = rng.random(), rng.randrange(9) * window / 4
            if roll < 0.1:
                now -= rng.choice([quarters, rng.uniform(0.0, 2.5 * window)])  # clock regression
            elif roll < 0.8:
                now += rng.choice([0.0, quarters / 4, rng.uniform(0.0, 0.4 * window)])
            else:
                now += rng.choice([quarters, rng.uniform(0.5 * window, 2.0 * window)])
            identifier = rng.choice(pool)
            assert cache.check_and_register(identifier, now) == oracle.check_and_register(
                identifier, now
            )
            assert cache.to_state() == oracle.to_state()
            if step % 97 == 0:
                cache = ReplayCache.from_state(cache.to_state())  # a restart mid-stream

    def test_expiry_heap_stays_bounded_under_cap_pressure(self):
        cache = ReplayCache(window_seconds=1e9, max_entries=4)
        for i in range(1000):
            cache.check_and_register(f"n{i}", now=float(i))
        assert len(cache) == 4
        assert len(cache._expiry) <= 2 * 4

    def test_state_with_replay_tally_still_loads(self):
        state = {"v": 1, "window_seconds": 60.0, "max_entries": 8,
                 "seen": [["n0", 0.0], ["n1", 1.0]], "n_replays_detected": 3}
        cache = ReplayCache.from_state(state)
        assert not cache.check_and_register("n1", now=2.0)
        assert "n_replays_detected" not in cache.to_state()
