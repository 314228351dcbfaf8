"""Tests for crash-safe durability: journal, snapshots, recovery, chaos."""

import json
import os
import shutil

import pytest

from repro.core import FiatConfig
from repro.core.pipeline import FiatSystem
from repro.crypto.replay import ReplayCache
from repro.faults import CrashWindow
from repro.faults.breaker import CircuitBreaker
from repro.obs import Observability
from repro.predictability import BucketPredictor
from repro.recovery import (
    JournalWriter,
    RecoveryManager,
    frame_record,
    read_journal,
    read_snapshot,
    write_snapshot,
)
from repro.recovery.chaos import build_chaos_workload, run_crashed, run_uninterrupted
from repro.recovery.manager import STACK_STATE_VERSION
from tests.conftest import make_packet


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with JournalWriter(path) as writer:
            writer.append({"k": "pkt", "n": 1})
            writer.append({"k": "auth", "n": 2})
        result = read_journal(path)
        assert [r["n"] for r in result.records] == [1, 2]
        assert not result.torn
        assert result.valid_bytes == os.path.getsize(path)

    def test_missing_file_reads_empty(self, tmp_path):
        result = read_journal(str(tmp_path / "absent.jsonl"))
        assert result.records == [] and not result.torn

    def test_truncated_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with JournalWriter(path) as writer:
            writer.append({"n": 1})
            writer.append({"n": 2})
        with open(path, "rb+") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        result = read_journal(path)
        assert [r["n"] for r in result.records] == [1]
        assert result.torn and result.torn_reason == "truncated"

    def test_corrupt_frame_ends_replay_fail_closed(self, tmp_path):
        """Records after a bad frame are discarded, not resynced."""
        path = str(tmp_path / "j.jsonl")
        frames = [frame_record({"n": i}) for i in range(3)]
        data = bytearray(b"".join(frames))
        offset = len(frames[0]) + 2
        data[offset] ^= 0xFF  # flip one byte inside record 1
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        result = read_journal(path)
        assert [r["n"] for r in result.records] == [0]
        assert result.torn and result.torn_reason == "bad-frame"
        assert result.valid_bytes == len(frames[0])

    def test_sync_tracks_durable_prefix(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        writer = JournalWriter(path)
        writer.append({"n": 1})
        assert writer.synced_bytes == 0
        writer.append({"n": 2}, sync=True)
        synced = writer.synced_bytes
        assert synced == os.path.getsize(path)
        writer.append({"n": 3})
        assert writer.synced_bytes == synced
        writer.close()

    def test_closed_writer_rejects_appends(self, tmp_path):
        writer = JournalWriter(str(tmp_path / "j.jsonl"))
        writer.close()
        with pytest.raises(ValueError):
            writer.append({"n": 1})


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "s.json")
        state = {"a": 1, "nested": {"b": [1, 2, 3]}}
        write_snapshot(path, state)
        assert read_snapshot(path) == state

    def test_missing_reads_none(self, tmp_path):
        assert read_snapshot(str(tmp_path / "absent.json")) is None

    def test_corrupt_reads_none(self, tmp_path):
        path = str(tmp_path / "s.json")
        write_snapshot(path, {"a": 1})
        with open(path, "rb+") as handle:
            handle.seek(os.path.getsize(path) // 2)
            handle.write(b"\xff\xff")
        assert read_snapshot(path) is None

    def test_write_is_atomic(self, tmp_path):
        """No temp file survives, even across overwrites."""
        path = str(tmp_path / "s.json")
        write_snapshot(path, {"a": 1})
        write_snapshot(path, {"a": 2})
        assert read_snapshot(path) == {"a": 2}
        assert os.listdir(str(tmp_path)) == ["s.json"]


class TestComponentStateSchemas:
    def test_replay_cache_roundtrip_preserves_order(self):
        cache = ReplayCache(window_seconds=60.0, max_entries=8)
        for i in range(5):
            cache.check_and_register(f"n{i}", now=float(i))
        cache.check_and_register("n0", now=5.0)  # a detected replay
        restored = ReplayCache.from_state(cache.to_state())
        assert restored.to_state() == cache.to_state()
        assert not restored.check_and_register("n4", now=6.0)

    def test_breaker_roundtrip_preserves_timer(self):
        breaker = CircuitBreaker("c", failure_threshold=1, recovery_timeout_s=30.0)
        breaker.record_failure(10.0)
        restored = CircuitBreaker.from_state(breaker.to_state())
        assert not restored.allow_request(39.9)
        assert restored.allow_request(40.0)

    def test_predictor_roundtrip(self):
        predictor = BucketPredictor()
        for t in range(0, 100, 10):
            predictor.observe(make_packet(timestamp=float(t)))
        restored = BucketPredictor.from_state(predictor.to_state())
        assert restored.to_state() == predictor.to_state()
        assert list(restored.recurring_buckets()) == list(predictor.recurring_buckets())

    @pytest.mark.parametrize(
        "cls", [ReplayCache, CircuitBreaker, BucketPredictor]
    )
    def test_unknown_version_rejected(self, cls):
        with pytest.raises(ValueError):
            cls.from_state({"v": 999})


@pytest.fixture(scope="module")
def chaos_system():
    """A small deployment shared by the recovery/chaos tests."""
    return FiatSystem(
        ["SP10", "WP3"],
        config=FiatConfig(
            bootstrap_s=60.0, snapshot_interval_s=20.0, lockout_threshold=10
        ),
        seed=3,
    )


#: A proxy recovery dir (stack state v1) written by the code that signed
#: proofs as JSON envelopes: one snapshot and a journal of two such
#: proofs plus a packet, left by a crash.
GOLDEN_V1_DIR = os.path.join(os.path.dirname(__file__), "golden", "recovery_stack_v1")


def _dir_bytes(path):
    """``{name: bytes}`` of every file in a directory."""
    contents = {}
    for name in os.listdir(path):
        with open(os.path.join(path, name), "rb") as handle:
            contents[name] = handle.read()
    return contents


class TestRecoveryManager:
    def test_pre_binary_wire_dir_is_refused(self, tmp_path, chaos_system):
        """Its proofs would replay as malformed, silently forgetting them: refuse."""
        state_dir = str(tmp_path / "state")
        shutil.copytree(GOLDEN_V1_DIR, state_dir)
        records = read_journal(os.path.join(state_dir, "journal-000001.jsonl")).records
        assert [r["k"] for r in records] == ["auth", "auth", "pkt"]
        assert all(r["w"].startswith("7b") for r in records[:2])  # JSON: b"{"
        with pytest.raises(ValueError, match="unsupported stack state version: 1"):
            RecoveryManager(state_dir, chaos_system.build_stack).recover()
        assert sorted(os.listdir(state_dir)) == sorted(os.listdir(GOLDEN_V1_DIR))

    @pytest.mark.parametrize("damage", ["v1-snapshot-garbage", "v1-snapshot-missing", "headerless"])
    def test_dir_of_another_version_is_refused_before_any_write(
        self, tmp_path, chaos_system, damage
    ):
        """With no readable snapshot, the journal header alone still refuses the dir.

        ``v1-*``: the pre-binary-wire dir with its snapshot destroyed would
        otherwise cold-start and replay its proofs as malformed rejects.
        ``headerless``: a segment without the version header (as written
        before journals carried one).
        """
        state_dir = str(tmp_path / "state")
        if damage == "headerless":
            manager = RecoveryManager(state_dir, chaos_system.build_stack)
            manager.start(*chaos_system.build_stack())
            manager.journal_packet(make_packet(timestamp=1.0, device="SP10"))
            manager.close()
            journal = os.path.join(state_dir, "journal-000001.jsonl")
            records = read_journal(journal).records
            assert records[0] == {"k": "header", "v": STACK_STATE_VERSION}
            with open(journal, "wb") as handle:
                handle.writelines(frame_record(r) for r in records[1:])
        else:
            shutil.copytree(GOLDEN_V1_DIR, state_dir)
        snapshot = os.path.join(state_dir, "snapshot-000001.json")
        if damage == "v1-snapshot-missing":
            os.remove(snapshot)
        else:
            with open(snapshot, "w") as handle:
                handle.write("garbage")
        before = _dir_bytes(state_dir)
        manager = RecoveryManager(state_dir, chaos_system.build_stack)
        with pytest.raises(ValueError, match="journal epoch 1 does not open with"):
            manager.recover()
        # The refused stack is not attached, so nothing can be checkpointed over the dir.
        with pytest.raises(ValueError, match="no attached stack"):
            manager.checkpoint(5.0)
        assert _dir_bytes(state_dir) == before

    def test_journal_bytes_gauge_counts_the_header_after_rotation(self, tmp_path, chaos_system):
        obs = Observability()
        manager = RecoveryManager(str(tmp_path / "state"), chaos_system.build_stack, obs=obs)

        def gauge():
            return obs.registry.get_gauge("recovery_journal_bytes", default=-1.0)

        manager.start(*chaos_system.build_stack())
        assert manager.journal_size_bytes > 0  # the header record
        assert gauge() == manager.journal_size_bytes
        manager.journal_packet(make_packet(timestamp=1.0, device="SP10"))
        manager.checkpoint(2.0)
        assert manager.epoch == 2
        assert gauge() == manager.journal_size_bytes
        manager.close()

    def test_start_refuses_nonempty_state_dir(self, tmp_path, chaos_system):
        state_dir = str(tmp_path / "state")
        manager = RecoveryManager(state_dir, chaos_system.build_stack)
        proxy, validation = chaos_system.build_stack()
        manager.start(proxy, validation)
        manager.close()
        other = RecoveryManager(state_dir, chaos_system.build_stack)
        with pytest.raises(ValueError):
            other.start(proxy, validation)

    def test_journal_then_recover_restores_state(self, tmp_path, chaos_system):
        manager = RecoveryManager(str(tmp_path / "state"), chaos_system.build_stack)
        proxy, validation = chaos_system.build_stack()
        manager.start(proxy, validation)
        packets = [
            make_packet(timestamp=float(t), device="SP10") for t in range(0, 40, 5)
        ]
        for packet in packets:
            manager.journal_packet(packet)
            proxy.process(packet)
        manager.simulate_crash()
        recovered, _validation, report = manager.recover(restart_t=40.0)
        assert report.n_replayed == len(packets)
        assert report.horizon_t == packets[-1].timestamp
        assert not report.torn_tail
        # the recovered predictor saw exactly the journaled packets
        assert recovered.snapshot()["predictor"] == proxy.snapshot()["predictor"]

    def test_checkpoint_compacts_old_epochs(self, tmp_path, chaos_system):
        state_dir = str(tmp_path / "state")
        manager = RecoveryManager(state_dir, chaos_system.build_stack)
        proxy, validation = chaos_system.build_stack()
        manager.start(proxy, validation)
        for t in (0.0, 10.0, 20.0):
            manager.journal_packet(make_packet(timestamp=t, device="SP10"))
            proxy.process(make_packet(timestamp=t, device="SP10"))
            manager.checkpoint(t)
        # The newest epoch plus the one a corrupt snapshot falls back to.
        names = sorted(os.listdir(state_dir))
        assert names == [
            "journal-000003.jsonl",
            "journal-000004.jsonl",
            "snapshot-000003.json",
            "snapshot-000004.json",
        ]

    def test_corrupt_snapshot_falls_back_to_journal_replay(
        self, tmp_path, chaos_system
    ):
        state_dir = str(tmp_path / "state")
        manager = RecoveryManager(state_dir, chaos_system.build_stack)
        proxy, validation = chaos_system.build_stack()
        manager.start(proxy, validation)
        packet = make_packet(timestamp=1.0, device="SP10")
        manager.journal_packet(packet)
        proxy.process(packet)
        manager.simulate_crash()
        # Destroy the only snapshot: recovery must cold-start and still
        # replay the journal rather than trust a corrupt snapshot.
        snapshot_path = os.path.join(state_dir, "snapshot-000001.json")
        with open(snapshot_path, "w") as handle:
            handle.write("garbage")
        recovered, _validation, report = manager.recover(restart_t=2.0)
        assert report.snapshot_epoch == 0
        assert report.n_replayed == 1
        assert recovered.snapshot()["predictor"] == proxy.snapshot()["predictor"]

    def test_fresh_manager_recovers_twice(self, tmp_path, chaos_system):
        """Back-to-back real process restarts must not resurrect stale state.

        A real restart constructs a *new* manager over the existing
        state dir, so its epoch counter starts at 0.  Unless recover()
        syncs it to the newest on-disk epoch, the post-recovery rotation
        lands below the pre-crash files: compaction deletes nothing, and
        the NEXT recovery restores the stale pre-crash snapshot —
        silently dropping everything journaled since, including the
        consumed-proof replay cache.
        """
        state_dir = str(tmp_path / "state")
        manager = RecoveryManager(state_dir, chaos_system.build_stack)
        proxy, validation = chaos_system.build_stack()
        manager.start(proxy, validation)
        interaction = chaos_system.phone.interact("SP10", 1.0, human=True)
        attempt = chaos_system.app.authenticate(interaction, 1.0)
        manager.journal_auth(attempt.wire, 1.5)
        proxy.receive_auth(attempt.wire, 1.5)
        manager.simulate_crash()

        # First restart: brand-new manager over the existing state dir.
        second = RecoveryManager(state_dir, chaos_system.build_stack)
        recovered, _validation, report = second.recover(restart_t=2.0)
        assert report.n_replayed == 1
        assert second.epoch > manager.epoch  # rotated above the old files
        packet = make_packet(timestamp=3.0, device="SP10")
        second.journal_packet(packet)
        recovered.process(packet)
        second.simulate_crash()

        # Second restart: state journaled after the first recovery must
        # survive — no stale snapshot, no reopened replay window.
        third = RecoveryManager(state_dir, chaos_system.build_stack)
        recovered2, rec_validation, report2 = third.recover(restart_t=4.0)
        assert report2.n_replayed == 1  # the post-recovery packet
        assert recovered2.snapshot()["predictor"] == recovered.snapshot()["predictor"]
        assert recovered2.receive_auth(attempt.wire, 4.0) is None
        assert "replay" in rec_validation.receiver.rejections
        # Only the two newest epochs survive: the stale pair was compacted.
        assert sorted(os.listdir(state_dir)) == [
            "journal-000002.jsonl",
            "journal-000003.jsonl",
            "snapshot-000002.json",
            "snapshot-000003.json",
        ]

    def _consume_proof_then_checkpoint(self, state_dir, chaos_system):
        """Start, consume one proof, checkpoint at 2.0, journal a packet, crash."""
        manager = RecoveryManager(state_dir, chaos_system.build_stack)
        proxy, validation = chaos_system.build_stack()
        manager.start(proxy, validation)
        interaction = chaos_system.phone.interact("SP10", 1.0, human=True)
        attempt = chaos_system.app.authenticate(interaction, 1.0)
        manager.journal_auth(attempt.wire, 1.5)
        proxy.receive_auth(attempt.wire, 1.5)
        manager.checkpoint(2.0)
        packet = make_packet(timestamp=3.0, device="SP10")
        manager.journal_packet(packet)
        proxy.process(packet)
        manager.simulate_crash()
        return attempt.wire

    def test_corrupt_newest_snapshot_keeps_replay_window_closed(
        self, tmp_path, chaos_system
    ):
        """A corrupt newest snapshot falls back one epoch, not to a cold start.

        Replaying only the newest journal from a fresh stack would forget
        the proof consumed before the checkpoint and accept it again.
        """
        state_dir = str(tmp_path / "state")
        wire = self._consume_proof_then_checkpoint(state_dir, chaos_system)
        with open(os.path.join(state_dir, "snapshot-000002.json"), "w") as handle:
            handle.write("garbage")
        fresh = RecoveryManager(state_dir, chaos_system.build_stack)
        recovered, rec_validation, report = fresh.recover(restart_t=4.0)
        assert report.snapshot_epoch == 1
        assert report.n_replayed == 2  # the proof, then the packet
        assert recovered.receive_auth(wire, 4.0) is None
        assert "replay" in rec_validation.receiver.rejections

    def test_no_readable_snapshot_after_compaction_refuses(
        self, tmp_path, chaos_system
    ):
        """With epoch 1 compacted away, a cold start cannot rebuild the state."""
        state_dir = str(tmp_path / "state")
        manager = RecoveryManager(state_dir, chaos_system.build_stack)
        proxy, validation = chaos_system.build_stack()
        manager.start(proxy, validation)
        manager.checkpoint(1.0)
        manager.checkpoint(2.0)
        manager.simulate_crash()
        for name in os.listdir(state_dir):
            if name.startswith("snapshot-"):
                with open(os.path.join(state_dir, name), "w") as handle:
                    handle.write("garbage")
        fresh = RecoveryManager(state_dir, chaos_system.build_stack)
        with pytest.raises(ValueError, match="no retained snapshot is readable"):
            fresh.recover(restart_t=3.0)

    def test_fallback_after_torn_recovery_keeps_later_journal(
        self, tmp_path, chaos_system
    ):
        """A recovery truncates the torn tail of the epoch it keeps as fallback.

        Otherwise a later fallback to that epoch would stop at the torn
        frame and never replay the journal written after the recovery.
        """
        state_dir = str(tmp_path / "state")
        manager = RecoveryManager(state_dir, chaos_system.build_stack)
        proxy, validation = chaos_system.build_stack()
        manager.start(proxy, validation)
        packet = make_packet(timestamp=1.0, device="SP10")
        manager.journal_packet(packet)
        proxy.process(packet)
        manager.simulate_crash(corrupt_tail_bytes=5)
        recovered, _validation, report = manager.recover(restart_t=2.0)
        assert report.torn_tail
        interaction = chaos_system.phone.interact("SP10", 3.0, human=True)
        attempt = chaos_system.app.authenticate(interaction, 3.0)
        manager.journal_auth(attempt.wire, 3.5)
        recovered.receive_auth(attempt.wire, 3.5)
        manager.simulate_crash()
        with open(os.path.join(state_dir, "snapshot-000002.json"), "w") as handle:
            handle.write("garbage")
        fresh = RecoveryManager(state_dir, chaos_system.build_stack)
        again, rec_validation, report2 = fresh.recover(restart_t=4.0)
        assert report2.snapshot_epoch == 1 and not report2.torn_tail
        assert again.receive_auth(attempt.wire, 4.0) is None
        assert "replay" in rec_validation.receiver.rejections

    def test_synced_auth_record_survives_tail_corruption(
        self, tmp_path, chaos_system
    ):
        manager = RecoveryManager(str(tmp_path / "state"), chaos_system.build_stack)
        proxy, validation = chaos_system.build_stack()
        manager.start(proxy, validation)
        interaction = chaos_system.phone.interact("SP10", 1.0, human=True)
        attempt = chaos_system.app.authenticate(interaction, 1.0)
        manager.journal_auth(attempt.wire, 1.5)
        proxy.receive_auth(attempt.wire, 1.5)
        packet = make_packet(timestamp=2.0, device="SP10")
        manager.journal_packet(packet)
        proxy.process(packet)
        manager.simulate_crash(corrupt_tail_bytes=10_000)
        recovered, rec_validation, report = manager.recover(restart_t=3.0)
        # The un-synced packet record is torn off, but the synced auth
        # record survives: the replay window stays closed.
        assert report.torn_tail
        assert recovered.receive_auth(attempt.wire, 3.0) is None
        assert "replay" in rec_validation.receiver.rejections


class TestProxyHealthState:
    def test_health_counters_survive_restore(self, chaos_system):
        """snapshot()/restore() carry the operational health tallies."""
        proxy, _validation = chaos_system.build_stack()
        proxy.process(make_packet(timestamp=-5.0, device="SP10"))  # pre-start
        assert proxy.health["pre_start_packets"] == 1
        state = json.loads(json.dumps(proxy.snapshot()))
        resumed, _ = chaos_system.build_stack()
        resumed.restore(state)
        assert resumed.health.as_dict() == proxy.health.as_dict()


class TestSnapshotCutPointNeutrality:
    """Satellite: snapshot/restore at any cut point is behaviour-neutral."""

    def test_every_cut_point_reproduces_the_log(self, chaos_system):
        ops = build_chaos_workload(
            chaos_system, duration_s=120.0, event_spacing_s=25.0, seed=11
        )
        baseline = run_uninterrupted(ops, chaos_system.build_stack)
        expected = baseline.decision_log()
        assert len(baseline.decisions) >= 2  # the workload must decide things
        for cut in range(len(ops) + 1):
            proxy, validation = chaos_system.build_stack()
            for op in ops[:cut]:
                _apply_op(proxy, op)
            state = {"proxy": proxy.snapshot(), "validation": validation.to_state()}
            # JSON roundtrip: what recovery persists is what must restore.
            state = json.loads(json.dumps(state))
            resumed, resumed_validation = chaos_system.build_stack()
            resumed.restore(state["proxy"])
            resumed_validation.restore(state["validation"])
            for op in ops[cut:]:
                _apply_op(resumed, op)
            resumed.flush()
            assert resumed.decision_log() == expected, f"cut at op {cut} diverged"


def _apply_op(proxy, op):
    if op.kind == "pkt":
        proxy.process(op.packet)
    elif op.kind == "auth":
        proxy.receive_auth(op.wire, op.t)
    else:
        proxy.unlock(op.device)


class TestChaosSweep:
    def test_sweep_green_with_corruption_and_determinism(self, chaos_system):
        report = chaos_system.chaos_sweep(
            n_trials=8, seed=1, corrupt_fraction=1.0, determinism_every=4
        )
        assert report.ok, [t.failure for t in report.failures()]
        assert report.n_corrupted_tail == 8
        checked = [t for t in report.trials if t.determinism_checked]
        assert checked and all(t.deterministic for t in checked)

    def test_replay_probe_rejects_after_restart(self, chaos_system):
        ops = build_chaos_workload(chaos_system, duration_s=240.0, seed=1)
        auth_ts = [op.t for op in ops if op.kind == "auth"]
        crash = CrashWindow(at=auth_ts[0] + 1.0, downtime_s=2.0)
        import tempfile

        _proxy, report, probe = run_crashed(
            ops,
            chaos_system.build_stack,
            tempfile.mkdtemp(prefix="fiat-probe-"),
            crash,
            snapshot_interval_s=20.0,
        )
        assert probe in ("replay", "stale")
        assert report.n_replayed > 0

    def test_fail_closed_reconciliation_drops_open_manual_event(self, chaos_system):
        """A crash mid-manual-event must not let its tail ride through."""
        ops = build_chaos_workload(chaos_system, duration_s=240.0, seed=1)
        manual_starts = [
            op.t
            for op in ops
            if op.kind == "pkt" and op.packet.event_id and "-manual-" in op.packet.event_id
        ]
        crash = CrashWindow(at=manual_starts[0] + 0.4, downtime_s=2.0)
        import tempfile

        proxy, report, _probe = run_crashed(
            ops,
            chaos_system.build_stack,
            tempfile.mkdtemp(prefix="fiat-reconcile-"),
            crash,
            snapshot_interval_s=20.0,
        )
        reconciled = [
            d
            for d in proxy.decisions
            if d.degraded is not None and "recovery:fail-closed" in d.degraded
        ]
        assert report.n_reconciled >= 1
        assert reconciled and all(d.action == "drop" for d in reconciled)


class TestPipelineRecoveryWiring:
    def test_evaluate_run_journals_and_checkpoints(self, tmp_path):
        system = FiatSystem(
            ["SP10"],
            config=FiatConfig(bootstrap_s=0.0, snapshot_interval_s=60.0),
            seed=0,
            n_training_events=40,
        )
        state_dir = str(tmp_path / "state")
        manager = system.enable_recovery(state_dir)
        system.run_accuracy(n_manual=2, n_non_manual=4, n_attacks=2)
        assert manager.epoch >= 2  # at least one interval checkpoint fired
        names = sorted(os.listdir(state_dir))
        assert any(n.startswith("snapshot-") for n in names)
        assert any(n.startswith("journal-") for n in names)
        # the live epoch's journal replays cleanly
        journals = [n for n in names if n.startswith("journal-")]
        result = read_journal(os.path.join(state_dir, journals[-1]))
        assert not result.torn

    def test_cold_restart_shares_durable_parts(self):
        system = FiatSystem(["SP10"], config=FiatConfig(bootstrap_s=0.0), seed=0)
        old_validator = system.validation.validator
        old_classifiers = system.classifiers
        proxy, validation = system.cold_restart()
        assert system.proxy is proxy and system.validation is validation
        assert validation.validator is old_validator
        assert proxy.classifiers is old_classifiers
        # pairing survives: a proof signed before the restart verifies after
        interaction = system.phone.interact("SP10", 1.0, human=True)
        attempt = system.app.authenticate(interaction, 1.0)
        assert proxy.receive_auth(attempt.wire, 1.1) is not None
