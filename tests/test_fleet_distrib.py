"""Tests for the distributed fleet coordinator (repro.fleet.distrib).

The contract under test has three legs and every test pins at least
one:

* *exactness*: a fleet distributed over N machine subprocesses — or
  merged offline from their range dirs — produces a report that is
  byte-identical to the single-machine ``FleetRunner`` run, regardless
  of machine count, fault injection, reassignment order, or a
  coordinator crash mid-run;
* *fencing*: range ownership is lease-based and epoch-fenced.  A
  heartbeat exactly at the deadline keeps the lease; a zombie machine
  submitting after revocation is rejected and counted, never folded;
  duplicate and stale submissions are refused fail-closed;
* *durability*: per-machine results journals double as checkpoints
  (an epoch-2 lease replays its predecessor's log instead of
  re-running homes) and the coordinator ledger resumes byte-identically
  after SIGKILL without re-running completed ranges.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

from repro.fleet import (
    DistribCoordinator,
    DistribError,
    FleetRunner,
    RangeSpecStream,
    SubmissionMismatch,
    generate_fleet,
    machine_telemetry_dirs,
    merge_range_dirs,
    parse_machine_fault,
    partition_ranges,
    write_spec_jsonl,
)
from repro.fleet.checkpoint import result_digest
from repro.fleet.distrib import (
    LEDGER_NAME,
    covered_prefix,
    lease_backoff_s,
    lease_expired,
    machine_seed,
    range_dir_name,
    read_range_results,
    run_machine,
    submission_disposition,
)
from repro.faults import FaultPlan, MachineFault
from repro.recovery.journal import JournalWriter, read_journal
from repro.recovery.snapshot import read_snapshot

N_HOMES = 4
#: homes in the partitioned-machine test (see the test for why so many)
ZOMBIE_HOMES = 32


def _spec(n=N_HOMES, seed=0):
    return generate_fleet(
        n, seed=seed, n_manual=1, n_non_manual=2, n_attacks=1, n_training_events=40
    )


@pytest.fixture(scope="module")
def serial_ref():
    """The single-machine reference: spec + its report bytes."""
    spec = _spec()
    report = FleetRunner(spec, jobs=1).run()
    return spec, report.to_json()


@pytest.fixture(scope="module")
def clean_distrib(tmp_path_factory, serial_ref):
    """One clean 2-machine distributed run over the reference spec."""
    spec, _ = serial_ref
    state_dir = str(tmp_path_factory.mktemp("distrib") / "state")
    coordinator = DistribCoordinator(spec, state_dir=state_dir, machines=2)
    report = coordinator.run()
    return state_dir, coordinator, report


# -- pure helpers ----------------------------------------------------------------


class TestPartitionRanges:
    def test_property_sweep(self):
        for n_homes in range(0, 26):
            for n_machines in range(1, 9):
                ranges = partition_ranges(n_homes, n_machines)
                # tiles [0, n_homes) contiguously, in order
                cursor = 0
                for start, stop in ranges:
                    assert start == cursor
                    assert stop > start  # never an empty range
                    cursor = stop
                assert cursor == n_homes
                assert len(ranges) == min(n_homes, n_machines)
                # balanced: sizes differ by at most one
                if ranges:
                    sizes = [stop - start for start, stop in ranges]
                    assert max(sizes) - min(sizes) <= 1
                # pure: same inputs, same cover
                assert partition_ranges(n_homes, n_machines) == ranges

    def test_zero_homes(self):
        assert partition_ranges(0, 4) == ()

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            partition_ranges(-1, 2)
        with pytest.raises(ValueError):
            partition_ranges(4, 0)


class TestRangeSpecStream:
    def test_slice_matches_islice(self):
        spec = _spec(5)
        stream = RangeSpecStream(spec.stream(), 1, 4)
        assert stream.n_homes == 3
        assert stream.name == spec.name
        assert stream.seed == spec.seed
        sliced = list(stream.iter_homes())
        assert [h.home_id for h in sliced] == [h.home_id for h in spec.homes[1:4]]

    def test_digest_depends_on_bounds(self):
        base = _spec(5).stream()
        a = RangeSpecStream(base, 0, 2)
        b = RangeSpecStream(base, 2, 5)
        assert a.digest != b.digest
        assert a.digest != base.digest
        assert RangeSpecStream(base, 0, 2).digest == a.digest

    def test_bounds_checked(self):
        base = _spec(3).stream()
        with pytest.raises(ValueError):
            RangeSpecStream(base, -1, 2)
        with pytest.raises(ValueError):
            RangeSpecStream(base, 2, 1)
        with pytest.raises(ValueError):
            RangeSpecStream(base, 0, 4)


class TestLeaseLogic:
    def test_heartbeat_exactly_at_deadline_keeps_lease(self):
        # Strictly greater-than: quiet for exactly the timeout is alive.
        assert not lease_expired(100.0, 105.0, 10.0, now=115.0)
        assert lease_expired(100.0, 105.0, 10.0, now=115.0001)

    def test_no_frames_floors_at_grant_time(self):
        assert not lease_expired(100.0, None, 10.0, now=110.0)
        assert lease_expired(100.0, None, 10.0, now=110.5)
        # a stale pre-grant frame never counts against the new lease
        assert not lease_expired(100.0, 50.0, 10.0, now=110.0)

    def test_backoff_is_seeded_and_bounded(self):
        a = lease_backoff_s(0, 1, 2)
        assert a == lease_backoff_s(0, 1, 2)  # resume re-derives it
        assert a != lease_backoff_s(0, 1, 3)
        for epoch in range(1, 8):
            delay = lease_backoff_s(0, 0, epoch, base_s=0.2, max_s=2.0)
            assert 0.0 < delay <= 2.0 * 1.5

    def test_machine_seed_distinct(self):
        seeds = {machine_seed(0, r, e) for r in range(4) for e in range(1, 4)}
        assert len(seeds) == 12


class TestSubmissionDisposition:
    def test_current_epoch_accepted(self):
        assert submission_disposition(2, 2, None, set()) == "accept"

    def test_zombie_rejected_after_revocation(self):
        assert submission_disposition(1, 2, None, {1}) == "reject-revoked"

    def test_double_fold_refused(self):
        assert submission_disposition(1, None, 2, set()) == "reject-duplicate"
        # re-reading the accepted file is idempotent, not a duplicate
        assert submission_disposition(2, None, 2, set()) == "accept"

    def test_unknown_epoch_is_stale(self):
        assert submission_disposition(3, 2, None, {1}) == "reject-stale"
        assert submission_disposition(1, None, None, set()) == "reject-stale"


class TestMachineFault:
    def test_parse_full_and_defaults(self):
        fault = parse_machine_fault("kill:2")
        assert (fault.kind, fault.range_index, fault.after_homes) == ("kill", 2, 1)
        assert fault.epoch == 1
        fault = parse_machine_fault("stall:0:3:6.5:2")
        assert fault == MachineFault("stall", 0, after_homes=3, duration_s=6.5, epoch=2)
        # empty segments keep defaults
        fault = parse_machine_fault("drop:1::4.0")
        assert (fault.after_homes, fault.duration_s) == (1, 4.0)

    def test_parse_rejects_garbage(self):
        for text in ("", "kill", "fry:0", "kill:x", "kill:-1", "kill:0:-2"):
            with pytest.raises(ValueError):
                parse_machine_fault(text)

    def test_fault_plan_carries_machine_faults(self):
        fault = MachineFault("kill", 0)
        plan = FaultPlan(machine_faults=[fault])
        assert plan.machine_faults == (fault,)
        assert MachineFault.from_dict(fault.to_dict()) == fault


# -- results journals ------------------------------------------------------------


class TestRangeResults:
    def _record(self, idx, payload):
        body = {"home_id": f"home-{idx:04d}", "ok": True, "blob": payload}
        return {"idx": idx, "digest": result_digest(body), "result": body}

    def test_union_and_covered_prefix(self, tmp_path):
        range_dir = str(tmp_path)
        with JournalWriter(os.path.join(range_dir, "results-0001.journal")) as log:
            log.append(self._record(0, "a"))
        with JournalWriter(os.path.join(range_dir, "results-0002.journal")) as log:
            log.append(self._record(0, "a"))  # same bytes: agrees
            log.append(self._record(1, "b"))
        results = read_range_results(range_dir, 0, 3)
        assert sorted(results) == [0, 1]
        assert covered_prefix(results, 0, 3) == 2
        assert covered_prefix({}, 0, 3) == 0

    def test_bad_digest_ends_readable_prefix(self, tmp_path):
        range_dir = str(tmp_path)
        bad = self._record(1, "b")
        bad["digest"] = "0" * 64
        with JournalWriter(os.path.join(range_dir, "results-0001.journal")) as log:
            log.append(self._record(0, "a"))
            log.append(bad)
            log.append(self._record(2, "c"))  # after the bad record: ignored
        results = read_range_results(range_dir, 0, 3)
        assert sorted(results) == [0]

    def test_out_of_range_index_rejected(self, tmp_path):
        range_dir = str(tmp_path)
        with JournalWriter(os.path.join(range_dir, "results-0001.journal")) as log:
            log.append(self._record(7, "x"))
        assert read_range_results(range_dir, 0, 3) == {}

    def test_cross_epoch_disagreement_raises(self, tmp_path):
        range_dir = str(tmp_path)
        with JournalWriter(os.path.join(range_dir, "results-0001.journal")) as log:
            log.append(self._record(0, "a"))
        with JournalWriter(os.path.join(range_dir, "results-0002.journal")) as log:
            log.append(self._record(0, "DIFFERENT"))
        with pytest.raises(SubmissionMismatch):
            read_range_results(range_dir, 0, 3)


# -- exact merge -----------------------------------------------------------------


class TestExactMerge:
    def test_distrib_report_is_byte_identical(self, serial_ref, clean_distrib):
        _, ref = serial_ref
        _, coordinator, report = clean_distrib
        assert report.to_json() == ref
        assert coordinator.stats["ranges"] == 2
        assert coordinator.stats["leases_granted"] == 2
        assert coordinator.stats["re_leases"] == 0
        assert coordinator.stats["rejected_submissions"] == 0
        assert coordinator.stats["ranges_folded"] == 2

    def test_merge_range_dirs_matches(self, serial_ref, clean_distrib):
        _, ref = serial_ref
        state_dir, _, _ = clean_distrib
        assert merge_range_dirs([state_dir]).to_json() == ref
        # explicit range dirs, listed out of order, merge identically
        dirs = [
            os.path.join(state_dir, range_dir_name(1)),
            os.path.join(state_dir, range_dir_name(0)),
        ]
        assert merge_range_dirs(dirs).to_json() == ref

    def test_merge_refuses_gaps(self, clean_distrib):
        state_dir, _, _ = clean_distrib
        with pytest.raises(SubmissionMismatch):
            merge_range_dirs([os.path.join(state_dir, range_dir_name(1))])

    def test_merge_refuses_incomplete_results_log(self, tmp_path, clean_distrib):
        state_dir, _, _ = clean_distrib
        copy = str(tmp_path / "state")
        shutil.copytree(state_dir, copy)
        journal = os.path.join(copy, range_dir_name(1), "results-0001.journal")
        first = read_journal(journal).records[0]
        os.remove(journal)
        with JournalWriter(journal) as log:
            log.append(first)
        with pytest.raises(SubmissionMismatch, match="missing home"):
            merge_range_dirs([copy])


# -- the machine body ------------------------------------------------------------


class TestRunMachine:
    def _payload(self, tmp_path, spec, epoch, start=0, stop=N_HOMES):
        spec_path = os.path.join(str(tmp_path), "spec.jsonl")
        if not os.path.exists(spec_path):
            write_spec_jsonl(
                spec_path,
                spec.homes,
                name=spec.name,
                seed=spec.seed,
                n_homes=len(spec.homes),
            )
        stream = spec.stream()
        return {
            "format": 1,
            "spec": spec_path,
            "spec_digest": "",
            "range_index": 0,
            "start": start,
            "stop": stop,
            "epoch": epoch,
            "range_dir": os.path.join(str(tmp_path), range_dir_name(0)),
            "jobs": 1,
            "heartbeat_interval_s": 0.2,
            "machine_seed": machine_seed(stream.seed, 0, epoch),
        }

    def test_clean_run_then_replay_epoch(self, tmp_path, serial_ref):
        spec, ref = serial_ref
        payload = self._payload(tmp_path, spec, epoch=1)
        assert run_machine(payload) == 0
        range_dir = payload["range_dir"]
        first = read_snapshot(os.path.join(range_dir, "submit-0001.json"))
        assert first["n_results"] == N_HOMES
        # the range dir alone merges back to the exact serial report
        assert merge_range_dirs([range_dir]).to_json() == ref

        # a second lease epoch replays the journal: no home re-runs
        assert run_machine(self._payload(tmp_path, spec, epoch=2)) == 0
        assert merge_range_dirs([range_dir]).to_json() == ref
        replay_log = read_journal(os.path.join(range_dir, "results-0002.journal"))
        assert replay_log.records == []  # everything came from epoch 1's journal


# -- coordinator end-to-end ------------------------------------------------------


class TestCoordinatorFaults:
    def test_kill_fault_releases_and_stays_exact(self, tmp_path, serial_ref):
        spec, ref = serial_ref
        coordinator = DistribCoordinator(
            spec,
            state_dir=str(tmp_path / "state"),
            machines=2,
            machine_faults=[MachineFault("kill", 0, after_homes=1)],
        )
        report = coordinator.run()
        assert report.to_json() == ref
        assert coordinator.stats["re_leases"] >= 1
        assert coordinator.stats["leases_granted"] >= 3

    def test_drop_fault_zombie_submission_rejected(self, tmp_path):
        # The zombie must still be working when its 2 s lease runs out and
        # must submit before a successor can: ~31 homes at ~0.2 s each
        # outlast the lease, and the successor lease waits ~7 s (seeded
        # backoff) before it starts.
        spec = _spec(ZOMBIE_HOMES)
        ref = FleetRunner(spec, jobs=1).run().to_json()
        coordinator = DistribCoordinator(
            spec,
            state_dir=str(tmp_path / "state"),
            machines=1,  # one range: the zombie owns all remaining homes
            lease_timeout_s=2.0,
            lease_backoff_base_s=5.0,
            lease_backoff_max_s=5.0,
            machine_faults=[MachineFault("drop", 0, after_homes=1)],
        )
        report = coordinator.run()
        assert report.to_json() == ref
        assert coordinator.stats["re_leases"] >= 1
        # the partitioned machine finished in the dark and submitted;
        # its revoked-epoch submission was counted, never folded
        assert coordinator.stats["rejected_submissions"] >= 1
        assert coordinator.stats["ranges_folded"] == 1

    def test_exhausted_leases_fail_closed(self, tmp_path, serial_ref):
        spec, _ = serial_ref
        coordinator = DistribCoordinator(
            spec,
            state_dir=str(tmp_path / "state"),
            machines=2,
            max_leases_per_range=1,
            lease_backoff_base_s=0.0,
            machine_faults=[
                MachineFault("kill", 0, after_homes=0, epoch=1),
            ],
        )
        with pytest.raises(DistribError):
            coordinator.run()


class TestCoordinatorResume:
    def test_sigkill_resume_is_byte_identical(self, tmp_path, serial_ref):
        spec, ref = serial_ref
        state_dir = str(tmp_path / "state")
        spec_path = str(tmp_path / "spec.jsonl")
        out_path = str(tmp_path / "report.json")
        write_spec_jsonl(
            spec_path, spec.homes, name=spec.name, seed=spec.seed,
            n_homes=len(spec.homes),
        )
        base = [
            sys.executable, "-m", "repro.cli", "fleet",
            "--spec", spec_path, "--machines", "2", "--jobs", "1",
            "--state-dir", state_dir, "--out", out_path,
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        env["FIAT_DISTRIB_KILL_AFTER"] = "1"
        first = subprocess.run(
            base, env=env, cwd="/root/repo", capture_output=True, text=True,
            timeout=180,
        )
        assert first.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL), (
            first.stdout,
            first.stderr,
        )
        env.pop("FIAT_DISTRIB_KILL_AFTER")
        second = subprocess.run(
            base + ["--resume"], env=env, cwd="/root/repo",
            capture_output=True, text=True, timeout=180,
        )
        assert second.returncode == 0, (second.stdout, second.stderr)
        with open(out_path, "r", encoding="utf-8") as handle:
            assert handle.read().rstrip("\n") == ref
        # completed ranges were not re-leased after the crash: the
        # ledger holds exactly one lease record per range
        ledger = read_journal(os.path.join(state_dir, LEDGER_NAME))
        leases = [r for r in ledger.records if r.get("kind") == "lease"]
        assert len(leases) == 2
        assert len({r["range"] for r in leases}) == 2

    def test_resume_with_foreign_spec_fails_closed(self, tmp_path, serial_ref):
        spec, _ = serial_ref
        state_dir = str(tmp_path / "state")
        DistribCoordinator(spec, state_dir=state_dir, machines=2).run()
        other = _spec(N_HOMES, seed=99)
        with pytest.raises(SubmissionMismatch):
            DistribCoordinator(
                other, state_dir=state_dir, machines=2, resume=True
            ).run()


class TestMonitorIntegration:
    def test_machine_telemetry_dirs_newest_epoch(self, clean_distrib):
        state_dir, _, _ = clean_distrib
        dirs = machine_telemetry_dirs(state_dir)
        assert len(dirs) == 2
        for path in dirs:
            assert os.path.basename(path) == "telemetry-0001"
            assert os.path.isdir(path)
