"""Tests for the fleet telemetry plane and live monitor.

The telemetry contract has two halves and these tests pin both:

* *observability*: a run with a state dir leaves CRC-framed progress
  frames behind — run-start / progress / final on the runner channel,
  home-start / home-end with per-phase timings on the worker channels —
  and :class:`FleetMonitor` folds them into an accurate live snapshot
  (status, progress, rate, phase digests, slowest-shard attribution);
* *non-interference*: telemetry is strictly out-of-band.  The fleet
  report is byte-identical with telemetry on or off, and wall-clock
  phase timings never enter ``HomeResult.to_dict()`` (the checkpoint
  digest input).
"""

import os
import shutil
import signal

import pytest

from repro.fleet import (
    CheckpointMismatch,
    FleetInterrupted,
    FleetRunner,
    FleetSpec,
    FleetMonitor,
    HomeSpec,
    TelemetryWriter,
    generate_fleet,
    load_latest_aggregate,
    run_home,
    telemetry_dir_for,
)
from repro.fleet.distrib import LEDGER_NAME
from repro.fleet.telemetry import (
    RUN_CHANNEL,
    emit_worker_frame,
    fold_frames,
    load_frames,
    merge_monitor_snapshots,
    read_frames,
)
from repro.fleet.worker import run_home_traced

from test_fleet_dashboard_pin import CASES as PIN_CASES
from test_fleet_dashboard_pin import _write_state_dir as write_pinned_state_dir


def _spec(n=3, seed=0, **kwargs):
    kwargs.setdefault("n_manual", 3)
    kwargs.setdefault("n_non_manual", 4)
    kwargs.setdefault("n_attacks", 2)
    return generate_fleet(n, seed=seed, **kwargs)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """One completed 3-home serial run with a state dir, plus its report."""
    state_dir = str(tmp_path_factory.mktemp("fleet") / "state")
    spec = _spec(3, seed=0)
    report = FleetRunner(spec, jobs=1, state_dir=state_dir).run()
    return state_dir, spec, report


class TestFrames:
    def test_run_channel_frames(self, finished_run):
        state_dir, spec, _ = finished_run
        frames = read_frames(
            os.path.join(telemetry_dir_for(state_dir), RUN_CHANNEL)
        )
        kinds = [frame["kind"] for frame in frames]
        assert kinds[0] == "run-start"
        assert kinds[-1] == "final"
        assert kinds.count("progress") == len(spec.homes)
        start = frames[0]
        assert start["planned"] == len(spec.homes)
        assert start["fleet"] == spec.name
        final = frames[-1]
        assert final["status"] == "done"
        assert final["completed"] == len(spec.homes)

    def test_worker_frames_carry_phase_timings(self, finished_run):
        state_dir, spec, _ = finished_run
        frames = load_frames(telemetry_dir_for(state_dir))
        ends = [frame for frame in frames if frame["kind"] == "home-end"]
        assert len(ends) == len(spec.homes)
        for frame in ends:
            assert frame["status"] == "ok"
            phases = frame["phases"]
            assert {"setup", "simulate", "condense", "total"} <= set(phases)
            assert phases["total"] == pytest.approx(
                sum(v for k, v in phases.items() if k != "total")
            )

    def test_torn_tail_is_tolerated(self, finished_run, tmp_path):
        state_dir, spec, _ = finished_run
        source = os.path.join(telemetry_dir_for(state_dir), RUN_CHANNEL)
        torn = tmp_path / RUN_CHANNEL
        torn.write_bytes(
            open(source, "rb").read() + b"deadbeef {torn mid-write"
        )
        frames = read_frames(str(torn))
        assert [f["kind"] for f in frames][-1] == "final"

    def test_worker_channel_is_per_pid(self, tmp_path):
        emit_worker_frame(str(tmp_path), "home-start", home="h1")
        assert os.path.exists(tmp_path / f"worker-{os.getpid()}.jsonl")


class TestMonitor:
    def test_snapshot_of_finished_run(self, finished_run):
        state_dir, spec, report = finished_run
        snap = FleetMonitor(state_dir).poll()
        assert snap.status == "done"
        assert snap.completed == len(spec.homes)
        assert snap.planned == len(spec.homes)
        assert snap.ok == len(spec.homes) and snap.failed == 0
        assert snap.fraction_done == 1.0
        assert snap.n_runs == 1
        assert not snap.in_flight
        assert {"setup", "simulate", "condense", "total"} <= set(snap.phases)
        assert snap.phases["simulate"].n == len(spec.homes)
        # Slowest attribution: totals match the per-home sum, dominant
        # phase is a real phase (never the synthetic "total" row).
        assert snap.slowest
        for home, total, dominant in snap.slowest:
            assert total > 0
            assert dominant in ("setup", "simulate", "condense")

    def test_monitor_accepts_telemetry_dir_itself(self, finished_run):
        state_dir, spec, _ = finished_run
        snap = FleetMonitor(telemetry_dir_for(state_dir)).poll()
        assert snap.completed == len(spec.homes)

    def test_render_mentions_progress_and_phases(self, finished_run):
        state_dir, spec, _ = finished_run
        text = FleetMonitor(state_dir).render()
        assert "DONE" in text
        assert f"{len(spec.homes)}/{len(spec.homes)} homes" in text
        assert "simulate" in text and "slowest" in text

    def test_empty_dir_is_idle(self, tmp_path):
        monitor = FleetMonitor(str(tmp_path / "nothing"))
        assert monitor.poll().status == "idle"
        assert "no telemetry frames yet" in monitor.render()

    def test_silent_running_channel_goes_stale(self, tmp_path):
        """A SIGKILLed run leaves no final frame; once its frames stop
        ageing the monitor must say *stale*, not *running*."""
        directory = str(tmp_path / "telemetry")
        with TelemetryWriter(directory) as writer:
            writer.emit("run-start", fleet="f", planned=10, jobs=1, backend="serial")
            writer.emit(
                "progress", completed=4, ok=4, failed=0,
                elapsed_s=2.0, homes_per_sec=2.0,
            )
        monitor = FleetMonitor(directory, stale_after_s=30.0)
        fresh = monitor.poll()
        assert fresh.status == "running"
        assert fresh.eta_s == pytest.approx(3.0)  # 6 remaining / 2 per sec
        import time

        later = monitor.poll(now=time.time() + 120.0)
        assert later.status == "stale"


class TestNonInterference:
    def test_report_bytes_identical_with_telemetry_on_off(self, tmp_path):
        spec = _spec(3, seed=1)
        plain = FleetRunner(spec, jobs=1).run()
        with_telemetry = FleetRunner(
            spec, jobs=1, state_dir=str(tmp_path / "state")
        ).run()
        without = FleetRunner(
            spec, jobs=1, state_dir=str(tmp_path / "state2"), telemetry=False
        ).run()
        assert with_telemetry.to_json() == plain.to_json()
        assert without.to_json() == plain.to_json()
        assert not os.path.isdir(telemetry_dir_for(str(tmp_path / "state2")))

    def test_timings_never_enter_result_dict(self):
        result = run_home(_spec(1, seed=5).homes[0])
        assert result.timings  # measured...
        assert {"setup", "simulate", "condense", "total"} <= set(result.timings)
        assert "timings" not in result.to_dict()  # ...but out-of-band

    def test_run_home_traced_without_telemetry_is_passthrough(self):
        home = _spec(1, seed=5).homes[0]
        assert (
            run_home_traced(home).to_dict() == run_home(home).to_dict()
        )

    def test_run_home_traced_emits_frames(self, tmp_path):
        home = _spec(1, seed=5).homes[0]
        run_home_traced(home, telemetry_dir=str(tmp_path))
        frames = load_frames(str(tmp_path))
        assert [f["kind"] for f in frames] == ["home-start", "home-end"]
        assert frames[0]["home"] == frames[1]["home"] == home.home_id
        assert frames[1]["status"] == "ok"

    def test_run_home_traced_reports_errors_then_raises(self, tmp_path):
        base = _spec(3, seed=1)
        poisoned = base.homes[1].to_dict()
        poisoned["poison"] = "raise"
        home = HomeSpec.from_dict(poisoned)
        with pytest.raises(RuntimeError, match="poison home"):
            run_home_traced(home, telemetry_dir=str(tmp_path))
        frames = load_frames(str(tmp_path))
        assert frames[-1]["kind"] == "home-end"
        assert frames[-1]["status"] == "error"
        assert "poison" in frames[-1]["error"]


class _StopDuringStream:
    """Spec-stream wrapper that requests a stop after ``stop_at`` homes."""

    def __init__(self, inner: FleetSpec, stop_at: int):
        from repro.fleet import MemorySpecStream

        self.inner = MemorySpecStream(inner)
        self.stop_at = stop_at
        self.runner = None
        self.name = self.inner.name
        self.seed = self.inner.seed
        self.n_homes = self.inner.n_homes
        self.digest = self.inner.digest

    def iter_homes(self):
        for idx, home in enumerate(self.inner.iter_homes()):
            if idx == self.stop_at and self.runner is not None:
                self.runner._stop_requested = True
            yield home


class TestInterruptTelemetry:
    def test_interrupted_run_flushes_final_frame(self, tmp_path):
        """SIGTERM-style stop: the final frame records the partial
        coverage and the monitor shows INTERRUPTED, not a hang."""
        state_dir = str(tmp_path / "state")
        spec = _spec(4, seed=2)
        stream = _StopDuringStream(spec, stop_at=2)
        runner = FleetRunner(stream, jobs=1, state_dir=state_dir)
        stream.runner = runner
        with pytest.raises(FleetInterrupted):
            runner.run()
        frames = read_frames(
            os.path.join(telemetry_dir_for(state_dir), RUN_CHANNEL)
        )
        final = frames[-1]
        assert final["kind"] == "final"
        assert final["status"] == "interrupted"
        assert final["completed"] == 2
        snap = FleetMonitor(state_dir).poll()
        assert snap.status == "interrupted"
        assert snap.completed == 2 and snap.planned == 4

    def test_resumed_run_reports_carried_over_homes(self, tmp_path):
        state_dir = str(tmp_path / "state")
        spec = _spec(4, seed=2)
        stream = _StopDuringStream(spec, stop_at=2)
        runner = FleetRunner(stream, jobs=1, state_dir=state_dir)
        stream.runner = runner
        with pytest.raises(FleetInterrupted):
            runner.run()
        FleetRunner(spec, jobs=1, state_dir=state_dir, resume=True).run()
        snap = FleetMonitor(state_dir).poll()
        assert snap.status == "done"
        assert snap.n_runs == 2
        assert snap.resumed_from == 2
        assert snap.completed == 4


class TestProfileSlowest:
    def test_profile_artifacts_written(self, tmp_path):
        state_dir = str(tmp_path / "state")
        FleetRunner(
            _spec(2, seed=3), jobs=1, state_dir=state_dir, profile_slowest=True
        ).run()
        profiles = [n for n in os.listdir(state_dir) if n.startswith("profile-")]
        assert any(n.endswith(".prof") for n in profiles)
        texts = [n for n in profiles if n.endswith(".txt")]
        assert texts
        body = open(os.path.join(state_dir, texts[0])).read()
        assert "cumulative" in body

    def test_profiling_does_not_change_report(self, tmp_path):
        spec = _spec(2, seed=3)
        plain = FleetRunner(spec, jobs=1).run()
        profiled = FleetRunner(
            spec, jobs=1, state_dir=str(tmp_path / "s"), profile_slowest=True
        ).run()
        assert profiled.to_json() == plain.to_json()


class TestLoadLatestAggregate:
    def test_reconstructs_finished_run(self, finished_run):
        state_dir, spec, report = finished_run
        agg = load_latest_aggregate(state_dir)
        assert agg.completed == len(spec.homes)
        assert agg.n_ok == len(spec.homes)
        assert agg.merged.to_json() is not None
        assert agg.report().to_json() == report.to_json()

    def test_missing_state_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_latest_aggregate(str(tmp_path / "nope"))

    def test_every_snapshot_corrupt_raises_like_resume(self, tmp_path, finished_run):
        """No readable snapshot means no folded prefix, not an empty fleet."""
        state_dir, spec, _ = finished_run
        copy = str(tmp_path / "state")
        shutil.copytree(state_dir, copy)
        snapshots = [n for n in os.listdir(copy) if n.startswith("fleet-snapshot-")]
        assert snapshots
        for name in snapshots:
            with open(os.path.join(copy, name), "w") as handle:
                handle.write("garbage")
        with pytest.raises(CheckpointMismatch):
            load_latest_aggregate(copy)
        with pytest.raises(CheckpointMismatch):
            FleetRunner(spec, jobs=1, state_dir=copy, resume=True).run()


class TestMonitorHardening:
    """A monitor must never traceback because its target is being torn down."""

    def test_missing_dir_reads_as_idle(self, tmp_path):
        monitor = FleetMonitor(str(tmp_path / "never-created"))
        snap = monitor.poll()
        assert snap.status == "idle"
        assert snap.n_frames == 0

    def test_directory_named_like_channel_is_skipped(self, finished_run):
        state_dir, _, _ = finished_run
        tdir = telemetry_dir_for(state_dir)
        evil = os.path.join(tdir, "not-a-file.jsonl")
        os.makedirs(evil, exist_ok=True)
        try:
            frames = load_frames(tdir)
            assert frames  # the real channels still read
            snap = FleetMonitor(state_dir).poll()
            assert snap.status == "done"
        finally:
            os.rmdir(evil)

    def test_truncated_channel_mid_watch(self, tmp_path, finished_run):
        state_dir, _, _ = finished_run
        tdir = str(tmp_path / "telemetry")
        shutil.copytree(telemetry_dir_for(state_dir), tdir)
        victim = os.path.join(tdir, RUN_CHANNEL)
        size = os.path.getsize(victim)
        with open(victim, "r+b") as handle:
            handle.truncate(size // 2)
        # a torn frame ends the readable prefix; no traceback, no crash
        snap = FleetMonitor(tdir).poll()
        assert snap.n_frames >= 0

    def test_epoch_suffixed_telemetry_dir_accepted(self, tmp_path):
        # distrib machines write into telemetry-NNNN dirs; FleetMonitor
        # must treat them as telemetry dirs, not state dirs
        tdir = str(tmp_path / "telemetry-0003")
        writer = TelemetryWriter(tdir, RUN_CHANNEL)
        writer.emit("run-start", planned=1, jobs=1, fleet="x")
        writer.close()
        snap = FleetMonitor(tdir).poll()
        assert snap.n_frames == 1
        assert (snap.fleet, snap.planned) == ("x", 1)

    def test_emit_after_close_is_silent(self, tmp_path):
        writer = TelemetryWriter(str(tmp_path), RUN_CHANNEL)
        writer.emit("run-start", planned=1)
        writer.close()
        writer.emit("progress", completed=1)  # a late heartbeat: no error
        assert [f["kind"] for f in read_frames(writer.path)] == ["run-start"]


def _coordinator_dir(root, *range_dirs):
    """A coordinator-shaped dir: a ledger plus ``range-NNNN/telemetry-0001``
    copies of the given telemetry dirs (``None`` gives an empty one)."""
    state_dir = str(root / "coordinator")
    os.makedirs(state_dir)
    open(os.path.join(state_dir, LEDGER_NAME), "wb").close()
    for index, source in enumerate(range_dirs):
        _add_range(state_dir, index, source)
    return state_dir


def _add_range(state_dir, index, source):
    target = os.path.join(state_dir, f"range-{index:04d}", "telemetry-0001")
    if source is None:
        os.makedirs(target)
    else:
        shutil.copytree(source, target)
    return target


class TestMultiDirMonitor:
    def test_sums_across_dirs(self, tmp_path, finished_run):
        state_dir, spec, _ = finished_run
        tdir = telemetry_dir_for(state_dir)
        coordinator = _coordinator_dir(tmp_path, tdir, tdir)
        monitor = FleetMonitor(coordinator)
        snap = monitor.poll()
        assert snap.status == "done"
        assert snap.completed == 2 * len(spec.homes)
        assert snap.planned == 2 * len(spec.homes)
        assert len(monitor.parts) == 2
        body = monitor.render(snap)
        assert f"{coordinator} (2 telemetry dirs)" in body
        assert f"{2 * len(spec.homes)}/{2 * len(spec.homes)} homes (100%)" in body
        for directory, _ in monitor.parts:
            assert body.count(directory) == 1

    def test_unheard_range_keeps_fleet_running(self, tmp_path, finished_run):
        state_dir, spec, _ = finished_run
        coordinator = _coordinator_dir(tmp_path, telemetry_dir_for(state_dir), None)
        snap = FleetMonitor(coordinator).poll()  # must not traceback
        assert snap.completed == len(spec.homes)
        # one range done, one not heard from: the fleet is not "done"
        assert snap.status == "running"

    def test_dirs_reresolved_each_poll(self, tmp_path, finished_run):
        state_dir, _, _ = finished_run
        tdir = telemetry_dir_for(state_dir)
        coordinator = _coordinator_dir(tmp_path, tdir)
        monitor = FleetMonitor(coordinator)
        assert len(monitor.poll().in_flight) == 0
        assert len(monitor.parts) == 1
        _add_range(coordinator, 1, tdir)  # a fresh range appeared
        monitor.poll()
        assert len(monitor.parts) == 2

    def test_coordinator_without_ranges_is_idle(self, tmp_path):
        monitor = FleetMonitor(_coordinator_dir(tmp_path))
        assert monitor.poll().status == "idle"
        assert "no telemetry frames yet" in monitor.render()


class TestMerge:
    @pytest.mark.parametrize("case", sorted(PIN_CASES))
    def test_merging_one_part_returns_it(self, tmp_path, case):
        channels, now = PIN_CASES[case]
        _, telemetry = write_pinned_state_dir(tmp_path, channels)
        part = fold_frames(telemetry, now)
        assert merge_monitor_snapshots([part]) == part

    def test_stale_part_makes_fleet_stale(self, tmp_path):
        channels, now = PIN_CASES["stale"]
        _, stale_dir = write_pinned_state_dir(tmp_path / "a", channels)
        channels, _ = PIN_CASES["done"]
        _, done_dir = write_pinned_state_dir(tmp_path / "b", channels)
        stale, done = fold_frames(stale_dir, now), fold_frames(done_dir, now)
        merged = merge_monitor_snapshots([done, stale])
        assert merged.status == "stale"
        assert merged.completed == stale.completed + done.completed
        assert merged.planned == stale.planned + done.planned
        assert merged.age_s == min(stale.age_s, done.age_s)

    def test_rate_sums_running_parts_else_all(self, tmp_path):
        parts = [
            fold_frames(write_pinned_state_dir(tmp_path / name, PIN_CASES[name][0])[1], 50.0)
            for name in ("running", "done")
        ]
        running, done = parts
        assert running.status == "running" and done.status == "done"
        assert merge_monitor_snapshots(parts).homes_per_sec == running.homes_per_sec
        assert merge_monitor_snapshots([done, done]).homes_per_sec == 2 * done.homes_per_sec

    def test_machine_start_counts_the_whole_range(self, tmp_path):
        """A re-leased machine's runner sees only the uncovered suffix;
        its ``machine-start`` frame carries the tally of the homes
        earlier epochs covered, and the fold adds it to the runner's."""
        tdir = str(tmp_path / "telemetry-0002")
        with TelemetryWriter(tdir, "machine.jsonl") as machine:
            machine.emit(
                "machine-start", range=1, epoch=2, planned=5,
                completed=2, ok=1, failed=1, quarantined=1,
            )
        with TelemetryWriter(tdir) as writer:
            writer.emit("run-start", fleet="f", planned=3, jobs=1, backend="serial")
            writer.emit("progress", completed=2, ok=2, failed=0, quarantined=0,
                        elapsed_s=1.0, homes_per_sec=2.0)
            running = FleetMonitor(tdir).poll()
            assert (running.completed, running.planned) == (4, 5)
            assert (running.ok, running.failed, running.quarantined) == (3, 1, 1)
            assert running.resumed_from == 2
            assert running.eta_s == pytest.approx(0.5)
            writer.emit("final", status="done", completed=3, elapsed_s=1.5)
        done = FleetMonitor(tdir).poll()
        assert done.status == "done"
        assert (done.completed, done.planned) == (5, 5)

    def test_fully_covered_range_is_done(self, tmp_path):
        """A re-lease whose predecessor logged every home runs no runner."""
        tdir = str(tmp_path / "telemetry-0002")
        with TelemetryWriter(tdir, "machine.jsonl") as machine:
            machine.emit(
                "machine-start", range=0, epoch=2, planned=2,
                completed=2, ok=2, failed=0, quarantined=0,
            )
        snap = FleetMonitor(tdir).poll()
        assert snap.status == "done"
        assert (snap.completed, snap.planned, snap.ok) == (2, 2, 2)

    def test_earlier_epochs_add_phase_timings_not_counts(self, tmp_path):
        """Phase rows and slowest rows take the ``home-end`` timings of a
        range's earlier lease epochs; a home rerun by a later epoch keeps
        only the later timing, and the counts stay the tally's."""
        range_dir = tmp_path / "range-0001"
        with TelemetryWriter(str(range_dir / "telemetry-0001"), "worker-1.jsonl") as old:
            old.emit("home-start", home="h0")
            old.emit("home-end", home="h0", phases={"setup": 3.0, "total": 3.0})
            old.emit("home-start", home="h1")
            old.emit("home-end", home="h1", phases={"setup": 9.0, "total": 9.0})
        tdir = str(range_dir / "telemetry-0002")
        with TelemetryWriter(tdir, "machine.jsonl") as machine:
            machine.emit(
                "machine-start", range=1, epoch=2, planned=3,
                completed=1, ok=1, failed=0, quarantined=0,
            )
        with TelemetryWriter(tdir, "worker-2.jsonl") as worker:
            worker.emit("home-start", home="h1")
            worker.emit("home-end", home="h1", phases={"setup": 1.0, "total": 1.0})
            worker.emit("home-start", home="h2")
            worker.emit("home-end", home="h2", phases={"setup": 2.0, "total": 2.0})
        with TelemetryWriter(tdir) as writer:
            writer.emit("run-start", fleet="f", planned=2, jobs=1, backend="serial")
            writer.emit("progress", completed=2, ok=2, failed=0, quarantined=0,
                        elapsed_s=1.0, homes_per_sec=2.0)
            writer.emit("final", status="done", completed=2, elapsed_s=1.0)
        snap = FleetMonitor(tdir).poll()
        assert (snap.completed, snap.planned, snap.ok) == (3, 3, 3)
        assert snap.phases["total"].n == 3
        assert sorted(snap.phases["total"].samples) == [1.0, 2.0, 3.0]
        assert [home for home, _, _ in snap.slowest] == ["h0", "h2", "h1"]
        # the first epoch's own dir folds only itself
        first = FleetMonitor(str(range_dir / "telemetry-0001")).poll()
        assert first.phases["total"].n == 2
