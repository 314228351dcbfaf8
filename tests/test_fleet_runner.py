"""Tests for fleet execution: determinism, failure semantics, aggregation."""

import pytest

from repro.fleet import (
    FleetReport,
    FleetRunner,
    FleetSpec,
    HomeResult,
    HomeSpec,
    generate_fleet,
    percentile,
    run_home,
)
from repro.fleet.worker import WALL_CLOCK_SUFFIX


def _spec(n=3, seed=0, **kwargs):
    kwargs.setdefault("n_manual", 3)
    kwargs.setdefault("n_non_manual", 4)
    kwargs.setdefault("n_attacks", 2)
    return generate_fleet(n, seed=seed, **kwargs)


def _poisoned_spec(poison="raise"):
    """Three homes; the middle one is poisoned."""
    base = _spec(3, seed=1)
    homes = list(base.homes)
    middle = homes[1].to_dict()
    middle["poison"] = poison
    homes[1] = HomeSpec.from_dict(middle)
    return FleetSpec(name=base.name, seed=base.seed, homes=tuple(homes))


@pytest.fixture(scope="module")
def small_reports():
    """Serial and process-pool reports (2 and 4 workers) of one small fleet."""
    spec = _spec(4, seed=0)
    serial = FleetRunner(spec, jobs=1).run()
    process = {jobs: FleetRunner(spec, jobs=jobs, backend="process").run() for jobs in (2, 4)}
    return serial, process


class TestWorker:
    def test_result_is_pure_function_of_spec(self):
        spec = _spec(1, seed=5)
        a = run_home(spec.homes[0])
        b = run_home(spec.homes[0])
        assert a.to_dict() == b.to_dict()

    def test_wall_clock_families_stripped(self):
        result = run_home(_spec(1, seed=5).homes[0])
        assert all(
            not name.endswith(WALL_CLOCK_SUFFIX) for name in result.metrics["histograms"]
        )
        # ...but deterministic counters made it through
        assert result.metrics["counters"]

    def test_class_counts_cover_all_scripted_classes(self):
        result = run_home(_spec(1, seed=5).homes[0])
        assert {"manual", "attack", "automated", "control"} <= set(result.class_counts)

    def test_result_dict_round_trip(self):
        result = run_home(_spec(1, seed=5).homes[0])
        assert HomeResult.from_dict(result.to_dict()).to_dict() == result.to_dict()

    def test_poisoned_home_raises(self):
        spec = _poisoned_spec()
        with pytest.raises(RuntimeError, match="poison home"):
            run_home(spec.homes[1])


class TestDeterminismAcrossBackends:
    def test_reports_byte_identical(self, small_reports):
        serial, process = small_reports
        for jobs, report in process.items():
            assert report.to_json() == serial.to_json(), f"jobs={jobs} diverged from serial"

    def test_reports_ok(self, small_reports):
        serial, _ = small_reports
        assert serial.ok and serial.n_ok == serial.n_homes == 4
        assert serial.population["manual_recall"]["n"] >= 4

    def test_merged_metrics_populated(self, small_reports):
        serial, _ = small_reports
        snapshot = serial.snapshot()
        assert snapshot.counter_total("proxy_decisions_total") > 0

    def test_report_json_round_trip(self, small_reports):
        serial, _ = small_reports
        assert FleetReport.from_json(serial.to_json()).to_json() == serial.to_json()


class TestFailureSemantics:
    def test_poisoned_home_fails_not_fleet_serial(self):
        report = FleetRunner(_poisoned_spec(), jobs=1).run()
        assert report.n_failed == 1 and report.n_ok == 2
        assert report.failed_homes == ["home-0001"]
        failed = report.homes[1]
        assert failed["status"] == "failed"
        assert "poison home" in failed["error"]

    def test_poisoned_home_fails_not_fleet_process(self):
        report = FleetRunner(_poisoned_spec(), jobs=2, backend="process").run()
        assert report.n_failed == 1 and report.n_ok == 2
        assert report.failed_homes == ["home-0001"]

    def test_failure_reports_identical_across_backends(self):
        spec = _poisoned_spec()
        serial = FleetRunner(spec, jobs=1).run()
        process = FleetRunner(spec, jobs=2, backend="process").run()
        assert serial.to_json() == process.to_json()

    def test_worker_process_death_retried_then_failed(self):
        """A hard crash (os._exit) breaks the pool; the fleet survives."""
        report = FleetRunner(
            _poisoned_spec(poison="exit"), jobs=2, backend="process"
        ).run()
        assert report.n_failed == 1 and report.n_ok == 2
        failed = report.homes[1]
        assert failed["status"] == "failed"
        assert failed["attempts"] == 2  # retried once after the pool broke

    def test_timeout_fails_home(self):
        # A zero-second deadline trips immediately; the worker result is
        # abandoned, the home marked failed.
        spec = _spec(2, seed=0)
        report = FleetRunner(
            spec, jobs=2, backend="process", timeout_s=0.0
        ).run()
        assert report.n_failed == 2
        assert all("no result within" in h["error"] for h in report.homes)


class TestTimeoutLeak:
    def test_two_timeouts_do_not_wedge_the_pool(self):
        """Regression: a running future cannot be cancelled, so before the
        pool-rebuild fix two hung workers permanently occupied both slots
        of a ``jobs=2`` pool and every later home timed out behind them.
        """
        base = _spec(4, seed=2, n_training_events=60)
        homes = list(base.homes)
        for i in (0, 1):
            poisoned = homes[i].to_dict()
            poisoned["poison"] = "hang"
            homes[i] = HomeSpec.from_dict(poisoned)
        spec = FleetSpec(name=base.name, seed=base.seed, homes=tuple(homes))
        report = FleetRunner(
            spec, jobs=2, backend="process", timeout_s=6.0
        ).run()
        assert report.n_failed == 2
        assert report.failed_homes == ["home-0000", "home-0001"]
        assert all("no result within" in h["error"] for h in report.homes[:2])
        # the homes queued behind the hung ones still completed
        assert [h["status"] for h in report.homes[2:]] == ["ok", "ok"]


class TestRunnerValidation:
    def test_rejects_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            FleetRunner(_spec(1), backend="threads")

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            FleetRunner(_spec(1), jobs=0)

    def test_auto_backend_resolution(self):
        assert FleetRunner(_spec(1), jobs=1).backend == "serial"
        assert FleetRunner(_spec(1), jobs=2).backend == "process"

    def test_serial_rejects_timeout(self):
        # the serial backend cannot preempt a running home; it must
        # refuse a timeout rather than silently ignore it
        with pytest.raises(ValueError, match="serial backend cannot enforce"):
            FleetRunner(_spec(1), backend="serial", timeout_s=5.0)

    def test_auto_with_timeout_resolves_to_process(self):
        assert FleetRunner(_spec(1), jobs=1, timeout_s=5.0).backend == "process"

    def test_backends_agree_on_timeout_semantics(self):
        # process accepts a timeout, serial rejects it — never a
        # silently different behaviour for the same arguments
        assert FleetRunner(
            _spec(1), backend="process", timeout_s=5.0
        ).timeout_s == 5.0
        with pytest.raises(ValueError):
            FleetRunner(_spec(1), backend="serial", timeout_s=5.0)

    def test_rejects_bad_retries_and_snapshot_every(self):
        with pytest.raises(ValueError, match="retries"):
            FleetRunner(_spec(1), retries=-1)
        with pytest.raises(ValueError, match="snapshot_every"):
            FleetRunner(_spec(1), snapshot_every=0)


class TestAggregate:
    def test_failed_homes_excluded_from_population(self):
        report = FleetRunner(_poisoned_spec(), jobs=1).run()
        # population stats count only ok homes' device rows
        total_rows = sum(
            len(h["devices"]) for h in report.homes if h["status"] == "ok"
        )
        assert report.population["manual_recall"]["n"] == total_rows


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single(self):
        assert percentile([3.5], 0.9) == 3.5

    def test_median_interpolation(self):
        assert percentile([0.0, 1.0], 0.5) == 0.5
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_matches_numpy(self):
        import numpy as np

        values = [0.1, 0.4, 0.45, 0.9, 1.0, 0.2]
        for q in (0.1, 0.5, 0.9):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q * 100))
            )

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestRecoveryShards:
    def test_per_home_state_dirs(self, tmp_path):
        base = _spec(2, seed=3)
        homes = tuple(
            HomeSpec.from_dict({**home.to_dict(), "recover": True})
            for home in base.homes
        )
        spec = FleetSpec(name=base.name, seed=base.seed, homes=homes)
        report = FleetRunner(spec, jobs=1, state_root=str(tmp_path)).run()
        assert report.ok
        for home in spec.homes:
            shard = tmp_path / home.home_id
            assert shard.is_dir() and any(shard.iterdir())
        assert all(h["recovery_epoch"] is not None for h in report.homes)
