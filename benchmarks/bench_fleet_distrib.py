"""Distributed fleet: homes/sec vs machine count, and the cost of dying.

The ROADMAP's multi-machine axis: `repro.fleet.distrib` partitions a
fleet into contiguous home-ranges, runs each on a machine subprocess
under a lease, and folds an exact spec-order merge.  This bench sweeps
the machine count over one generated fleet and reports homes/sec, then
SIGKILLs one machine mid-run and reports the recovery overhead —
asserting after every variant that the report bytes are identical to
the single-machine run (fault tolerance must never buy liveness with
determinism).

Headline metrics (written to ``BENCH_fleet_distrib.json``):
``homes_per_sec`` (best distributed rate) and
``recovery_overhead_pct`` (kill-one-machine wall-clock tax over a
clean distributed run at the same machine count).

Run with ``pytest -s`` to see the table.
"""

import json
import tempfile
import time

from repro.fleet import DistribCoordinator, FleetRunner, generate_fleet
from repro.faults import MachineFault

from benchmarks._helpers import bench_out_path, print_table

#: Machine counts swept (1 is the in-process serial reference).
MACHINE_COUNTS = [1, 2, 4]

N_HOMES = 12


def _fleet():
    return generate_fleet(
        N_HOMES, seed=17, name="bench-distrib",
        n_manual=2, n_non_manual=4, n_attacks=2, n_training_events=60,
    )


def _distrib(spec, tmp, tag, machines, faults=()):
    coordinator = DistribCoordinator(
        spec,
        state_dir=f"{tmp}/{tag}",
        machines=machines,
        machine_faults=faults,
    )
    t0 = time.perf_counter()
    report = coordinator.run()
    return report, time.perf_counter() - t0, coordinator.stats


def test_fleet_distrib_scaling_and_recovery():
    """Homes/sec vs ``--machines``, plus the kill-one-machine tax."""
    spec = _fleet()
    rows = []
    timings = {}

    t0 = time.perf_counter()
    ref = FleetRunner(spec, jobs=1).run()
    timings[1] = time.perf_counter() - t0
    assert ref.ok, ref.failed_homes
    ref_json = ref.to_json()
    rows.append(("serial:1", f"{timings[1]:.2f}s",
                 f"{N_HOMES / timings[1]:.2f}", "1.00x", "-"))

    with tempfile.TemporaryDirectory() as tmp:
        for machines in MACHINE_COUNTS[1:]:
            report, elapsed, stats = _distrib(
                spec, tmp, f"m{machines}", machines
            )
            assert report.to_json() == ref_json, (
                f"machines={machines} diverged from serial"
            )
            timings[machines] = elapsed
            rows.append(
                (
                    f"distrib:{machines}",
                    f"{elapsed:.2f}s",
                    f"{N_HOMES / elapsed:.2f}",
                    f"{timings[1] / elapsed:.2f}x",
                    f"{stats['leases_granted']} leases",
                )
            )

        # Recovery: SIGKILL the machine holding range 0 after one home.
        report, faulted_s, stats = _distrib(
            spec, tmp, "killed", 2,
            faults=[MachineFault("kill", 0, after_homes=1)],
        )
        assert report.to_json() == ref_json, "kill-recovery run diverged"
        assert stats["re_leases"] >= 1, "the kill was never noticed"
        clean_s = timings[2]
        recovery_overhead_pct = 100.0 * (faulted_s - clean_s) / clean_s
        rows.append(
            (
                "distrib:2+kill",
                f"{faulted_s:.2f}s",
                f"{N_HOMES / faulted_s:.2f}",
                f"{timings[1] / faulted_s:.2f}x",
                f"+{recovery_overhead_pct:.0f}% recovery",
            )
        )

    print_table(
        "Distributed fleet (homes/sec vs machines)",
        ["mode", "elapsed", "homes/sec", "speedup", "notes"],
        rows,
    )

    # The dead machine's range re-runs once: the tax is bounded by
    # roughly one extra range plus a machine restart, never a multiple
    # of the whole run (generous cap to absorb shared-runner noise).
    assert recovery_overhead_pct < 400.0, (
        f"kill recovery cost {recovery_overhead_pct:.0f}% of a clean run"
    )

    best = max(N_HOMES / timings[m] for m in MACHINE_COUNTS[1:])
    headline = {
        "n_homes": N_HOMES,
        "homes_per_sec": best,
        "serial_homes_per_sec": N_HOMES / timings[1],
        "homes_per_sec_by_machines": {
            str(m): N_HOMES / t for m, t in timings.items()
        },
        "recovery_overhead_pct": recovery_overhead_pct,
        "deterministic": True,
    }
    with open(bench_out_path("BENCH_fleet_distrib.json"), "w", encoding="utf-8") as fh:
        json.dump({"bench": "fleet_distrib", "headline": headline}, fh, indent=2)
