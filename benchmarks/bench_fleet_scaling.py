"""Fleet durability and population-scale costs.

Two benches over `repro.fleet`: the homes/sec tax of checkpointing a
run (``--state-dir``), byte-identical to a plain run, and the peak
allocation of a 10k-home streaming fold, which must stay flat as the
fleet doubles.  Fleet throughput itself is measured by perfbench's
``fleet`` workload; byte-identity across ``--jobs`` values is a tier-1
test (``tests/test_fleet_runner.py``).

Run with ``pytest -s`` to see the tables.
"""

import json
import os
import tempfile
import time
import tracemalloc

from repro.fleet import (
    FleetAggregator,
    FleetCheckpoint,
    FleetRunner,
    HomeResult,
    JsonlSpecStream,
    generate_fleet,
    iter_generate_fleet,
    write_spec_jsonl,
)

from benchmarks._helpers import bench_out_path, print_table

#: Rule devices: no ML training, so the bench isolates orchestration
#: and serialisation overhead rather than classifier fitting.
N_HOMES = 12


def _fleet():
    return generate_fleet(
        N_HOMES, seed=11, name="bench-scaling",
        n_manual=4, n_non_manual=8, n_attacks=4,
    )


def test_fleet_checkpoint_overhead():
    """Durable-runs tax: homes/sec with vs without ``--state-dir``.

    Checkpointing journals every completed home (flushed, not fsynced)
    and compacts a snapshot every few homes; relative to ~1s of real
    work per home that must stay a small fraction of the run.  The
    bench asserts the checkpointed run stays within 1.5x of the plain
    one (generous, to absorb shared-runner timing noise) and, of
    course, byte-identical.
    """
    spec = _fleet()
    timings = {}
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, kwargs in (
            ("plain", {}),
            (
                "checkpointed",
                {"state_dir": os.path.join(tmp, "state"), "snapshot_every": 4},
            ),
        ):
            t0 = time.perf_counter()
            report = FleetRunner(spec, jobs=1, backend="serial", **kwargs).run()
            timings[label] = time.perf_counter() - t0
            reports[label] = report.to_json()
            assert report.ok

        # ...and a resume over the finished checkpoint re-runs nothing.
        t0 = time.perf_counter()
        resumed = FleetRunner(
            spec,
            jobs=1,
            backend="serial",
            state_dir=os.path.join(tmp, "state"),
            resume=True,
        ).run()
        timings["resume-noop"] = time.perf_counter() - t0

    overhead = timings["checkpointed"] / timings["plain"] - 1.0
    print_table(
        "Fleet checkpoint overhead (12 homes, serial)",
        ["mode", "elapsed", "homes/sec"],
        [
            (label, f"{elapsed:.2f}s", f"{N_HOMES / elapsed:.2f}")
            for label, elapsed in timings.items()
        ],
    )
    assert reports["checkpointed"] == reports["plain"]
    assert resumed.to_json() == reports["plain"]
    assert timings["checkpointed"] < timings["plain"] * 1.5, (
        f"checkpointing cost {overhead:.0%} — expected it in the noise"
    )
    assert timings["resume-noop"] < timings["plain"], "resume re-ran homes"

    headline = {
        "n_homes": N_HOMES,
        "homes_per_sec_plain": N_HOMES / timings["plain"],
        "homes_per_sec_checkpointed": N_HOMES / timings["checkpointed"],
        "checkpoint_overhead_pct": overhead * 100.0,
        "resume_noop_s": timings["resume-noop"],
        "byte_identical": True,
    }
    with open(
        bench_out_path("BENCH_fleet_checkpoint.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump({"bench": "fleet_checkpoint", "headline": headline}, fh, indent=2)


def _synthetic_result(home_id, idx):
    """A JSON-shaped stand-in for one home's outcome (no simulation).

    The bounded-memory bench measures the *aggregation and durability*
    layers at population scale; real homes cost ~1s each, so 10k of
    them are simulated results, not simulated households.
    """
    base = (idx % 97) / 97.0
    row = {
        "manual_precision": base,
        "manual_recall": 1.0 - base,
        "non_manual_precision": 0.9 + base / 10.0,
        "non_manual_recall": 0.8 + base / 5.0,
        "fp_manual_blocked": float(idx % 3),
        "fp_non_manual_blocked": float(idx % 2),
        "false_negative": float(idx % 5),
    }
    return HomeResult(
        home_id=home_id,
        devices={"SP10": row},
        class_counts={"manual": {"events": 6, "blocked": idx % 2}},
        human_rates={"precision": base},
        alerts={"security": idx % 4},
        n_decisions=18,
        metrics={
            "counters": {"proxy_decisions_total": {"device=SP10": 18.0}},
            "gauges": {},
            "histograms": {},
        },
    )


def _streaming_fold(spec_path, state_dir, snapshot_every=512):
    """Fold every home of a JSONL spec through aggregator + checkpoint."""
    stream = JsonlSpecStream(spec_path)
    agg = FleetAggregator(stream.name, stream.seed)
    checkpoint = FleetCheckpoint(
        state_dir, name=stream.name, seed=stream.seed, spec_digest=stream.digest
    )
    checkpoint.start_fresh()
    for idx, home in enumerate(stream.iter_homes()):
        result = _synthetic_result(home.home_id, idx)
        agg.add(idx, result)
        checkpoint.record_home(idx, result.to_dict(), agg.epoch)
        if agg.epoch % snapshot_every == 0:
            checkpoint.compact(idx + 1, agg.to_state())
    checkpoint.compact(agg.epoch, agg.to_state())
    checkpoint.close()
    return agg.report(n_planned=stream.n_homes)


def test_fleet_bounded_memory_streaming():
    """Peak allocation of a 10k-home streaming run stays bounded.

    The whole durable pipeline — JSONL spec stream in, incremental
    aggregator, journaled checkpoint with rotating snapshots — must be
    O(1) in fleet size: reservoirs cap at 4096 samples per field, ok
    home rows at 256, journal epochs at the fallback window.  Doubling
    the fleet from 5k to 10k homes must therefore leave the allocation
    peak nearly flat (a linear pipeline would double it).
    """
    sizes = (5_000, 10_000)
    peaks = {}
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            spec_path = os.path.join(tmp, f"fleet-{n}.jsonl")
            write_spec_jsonl(
                spec_path,
                iter_generate_fleet(n, seed=5, n_manual=2, n_non_manual=3,
                                    n_attacks=1),
                name=f"bench-mem-{n}",
                seed=5,
                n_homes=n,
            )
            tracemalloc.start()
            t0 = time.perf_counter()
            reports[n] = _streaming_fold(spec_path, os.path.join(tmp, f"state-{n}"))
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            peaks[n] = peak / 1e6
            print(
                f"  {n} homes: peak {peaks[n]:.1f} MB, "
                f"{n / elapsed:.0f} folds/sec"
            )

    small, big = sizes
    assert reports[big].n_ok == big and reports[big].coverage["partial"] is False
    assert len(reports[big].homes) == 256  # ok-row retention cap held
    assert reports[big].coverage["ok_rows_dropped"] == big - 256
    # 2x the fleet, near-flat peak: well under the 2x a linear fold costs.
    assert peaks[big] < peaks[small] * 1.5, (
        f"peak grew {peaks[big] / peaks[small]:.2f}x from {small} to {big} homes"
    )

    headline = {
        "sizes": list(sizes),
        "peak_mb": {str(n): peaks[n] for n in sizes},
        "peak_growth_x": peaks[big] / peaks[small],
        "bounded": True,
    }
    with open(
        bench_out_path("BENCH_fleet_bounded_memory.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(
            {"bench": "fleet_bounded_memory", "headline": headline}, fh, indent=2
        )
