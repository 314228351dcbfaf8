"""Tests for ``tools/perf_gate.py`` on synthetic perfbench outputs."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "perf_gate.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)
WORKLOADS = [entry["name"] for entry in BENCH["workloads"]]

#: plausible seed-0 values of every end-to-end metric
BASE = {
    "setup_s": 0.3,
    "peak_rss_mb": 64.0,
    "homes_per_s": 8.0,
    "pkts_per_s": 30000.0,
    "pkt_us_p50": 5.0,
    "pkt_us_p99": 170.0,
    "proof_us_p50": 100.0,
}


def write_run(path, metrics, correct=True, attempted=1000, failed=0):
    """One saved perfbench stdout: a table line, the record, the summary."""
    workload = os.path.basename(path).split(".")[0]
    record = {"workload": workload, "seed": 0, "seconds": float(BENCH["run_seconds"])}
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"perfbench {workload} seed=0 trace=0\n")
        handle.write("record " + json.dumps(record) + "\n")
        handle.write(json.dumps(summary) + "\n")


def write_side(directory, scale=None, **run_kwargs):
    """Three runs of every workload, ±2 % around ``BASE`` (times ``scale``)."""
    directory.mkdir()
    for workload in WORKLOADS:
        for k, jitter in enumerate((0.98, 1.0, 1.02), start=1):
            metrics = {
                name: value * jitter * (scale or {}).get(name, 1.0)
                for name, value in BASE.items()
            }
            write_run(directory / f"{workload}.{k}.out", metrics, **run_kwargs)
    return directory


def gate(parent, change):
    result = subprocess.run(
        [sys.executable, TOOL, str(parent), str(change)],
        capture_output=True, text=True, timeout=60,
    )
    return result.returncode, result.stdout


@pytest.fixture
def parent(tmp_path):
    return write_side(tmp_path / "parent")


def test_parent_against_itself_passes(parent):
    code, out = gate(parent, parent)
    assert code == 0, out
    assert "perf gate: PASS" in out


def test_halved_throughput_fails(parent, tmp_path):
    change = write_side(tmp_path / "change", scale={"homes_per_s": 0.5})
    code, out = gate(parent, change)
    assert code == 1
    assert "homes_per_s" in out and "REGRESSION" in out


def test_peak_rss_beyond_its_bound_fails(parent, tmp_path):
    assert {m["name"]: m["bound"] for m in BENCH["end_to_end"]}["peak_rss_mb"] == 0.15
    change = write_side(tmp_path / "change", scale={"peak_rss_mb": 1.2})
    code, out = gate(parent, change)
    assert code == 1
    assert "peak_rss_mb" in out


def test_improvement_on_every_metric_passes(parent, tmp_path):
    better = {m["name"]: (0.5 if m["better"] == "lower" else 2.0) for m in BENCH["end_to_end"]}
    change = write_side(tmp_path / "change", scale=better)
    code, out = gate(parent, change)
    assert code == 0, out


def test_incorrect_change_run_fails(parent, tmp_path):
    change = write_side(tmp_path / "change")
    write_run(change / f"{WORKLOADS[0]}.2.out", BASE, correct=False)
    code, out = gate(parent, change)
    assert code == 1
    assert "not correct" in out


def test_more_failed_ops_than_parent_fails(parent, tmp_path):
    change = write_side(tmp_path / "change", failed=1)
    code, out = gate(parent, change)
    assert code == 1
    assert "failed-op share" in out


def test_missing_workload_fails(parent, tmp_path):
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    for path in change.glob(f"{WORKLOADS[-1]}.*.out"):
        path.unlink()
    code, out = gate(parent, change)
    assert code == 1
    assert f"{WORKLOADS[-1]}: no runs" in out


def test_truncated_run_fails(parent, tmp_path):
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    crashed = change / f"{WORKLOADS[0]}.1.out"
    crashed.write_text("perfbench fleet seed=0 trace=0\nTraceback (most recent call last):\n")
    code, out = gate(parent, change)
    assert code == 1
    assert "unparsable" in out


def test_run_of_another_length_fails(parent, tmp_path):
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    path = change / f"{WORKLOADS[0]}.3.out"
    path.write_text(path.read_text().replace('"seconds": ', '"seconds": 1'))
    code, out = gate(parent, change)
    assert code == 1
    assert "run_seconds" in out
