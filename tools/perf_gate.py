#!/usr/bin/env python3
"""Gate a change's perfbench runs against its parent's, run on one host.

Save the standard output of each ``perfbench/run.py`` run as
``<workload>.<n>.out``, one directory per side, then run::

    python3 tools/perf_gate.py PARENT_DIR CHANGE_DIR

For every workload registered in ``BENCHMARK.json`` the gate reads each
run's last line (the JSON summary) and its ``record`` line, and exits 1,
naming every reason, when

* a run is not ``correct`` (an output check failed or its digest moved),
* a workload has no runs on one side, or a run cannot be parsed,
* a run's length is not ``run_seconds``,
* the change fails a larger share of its operations than the parent, or
* an ``end_to_end`` metric's median over the change's runs is worse than
  the parent's median by more than the metric's ``bound``, a fraction of
  the parent median in the metric's ``better`` direction.

Otherwise it exits 0.  Both sides are measured on the same host in the
same job, so the parent's runs are the baseline and none is committed.
"""

from __future__ import annotations

import glob
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_PREFIX = "record "


def read_run(path: str, metric_names) -> dict:
    """The gated fields of one saved run; ``ValueError`` if unparsable."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    records = [line[len(RECORD_PREFIX):] for line in lines if line.startswith(RECORD_PREFIX)]
    if not lines or len(records) != 1:
        raise ValueError("expected one record line and a JSON summary last")
    summary = json.loads(lines[-1])
    try:
        metrics = {name: float(summary["metrics"][name]["value"]) for name in metric_names}
        run = {
            "seconds": float(json.loads(records[0])["seconds"]),
            "correct": summary["correct"] is True,
            "attempted": int(summary["attempted"]),
            "failed": int(summary["failed"]),
            "metrics": metrics,
        }
    except (KeyError, TypeError) as error:
        raise ValueError(f"missing or malformed field {error}") from None
    if not all(math.isfinite(value) for value in metrics.values()):
        raise ValueError("a metric is not finite")
    return run


def load_side(directory: str, workload: str, bench: dict, problems: list) -> list:
    """Every parsable run of one workload on one side; faults go to ``problems``."""
    names = [metric["name"] for metric in bench["end_to_end"]]
    paths = sorted(glob.glob(os.path.join(glob.escape(directory), f"{workload}.*.out")))
    if not paths:
        problems.append(f"{workload}: no runs in {directory}")
    runs = []
    for path in paths:
        try:
            run = read_run(path, names)
        except (OSError, ValueError) as error:
            problems.append(f"{path}: unparsable perfbench output ({error})")
            continue
        if run["seconds"] != bench["run_seconds"]:
            problems.append(
                f"{path}: ran {run['seconds']:g} s, BENCHMARK.json run_seconds is "
                f"{bench['run_seconds']}"
            )
        if not run["correct"]:
            problems.append(f"{path}: run is not correct")
        runs.append(run)
    return runs


def failed_share(runs: list) -> float:
    return sum(run["failed"] for run in runs) / max(sum(run["attempted"] for run in runs), 1)


def compare(workload: str, parent: list, change: list, bench: dict, problems: list) -> list:
    """Table rows for one workload; regressions go to ``problems``."""
    rows = []
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        base = statistics.median(run["metrics"][name] for run in parent)
        new = statistics.median(run["metrics"][name] for run in change)
        if metric["better"] == "lower":
            worse = new > base * (1.0 + bound)
        else:
            worse = new < base * (1.0 - bound)
        delta = f"{new / base - 1.0:+.1%}" if base else "n/a"
        rows.append(
            f"  {name:<14} {base:>12.6g} {new:>12.6g} {delta:>8}  "
            f"({metric['better']} is better, bound {bound:.0%})"
            + ("  REGRESSION" if worse else "")
        )
        if worse:
            problems.append(
                f"{workload}: {name} median {new:.6g} vs parent {base:.6g} "
                f"({delta}) is outside its {bound:.0%} bound"
            )
    parent_share, change_share = failed_share(parent), failed_share(change)
    rows.append(f"  {'failed share':<14} {parent_share:>12.6g} {change_share:>12.6g}")
    if change_share > parent_share:
        problems.append(
            f"{workload}: failed-op share {change_share:.6g} > parent {parent_share:.6g}"
        )
    return rows


def gate(parent_dir: str, change_dir: str, bench: dict) -> list:
    """Print the comparison and return the reasons to fail (empty: pass)."""
    problems = []
    for workload in (entry["name"] for entry in bench["workloads"]):
        parent = load_side(parent_dir, workload, bench, problems)
        change = load_side(change_dir, workload, bench, problems)
        if not (parent and change):
            continue
        print(f"{workload}: medians of {len(parent)} parent and {len(change)} change runs")
        print(f"  {'metric':<14} {'parent':>12} {'change':>12} {'delta':>8}")
        for row in compare(workload, parent, change, bench, problems):
            print(row)
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: perf_gate.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    problems = gate(argv[0], argv[1], bench)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("perf gate: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
