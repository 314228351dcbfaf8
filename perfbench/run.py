#!/usr/bin/env python3
"""Layered FIAT benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload event-burst --seed 0 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced units of the workload with units run under the span recorder
and reports the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable table and a ``record`` line with the host,
the parameters and the digests.  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("fleet", "home-trace", "event-burst")
#: the seed whose output digests are pinned in ``digests.json``
DEFAULT_SEED = 0

#: (name, unit) of the end-to-end metrics, as listed in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("homes_per_s", "homes/s"),
    ("pkts_per_s", "pkt/s"),
    ("pkt_us_p50", "us"),
    ("pkt_us_p99", "us"),
    ("proof_us_p50", "us"),
)
#: reported in the table and the record line, not gated (see README.md)
ACCURACY = ("error_frac", "fp_manual_blocked", "fp_non_manual_blocked", "fn_attack_passed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Max resident set of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_record() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run(workloads, args, tmp: str):
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        pinned = json.load(handle)
    expected = pinned.get(args.workload) if args.seed == DEFAULT_SEED else None
    if args.workload == "fleet":
        if args.trace:
            return workloads.trace_fleet(args.seed, args.seconds, expected, tmp)
        return workloads.run_fleet(args.seed, args.seconds, expected, tmp, SRC)
    build = workloads.home_trace_inputs if args.workload == "home-trace" else workloads.event_burst_inputs
    inputs = build(args.seed)
    if args.trace:
        spool = os.path.join(tmp, "spool")
        os.makedirs(spool)
        return workloads.trace_proxy(args.workload, inputs, args.seconds, expected, spool)
    return workloads.run_proxy(args.workload, inputs, args.seconds, expected)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no FIAT sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        out = run(workloads, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = max(out.attempted, 1)
    out.accuracy["error_frac"] = out.failed / attempted
    if args.trace:
        names = workloads.LAYER_METRICS
        values = out.layers
        spans_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(spans_dir, exist_ok=True)
        out.spans.save(os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.spans.npz"))
        out.check(
            values["trace.coverage_frac"] >= 0.95,
            f"trace covers {values['trace.coverage_frac']:.3f} of the traced wall time (< 0.95)",
        )
    else:
        names = END_TO_END
        values = dict(out.metrics, peak_rss_mb=peak_rss_mb())
    metrics = {name: {"value": values.get(name, math.nan), "unit": unit} for name, unit in names}
    out.check(all(math.isfinite(m["value"]) for m in metrics.values()), "a metric is not finite")
    correct = not out.problems and out.failed == 0

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    for name in ACCURACY:
        value = out.accuracy.get(name)
        shown = "n/a (class absent)" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>16} fraction")
    for problem in out.problems:
        print(f"  CHECK FAILED: {problem}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(),
        "params": out.params,
        "unscaled": out.unscaled,
        "digest": out.digests[0] if out.digests else None,
        "accuracy": out.accuracy,
        "problems": out.problems,
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
