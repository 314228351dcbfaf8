"""Pinned single-run dashboard: fixed frames, fixed clock, fixed text.

The fleet monitor folds CRC-framed telemetry frames into a
:class:`~repro.fleet.telemetry.MonitorSnapshot` and renders the
``fleet --watch`` / ``fleet-top`` text.  These cases write synthetic
channel files with fixed wall stamps straight through
:func:`~repro.recovery.journal.frame_record` (no writer involved) and
poll at a fixed ``now``, so the whole snapshot and the rendered text are
deterministic.  They pin the single-run dashboard byte for byte: done,
running, stale, interrupted, resumed and idle runs.
"""

import dataclasses
import os

import pytest

from repro.fleet import FleetMonitor
from repro.recovery.journal import frame_record

PHASES_A = {"setup": 0.25, "simulate": 0.5, "condense": 0.125, "total": 0.875}
PHASES_B = {"setup": 0.5, "simulate": 0.75, "condense": 0.125, "total": 1.375}
PHASES_C = {"setup": 0.125, "simulate": 1.5, "condense": 0.25, "total": 1.875}


def _frame(kind, t, pid, **fields):
    return {"kind": kind, "t": t, "pid": pid, **fields}


def _start(t, planned, resumed=0, jobs=2, backend="process"):
    return _frame(
        "run-start", t, 10, fleet="pinned", planned=planned, jobs=jobs,
        backend=backend, resumed=resumed,
    )


def _progress(t, completed, ok, failed=0, retries=0, quarantined=0, elapsed_s=1.0, rate=1.0):
    return _frame(
        "progress", t, 10, completed=completed, ok=ok, failed=failed,
        retries=retries, quarantined=quarantined, elapsed_s=elapsed_s,
        homes_per_sec=rate,
    )


def _home(t0, t1, pid, home, phases, status="ok"):
    return [
        _frame("home-start", t0, pid, home=home),
        _frame("home-end", t1, pid, home=home, phases=phases, status=status),
    ]


#: name -> (channel -> frames, poll time)
CASES = {
    "done": (
        {
            "run.jsonl": [
                _start(100.0, planned=3),
                _progress(101.625, 1, 1, elapsed_s=1.625, rate=0.625),
                _progress(102.125, 2, 2, elapsed_s=2.125, rate=0.9375),
                _progress(103.125, 3, 2, failed=1, retries=1, quarantined=1,
                          elapsed_s=3.125, rate=0.96875),
                _frame("final", 103.25, 10, status="done", completed=3,
                       planned=3, elapsed_s=3.25),
            ],
            "worker-11.jsonl": _home(100.5, 101.5, 11, "h0", PHASES_A)
            + _home(101.625, 103.0, 11, "h2", PHASES_C, status="error"),
            "worker-12.jsonl": _home(100.625, 102.0, 12, "h1", PHASES_B),
        },
        110.0,
    ),
    "running": (
        {
            "run.jsonl": [
                _start(40.0, planned=10, jobs=1, backend="serial"),
                _progress(48.0, 4, 4, elapsed_s=8.0, rate=0.5),
            ],
            "worker-21.jsonl": _home(46.0, 47.5, 21, "h3", PHASES_B)
            + [_frame("home-start", 48.25, 21, home="h4")],
        },
        50.0,
    ),
    "stale": (
        {
            "run.jsonl": [
                _start(40.0, planned=10, jobs=1, backend="serial"),
                _progress(48.0, 4, 4, elapsed_s=8.0, rate=0.5),
            ],
            "worker-21.jsonl": _home(46.0, 47.5, 21, "h3", PHASES_B)
            + [_frame("home-start", 48.25, 21, home="h4")],
        },
        200.0,
    ),
    "interrupted": (
        {
            "run.jsonl": [
                _start(10.0, planned=4),
                _progress(11.0, 1, 1, elapsed_s=1.0, rate=1.0),
                _progress(12.0, 2, 2, elapsed_s=2.0, rate=1.0),
                _frame("final", 12.5, 10, status="interrupted", completed=2,
                       planned=4, elapsed_s=2.5),
            ],
            "worker-31.jsonl": _home(10.25, 10.75, 31, "h0", PHASES_A)
            + _home(11.0, 11.875, 31, "h1", PHASES_A)
            + [_frame("home-start", 12.0, 31, home="h2")],
        },
        20.0,
    ),
    "resumed": (
        {
            "run.jsonl": [
                _start(10.0, planned=4),
                _progress(11.0, 1, 1, elapsed_s=1.0, rate=1.0),
                _progress(12.0, 2, 2, elapsed_s=2.0, rate=1.0),
                _start(30.0, planned=4, resumed=2),
                _progress(31.0, 3, 3, elapsed_s=1.0, rate=1.0),
                _progress(32.5, 4, 4, elapsed_s=2.5, rate=0.8),
                _frame("final", 32.75, 10, status="done", completed=4,
                       planned=4, elapsed_s=2.75),
            ],
            "worker-41.jsonl": _home(10.25, 10.75, 41, "h0", PHASES_A)
            + _home(11.0, 11.875, 41, "h1", PHASES_B),
            "worker-42.jsonl": _home(30.25, 30.875, 42, "h2", PHASES_C)
            + _home(31.0, 32.375, 42, "h3", PHASES_A),
        },
        33.0,
    ),
    "idle": ({}, 5.0),
}

EXPECTED_TEXT = {
    "done": """\
=== FIAT fleet monitor — <dir> ===
  fleet 'pinned'   status DONE   backend process x2   runs 1
  progress  3/3 homes (100%)   ok 2  failed 1  retries 1  quarantined 1
  rate      0.97 homes/s   elapsed 3.2s   ETA ?
  phase             n      mean       p95       max
    condense        3    166.7ms    250.0ms    250.0ms
    setup           3    291.7ms    500.0ms    500.0ms
    simulate        3    916.7ms   1500.0ms   1500.0ms
    total           3   1375.0ms   1875.0ms   1875.0ms
  slowest   h2 1.9s (simulate), h1 1.4s (simulate), h0 0.9s (simulate)
  last frame 6.8s ago (11 frames)
""",
    "running": """\
=== FIAT fleet monitor — <dir> ===
  fleet 'pinned'   status RUNNING   backend serial x1   runs 1
  progress  4/10 homes (40%)   ok 4  failed 0  retries 0  quarantined 0
  rate      0.50 homes/s   elapsed 8.0s   ETA 12.0s
  in-flight h4 (pid 21)
  phase             n      mean       p95       max
    condense        1    125.0ms    125.0ms    125.0ms
    setup           1    500.0ms    500.0ms    500.0ms
    simulate        1    750.0ms    750.0ms    750.0ms
    total           1   1375.0ms   1375.0ms   1375.0ms
  slowest   h3 1.4s (simulate)
  last frame 1.8s ago (5 frames)
""",
    "stale": """\
=== FIAT fleet monitor — <dir> ===
  fleet 'pinned'   status STALE   backend serial x1   runs 1
  progress  4/10 homes (40%)   ok 4  failed 0  retries 0  quarantined 0
  rate      0.50 homes/s   elapsed 8.0s   ETA 12.0s
  in-flight h4 (pid 21)
  phase             n      mean       p95       max
    condense        1    125.0ms    125.0ms    125.0ms
    setup           1    500.0ms    500.0ms    500.0ms
    simulate        1    750.0ms    750.0ms    750.0ms
    total           1   1375.0ms   1375.0ms   1375.0ms
  slowest   h3 1.4s (simulate)
  last frame 151.8s ago (5 frames)
""",
    "interrupted": """\
=== FIAT fleet monitor — <dir> ===
  fleet 'pinned'   status INTERRUPTED   backend process x2   runs 1
  progress  2/4 homes (50%)   ok 2  failed 0  retries 0  quarantined 0
  rate      1.00 homes/s   elapsed 2.5s   ETA ?
  phase             n      mean       p95       max
    condense        2    125.0ms    125.0ms    125.0ms
    setup           2    250.0ms    250.0ms    250.0ms
    simulate        2    500.0ms    500.0ms    500.0ms
    total           2    875.0ms    875.0ms    875.0ms
  slowest   h0 0.9s (simulate), h1 0.9s (simulate)
  last frame 7.5s ago (9 frames)
""",
    "resumed": """\
=== FIAT fleet monitor — <dir> ===
  fleet 'pinned'   status DONE   backend process x2   runs 2
  progress  4/4 homes (100%)   ok 4  failed 0  retries 0  quarantined 0
  rate      0.80 homes/s   elapsed 2.8s   ETA ?
  resumed   2 homes carried over from earlier run(s)
  phase             n      mean       p95       max
    condense        4    156.2ms    250.0ms    250.0ms
    setup           4    281.2ms    500.0ms    500.0ms
    simulate        4    812.5ms   1500.0ms   1500.0ms
    total           4   1250.0ms   1875.0ms   1875.0ms
  slowest   h2 1.9s (simulate), h1 1.4s (simulate), h0 0.9s (simulate), h3 0.9s (simulate)
  last frame 0.2s ago (15 frames)
""",
    "idle": """\
=== FIAT fleet monitor — <dir> ===
  (no telemetry frames yet)
""",
}


def _digest(n, samples):
    return {"n": n, "total_s": sum(samples), "max_s": max(samples), "samples": samples}


EXPECTED_SNAPSHOT = {
    "done": {
        "status": "done", "fleet": "pinned", "backend": "process", "jobs": 2,
        "planned": 3, "completed": 3, "ok": 2, "failed": 1, "retries": 1,
        "quarantined": 1, "resumed_from": 0, "homes_per_sec": 0.96875,
        "elapsed_s": 3.25, "eta_s": None, "age_s": 6.75, "n_frames": 11,
        "n_runs": 1,
        "phases": {
            "condense": _digest(3, [0.125, 0.125, 0.25]),
            "setup": _digest(3, [0.25, 0.5, 0.125]),
            "simulate": _digest(3, [0.5, 0.75, 1.5]),
            "total": _digest(3, [0.875, 1.375, 1.875]),
        },
        "slowest": [("h2", 1.875, "simulate"), ("h1", 1.375, "simulate"),
                    ("h0", 0.875, "simulate")],
        "in_flight": [],
    },
    "running": {
        "status": "running", "fleet": "pinned", "backend": "serial", "jobs": 1,
        "planned": 10, "completed": 4, "ok": 4, "failed": 0, "retries": 0,
        "quarantined": 0, "resumed_from": 0, "homes_per_sec": 0.5,
        "elapsed_s": 8.0, "eta_s": 12.0, "age_s": 1.75, "n_frames": 5,
        "n_runs": 1,
        "phases": {
            "condense": _digest(1, [0.125]),
            "setup": _digest(1, [0.5]),
            "simulate": _digest(1, [0.75]),
            "total": _digest(1, [1.375]),
        },
        "slowest": [("h3", 1.375, "simulate")],
        "in_flight": [("h4", 21, 48.25)],
    },
    "stale": {
        "status": "stale", "fleet": "pinned", "backend": "serial", "jobs": 1,
        "planned": 10, "completed": 4, "ok": 4, "failed": 0, "retries": 0,
        "quarantined": 0, "resumed_from": 0, "homes_per_sec": 0.5,
        "elapsed_s": 8.0, "eta_s": 12.0, "age_s": 151.75, "n_frames": 5,
        "n_runs": 1,
        "phases": {
            "condense": _digest(1, [0.125]),
            "setup": _digest(1, [0.5]),
            "simulate": _digest(1, [0.75]),
            "total": _digest(1, [1.375]),
        },
        "slowest": [("h3", 1.375, "simulate")],
        "in_flight": [("h4", 21, 48.25)],
    },
    "interrupted": {
        "status": "interrupted", "fleet": "pinned", "backend": "process",
        "jobs": 2, "planned": 4, "completed": 2, "ok": 2, "failed": 0,
        "retries": 0, "quarantined": 0, "resumed_from": 0,
        "homes_per_sec": 1.0, "elapsed_s": 2.5, "eta_s": None, "age_s": 7.5,
        "n_frames": 9, "n_runs": 1,
        "phases": {
            "condense": _digest(2, [0.125, 0.125]),
            "setup": _digest(2, [0.25, 0.25]),
            "simulate": _digest(2, [0.5, 0.5]),
            "total": _digest(2, [0.875, 0.875]),
        },
        "slowest": [("h0", 0.875, "simulate"), ("h1", 0.875, "simulate")],
        "in_flight": [],
    },
    "resumed": {
        "status": "done", "fleet": "pinned", "backend": "process", "jobs": 2,
        "planned": 4, "completed": 4, "ok": 4, "failed": 0, "retries": 0,
        "quarantined": 0, "resumed_from": 2, "homes_per_sec": 0.8,
        "elapsed_s": 2.75, "eta_s": None, "age_s": 0.25, "n_frames": 15,
        "n_runs": 2,
        "phases": {
            "condense": _digest(4, [0.125, 0.125, 0.25, 0.125]),
            "setup": _digest(4, [0.25, 0.5, 0.125, 0.25]),
            "simulate": _digest(4, [0.5, 0.75, 1.5, 0.5]),
            "total": _digest(4, [0.875, 1.375, 1.875, 0.875]),
        },
        "slowest": [("h2", 1.875, "simulate"), ("h1", 1.375, "simulate"),
                    ("h0", 0.875, "simulate"), ("h3", 0.875, "simulate")],
        "in_flight": [],
    },
    "idle": {
        "status": "idle", "fleet": "", "backend": "", "jobs": 0,
        "planned": None, "completed": 0, "ok": 0, "failed": 0, "retries": 0,
        "quarantined": 0, "resumed_from": 0, "homes_per_sec": 0.0,
        "elapsed_s": 0.0, "eta_s": None, "age_s": None, "n_frames": 0,
        "n_runs": 0, "phases": {}, "slowest": [], "in_flight": [],
    },
}


def _write_state_dir(root, channels):
    """A fleet state dir whose ``telemetry/`` holds the given channels."""
    state_dir = str(root / "state")
    telemetry = os.path.join(state_dir, "telemetry")
    os.makedirs(telemetry)
    for name, frames in channels.items():
        with open(os.path.join(telemetry, name), "wb") as handle:
            for frame in frames:
                handle.write(frame_record(frame))
    return state_dir, telemetry


@pytest.mark.parametrize("case", sorted(CASES))
def test_single_run_snapshot_is_pinned(tmp_path, case):
    channels, now = CASES[case]
    state_dir, _ = _write_state_dir(tmp_path, channels)
    snapshot = FleetMonitor(state_dir).poll(now=now)
    assert dataclasses.asdict(snapshot) == EXPECTED_SNAPSHOT[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_single_run_dashboard_is_pinned(tmp_path, case):
    channels, now = CASES[case]
    state_dir, telemetry = _write_state_dir(tmp_path, channels)
    monitor = FleetMonitor(state_dir)
    text = monitor.render(monitor.poll(now=now))
    assert text.replace(telemetry, "<dir>") == EXPECTED_TEXT[case]
