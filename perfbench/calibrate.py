"""Host-speed calibration of the timed metrics.

A shared host does not run at one speed.  What the other guests on the
same physical cores do (shared caches, SMT siblings, memory bandwidth)
slows every process on it, and on the 2-vCPU host this benchmark was
written on the same event-burst replay took from 0.37 to 0.87 s of CPU
time.  The slow and fast spells last from under a second to many
minutes, so no run length averages them out: two sets of ten runs of the
same code differed by 25-30 % in their medians.

So every run also times a fixed piece of reference work, in short bursts
between the workload's repetitions, and scales its timings by how fast
the reference work ran over the same run::

    factor   = REFERENCE_SLICE_NS / mean(CPU ns of the run's reference slices)
    reported = measured time * factor      (a rate: measured rate / factor)

A timing therefore reads as it would at the reference speed.  The
reference work is the benchmark's own code and uses nothing from
``src/``, so a change to the program moves the reported numbers exactly
as it moves the measured ones.  It is a small mix of what the proxy does
per operation: dict and tuple bookkeeping, JSON round trips, HMAC-SHA256
and small NumPy reductions.  Over 40-second windows of event-burst its
mean tracked the replay's CPU time with a correlation of 0.94, its packet
p50 with 0.98 and its proof p50 with 0.92, and scaling cut the spread of
those figures from 0.15, 0.13 and 0.17 to 0.045, 0.03 and 0.06.  The
unscaled values and the factor are in the ``record`` line of every run.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import time
from array import array
from typing import Sequence

import numpy as np

#: Mean CPU nanoseconds of one :func:`reference_slice` on the reference
#: host (2-vCPU Intel Xeon at 2.1 GHz, Python 3.11, NumPy 2.4) in its fast
#: spells, so a factor near 1 means "as fast as that host gets".
REFERENCE_SLICE_NS = 250_000

#: slices per burst: about 12 ms of reference work
BURST_SLICES = 48

_KEY = b"perfbench-calibration-key-000000"
_DOC = {"device": "SP10", "ts": 1234.5, "features": [0.1 * i for i in range(24)], "kind": "manual"}
_VEC = np.linspace(0.0, 1.0, 64)
_EDGES = np.linspace(0.0, 1.0, 17)


def reference_slice() -> float:
    """A fixed piece of proxy-like work, about 0.25 ms at the reference speed."""
    acc = 0.0
    table = {}
    for i in range(150):
        key = (i % 13, i & 3)
        hit = table.get(key)
        if hit is None:
            table[key] = [1, i * 0.5]
        else:
            hit[0] += 1
            acc += hit[1]
    for _ in range(4):
        wire = json.dumps(_DOC, sort_keys=True).encode()
        acc += len(hmac.new(_KEY, wire, hashlib.sha256).digest())
        acc += json.loads(wire)["ts"]
        acc += float(np.std(_VEC)) + int(np.searchsorted(_EDGES, 0.3))
    return acc


class Calibrator:
    """Collects the CPU time of reference slices run between measurements."""

    def __init__(self) -> None:
        self.slice_ns = array("q")

    def burst(self, slices: int = BURST_SLICES) -> None:
        """Run ``slices`` reference slices, recording each one's CPU ns."""
        clock = time.thread_time_ns
        for _ in range(slices):
            started = clock()
            reference_slice()
            self.slice_ns.append(clock() - started)

    def extend(self, slice_ns: Sequence[int]) -> None:
        """Add slices timed elsewhere (fleet workers)."""
        self.slice_ns.extend(int(ns) for ns in slice_ns)

    def factor(self) -> float:
        """Reference time over measured time: below 1 while the host is slow."""
        return REFERENCE_SLICE_NS * len(self.slice_ns) / sum(self.slice_ns)
