"""Span recorder for the traced benchmark run.

The recorder wraps public entry points of the ``repro`` package -- class
methods and module-level functions -- so that every call records a span
(name, start, end, parent span).  Spans live in flat in-memory arrays and
are written out when the run ends.  Nothing here is imported by the
program itself: the wrappers exist only while :meth:`SpanRecorder.install`
is in effect, and :meth:`SpanRecorder.uninstall` restores the originals.

Fleet workers are forked by ``ProcessPoolExecutor`` after the wrappers are
installed, so they inherit them.  The wrapper around the worker entry
point (``run_home_payload``) notices it runs in a new process, drops the
spans copied from the parent, and after each home dumps that home's spans
into the recorder's spool directory, where the parent collects them.

Self time ("busy") of a span is its duration minus the durations of its
direct children.  Coverage is the share of a measured window covered by
the top-level spans of the process that drives the program.
"""

from __future__ import annotations

import functools
import glob
import importlib
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from calibrate import Calibrator

#: (span name, owner, attribute, result counter) for every traced entry
#: point.  ``owner`` is "module:Class" for a method or "module" for a
#: function; a module function is replaced in every loaded ``repro``
#: module that imported it by name.
LAYERS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("ml.tree.fit", "repro.ml.tree:DecisionTreeClassifier", "fit", None),
    ("ml.tree.predict", "repro.ml.tree:DecisionTreeClassifier", "predict", None),
    ("sensors.dataset", "repro.sensors.humanness", "generate_humanness_dataset", None),
    ("features.sensor_features", "repro.features.sensor_features", "sensor_features", None),
    ("testbed.labeled_events", "repro.testbed.household", "generate_labeled_events", None),
    ("testbed.render_event", "repro.testbed.household", "render_event", None),
    ("core.classifier.train", "repro.core.classifier", "train_event_classifier", None),
    ("core.classifier.predict", "repro.core.classifier:EventClassifier", "is_manual", None),
    ("core.rules.match", "repro.core.rules:RuleTable", "matches", "truthy"),
    ("predictability.observe", "repro.predictability.buckets:BucketPredictor", "observe", None),
    ("core.proxy.ingest", "repro.core.proxy:FiatProxy", "ingest", "falsy"),
    ("core.proxy.receive_auth", "repro.core.proxy:FiatProxy", "receive_auth", None),
    ("core.proxy.unlock", "repro.core.proxy:FiatProxy", "unlock", None),
    ("core.proxy.flush", "repro.core.proxy:FiatProxy", "flush", "proxy"),
    ("core.validation.ingest", "repro.core.validation:HumanValidationService", "ingest", "human"),
    ("quic.receive", "repro.quic.channel:ChannelReceiver", "receive", "none"),
    ("core.pipeline.setup", "repro.core.pipeline:FiatSystem", "__init__", None),
    ("core.pipeline.run_accuracy", "repro.core.pipeline:FiatSystem", "run_accuracy", None),
    ("core.client.authenticate", "repro.core.client:FiatApp", "authenticate", None),
    ("core.client.authenticate", "repro.core.client:FiatApp", "authenticate_reliable", None),
    ("fleet.worker.run_home", "repro.fleet.worker", "run_home", None),
    ("fleet.aggregate.add", "repro.fleet.aggregate:FleetAggregator", "add", None),
    ("fleet.aggregate.report", "repro.fleet.aggregate:FleetAggregator", "report", None),
    ("fleet.checkpoint.record_home", "repro.fleet.checkpoint:FleetCheckpoint", "record_home", None),
    ("fleet.checkpoint.compact", "repro.fleet.checkpoint:FleetCheckpoint", "compact", None),
    ("fleet.telemetry.emit", "repro.fleet.telemetry:TelemetryWriter", "emit", None),
    ("fleet.telemetry.emit", "repro.fleet.telemetry", "emit_worker_frame", None),
    ("fleet.runner.run", "repro.fleet.runner:FleetRunner", "run", None),
    ("fleet.runner.wait", "concurrent.futures:Future", "result", None),
)

#: The two user-facing proxy operations timed in fleet workers by an
#: untraced run (the only instrumentation an untraced fleet run carries).
PROBE_LAYERS = tuple(
    layer for layer in LAYERS if layer[0] in ("core.proxy.ingest", "core.proxy.receive_auth")
)

#: Result counters: map a call's result to a positive (True) or negative
#: (False) outcome, or to None when the call does not count.
_RESULT_TESTS: Dict[str, Callable[[object], Optional[bool]]] = {
    "truthy": lambda r: r is True,
    "falsy": lambda r: r is False,
    "none": lambda r: r is None,
    # a proof the channel rejected (None) never reached the validator
    "human": lambda r: None if r is None else bool(r.human),
}

#: Marks a patched method that the class inherited rather than defined.
_INHERITED = object()

#: Worker entry point of the process backend; wrapped to reset and spool.
WORKER_ENTRY = ("repro.fleet.worker", "run_home_payload")


class SpanRecorder:
    """Records spans of wrapped calls into flat in-memory arrays."""

    def __init__(self, spool_dir: Optional[str] = None, worker_cal_slices: int = 0) -> None:
        self.spool_dir = spool_dir
        #: reference slices (calibrate.py) a fleet worker runs before and
        #: after each home, so the parent learns how fast the host ran
        self.worker_cal_slices = worker_cal_slices
        self.calibrator = Calibrator()
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: List[int] = [-1]
        #: result counters: name -> [calls counted, positive results]
        self.counts: Dict[str, List[int]] = {}
        #: per-proxy (decisions, lockouts), refreshed at each flush
        self.proxies: Dict[int, Tuple[int, int]] = {}
        #: the process that owns the spans in memory (a forked worker
        #: takes over on its first call) and the process that made us
        self.pid = self._root_pid = os.getpid()
        self._patched: List[Tuple[object, str, object]] = []
        self._spooled = 0

    # -- install / uninstall ---------------------------------------------------

    def install(self, layers: Sequence[Tuple[str, str, str, Optional[str]]] = LAYERS) -> None:
        """Wrap every entry point in ``layers`` plus the fleet worker entry."""
        for name, owner, attr, counter in layers:
            self._patch(owner, attr, lambda fn, n=name, c=counter: self._wrap(n, fn, c))
        module, attr = WORKER_ENTRY
        self._patch(module, attr, self._wrap_worker_entry)

    def uninstall(self) -> None:
        """Restore every original attribute, newest first."""
        for owner, attr, original in reversed(self._patched):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        module_name, _, cls_name = owner.partition(":")
        module = importlib.import_module(module_name)
        if cls_name:
            cls = getattr(module, cls_name)
            # An inherited method is wrapped on this class only and
            # deleted again on uninstall.
            self._patched.append((cls, attr, cls.__dict__.get(attr, _INHERITED)))
            setattr(cls, attr, make(getattr(cls, attr)))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        # A function imported by name lives on in each importer's
        # namespace; replace every binding so all call sites are traced.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if mod.__dict__.get(attr) is original:
                self._patched.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    # -- wrappers --------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn: Callable, counter: Optional[str]) -> Callable:
        nid = self._intern(name)
        name_ids, parents, t0s, t1s, stack = self.name_id, self.parent, self.t0, self.t1, self.stack
        clock = time.perf_counter
        count = self._counter(name, counter)

        # The span opens at wrapper entry and closes at wrapper exit, so
        # the recorder's own bookkeeping is charged to the layer it
        # serves (and to trace.overhead_frac), not left unattributed.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            i = len(t0s)
            t0s.append(t0)
            name_ids.append(nid)
            parents.append(stack[-1])
            t1s.append(0.0)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args, result)
                return result
            finally:
                stack.pop()
                t1s[i] = clock()

        return traced

    def _counter(self, name: str, kind: Optional[str]) -> Optional[Callable]:
        """A callback tallying a wrapped call's result, by ``kind``."""
        if kind is None:
            return None
        if kind == "proxy":
            proxies = self.proxies

            def record_proxy(args, result) -> None:
                proxy = args[0]
                lockouts = sum(1 for a in proxy.alerts if a.reason == "brute-force lockout")
                proxies[id(proxy)] = (len(proxy.decisions), lockouts)

            return record_proxy
        tally = self.counts.setdefault(name, [0, 0])
        test = _RESULT_TESTS[kind]

        def record(args, result) -> None:
            outcome = test(result)
            if outcome is not None:
                tally[0] += 1
                tally[1] += outcome

        return record

    def _wrap_worker_entry(self, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def worker_entry(payload):
            if os.getpid() != recorder.pid:
                recorder._reset_for_child()
            recorder.calibrator.burst(recorder.worker_cal_slices)
            try:
                return fn(payload)
            finally:
                recorder.calibrator.burst(recorder.worker_cal_slices)
                if recorder.pid != recorder._root_pid:
                    recorder._spool()

        return worker_entry

    def _reset_for_child(self) -> None:
        """Drop state copied from the parent by ``fork``."""
        self.pid = os.getpid()
        self._clear()
        del self.stack[1:]

    def _clear(self) -> None:
        for column in (self.name_id, self.parent, self.t0, self.t1):
            del column[:]
        for tally in self.counts.values():
            tally[0] = tally[1] = 0
        self.proxies.clear()
        del self.calibrator.slice_ns[:]

    def _spool(self) -> None:
        """Write this worker's spans for one home and forget them."""
        if self.spool_dir is None:
            return
        path = os.path.join(self.spool_dir, f"spans-{self.pid}-{self._spooled:04d}.npz")
        self._spooled += 1
        np.savez(path, **self._columns())
        self._clear()

    # -- export ----------------------------------------------------------------

    def _columns(self) -> Dict[str, np.ndarray]:
        decisions, lockouts = (sum(v) for v in zip(*self.proxies.values())) if self.proxies else (0, 0)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
            "count_names": np.asarray(sorted(self.counts), dtype=str),
            "count_values": np.asarray(
                [self.counts[k] for k in sorted(self.counts)], dtype=np.int64
            ).reshape(-1, 2),
            "proxy_totals": np.asarray([decisions, lockouts], dtype=np.int64),
            "cal_ns": np.frombuffer(self.calibrator.slice_ns, dtype=np.int64).copy(),
        }

    def snapshot(self) -> "SpanSet":
        """This process's spans so far, plus everything spooled by workers."""
        own = SpanSet.from_columns(self.names, self._columns(), process=0)
        parts = [own]
        if self.spool_dir is not None:
            for k, path in enumerate(sorted(glob.glob(os.path.join(self.spool_dir, "spans-*.npz")))):
                with np.load(path) as data:
                    parts.append(SpanSet.from_columns(self.names, dict(data), process=k + 1))
        return SpanSet.concat(parts)

    def reset(self) -> None:
        """Forget all spans, in this process and in the spool directory."""
        self._clear()
        if self.spool_dir is not None:
            for path in glob.glob(os.path.join(self.spool_dir, "spans-*.npz")):
                os.remove(path)


class SpanSet:
    """Spans of one or more processes as numpy columns, with layer stats."""

    def __init__(
        self,
        names: Sequence[str],
        name_id: np.ndarray,
        parent: np.ndarray,
        t0: np.ndarray,
        t1: np.ndarray,
        process: np.ndarray,
        counts: Dict[str, List[int]],
        proxy_totals: np.ndarray,
        cal_ns: np.ndarray,
    ) -> None:
        self.names = list(names)
        self.name_id, self.parent, self.t0, self.t1 = name_id, parent, t0, t1
        self.process = process
        self.counts = counts
        self.proxy_totals = proxy_totals
        #: CPU ns of every reference slice the processes ran
        self.cal_ns = cal_ns

    @classmethod
    def from_columns(cls, names, columns, process: int) -> "SpanSet":
        counts = {
            str(k): [int(v[0]), int(v[1])]
            for k, v in zip(columns["count_names"], columns["count_values"])
        }
        n = len(columns["t0"])
        return cls(
            names,
            columns["name_id"].astype(np.int64),
            columns["parent"].astype(np.int64),
            columns["t0"],
            columns["t1"],
            np.full(n, process, dtype=np.int64),
            counts,
            np.asarray(columns["proxy_totals"], dtype=np.int64),
            np.asarray(columns["cal_ns"], dtype=np.int64),
        )

    @classmethod
    def concat(cls, parts: Sequence["SpanSet"]) -> "SpanSet":
        offset = 0
        parents = []
        for part in parts:
            # Parent indices are per process; shift them into the
            # concatenated numbering (roots stay -1).
            parents.append(np.where(part.parent >= 0, part.parent + offset, -1))
            offset += len(part.t0)
        counts: Dict[str, List[int]] = {}
        for part in parts:
            for key, (n, pos) in part.counts.items():
                tally = counts.setdefault(key, [0, 0])
                tally[0] += n
                tally[1] += pos
        return cls(
            parts[0].names,
            np.concatenate([p.name_id for p in parts]),
            np.concatenate(parents),
            np.concatenate([p.t0 for p in parts]),
            np.concatenate([p.t1 for p in parts]),
            np.concatenate([p.process for p in parts]),
            counts,
            np.sum([p.proxy_totals for p in parts], axis=0),
            np.concatenate([p.cal_ns for p in parts]),
        )

    def __len__(self) -> int:
        return len(self.t0)

    @property
    def durations(self) -> np.ndarray:
        return self.t1 - self.t0

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def layer_stats(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` summed over all processes."""
        self_s = self.self_times()
        calls = np.bincount(self.name_id, minlength=len(self.names))
        busy = np.bincount(self.name_id, weights=self_s, minlength=len(self.names))
        return {name: (int(calls[i]), float(busy[i])) for i, name in enumerate(self.names)}

    def durations_of(self, name: str) -> np.ndarray:
        """Durations (seconds) of every span named ``name``."""
        if name not in self.names:
            return np.zeros(0)
        return self.durations[self.name_id == self.names.index(name)]

    def coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by the driving process's top-level spans."""
        top = (self.process == 0) & (self.parent < 0) & (self.t0 >= start) & (self.t1 <= end)
        return float(self.durations[top].sum()) / (end - start)

    def save(self, path: str) -> None:
        """Write every span (name, start, end, parent, process) to ``path``."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names, dtype=str),
            name_id=self.name_id,
            parent=self.parent,
            t0=self.t0,
            t1=self.t1,
            process=self.process,
        )
