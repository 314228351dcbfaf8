"""The benchmark workloads: ``fleet``, ``event-burst`` and the diagnostic ``home-trace``.

Every workload builds its inputs from the seed before its clock starts,
drives the program only through public entry points, checks its outputs,
and returns a :class:`Outcome`.  All three are closed loops with a single
caller that issues the next operation when the previous one returns, so
the proxy latencies below are service times with no queueing.  Every
timed metric is scaled to the reference host speed by the reference
slices of ``calibrate.py``, run between repetitions; the unscaled values
are kept in ``Outcome.unscaled``.

See ``README.md`` in this directory for why each workload exists.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import FiatConfig, FiatSystem
from repro.fleet import FleetReport, FleetRunner, FleetSpec, generate_fleet, home_seed
from repro.net.packet import TrafficClass
from repro.recovery.chaos import build_chaos_workload
from repro.testbed.devices import TESTBED
from repro.testbed.household import Household, HouseholdConfig
from repro.util import spawn_seed

from calibrate import BURST_SLICES, Calibrator
from tracer import PROBE_LAYERS, SpanRecorder, SpanSet

# -- size parameters (fixed, so the digest of a seed never changes) -----------

#: fleet: homes per fleet run, the generator seed fixing the population
#: shape, device pool, devices per home, faulty share and worker processes.
#: Shape 17 has 16 devices (11 with ML classifiers) and 2 faulty homes.
FLEET_HOMES = 8
FLEET_SHAPE_SEED = 17
FLEET_POOL = ("SP10", "WP3", "EchoDot4", "HomeMini", "WyzeCam")
FLEET_DEVICES = (1, 3)
FLEET_FAULT_FRACTION = 0.25
FLEET_JOBS = 2
#: home-trace: simulated capture length, seconds between two manual
#: interactions with one device, routine period, and the unlock schedule
HOME_TRACE_DAYS = 1.0
HOME_TRACE_MANUAL_GAP_S = (1800.0, 5400.0)
HOME_TRACE_ROUTINE_S = 1200.0
UNLOCK_EVERY_S = 120.0
#: event-burst: events, event spacing and the thinned heartbeat period
BURST_EVENTS = 2400
BURST_SPACING_S = 10.0
BURST_HEARTBEAT_S = 120.0
#: fewest timed repetitions in a run (replays or fleet runs)
MIN_REPEATS = 2
#: set-up repetitions whose median is ``setup_s``
SETUP_REPEATS = 4
FLEET_SETUP_REPEATS = 5

#: op kinds of a proxy op stream; ties in time order auth < unlock < packet
AUTH, UNLOCK, PKT = 0, 1, 2


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: the timed metrics before scaling, and the speed factor
    unscaled: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    #: Table-6 rates and failure share (fractions; ``None`` = class absent)
    accuracy: Dict[str, Optional[float]] = field(default_factory=dict)
    params: Dict[str, object] = field(default_factory=dict)
    spans: Optional[SpanSet] = None

    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.problems:
            self.problems.append(message)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def table6_rates(counts: Dict[str, Tuple[int, int]]) -> Dict[str, Optional[float]]:
    """FP-M, FP-N and FN from per-class ``(events, blocked)`` tallies."""

    def share(classes: Sequence[str], blocked: bool) -> Optional[float]:
        events = sum(counts.get(c, (0, 0))[0] for c in classes)
        n_blocked = sum(counts.get(c, (0, 0))[1] for c in classes)
        if not events:
            return None
        return (n_blocked if blocked else events - n_blocked) / events

    return {
        "fp_manual_blocked": share(("manual",), True),
        "fp_non_manual_blocked": share(("automated", "control"), True),
        "fn_attack_passed": share(("attack",), False),
    }


def scripted_class(event_id: Optional[str]) -> Optional[str]:
    for name in ("manual", "attack", "automated", "control"):
        if event_id and f"-{name}-" in event_id:
            return name
    return None


# -- proxy workloads -----------------------------------------------------------


@dataclass
class ProxyInputs:
    """A built system and the op stream replayed through fresh stacks."""

    system: FiatSystem
    ops: List[Tuple[int, object, float]]
    #: process CPU seconds of each set-up
    setup_samples: List[float]
    params: Dict[str, object]

    @property
    def n_packets(self) -> int:
        return sum(1 for kind, _, _ in self.ops if kind == PKT)


def build_system(seed: int) -> Tuple[FiatSystem, float]:
    """All ten testbed devices, default :class:`FiatConfig` (20-min bootstrap).

    Returns the system and the CPU seconds this process spent building it;
    CPU time leaves out the spells in which a shared host ran another
    guest instead of this one.
    """
    started = time.process_time()
    system = FiatSystem(list(TESTBED), config=FiatConfig(), seed=seed)
    return system, time.process_time() - started


def _sorted_ops(ops: List[Tuple[int, object, float]]) -> List[Tuple[int, object, float]]:
    ops.sort(key=lambda op: (op[2], op[0]))
    return ops


def _proof_op(system: FiatSystem, device: str, when: float, human: bool):
    """Sign a humanness proof on the phone side ahead of time (§6)."""
    interaction = system.phone.interact(device, when, human=human)
    attempt = system.app.authenticate(interaction, when)
    arrive = when + attempt.components["transport"] / 1000.0
    return (AUTH, attempt.wire, arrive)


def home_trace_inputs(seed: int) -> ProxyInputs:
    """A multi-hour household capture with phone proofs and scheduled unlocks."""
    system, first_setup = build_system(seed)
    duration = HOME_TRACE_DAYS * 86400.0
    capture = Household(
        list(TESTBED),
        HouseholdConfig(
            duration_s=duration,
            seed=seed,
            manual_interval_s=HOME_TRACE_MANUAL_GAP_S,
            routine_period_s=HOME_TRACE_ROUTINE_S,
        ),
        cloud=system.cloud,
    ).simulate()
    ops: List[Tuple[int, object, float]] = [(PKT, p, p.timestamp) for p in capture.trace]
    first_packet: Dict[str, Tuple[float, str]] = {}
    for packet in capture.trace:
        if packet.traffic_class == TrafficClass.MANUAL and packet.event_id:
            first_packet.setdefault(packet.event_id, (packet.timestamp, packet.device))
    for start, device in sorted(first_packet.values()):
        ops.append(_proof_op(system, device, start - 0.5, human=True))
    t = system.config.bootstrap_s + UNLOCK_EVERY_S
    while t < duration:
        ops.extend((UNLOCK, name, t) for name in TESTBED)
        t += UNLOCK_EVERY_S
    return ProxyInputs(
        system,
        _sorted_ops(ops),
        [first_setup],
        {"seed": seed, "devices": len(TESTBED), "capture_s": duration,
         "manual_gap_s": list(HOME_TRACE_MANUAL_GAP_S), "routine_s": HOME_TRACE_ROUTINE_S,
         "manual_events": len(first_packet), "unlock_every_s": UNLOCK_EVERY_S},
    )


def event_burst_inputs(seed: int) -> ProxyInputs:
    """§6-style events cycling manual/automated/attack/control, thin heartbeats."""
    system, first_setup = build_system(seed)
    duration = system.config.bootstrap_s + 30.0 + BURST_EVENTS * BURST_SPACING_S
    chaos_ops = build_chaos_workload(
        system,
        duration_s=duration,
        heartbeat_s=BURST_HEARTBEAT_S,
        event_spacing_s=BURST_SPACING_S,
        seed=seed,
    )
    ops: List[Tuple[int, object, float]] = []
    for op in chaos_ops:
        if op.kind == "pkt":
            ops.append((PKT, op.packet, op.t))
        elif op.kind == "auth":
            ops.append((AUTH, op.wire, op.t))
        else:
            ops.append((UNLOCK, op.device, op.t))
    return ProxyInputs(
        system,
        _sorted_ops(ops),
        [first_setup],
        {"seed": seed, "devices": len(TESTBED), "events": BURST_EVENTS, "event_spacing_s": BURST_SPACING_S,
         "heartbeat_s": BURST_HEARTBEAT_S},
    )


@dataclass
class Pass:
    """One replay of the op stream through a fresh proxy stack."""

    wall_s: float
    #: perf_counter reading right after the final flush
    ended: float
    #: CPU seconds of this process
    cpu_s: float
    digest: str
    failed: int
    hit_frac: float
    lockouts: int
    n_decisions: int
    #: scripted class -> (decided events, blocked events)
    class_counts: Dict[str, Tuple[int, int]]


def replay(inputs: ProxyInputs, pkt_ns: Optional[array] = None, proof_ns: Optional[array] = None) -> Pass:
    """Replay every op in order; time each call when sample arrays are given.

    A fresh stack around the same trained models and pairing key is the
    system's own restart path, so the pre-signed proofs verify in every
    pass.  A call that raises, or a proof the channel rejects, is a
    failed op.
    """
    proxy, _ = inputs.system.build_stack()
    ingest, receive_auth, unlock = proxy.ingest, proxy.receive_auth, proxy.unlock
    failed = 0
    started = time.perf_counter()
    cpu_started = time.process_time()
    if pkt_ns is None:
        for kind, arg, t in inputs.ops:
            try:
                if kind == PKT:
                    ingest(arg)
                elif kind == AUTH:
                    if receive_auth(arg, t) is None:
                        failed += 1
                else:
                    unlock(arg)
            except Exception:
                failed += 1
    else:
        clock = time.perf_counter_ns
        for kind, arg, t in inputs.ops:
            try:
                if kind == PKT:
                    t0 = clock()
                    ingest(arg)
                    pkt_ns.append(clock() - t0)
                elif kind == AUTH:
                    t0 = clock()
                    result = receive_auth(arg, t)
                    proof_ns.append(clock() - t0)
                    if result is None:
                        failed += 1
                else:
                    unlock(arg)
            except Exception:
                failed += 1
    proxy.flush()
    ended = time.perf_counter()
    cpu_s = time.process_time() - cpu_started
    rules = proxy.rules
    return Pass(
        wall_s=ended - started,
        ended=ended,
        cpu_s=cpu_s,
        digest=sha256(proxy.decision_log()),
        failed=failed,
        hit_frac=rules.hit_rate if rules is not None else 0.0,
        lockouts=sum(1 for a in proxy.alerts if a.reason == "brute-force lockout"),
        n_decisions=len(proxy.decisions),
        class_counts=_class_counts(proxy.decisions),
    )


def _class_counts(decisions) -> Dict[str, Tuple[int, int]]:
    counts: Dict[str, Tuple[int, int]] = {}
    for d in decisions:
        cls = scripted_class(d.event_id)
        if cls is not None:
            events, blocked = counts.get(cls, (0, 0))
            counts[cls] = (events + 1, blocked + int(d.blocked))
    return counts


def _check_pass(out: Outcome, workload: str, p: Pass, n_ops: int) -> None:
    """Failure accounting and the property each proxy workload exists for."""
    out.attempted += n_ops
    out.failed += p.failed
    out.check(p.failed == 0, f"{p.failed} of {n_ops} ops failed")
    if workload == "home-trace":
        out.check(p.hit_frac >= 0.9, f"rule hit share {p.hit_frac:.3f} < 0.9")
    else:
        out.check(p.hit_frac <= 0.2, f"rule hit share {p.hit_frac:.3f} > 0.2")
    # Scheduled unlocks bound lockouts: at most one per device per 20 decisions.
    out.check(
        p.lockouts <= max(len(TESTBED), p.n_decisions // 20),
        f"{p.lockouts} lockouts for {p.n_decisions} decisions",
    )


def _check_digests(out: Outcome, expected: Optional[str]) -> None:
    distinct = set(out.digests)
    out.check(len(distinct) == 1, f"decision digests differ between repetitions: {sorted(distinct)}")
    if expected is not None:
        out.check(
            out.digests[0] == expected,
            f"digest {out.digests[0]} != committed digest {expected}",
        )


def run_proxy(workload: str, inputs: ProxyInputs, seconds: float, expected: Optional[str]) -> Outcome:
    """Untraced run: timed replays and set-ups for ``seconds``.

    The metrics pool every timed replay of the run (see :class:`Timings`).
    Throughput counts this process's CPU time, so time a shared host
    gave to another guest is not charged to the program.  The set-ups
    after the first are spread evenly over the run, so that they sample
    the same spells of host speed as the replays.
    """
    out = Outcome(params=dict(inputs.params, ops=len(inputs.ops), packets=inputs.n_packets))
    seed = int(inputs.params["seed"])
    setup = list(inputs.setup_samples)
    # One untimed replay first, so caches are warm and lazy set-up is done.
    p = replay(inputs)
    out.digests.append(p.digest)
    _check_pass(out, workload, p, len(inputs.ops))
    timings = Timings()
    timings.calibrator.burst()
    elapsed = 0.0
    while elapsed < seconds or timings.n < MIN_REPEATS:
        if len(setup) < SETUP_REPEATS and elapsed >= seconds * len(setup) / SETUP_REPEATS:
            started = time.perf_counter()
            setup.append(build_system(seed)[1])
            timings.calibrator.burst()
            elapsed += time.perf_counter() - started
            continue
        pkt_ns, proof_ns = array("q"), array("q")
        p = replay(inputs, pkt_ns, proof_ns)
        timings.calibrator.burst()
        elapsed += p.wall_s
        out.digests.append(p.digest)
        _check_pass(out, workload, p, len(inputs.ops))
        timings.add(p.cpu_s, homes=1, packets=inputs.n_packets, pkt_ns=pkt_ns, proof_ns=proof_ns)
    while len(setup) < SETUP_REPEATS:
        setup.append(build_system(seed)[1])
    _check_digests(out, expected)
    out.metrics, out.unscaled = timings.metrics(setup)
    out.params.update(passes=timings.n, pkt_samples=len(timings.pkt), proof_samples=len(timings.proof),
                      setup_samples=len(setup), cal_slices=len(timings.calibrator.slice_ns))
    out.accuracy = table6_rates(p.class_counts)
    return out


def trace_proxy(workload: str, inputs: ProxyInputs, seconds: float, expected: Optional[str],
                spool: str) -> Outcome:
    """Traced run: an untraced then a traced unit (set-up + one replay), repeated."""
    out = Outcome(params=dict(inputs.params, ops=len(inputs.ops), packets=inputs.n_packets))
    seed = int(inputs.params["seed"])
    recorder = SpanRecorder(spool)
    plain_s: List[float] = []
    traced_s: List[float] = []
    windows: List[Tuple[float, float, float]] = []
    started = time.perf_counter()
    while not traced_s or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        build_system(seed)
        p = replay(inputs)
        plain_s.append(p.ended - t0)
        out.digests.append(p.digest)
        _check_pass(out, workload, p, len(inputs.ops))

        recorder.install()
        try:
            t0 = time.perf_counter()
            build_system(seed)
            built = time.perf_counter()
            p = replay(inputs)
        finally:
            recorder.uninstall()
        traced_s.append(p.ended - t0)
        windows.append((t0, built, p.ended))
        out.digests.append(p.digest)
        _check_pass(out, workload, p, len(inputs.ops))
    _check_digests(out, expected)
    spans = recorder.snapshot()
    out.spans = spans
    out.layers = layer_metrics(spans, units=len(traced_s))
    out.layers["trace.coverage_frac"] = min(spans.coverage(a, c) for a, _, c in windows)
    out.layers["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    # Not gated: the replay part alone, where the caller's loop between
    # two proxy calls is the unattributed rest.
    replay_coverage = min(spans.coverage(b, c) for _, b, c in windows)
    out.params.update(units=len(traced_s), spans=len(spans), replay_coverage=replay_coverage)
    out.accuracy = table6_rates(p.class_counts)
    return out


class LatencySamples:
    """Nanosecond samples held as exact counts in nearly fixed memory.

    Samples below ``DENSE_NS`` are counted per nanosecond; the rare longer
    ones are kept as they are.  Quantiles come out exactly as
    ``numpy.quantile`` gives them over the raw samples, but a run that
    repeats more often (a faster program) holds barely more memory, which
    would otherwise show in ``peak_rss_mb``.
    """

    DENSE_NS = 1 << 16

    def __init__(self) -> None:
        self.dense = np.zeros(self.DENSE_NS, dtype=np.int64)
        self.tail: List[np.ndarray] = []

    def add(self, samples_ns) -> None:
        ns = np.rint(np.asarray(samples_ns, dtype=np.float64)).astype(np.int64)
        short = ns < self.DENSE_NS
        self.dense += np.bincount(ns[short], minlength=self.DENSE_NS)
        self.tail.append(ns[~short])

    def __len__(self) -> int:
        return int(self.dense.sum()) + sum(len(t) for t in self.tail)

    def quantile_us(self, q: float) -> float:
        """Quantile ``q`` (linear interpolation, as numpy's default) in microseconds."""
        n = len(self)
        cumulative = np.cumsum(self.dense)
        tail = np.sort(np.concatenate(self.tail)) if self.tail else np.zeros(0, dtype=np.int64)

        def order_stat(k: int) -> float:
            if k < cumulative[-1]:
                return float(np.searchsorted(cumulative, k, side="right"))
            return float(tail[k - cumulative[-1]])

        h = (n - 1) * q
        lo = int(np.floor(h))
        x_lo = order_stat(lo)
        x_hi = order_stat(min(lo + 1, n - 1))
        return (x_lo + (h - lo) * (x_hi - x_lo)) / 1000.0


class Timings:
    """Timed metrics pooled over every repetition of a run, then scaled.

    Throughput is total work over total time and the percentiles are taken
    over every sample of the run.  A shared host switches between fast and
    slow spells; a median over repetitions then jumps between the fast and
    the slow value from run to run, while pooled figures move only with
    the share of slow time in the run.  The reference slices run between
    the repetitions give the run's speed factor (see ``calibrate.py``).
    """

    def __init__(self) -> None:
        self.n = 0
        self.seconds = 0.0
        self.homes = 0
        self.packets = 0
        self.pkt = LatencySamples()
        self.proof = LatencySamples()
        self.calibrator = Calibrator()

    def add(self, seconds: float, homes: int, packets: int, pkt_ns, proof_ns) -> None:
        """One repetition: ``homes`` homes (or replays) and ``packets`` in ``seconds``."""
        self.n += 1
        self.seconds += seconds
        self.homes += homes
        self.packets += packets
        self.pkt.add(pkt_ns)
        self.proof.add(proof_ns)

    def metrics(self, setup_s: Sequence[float]) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(scaled metrics, unscaled metrics plus ``speed_factor``), with the
        mean of the ``setup_s`` samples as ``setup_s``."""
        factor = self.calibrator.factor()
        rates = {"homes_per_s": self.homes / self.seconds, "pkts_per_s": self.packets / self.seconds}
        times = {
            "setup_s": statistics.mean(setup_s),
            "pkt_us_p50": self.pkt.quantile_us(0.50),
            "pkt_us_p99": self.pkt.quantile_us(0.99),
            "proof_us_p50": self.proof.quantile_us(0.50),
        }
        scaled = {name: value / factor for name, value in rates.items()}
        scaled.update((name, value * factor) for name, value in times.items())
        return scaled, dict(rates, **times, speed_factor=factor)


# -- fleet ------------------------------------------------------------------------


def fleet_spec(seed: int) -> FleetSpec:
    """``FLEET_HOMES`` homes of a fixed population shape, seeded by ``seed``.

    The shape (device mix, event volumes, which homes carry a fault plan)
    comes from :func:`generate_fleet` at ``FLEET_SHAPE_SEED``; the run seed
    re-derives every home's seed and fault-plan seed.  Every run therefore
    does the same kind and amount of work, and seeds vary only the
    randomness inside the homes.
    """
    shape = generate_fleet(
        FLEET_HOMES,
        seed=FLEET_SHAPE_SEED,
        device_pool=FLEET_POOL,
        min_devices=FLEET_DEVICES[0],
        max_devices=FLEET_DEVICES[1],
        fault_fraction=FLEET_FAULT_FRACTION,
    )
    homes = []
    for home in shape.homes:
        faults = None
        if home.faults:
            faults = dict(home.faults, seed=spawn_seed(seed, "faults", home.home_id) % (2**31))
        homes.append(replace(home, seed=home_seed(seed, home.home_id), faults=faults))
    return FleetSpec(name="bench-fleet", seed=seed, homes=tuple(homes))


_FLEET_SETUP = """
import sys
from repro.fleet import FleetRunner, FleetSpec
FleetRunner(FleetSpec.load(sys.argv[1]), jobs={jobs}, backend="process", state_dir=sys.argv[2])
"""


def fleet_setup_s(spec: FleetSpec, src: str, tmp: str, calibrator: Calibrator) -> List[float]:
    """Cold start of a fleet user: interpreter, imports, spec file, runner.

    Nothing is built before the first home in-process except the runner
    (the pool forks on first submit), so set-up is a fresh interpreter
    loading the spec file and constructing the :class:`FleetRunner`, as
    ``fiat-repro fleet --spec`` does.  Work moved into import time, spec
    loading or runner construction shows here.  Each sample is the
    child's CPU seconds (user + system); a burst of reference slices
    follows each one.
    """
    spec_path = os.path.join(tmp, "spec.json")
    spec.dump(spec_path)
    command = [sys.executable, "-c", _FLEET_SETUP.format(jobs=FLEET_JOBS), spec_path,
               os.path.join(tmp, "setup-state")]
    env = dict(os.environ, PYTHONPATH=src)
    samples = []
    for _ in range(FLEET_SETUP_REPEATS):
        before = _children_cpu_s()
        subprocess.run(command, env=env, check=True, cwd=tmp)
        samples.append(_children_cpu_s() - before)
        calibrator.burst()
    return samples


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _dir_bytes(path: str, skip: str) -> int:
    total = 0
    for root, dirs, files in os.walk(path):
        dirs[:] = [d for d in dirs if os.path.join(root, d) != skip]
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


@dataclass
class FleetUnit:
    report: FleetReport
    started: float
    ended: float
    digest: str
    checkpoint_bytes: int

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


def run_fleet_once(spec, state_dir: str) -> FleetUnit:
    """One fleet run as ``fiat-repro fleet --state-dir`` does it (checkpoint + telemetry)."""
    runner = FleetRunner(spec, jobs=FLEET_JOBS, backend="process", state_dir=state_dir)
    started = time.perf_counter()
    report = runner.run()
    ended = time.perf_counter()
    return FleetUnit(report, started, ended, sha256(report.to_json().encode("utf-8")),
                     _dir_bytes(state_dir, runner.telemetry_dir or ""))


def _check_fleet(out: Outcome, unit: FleetUnit) -> None:
    report = unit.report
    out.attempted += report.n_homes
    out.failed += report.n_failed
    out.check(report.n_failed == 0 and report.n_ok == report.n_homes,
              f"{report.n_failed} of {report.n_homes} homes failed: {report.failed_homes}")


def _fleet_packets(report: FleetReport) -> int:
    series = report.snapshot().counters.get("proxy_packets_total", {})
    return int(sum(series.values()))


def _fleet_class_counts(report: FleetReport) -> Dict[str, Tuple[int, int]]:
    return {cls: (int(t["events"]), int(t["blocked"])) for cls, t in report.class_counts.items()}


def run_fleet(seed: int, seconds: float, expected: Optional[str], tmp: str, src: str) -> Outcome:
    """Untraced run: fleets of ``FLEET_HOMES`` homes until ``seconds`` pass.

    The metrics pool every fleet run (see :class:`Timings`).  Throughput
    is homes per wall second, because the two workers run in parallel.
    Each worker runs a burst of reference slices before and after each
    home, which is inside the fleet's wall time (under 1 % of it).
    """
    spec = fleet_spec(seed)
    out = Outcome(params=_fleet_params(spec))
    timings = Timings()
    setup = fleet_setup_s(spec, src, tmp, timings.calibrator)
    spool = os.path.join(tmp, "probe")
    os.makedirs(spool)
    probe = SpanRecorder(spool, worker_cal_slices=BURST_SLICES)
    probe.install(PROBE_LAYERS)
    elapsed = unit_s = 0.0
    try:
        # Stop when less than half a fleet run is left, so a run ends
        # within half a fleet run of ``seconds``, on either side.
        while timings.n < MIN_REPEATS or seconds - elapsed > 0.5 * unit_s:
            unit = run_fleet_once(spec, os.path.join(tmp, f"state-{len(out.digests)}"))
            unit_s = unit.wall_s
            elapsed += unit.wall_s
            out.digests.append(unit.digest)
            _check_fleet(out, unit)
            spans = probe.snapshot()
            probe.reset()
            pkt = spans.durations_of("core.proxy.ingest") * 1e9
            proof = spans.durations_of("core.proxy.receive_auth") * 1e9
            out.check(len(pkt) > 0 and len(proof) > 0 and len(spans.cal_ns) > 0,
                      "no proxy timings or reference slices came back from the workers")
            if not (len(pkt) and len(proof) and len(spans.cal_ns)):
                break
            timings.calibrator.extend(spans.cal_ns)
            timings.add(unit.wall_s, homes=unit.report.n_homes, packets=_fleet_packets(unit.report),
                        pkt_ns=pkt, proof_ns=proof)
    finally:
        probe.uninstall()
    _check_digests(out, expected)
    if timings.n == 0:
        return out
    out.metrics, out.unscaled = timings.metrics(setup)
    out.params.update(units=timings.n, pkt_samples=len(timings.pkt), proof_samples=len(timings.proof),
                      setup_samples=len(setup), cal_slices=len(timings.calibrator.slice_ns))
    out.accuracy = table6_rates(_fleet_class_counts(unit.report))
    return out


def trace_fleet(seed: int, seconds: float, expected: Optional[str], tmp: str) -> Outcome:
    """Traced run: an untraced then a traced fleet run, repeated."""
    spec = fleet_spec(seed)
    out = Outcome(params=_fleet_params(spec))
    spool = os.path.join(tmp, "spool")
    os.makedirs(spool)
    recorder = SpanRecorder(spool)
    plain: List[FleetUnit] = []
    traced: List[FleetUnit] = []
    windows: List[Tuple[float, float]] = []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        plain.append(run_fleet_once(spec, os.path.join(tmp, f"plain-{len(plain)}")))
        recorder.install()
        try:
            traced.append(run_fleet_once(spec, os.path.join(tmp, f"traced-{len(traced)}")))
        finally:
            recorder.uninstall()
        windows.append((traced[-1].started, traced[-1].ended))
        for unit in (plain[-1], traced[-1]):
            out.digests.append(unit.digest)
            _check_fleet(out, unit)
    _check_digests(out, expected)
    spans = recorder.snapshot()
    out.spans = spans
    n = len(traced)
    out.layers = layer_metrics(spans, units=n)
    homes = sum(u.report.n_homes for u in traced)
    worker_homes = out.layers["fleet.worker.run_home.calls"] * n
    out.check(worker_homes == homes, f"worker spans for {worker_homes} of {homes} homes")
    out.layers["fleet.checkpoint.bytes"] = statistics.mean(u.checkpoint_bytes for u in traced)
    out.layers["fleet.runner.retries"] = sum(
        max(0, int(row.get("attempts", 1)) - 1) for u in traced for row in u.report.homes
    ) / n
    out.layers["trace.coverage_frac"] = min(spans.coverage(a, b) for a, b in windows)
    out.layers["trace.overhead_frac"] = (
        statistics.median(u.wall_s for u in traced) / statistics.median(u.wall_s for u in plain) - 1.0
    )
    out.params.update(units=n, spans=len(spans))
    out.accuracy = table6_rates(_fleet_class_counts(traced[0].report))
    return out


def _fleet_params(spec) -> Dict[str, object]:
    return {
        "homes": len(spec),
        "jobs": FLEET_JOBS,
        "shape_seed": FLEET_SHAPE_SEED,
        "device_pool": list(FLEET_POOL),
        "devices_per_home": list(FLEET_DEVICES),
        "fault_homes": sum(1 for h in spec.homes if h.faults),
        "devices": sum(len(h.devices) for h in spec.homes),
    }


# -- per-layer metrics ----------------------------------------------------------

#: (metric, unit) in the order ``BENCHMARK.json`` lists them
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("ml.tree.fit.calls", "count"),
    ("ml.tree.fit.busy_s", "s"),
    ("ml.tree.predict.calls", "count"),
    ("ml.tree.predict.busy_s", "s"),
    ("sensors.dataset.busy_s", "s"),
    ("features.sensor_features.calls", "count"),
    ("features.sensor_features.busy_s", "s"),
    ("testbed.labeled_events.busy_s", "s"),
    ("testbed.render_event.calls", "count"),
    ("testbed.render_event.busy_s", "s"),
    ("core.classifier.train.busy_s", "s"),
    ("core.classifier.predict.calls", "count"),
    ("core.classifier.predict.busy_s", "s"),
    ("core.rules.match.calls", "count"),
    ("core.rules.match.busy_s", "s"),
    ("core.rules.hit_frac", "fraction"),
    ("predictability.observe.calls", "count"),
    ("predictability.observe.busy_s", "s"),
    ("core.proxy.ingest.calls", "count"),
    ("core.proxy.ingest.busy_s", "s"),
    ("core.proxy.receive_auth.calls", "count"),
    ("core.proxy.flush.busy_s", "s"),
    ("core.proxy.decisions", "count"),
    ("core.proxy.dropped", "count"),
    ("core.proxy.lockouts", "count"),
    ("core.validation.ingest.busy_s", "s"),
    ("core.validation.human_frac", "fraction"),
    ("quic.receive.busy_s", "s"),
    ("quic.receive.rejects", "count"),
    ("core.pipeline.setup.busy_s", "s"),
    ("core.pipeline.run_accuracy.busy_s", "s"),
    ("core.client.authenticate.busy_s", "s"),
    ("fleet.worker.run_home.calls", "count"),
    ("fleet.worker.run_home.busy_s", "s"),
    ("fleet.aggregate.add.busy_s", "s"),
    ("fleet.aggregate.report.busy_s", "s"),
    ("fleet.checkpoint.record_home.busy_s", "s"),
    ("fleet.checkpoint.compact.busy_s", "s"),
    ("fleet.checkpoint.bytes", "bytes"),
    ("fleet.telemetry.emit.calls", "count"),
    ("fleet.runner.run.busy_s", "s"),
    ("fleet.runner.wait_s", "s"),
    ("fleet.runner.retries", "count"),
    ("trace.coverage_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
)


def layer_metrics(spans: SpanSet, units: int) -> Dict[str, float]:
    """Per traced unit: calls and self seconds of every layer, plus ratios."""
    stats = spans.layer_stats()
    values: Dict[str, float] = {}
    for name, (calls, busy) in stats.items():
        values[f"{name}.calls"] = calls / units
        values[f"{name}.busy_s"] = busy / units
    values["fleet.runner.wait_s"] = values.get("fleet.runner.wait.busy_s", 0.0)

    def frac(layer: str) -> float:
        n, pos = spans.counts.get(layer, (0, 0))
        return pos / n if n else 0.0

    values["core.rules.hit_frac"] = frac("core.rules.match")
    values["core.validation.human_frac"] = frac("core.validation.ingest")
    values["core.proxy.dropped"] = spans.counts.get("core.proxy.ingest", (0, 0))[1] / units
    values["quic.receive.rejects"] = spans.counts.get("quic.receive", (0, 0))[1] / units
    values["core.proxy.decisions"] = float(spans.proxy_totals[0]) / units
    values["core.proxy.lockouts"] = float(spans.proxy_totals[1]) / units
    values.setdefault("fleet.checkpoint.bytes", 0.0)
    values.setdefault("fleet.runner.retries", 0.0)
    return values
