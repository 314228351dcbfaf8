"""Durable fleet execution: streaming, checkpointed, serial or process-pool.

:class:`FleetRunner` walks a :class:`~repro.fleet.spec.SpecStream` (or a
materialised :class:`~repro.fleet.spec.FleetSpec`) and produces one
:class:`~repro.fleet.aggregate.FleetReport`.  Two backends share a
single code path per home (:func:`~repro.fleet.worker.run_home`):

``serial``
    In-process, one home after another — the reference execution.
``process``
    ``concurrent.futures.ProcessPoolExecutor`` with a bounded window of
    in-flight homes (at most ``2 * jobs``), so a million-home spec never
    materialises a million futures.

Determinism: homes are independent (shared-nothing, hash-derived
seeds), results are *collected strictly in spec order*, and aggregation
folds incrementally in that order — the report is byte-identical across
backends, any ``--jobs`` value, and (with ``state_dir``) across a
kill/resume boundary: a run ``SIGKILL``-ed at any home and resumed with
``resume=True`` produces the same bytes as an uninterrupted one.

Memory: the spec streams in, the aggregate folds incrementally
(reservoir percentiles, capped ok-home rows), and no O(homes) result
list ever exists — peak RSS is bounded in fleet size.

Failure policy — fail the home, never the fleet:

* A worker that raises (a poisoned or genuinely buggy home) is retried
  up to ``retries`` times with seeded exponential backoff; a home that
  exhausts the budget is marked ``failed`` and *quarantined* — listed
  in the report and reattemptable with ``resume=True,
  retry_quarantined=True`` without re-running the healthy homes.
* A worker *process death* (power cut, OOM kill — surfaces as
  ``BrokenProcessPool``) kills every in-flight future, and the pool
  cannot name the culprit.  The runner rebuilds the pool and reruns the
  home being collected *in isolation* (distinct from the retry/backoff
  policy): an innocent bystander passes its isolated rerun; a crasher
  breaks the fresh pool with only itself in flight and is failed after
  that second break, never taking a neighbour down with it.
* A per-home timeout *rebuilds the pool* (a running future cannot be
  cancelled, so the stuck worker would otherwise occupy a slot for the
  rest of the run), kills the abandoned workers, re-pipelines the
  pending window, and counts against the same retry budget.  The
  serial backend cannot preempt a running home, so it *rejects*
  ``timeout_s`` outright instead of silently ignoring it; ``auto``
  with a timeout therefore resolves to the process backend.
* ``SIGINT``/``SIGTERM`` stop the run cleanly after the home currently
  being collected: a final checkpoint is compacted and
  :class:`FleetInterrupted` carries the partial report (explicit
  coverage counts) so non-strict callers can still use it.
"""

from __future__ import annotations

import logging
import os
import random
import signal
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Deque, Dict, Iterator, Optional, Set, Tuple

from ..util import spawn_seed
from .aggregate import FleetAggregator, FleetReport
from .checkpoint import FleetCheckpoint
from .spec import FleetSpec, HomeSpec, SpecStream
from .telemetry import TelemetryWriter, telemetry_dir_for
from .worker import HomeResult, run_home, run_home_payload, run_home_traced

__all__ = ["FleetRunner", "FleetInterrupted", "BACKENDS", "KILL_AFTER_ENV"]

logger = logging.getLogger(__name__)

#: Supported execution backends (``auto`` resolves by ``jobs``/timeout).
BACKENDS = ("auto", "serial", "process")

#: Test/CI hook: when set to N, the runner SIGKILLs its own process the
#: moment N homes have been folded this run — a deterministic stand-in
#: for "the operator's box died mid-fleet" in resume smoke tests.
KILL_AFTER_ENV = "FIAT_FLEET_KILL_AFTER"

#: Signals that trigger a clean stop-and-checkpoint.
_STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)


class FleetInterrupted(RuntimeError):
    """A stop signal ended the run after a clean final checkpoint.

    Carries the partial :class:`FleetReport` (``coverage["partial"]``
    set, explicit completed/planned counts) so non-strict callers can
    still consume what finished; the run is resumable from the state
    dir it checkpointed into.
    """

    def __init__(self, report: FleetReport) -> None:
        coverage = report.coverage
        super().__init__(
            f"fleet run interrupted after {coverage.get('completed', 0)}/"
            f"{coverage.get('planned', report.n_homes)} homes"
        )
        self.report = report


class FleetRunner:
    """Run every home of a fleet and aggregate the population report."""

    def __init__(
        self,
        spec: "FleetSpec | SpecStream",
        jobs: int = 1,
        backend: str = "auto",
        timeout_s: Optional[float] = None,
        state_root: Optional[str] = None,
        state_dir: Optional[str] = None,
        resume: bool = False,
        retry_quarantined: bool = False,
        retries: int = 0,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        snapshot_every: int = 32,
        telemetry: bool = True,
        telemetry_dir: Optional[str] = None,
        profile_slowest: bool = False,
        on_result: Optional[Callable[[int, HomeResult], None]] = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout_s is not None and timeout_s < 0:
            raise ValueError(f"timeout_s must be >= 0, got {timeout_s}")
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
        if backend == "serial" and timeout_s is not None:
            raise ValueError(
                "the serial backend cannot enforce timeout_s (a home runs "
                "in-process and cannot be preempted) — use backend='process' "
                "or 'auto', or drop the timeout"
            )
        if (resume or retry_quarantined) and not state_dir:
            raise ValueError("resume/retry_quarantined require a state_dir")
        self.source: SpecStream = spec.stream() if isinstance(spec, FleetSpec) else spec
        self.jobs = jobs
        if backend == "auto":
            backend = "process" if (jobs > 1 or timeout_s is not None) else "serial"
        self.backend = backend
        self.timeout_s = timeout_s
        self.state_root = state_root
        self.state_dir = state_dir
        self.resume = resume
        self.retry_quarantined = retry_quarantined
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.snapshot_every = snapshot_every
        # Telemetry is out-of-band by contract (reports byte-identical
        # with it on or off) and lives in the state dir — no state dir,
        # no channel to tail, so it quietly stays off.  An explicit
        # ``telemetry_dir`` overrides that default so state-dir-less
        # runs (e.g. distributed-fleet machines) can still emit frames.
        if telemetry_dir is not None:
            self.telemetry_dir: Optional[str] = telemetry_dir if telemetry else None
        else:
            self.telemetry_dir = (
                telemetry_dir_for(state_dir) if (state_dir and telemetry) else None
            )
        self.profile_slowest = profile_slowest
        self.on_result = on_result
        self._stop_requested = False
        self._next_idx = 0
        self._seen = 0
        self._folded_this_run = 0
        self._kill_after = 0
        self._telemetry: Optional[TelemetryWriter] = None
        self._run_started = 0.0
        self._retries_total = 0
        self._slowest: Optional[Tuple[float, HomeSpec]] = None

    # -- public API --------------------------------------------------------------

    def mute_telemetry(self) -> None:
        """Stop emitting telemetry frames, permanently, mid-run.

        Models a network partition for distributed-fleet chaos tests:
        the runner keeps working (report bytes are unaffected by
        contract) but no further frames reach the channel, so a watcher
        keyed on frame freshness sees the machine go dark.  Safe to
        call before :meth:`run` or from an :attr:`on_result` hook.
        """
        writer, self._telemetry = self._telemetry, None
        self.telemetry_dir = None
        if writer is not None:
            writer.close()

    def run(self) -> FleetReport:
        """Execute the fleet and return the aggregated population report.

        Raises :class:`FleetInterrupted` (carrying the partial report)
        when a stop signal arrives mid-run; with a ``state_dir`` the
        final checkpoint is compacted first, so ``resume=True`` picks
        up exactly where the signal landed.
        """
        agg = FleetAggregator(self.source.name, self.source.seed)
        checkpoint: Optional[FleetCheckpoint] = None
        rerun: Set[int] = set()
        self._stop_requested = False
        self._next_idx = 0
        self._seen = 0
        self._folded_this_run = 0
        self._retries_total = 0
        self._slowest = None
        self._kill_after = int(os.environ.get(KILL_AFTER_ENV, "0") or 0)

        if self.state_dir:
            checkpoint = FleetCheckpoint(
                self.state_dir,
                name=self.source.name,
                seed=self.source.seed,
                spec_digest=self.source.digest,
            )
            if self.resume:
                state = checkpoint.load()
                agg = state.aggregator(self.source.name, self.source.seed)
                self._next_idx = state.next_idx
                if state.next_idx:
                    logger.info(
                        "resuming fleet %r: %d homes already folded",
                        self.source.name, agg.completed,
                    )
                if self.retry_quarantined:
                    rerun = {idx for idx, _ in agg.quarantined}
                    if rerun:
                        logger.info("re-attempting %d quarantined homes", len(rerun))
            else:
                checkpoint.start_fresh()

        if self.telemetry_dir:
            self._telemetry = TelemetryWriter(self.telemetry_dir)
            self._telemetry.emit(
                "run-start",
                fleet=self.source.name,
                planned=self.source.n_homes,
                jobs=self.jobs,
                backend=self.backend,
                resumed=agg.completed,
            )
        self._run_started = time.perf_counter()

        previous_handlers = self._install_stop_handlers()
        finished = False
        try:
            work = self._work(self._next_idx, rerun)
            if self.backend == "serial":
                self._run_serial(work, agg, checkpoint)
            else:
                self._run_process(work, agg, checkpoint)
            finished = True
        finally:
            self._restore_stop_handlers(previous_handlers)
            if checkpoint is not None:
                # Final (or interrupt) compaction: resume never replays
                # a single home that was already collected.
                checkpoint.compact(self._next_idx, agg.to_state())
                checkpoint.close()
            if self._telemetry is not None:
                # The interrupt contract: a signal-stopped run still
                # flushes a final frame, so --watch shows the partial
                # coverage instead of appearing hung.  Only a hard kill
                # leaves no final frame (and the monitor reports stale).
                self._telemetry.emit(
                    "final",
                    status=(
                        "interrupted"
                        if self._stop_requested
                        else ("done" if finished else "aborted")
                    ),
                    completed=agg.completed,
                    planned=self.source.n_homes,
                    elapsed_s=time.perf_counter() - self._run_started,
                )
                self._telemetry.close()
                self._telemetry = None

        planned = self.source.n_homes if self.source.n_homes is not None else self._seen
        report = agg.report(n_planned=planned, partial=self._stop_requested)
        if self._stop_requested:
            raise FleetInterrupted(report)
        if self.profile_slowest and self._slowest is not None:
            self._profile_home(self._slowest[1])
        return report

    def _profile_home(self, home: HomeSpec) -> None:
        """Re-run the slowest ok home under cProfile (attribution data).

        Runs after the report is finalised, in-process, with the exact
        same spec — the rerun's result is discarded, so profiling can
        never perturb the report bytes.  Writes ``profile-<home>.prof``
        (loadable with ``pstats``/snakeviz) plus a text summary next to
        the state dir's other artifacts.
        """
        import cProfile
        import io as _io
        import pstats

        out_dir = self.state_dir or "."
        base = os.path.join(out_dir, f"profile-{home.home_id}")
        profiler = cProfile.Profile()
        logger.info("profiling slowest home %s", home.home_id)
        try:
            profiler.enable()
            try:
                run_home(home, state_root=self.state_root)
            finally:
                profiler.disable()
        except Exception as error:  # advisory artifact — never fail the run
            logger.warning("profiling home %s failed: %s", home.home_id, error)
            return
        profiler.dump_stats(base + ".prof")
        buffer = _io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer).sort_stats("cumulative")
        stats.print_stats(25)
        with open(base + ".txt", "w", encoding="utf-8") as handle:
            handle.write(f"slowest home: {home.home_id}\n")
            handle.write(buffer.getvalue())

    # -- stop signals ------------------------------------------------------------

    def _handle_stop(self, signum, frame) -> None:
        if self._stop_requested:  # second signal: the user means *now*
            raise KeyboardInterrupt
        self._stop_requested = True
        logger.warning(
            "stop signal %d: finishing the in-flight home, then checkpointing",
            signum,
        )

    def _install_stop_handlers(self):
        if threading.current_thread() is not threading.main_thread():
            return {}
        previous = {}
        for sig in _STOP_SIGNALS:
            try:
                previous[sig] = signal.signal(sig, self._handle_stop)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
        return previous

    @staticmethod
    def _restore_stop_handlers(previous) -> None:
        for sig, handler in previous.items():
            signal.signal(sig, handler)

    # -- shared plumbing ---------------------------------------------------------

    def _work(self, next_idx: int, rerun: Set[int]) -> Iterator[Tuple[int, HomeSpec]]:
        """Yield ``(idx, home)`` for every home this run must execute.

        Walks the whole stream in spec order, skipping the checkpointed
        prefix except for quarantined indices being re-attempted —
        yielded indices are therefore strictly increasing, which keeps
        the contiguous-prefix invariant the checkpoint relies on.
        """
        for idx, home in enumerate(self.source.iter_homes()):
            self._seen = idx + 1
            if idx >= next_idx or idx in rerun:
                yield idx, home

    @staticmethod
    def _failure(home: HomeSpec, error: BaseException, attempts: int) -> HomeResult:
        return HomeResult(
            home_id=home.home_id,
            status="failed",
            error=f"{type(error).__name__}: {error}",
            attempts=attempts,
        )

    def _backoff_sleep(self, home_id: str, attempt: int) -> None:
        """Seeded exponential backoff before retry ``attempt + 1``."""
        jitter = random.Random(
            spawn_seed(self.source.seed, "backoff", home_id, attempt)
        ).random()
        delay = min(self.backoff_max_s, self.backoff_base_s * (2 ** (attempt - 1)))
        time.sleep(delay * (0.5 + jitter))

    def _fold(
        self,
        agg: FleetAggregator,
        checkpoint: Optional[FleetCheckpoint],
        idx: int,
        result: HomeResult,
        home: Optional[HomeSpec] = None,
    ) -> None:
        # The hook fires before the fold and checkpoint write so an
        # external results log (distributed-fleet machines) always
        # covers at least as much as any internal state does.
        if self.on_result is not None:
            self.on_result(idx, result)
        agg.add(idx, result)
        self._next_idx = max(self._next_idx, idx + 1)
        if checkpoint is not None:
            checkpoint.record_home(idx, result.to_dict(), agg.epoch)
            if agg.epoch % self.snapshot_every == 0:
                checkpoint.compact(self._next_idx, agg.to_state())
        self._folded_this_run += 1
        self._retries_total += max(0, result.attempts - 1)
        total_s = float(result.timings.get("total", 0.0))
        if home is not None and result.ok and total_s > 0.0:
            if self._slowest is None or total_s > self._slowest[0]:
                self._slowest = (total_s, home)
        if self._telemetry is not None:
            elapsed = time.perf_counter() - self._run_started
            self._telemetry.emit(
                "progress",
                completed=agg.completed,
                ok=agg.n_ok,
                failed=agg.n_failed,
                retries=self._retries_total,
                quarantined=len(agg.quarantined),
                elapsed_s=elapsed,
                homes_per_sec=(
                    self._folded_this_run / elapsed if elapsed > 0 else 0.0
                ),
            )
        if self._kill_after and self._folded_this_run >= self._kill_after:
            # Deterministic crash injection for resume smoke tests: die
            # the hard way, exactly like a powered-off operator box.
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover

    # -- serial backend ----------------------------------------------------------

    def _run_serial(
        self,
        work: Iterator[Tuple[int, HomeSpec]],
        agg: FleetAggregator,
        checkpoint: Optional[FleetCheckpoint],
    ) -> None:
        for idx, home in work:
            if self._stop_requested:
                return
            self._fold(agg, checkpoint, idx, self._run_one_serial(home), home=home)

    def _run_one_serial(self, home: HomeSpec) -> HomeResult:
        for attempt in range(1, self.retries + 2):
            try:
                result = run_home_traced(
                    home,
                    state_root=self.state_root,
                    telemetry_dir=self.telemetry_dir,
                )
                result.attempts = attempt
                return result
            except Exception as error:  # fail the home, not the fleet
                logger.warning(
                    "home %s failed (attempt %d/%d): %s",
                    home.home_id, attempt, self.retries + 1, error,
                )
                if attempt > self.retries:
                    return self._failure(home, error, attempt)
                self._backoff_sleep(home.home_id, attempt)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- process backend ---------------------------------------------------------

    def _payload(self, home: HomeSpec) -> Dict[str, object]:
        return {
            "home": home.to_dict(),
            "state_root": self.state_root,
            "telemetry_dir": self.telemetry_dir,
        }

    @staticmethod
    def _kill_pool(executor: ProcessPoolExecutor) -> None:
        """Abandon a pool without letting stuck workers outlive the run."""
        # Grab the worker handles before shutdown (it may null the map).
        processes = list((getattr(executor, "_processes", None) or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.kill()
            except (OSError, ValueError):  # pragma: no cover - already gone
                pass
        # Workers are dead, so this returns promptly: joining the
        # management thread deregisters the executor's atexit wakeup
        # (otherwise interpreter shutdown trips on its closed pipe).
        executor.shutdown(wait=True)

    def _run_process(
        self,
        work: Iterator[Tuple[int, HomeSpec]],
        agg: FleetAggregator,
        checkpoint: Optional[FleetCheckpoint],
    ) -> None:
        window = 2 * self.jobs
        executor = ProcessPoolExecutor(max_workers=self.jobs)
        pending: Deque[Tuple[int, HomeSpec]] = deque()
        futures: Dict[int, object] = {}
        exhausted = False
        clean = False
        try:
            while True:
                # Keep the in-flight window full ahead of the collector.
                while not exhausted and len(pending) < window and not self._stop_requested:
                    try:
                        idx, home = next(work)
                    except StopIteration:
                        exhausted = True
                        break
                    pending.append((idx, home))
                    futures[idx] = executor.submit(run_home_payload, self._payload(home))
                if not pending:
                    break
                idx, home = pending.popleft()

                attempts = 0
                raised = 0
                timeouts = 0
                pool_breaks = 0
                result: Optional[HomeResult] = None
                while result is None:
                    if idx not in futures:  # resubmitted after a rebuild/retry
                        futures[idx] = executor.submit(
                            run_home_payload, self._payload(home)
                        )
                    attempts += 1
                    try:
                        payload = futures[idx].result(timeout=self.timeout_s)  # type: ignore[union-attr]
                        result = HomeResult.from_dict(payload)  # type: ignore[arg-type]
                        result.attempts = attempts
                    except BrokenProcessPool as error:
                        # A worker process died, killing every in-flight
                        # future — the pool cannot say whose.  Rebuild
                        # and rerun home idx *alone*: a crasher breaks
                        # the fresh pool by itself (conclusive after its
                        # isolated rerun); a bystander passes and the
                        # window re-pipelines below.
                        pool_breaks += 1
                        logger.warning(
                            "process pool broke while collecting %s (attempt %d): %s",
                            home.home_id, attempts, error,
                        )
                        self._kill_pool(executor)
                        executor = ProcessPoolExecutor(max_workers=self.jobs)
                        futures.clear()
                        if pool_breaks >= 2:  # retried in isolation — fail it
                            result = self._failure(home, error, attempts)
                    except FutureTimeoutError:
                        # A running future cannot be cancelled: without a
                        # rebuild the stuck worker would keep its pool
                        # slot for the rest of the run (and a second
                        # timeout would serialize everything behind it).
                        timeouts += 1
                        logger.warning(
                            "home %s timed out (attempt %d)", home.home_id, attempts
                        )
                        self._kill_pool(executor)
                        executor = ProcessPoolExecutor(max_workers=self.jobs)
                        futures.clear()
                        if timeouts > self.retries:
                            result = self._failure(
                                home,
                                TimeoutError(f"no result within {self.timeout_s}s"),
                                attempts,
                            )
                        else:
                            self._backoff_sleep(home.home_id, attempts)
                    except Exception as error:  # raised inside the worker
                        raised += 1
                        futures.pop(idx, None)
                        logger.warning(
                            "home %s failed (attempt %d): %s",
                            home.home_id, attempts, error,
                        )
                        if raised > self.retries:
                            result = self._failure(home, error, attempts)
                        else:
                            self._backoff_sleep(home.home_id, attempts)
                futures.pop(idx, None)

                # Re-pipeline everything a rebuild dropped, *after* the
                # current home resolved (pool-break isolation holds while
                # it is in flight; pending homes must not serialize).
                for pending_idx, pending_home in pending:
                    if pending_idx not in futures:
                        futures[pending_idx] = executor.submit(
                            run_home_payload, self._payload(pending_home)
                        )

                self._fold(agg, checkpoint, idx, result, home=home)
                if self._stop_requested:
                    return
            clean = True
        finally:
            if clean:
                # Normal completion: every future was collected, the
                # pool is idle — a graceful shutdown keeps interpreter
                # exit quiet.
                executor.shutdown(wait=True, cancel_futures=True)
            else:
                # Stop signal or error with homes possibly still (or
                # forever — a hung worker) in flight: never leave a
                # stuck worker behind.
                self._kill_pool(executor)
