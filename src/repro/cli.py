"""Command-line interface for the FIAT reproduction.

Installed as ``fiat-repro``; also runnable as ``python -m repro.cli``.

Subcommands
-----------
``simulate``
    Simulate a household and write the labelled capture (JSONL or pcap).
``analyze``
    Predictability analysis of a capture (per device, per class,
    Classic vs PortLess) — the §2/§3 measurement.
``events``
    Group a capture's unpredictable traffic into events and summarise
    them (§3.2).
``evaluate``
    Run the Table-6 accuracy experiment for a set of devices; with
    ``--metrics-out``/``--audit-out`` it runs fully instrumented and
    writes the registry snapshot / JSONL audit stream; with
    ``--state-dir`` the proxy's security state is write-ahead journaled
    and snapshotted there (crash-safe deployment mode).
``chaos``
    Sweep randomized proxy crash/restart points and assert the recovery
    invariants: decision-log equality modulo downtime, no replayed proof
    accepted post-restart, deterministic recovery, torn-journal-tail
    tolerance.
``fleet``
    Run a sharded multi-home fleet simulation (serial or process-pool
    backend) and write the deterministic population report; the report
    bytes are identical for any ``--jobs`` value.  ``--watch`` renders
    a live telemetry dashboard to stderr while the run executes.
``fleet-top``
    Tail the telemetry channel of a (running, finished, or killed)
    fleet state dir: progress, rate, ETA, per-phase latency digests,
    slowest-shard attribution.
``obs-report``
    Render the observability dashboard from a metrics snapshot — or
    from a fleet checkpoint state dir (latest compacted aggregate) —
    or follow one trace ID through an audit stream.
``export-profile``
    Learn allow rules from a capture's bootstrap window and export a
    MUD-style profile for one device.

Global ``-v/--verbose`` (repeatable) and ``-q/--quiet`` flags control
stdlib logging for every subcommand.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _configure_logging(verbosity: int, quiet: bool) -> None:
    """Map -v/-q to stdlib logging levels (library default: silent)."""
    if quiet:
        level = logging.ERROR
    elif verbosity >= 2:
        level = logging.DEBUG
    elif verbosity == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    # force=True: the CLI owns process-wide logging, and basicConfig is
    # otherwise a no-op when a host (e.g. a test runner) already
    # installed handlers on the root logger.
    logging.basicConfig(
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
        force=True,
    )


def _load_trace(path: str):
    from .net import Trace
    from .net.pcap import read_pcap

    if path.endswith(".pcap"):
        return read_pcap(path)
    return Trace.from_jsonl(path)


def cmd_simulate(args: argparse.Namespace) -> int:
    from .net.pcap import write_pcap
    from .testbed import TESTBED, Household, HouseholdConfig

    devices = args.devices or list(TESTBED)
    config = HouseholdConfig(duration_s=args.duration, seed=args.seed)
    result = Household(devices, config).simulate()
    if args.output.endswith(".pcap"):
        write_pcap(result.trace, args.output)
    else:
        result.trace.to_jsonl(args.output)
    stats = result.trace.stats()
    print(
        f"wrote {stats.n_packets} packets ({stats.n_bytes} B) from "
        f"{len(stats.devices)} devices over {stats.duration:.0f}s to {args.output}"
    )
    print(f"class mix: {stats.class_counts}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .net import FlowDefinition
    from .predictability import analyze_trace

    trace = _load_trace(args.trace)
    for name in args.definitions:
        definition = FlowDefinition(name)
        report = analyze_trace(trace, definition)
        print(f"\n[{definition.value}]")
        print(f"{'device':24s} {'packets':>8s} {'predictable':>12s}")
        for device, entry in sorted(report.devices.items()):
            print(f"{device:24s} {entry.n_packets:8d} {entry.fraction:12.3f}")
            for cls, (total, predictable) in sorted(entry.per_class.items()):
                if total:
                    print(f"  {cls:22s} {total:8d} {predictable / total:12.3f}")
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    from .events import group_events
    from .net import FlowDefinition
    from .predictability import label_predictable

    trace = _load_trace(args.trace)
    mask = label_predictable(trace, FlowDefinition(args.definition))
    events = group_events(trace, mask, gap=args.gap)
    print(f"{len(events)} unpredictable events "
          f"({sum(not m for m in mask)} unpredictable packets of {len(trace)})")
    print(f"{'device':24s} {'start':>10s} {'packets':>8s} {'bytes':>8s} {'class':>10s}")
    for event in events[: args.limit]:
        print(
            f"{event.device:24s} {event.start:10.1f} {len(event):8d} "
            f"{event.total_bytes:8d} {event.majority_class().value:>10s}"
        )
    if len(events) > args.limit:
        print(f"... {len(events) - args.limit} more (raise --limit)")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .core import FiatConfig, FiatSystem
    from .obs import JsonlAuditSink, Observability, save_snapshot

    obs = None
    audit_sink = None
    if args.metrics_out or args.audit_out:
        audit_sink = JsonlAuditSink(args.audit_out) if args.audit_out else None
        obs = Observability(audit=audit_sink, trace_seed=args.seed)
    system = FiatSystem(
        args.devices,
        config=FiatConfig(bootstrap_s=0.0, obs=obs),
        seed=args.seed,
        n_training_events=args.training_events,
    )
    if args.state_dir:
        system.enable_recovery(args.state_dir)
    results = system.run_accuracy(
        n_manual=args.manual, n_non_manual=args.non_manual, n_attacks=args.attacks
    )
    if args.metrics_out:
        save_snapshot(system.metrics_snapshot(), args.metrics_out)
        print(f"metrics snapshot written to {args.metrics_out}")
    if audit_sink is not None:
        audit_sink.close()
        print(f"audit stream ({audit_sink.n_emitted} records) written to {args.audit_out}")
    print(f"{'device':12s} {'manual P/R':>12s} {'FP legit':>9s} {'FN attacks':>11s}")
    for device, row in results.items():
        fp = row.fp_manual_blocked + row.fp_non_manual_blocked
        print(
            f"{device:12s} {row.manual_precision:5.2f}/{row.manual_recall:4.2f}"
            f" {100 * fp:8.1f}% {100 * row.false_negative:10.1f}%"
        )
    human = system.human_validation_rates()
    print(
        f"humanness: P/R {human['human_precision']:.2f}/{human['human_recall']:.2f} human, "
        f"{human['non_human_precision']:.2f}/{human['non_human_recall']:.2f} non-human"
    )
    if system.recovery is not None:
        # Capture before close(): journal_size_bytes reads 0 once the
        # writer is gone.
        epoch = system.recovery.epoch
        journal_bytes = system.recovery.journal_size_bytes
        system.recovery.close()
        print(
            f"recovery state journaled to {args.state_dir} "
            f"(epoch {epoch}, {journal_bytes} B journal)"
        )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from .core import FiatConfig, FiatSystem

    config = FiatConfig(
        bootstrap_s=args.bootstrap,
        snapshot_interval_s=args.snapshot_interval,
        # A crash adds at most one stray blocked event between unlocks;
        # a tight threshold would let that tip one run into lockout and
        # diverge the logs far past the outage (see chaos_sweep docs).
        lockout_threshold=10,
    )
    system = FiatSystem(args.devices, config=config, seed=args.seed)
    report = system.chaos_sweep(
        n_trials=args.trials,
        seed=args.seed,
        duration_s=args.duration,
        corrupt_fraction=args.corrupt_fraction,
        determinism_every=args.determinism_every,
        state_root=args.state_root,
    )
    probes = {}
    for trial in report.trials:
        probes[trial.replay_probe] = probes.get(trial.replay_probe, 0) + 1
    print(
        f"chaos sweep: {report.n_ok}/{report.n_trials} trials ok "
        f"({report.n_corrupted_tail} with corrupted journal tail, "
        f"{report.n_torn_tails_seen} torn tails tolerated)"
    )
    print(f"replay probes post-restart: {probes}")
    checked = [t for t in report.trials if t.determinism_checked]
    print(
        f"determinism double-runs: {len(checked)} "
        f"({'all byte-identical' if all(t.deterministic for t in checked) else 'DIVERGENT'})"
    )
    for trial in report.failures():
        print(
            f"FAIL trial {trial.index}: crash at t={trial.crash.at:.1f} "
            f"(+{trial.crash.downtime_s:.1f}s down, "
            f"{trial.crash.corrupt_tail_bytes} B corrupted) — {trial.failure}",
            file=sys.stderr,
        )
        if trial.state_dir:
            print(f"  artifacts kept in {trial.state_dir}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_fleet(args: argparse.Namespace) -> int:
    from .fleet import (
        CheckpointMismatch,
        FleetInterrupted,
        FleetRunner,
        generate_fleet,
        open_spec,
        write_spec_jsonl,
    )

    if args.machines < 1:
        print(f"fleet: --machines must be >= 1, got {args.machines}", file=sys.stderr)
        return 2
    try:
        if args.spec:
            source = open_spec(args.spec)
            if source.n_homes == 0:
                raise ValueError(f"{args.spec}: n_homes must be >= 1, the spec has no homes")
        else:
            spec = generate_fleet(
                args.homes,
                seed=args.seed,
                name=args.name,
                device_pool=tuple(args.devices) if args.devices else None,
                n_manual=args.manual,
                n_non_manual=args.non_manual,
                n_attacks=args.attacks,
                n_training_events=args.training_events,
                fault_fraction=args.fault_fraction,
            )
            if args.spec_out:
                if args.spec_out.endswith(".jsonl"):
                    write_spec_jsonl(
                        args.spec_out, iter(spec.homes),
                        name=spec.name, seed=spec.seed, n_homes=len(spec),
                    )
                else:
                    spec.dump(args.spec_out)
                print(f"fleet spec ({len(spec)} homes) written to {args.spec_out}")
            source = spec.stream()
    except (OSError, ValueError) as error:
        print(f"fleet: {error}", file=sys.stderr)
        return 2
    if args.watch and not args.state_dir:
        print(
            "fleet: --watch requires --state-dir (telemetry frames live there)",
            file=sys.stderr,
        )
        return 2
    if args.machines > 1 or args.machine_faults:
        return _run_fleet_distrib(args, source)
    try:
        runner = FleetRunner(
            source,
            jobs=args.jobs,
            backend=args.backend,
            timeout_s=args.timeout,
            state_root=args.state_root,
            state_dir=args.state_dir,
            resume=args.resume,
            retry_quarantined=args.retry_quarantined,
            retries=args.retries,
            backoff_base_s=args.backoff,
            snapshot_every=args.snapshot_every,
            telemetry=args.telemetry,
            profile_slowest=args.profile_slowest,
        )
    except ValueError as error:
        print(f"fleet: {error}", file=sys.stderr)
        return 2

    watch_stop = None
    if args.watch:
        import threading

        from .fleet import FleetMonitor

        monitor = FleetMonitor(args.state_dir)
        watch_stop = threading.Event()

        def _watch() -> None:
            while not watch_stop.wait(args.watch_interval):
                print(monitor.render(), file=sys.stderr)

        threading.Thread(target=_watch, name="fleet-watch", daemon=True).start()

    def _end_watch() -> None:
        if watch_stop is not None:
            watch_stop.set()
            # One last render so the final (done/interrupted) frame is
            # always shown, however short the run was.
            print(FleetMonitor(args.state_dir).render(), file=sys.stderr)

    def _emit(report) -> None:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(report.to_json() + "\n")
        print(report.render(top=args.top))
        if args.out:
            print(f"population report written to {args.out}")

    try:
        report = runner.run()
    except CheckpointMismatch as error:
        _end_watch()
        print(f"fleet: {error}", file=sys.stderr)
        return 2
    except FleetInterrupted as stop:
        _end_watch()
        # Graceful degradation: the partial report (explicit coverage
        # counts) is still emitted; the run is resumable.
        _emit(stop.report)
        coverage = stop.report.coverage
        hint = (
            f" — resume with --state-dir {args.state_dir} --resume"
            if args.state_dir
            else " (no --state-dir: progress was not checkpointed)"
        )
        print(
            f"interrupted after {coverage.get('completed', 0)}/"
            f"{coverage.get('planned', stop.report.n_homes)} homes{hint}",
            file=sys.stderr,
        )
        return 3
    _end_watch()
    _emit(report)
    if not report.ok:
        print(
            f"{report.n_failed} of {report.n_homes} homes failed"
            + (" (strict mode: failing)" if args.strict else ""),
            file=sys.stderr,
        )
    return 1 if (args.strict and not report.ok) else 0


def _emit_fleet_report(args: argparse.Namespace, report) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
    print(report.render(top=args.top))
    if args.out:
        print(f"population report written to {args.out}")


def _run_fleet_distrib(args: argparse.Namespace, source) -> int:
    """The ``fleet --machines N`` path: the distributed coordinator."""
    from .fleet import CheckpointMismatch, DistribCoordinator, DistribError
    from .fleet.distrib import parse_machine_fault

    if not args.state_dir:
        print(
            "fleet: --machines needs --state-dir (the coordinator ledger, "
            "range dirs and machine telemetry live there)",
            file=sys.stderr,
        )
        return 2
    for flag, reason in (
        (args.watch, "--watch (use fleet-top against the same --state-dir)"),
        (args.profile_slowest, "--profile-slowest"),
        (args.retry_quarantined, "--retry-quarantined"),
        (args.timeout, "--timeout"),
    ):
        if flag:
            print(
                f"fleet: {reason} is not supported with --machines", file=sys.stderr
            )
            return 2
    try:
        faults = [parse_machine_fault(text) for text in args.machine_faults]
        coordinator = DistribCoordinator(
            source,
            state_dir=args.state_dir,
            machines=args.machines,
            jobs=args.jobs,
            backend=args.backend,
            resume=args.resume,
            retries=args.retries,
            backoff_base_s=args.backoff,
            lease_timeout_s=args.lease_timeout,
            heartbeat_interval_s=args.heartbeat_interval,
            max_leases_per_range=args.max_leases,
            machine_faults=faults,
            state_root=args.state_root,
        )
    except ValueError as error:
        print(f"fleet: {error}", file=sys.stderr)
        return 2
    try:
        report = coordinator.run()
    except CheckpointMismatch as error:
        print(f"fleet: {error}", file=sys.stderr)
        return 2
    except DistribError as error:
        print(f"fleet: {error}", file=sys.stderr)
        return 2
    _emit_fleet_report(args, report)
    stats = coordinator.stats
    print(
        f"distributed over {stats['ranges']} range(s): "
        f"{stats['leases_granted']} lease(s) granted, "
        f"{stats['re_leases']} re-lease(s), "
        f"{stats['rejected_submissions']} submission(s) rejected",
        file=sys.stderr,
    )
    if not report.ok:
        print(
            f"{report.n_failed} of {report.n_homes} homes failed"
            + (" (strict mode: failing)" if args.strict else ""),
            file=sys.stderr,
        )
    return 1 if (args.strict and not report.ok) else 0


def cmd_fleet_merge(args: argparse.Namespace) -> int:
    from .fleet import SubmissionMismatch, merge_range_dirs

    try:
        report = merge_range_dirs(args.dirs)
    except SubmissionMismatch as error:
        print(f"fleet-merge: {error}", file=sys.stderr)
        return 2
    _emit_fleet_report(args, report)
    return 1 if (args.strict and not report.ok) else 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    import os

    from .obs import load_snapshot, read_audit, render_report, render_trace

    agg = snapshot = None
    try:
        audit = read_audit(args.audit) if args.audit else None
        if args.snapshot and not args.trace_id:
            if os.path.isdir(args.snapshot):
                # A fleet checkpoint state dir: render the latest compacted
                # aggregate (works mid-run and after a kill — read-only).
                from .fleet import load_latest_aggregate

                agg = load_latest_aggregate(args.snapshot)
            else:
                snapshot = load_snapshot(args.snapshot)
    except (OSError, ValueError) as error:
        print(f"obs-report: {error}", file=sys.stderr)
        return 2
    if args.trace_id:
        if audit is None:
            print("--trace-id requires --audit", file=sys.stderr)
            return 1
        print(render_trace(audit, args.trace_id))
        return 0
    if not args.snapshot:
        print("a metrics snapshot path is required (or use --trace-id)", file=sys.stderr)
        return 1
    if agg is not None:
        print(
            f"fleet state dir {args.snapshot}: {agg.completed} homes folded "
            f"({agg.n_ok} ok, {agg.n_failed} failed, "
            f"{len(agg.quarantined)} quarantined)"
        )
        snapshot = agg.merged
    print(render_report(snapshot, audit=audit, top=args.top))
    return 0


def cmd_fleet_top(args: argparse.Namespace) -> int:
    import os as _os
    import time as _time

    from .fleet import FleetMonitor, MultiFleetMonitor, machine_telemetry_dirs
    from .fleet.distrib import LEDGER_NAME

    if _os.path.exists(_os.path.join(args.state_dir, LEDGER_NAME)):
        # A distributed run: aggregate every machine's telemetry dir.  The
        # dir set is re-resolved each poll so re-leases (new epochs) and
        # fresh ranges appear without restarting the dashboard.
        monitor = MultiFleetMonitor(
            lambda: machine_telemetry_dirs(args.state_dir),
            stale_after_s=args.stale_after,
        )
    else:
        monitor = FleetMonitor(args.state_dir, stale_after_s=args.stale_after)
    while True:
        snapshot = monitor.poll()
        print(monitor.render(snapshot))
        if not args.follow or snapshot.status in ("done", "interrupted"):
            return 0
        _time.sleep(args.interval)


def cmd_export_profile(args: argparse.Namespace) -> int:
    from .core.mud import export_profile
    from .core.rules import RuleTable
    from .net import FlowDefinition
    from .predictability import BucketPredictor

    trace = _load_trace(args.trace)
    device_trace = trace.for_device(args.device) if args.device else trace
    if len(device_trace) == 0:
        print(f"no packets for device {args.device!r}", file=sys.stderr)
        return 1
    predictor = BucketPredictor(FlowDefinition(args.definition), dns=trace.dns)
    bootstrap_end = device_trace.start + args.bootstrap
    predictor.learn_trace(p for p in device_trace if p.timestamp < bootstrap_end)
    table = RuleTable.from_predictor(predictor)
    document = export_profile(
        args.device or "all-devices", table, metadata={"source": args.trace}
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"wrote {len(table)} rules to {args.output}")
    else:
        print(document)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from .core import train_event_classifier
    from .ml.persistence import save_model
    from .testbed import generate_labeled_events, profile_for

    profile = profile_for(args.device)
    if profile.uses_simple_rules:
        print(
            f"{args.device} uses the simple first-packet-size rule "
            f"({profile.simple_rule_size} B); no model to train.",
            file=sys.stderr,
        )
        return 1
    events = generate_labeled_events(
        profile,
        n_manual=args.manual,
        n_automated=args.non_manual,
        n_control=args.non_manual,
        seed=args.seed,
    )
    classifier = train_event_classifier(profile, events)
    document = save_model(
        classifier.model,
        classifier.scaler,
        metadata={"device": args.device, "first_n": classifier.first_n},
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(document)
    print(f"trained on {len(events)} events; model written to {args.output}")
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    from .scenarios import EXAMPLE_SCENARIO, run_scenario

    if args.example:
        document = EXAMPLE_SCENARIO
    else:
        with open(args.scenario, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    report = run_scenario(document)
    print(report.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="fiat-repro",
        description="FIAT (CoNEXT '22) reproduction toolkit",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress detail (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="only log errors"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="simulate a household capture")
    simulate.add_argument("--devices", nargs="*", help="device names (default: all 10)")
    simulate.add_argument("--duration", type=float, default=3600.0, help="seconds")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--output", required=True, help=".jsonl or .pcap path")
    simulate.set_defaults(func=cmd_simulate)

    analyze = sub.add_parser("analyze", help="predictability analysis of a capture")
    analyze.add_argument("trace", help=".jsonl or .pcap capture")
    analyze.add_argument(
        "--definitions", nargs="*", default=["portless", "classic"],
        choices=["portless", "classic"],
    )
    analyze.set_defaults(func=cmd_analyze)

    events = sub.add_parser("events", help="group unpredictable events")
    events.add_argument("trace")
    events.add_argument("--definition", default="portless", choices=["portless", "classic"])
    events.add_argument("--gap", type=float, default=5.0)
    events.add_argument("--limit", type=int, default=20)
    events.set_defaults(func=cmd_events)

    evaluate = sub.add_parser("evaluate", help="run the Table-6 accuracy experiment")
    evaluate.add_argument("--devices", nargs="+", required=True)
    evaluate.add_argument("--manual", type=int, default=20)
    evaluate.add_argument("--non-manual", dest="non_manual", type=int, default=40)
    evaluate.add_argument("--attacks", type=int, default=20)
    evaluate.add_argument("--training-events", dest="training_events", type=int, default=160)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument(
        "--metrics-out", dest="metrics_out",
        help="run instrumented; write the metrics snapshot JSON here",
    )
    evaluate.add_argument(
        "--audit-out", dest="audit_out",
        help="run instrumented; write the JSONL audit stream here",
    )
    evaluate.add_argument(
        "--state-dir", dest="state_dir",
        help="journal + snapshot the proxy's security state here (crash-safe mode)",
    )
    evaluate.set_defaults(func=cmd_evaluate)

    chaos = sub.add_parser(
        "chaos", help="sweep random proxy crashes and assert recovery invariants"
    )
    chaos.add_argument("--devices", nargs="+", default=["SP10", "WP3"])
    chaos.add_argument("--trials", type=int, default=50)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--duration", type=float, default=240.0, help="workload seconds")
    chaos.add_argument("--bootstrap", type=float, default=60.0, help="bootstrap seconds")
    chaos.add_argument(
        "--snapshot-interval", dest="snapshot_interval", type=float, default=20.0,
        help="simulated seconds between state snapshots",
    )
    chaos.add_argument(
        "--corrupt-fraction", dest="corrupt_fraction", type=float, default=0.3,
        help="fraction of trials that corrupt the journal tail before restart",
    )
    chaos.add_argument(
        "--determinism-every", dest="determinism_every", type=int, default=10,
        help="re-run every Nth trial twice and require byte-identical logs (0 = off)",
    )
    chaos.add_argument(
        "--state-root", dest="state_root",
        help="keep per-trial state dirs here (default: temp dir, removed when green)",
    )
    chaos.set_defaults(func=cmd_chaos)

    fleet = sub.add_parser(
        "fleet", help="run a sharded multi-home fleet simulation"
    )
    fleet.add_argument(
        "--spec",
        help="fleet spec file (overrides the generator flags); .jsonl specs "
        "are streamed at bounded memory",
    )
    fleet.add_argument("--homes", type=int, default=4, help="homes to generate")
    fleet.add_argument("--jobs", type=int, default=1, help="worker processes")
    fleet.add_argument(
        "--backend", choices=["auto", "serial", "process"], default="auto",
        help="execution backend (auto: serial when --jobs 1)",
    )
    fleet.add_argument("--seed", type=int, default=0, help="fleet-level seed")
    fleet.add_argument("--name", default="fleet", help="fleet name in the report")
    fleet.add_argument(
        "--devices", nargs="*",
        help="device pool for generated homes (default: rule devices)",
    )
    fleet.add_argument("--manual", type=int, default=6, help="base manual events/home")
    fleet.add_argument(
        "--non-manual", dest="non_manual", type=int, default=12,
        help="base non-manual events/home",
    )
    fleet.add_argument("--attacks", type=int, default=6, help="base attacks/home")
    fleet.add_argument(
        "--training-events", dest="training_events", type=int, default=120,
    )
    fleet.add_argument(
        "--fault-fraction", dest="fault_fraction", type=float, default=0.0,
        help="fraction of generated homes with a lossy-network fault plan",
    )
    fleet.add_argument(
        "--timeout", type=float, help="per-home liveness deadline, seconds"
    )
    fleet.add_argument(
        "--state-root", dest="state_root",
        help="journal recovery state of homes marked 'recover' under this dir",
    )
    fleet.add_argument(
        "--state-dir", dest="state_dir",
        help="checkpoint fleet-run progress here (journal + compacted "
        "snapshots); enables --resume",
    )
    fleet.add_argument(
        "--resume", action="store_true",
        help="resume a checkpointed run from --state-dir, skipping "
        "completed homes (byte-identical final report)",
    )
    fleet.add_argument(
        "--retry-quarantined", dest="retry_quarantined", action="store_true",
        help="with --resume: re-attempt homes that exhausted their retry "
        "budget instead of skipping them",
    )
    fleet.add_argument(
        "--retries", type=int, default=0,
        help="per-home retries with seeded exponential backoff before a "
        "home is quarantined (default: 0)",
    )
    fleet.add_argument(
        "--backoff", dest="backoff", type=float, default=0.05,
        help="retry backoff base, seconds (doubles per attempt, jittered)",
    )
    fleet.add_argument(
        "--snapshot-every", dest="snapshot_every", type=int, default=32,
        help="compact a checkpoint snapshot every N homes (default: 32)",
    )
    fleet.add_argument("--out", help="write the aggregate JSON report here")
    fleet.add_argument(
        "--spec-out", dest="spec_out",
        help="also write the (generated) spec here (.jsonl streams)",
    )
    fleet.add_argument("--top", type=int, default=8, help="per-home rows to print")
    fleet.add_argument(
        "--strict", action="store_true",
        help="exit nonzero when any home fails (default: fail the home, not the fleet)",
    )
    fleet.add_argument(
        "--watch", action="store_true",
        help="render a live telemetry dashboard to stderr while the run "
        "executes (requires --state-dir)",
    )
    fleet.add_argument(
        "--watch-interval", dest="watch_interval", type=float, default=2.0,
        help="seconds between --watch refreshes (default: 2)",
    )
    fleet.add_argument(
        "--no-telemetry", dest="telemetry", action="store_false",
        help="skip writing telemetry frames under --state-dir (the "
        "report is byte-identical either way)",
    )
    fleet.add_argument(
        "--profile-slowest", dest="profile_slowest", action="store_true",
        help="after a clean run, re-run the slowest home under cProfile and "
        "write profile-<home>.prof/.txt into --state-dir",
    )
    fleet.add_argument(
        "--machines", type=int, default=1,
        help="run the fleet on N simulated machines (subprocesses) under the "
        "distributed coordinator; needs --state-dir (default: 1 = in-process)",
    )
    fleet.add_argument(
        "--lease-timeout", dest="lease_timeout", type=float, default=15.0,
        help="seconds without machine heartbeat frames before its range "
        "lease is revoked and reassigned (default: 15)",
    )
    fleet.add_argument(
        "--heartbeat-interval", dest="heartbeat_interval", type=float,
        default=0.5,
        help="seconds between machine heartbeat frames (default: 0.5)",
    )
    fleet.add_argument(
        "--max-leases", dest="max_leases", type=int, default=6,
        help="fail the run if any one range needs more than this many "
        "leases (default: 6)",
    )
    fleet.add_argument(
        "--machine-fault", dest="machine_faults", action="append", default=[],
        metavar="KIND:RANGE[:AFTER[:DURATION[:EPOCH]]]",
        help="inject a machine-level fault (kill|stall|drop) into the range's "
        "machine after it completes AFTER homes in lease epoch EPOCH; "
        "repeatable (chaos testing; the report bytes must not change)",
    )
    fleet.set_defaults(func=cmd_fleet)

    fleet_merge = sub.add_parser(
        "fleet-merge",
        help="exact-merge completed range dirs from a distributed fleet "
        "into one population report",
    )
    fleet_merge.add_argument(
        "dirs", nargs="+",
        help="coordinator state dirs and/or individual range-NNNN dirs; "
        "together they must tile the full spec",
    )
    fleet_merge.add_argument(
        "--out", help="write the merged population report JSON here"
    )
    fleet_merge.add_argument(
        "--top", type=int, default=5,
        help="rows per section in the rendered report (default: 5)",
    )
    fleet_merge.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if any merged home failed",
    )
    fleet_merge.set_defaults(func=cmd_fleet_merge)

    fleet_top = sub.add_parser(
        "fleet-top", help="live dashboard for a fleet state dir's telemetry"
    )
    fleet_top.add_argument(
        "--state-dir", dest="state_dir", required=True,
        help="the fleet run's --state-dir (telemetry frames live under it)",
    )
    fleet_top.add_argument(
        "--follow", action="store_true",
        help="keep refreshing until the run reports done/interrupted "
        "(default: render once and exit)",
    )
    fleet_top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between --follow refreshes (default: 2)",
    )
    fleet_top.add_argument(
        "--stale-after", dest="stale_after", type=float, default=30.0,
        help="seconds without frames before a running fleet is reported "
        "stale (default: 30)",
    )
    fleet_top.set_defaults(func=cmd_fleet_top)

    obs_report = sub.add_parser(
        "obs-report", help="render the observability dashboard / follow a trace"
    )
    obs_report.add_argument(
        "snapshot", nargs="?",
        help="metrics snapshot JSON (from evaluate --metrics-out) or a "
        "fleet --state-dir (renders the latest compacted aggregate)",
    )
    obs_report.add_argument("--audit", help="JSONL audit stream to summarise/query")
    obs_report.add_argument(
        "--trace-id", dest="trace_id",
        help="print the full chain of one trace ID from --audit",
    )
    obs_report.add_argument(
        "--top", type=int, default=12, help="rows per dashboard section"
    )
    obs_report.set_defaults(func=cmd_obs_report)

    train = sub.add_parser("train", help="train + save a device's event classifier")
    train.add_argument("--device", required=True)
    train.add_argument("--manual", type=int, default=60)
    train.add_argument("--non-manual", dest="non_manual", type=int, default=120)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--output", required=True, help="model JSON path")
    train.set_defaults(func=cmd_train)

    scenario = sub.add_parser("scenario", help="run a declarative JSON scenario")
    scenario.add_argument("scenario", nargs="?", help="path to a scenario JSON file")
    scenario.add_argument(
        "--example", action="store_true", help="run the built-in example scenario"
    )
    scenario.set_defaults(func=cmd_scenario)

    export = sub.add_parser("export-profile", help="export learned rules as MUD JSON")
    export.add_argument("trace")
    export.add_argument("--device", help="restrict to one device")
    export.add_argument("--definition", default="portless", choices=["portless", "classic"])
    export.add_argument("--bootstrap", type=float, default=1200.0)
    export.add_argument("--output", help="file path (default: stdout)")
    export.set_defaults(func=cmd_export_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    try:
        return int(args.func(args))
    except BrokenPipeError:
        # `fiat-repro fleet-top | head` and friends: the consumer
        # closed the pipe, which is not an error.  Detach stdout so the
        # interpreter's shutdown flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
