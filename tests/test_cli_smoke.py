"""End-to-end smoke coverage of every ``fiat-repro`` subcommand.

Each case invokes :func:`repro.cli.main` with real argv in a tmpdir and
asserts exit code 0, non-empty stdout, and non-empty output artifacts.
Workloads are scaled down to keep the whole module fast; correctness
depth lives in the per-subsystem test modules — this file exists so a
broken wire between the CLI and any subsystem fails loudly.
"""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared artifact directory, pre-seeded with a simulated capture."""
    root = tmp_path_factory.mktemp("cli-smoke")
    trace = root / "trace.jsonl"
    code = main(
        [
            "simulate", "--devices", "SP10", "WP3",
            "--duration", "1800", "--seed", "0",
            "--output", str(trace),
        ]
    )
    assert code == 0 and trace.stat().st_size > 0
    # A standalone metrics snapshot so obs-report does not depend on
    # the evaluate case having run first (e.g. under -k selection).
    snapshot = {
        "counters": {"proxy_decisions_total": {"device=SP10": 3.0}},
        "gauges": {},
        "histograms": {},
    }
    (root / "obs-snapshot.json").write_text(json.dumps(snapshot))
    return root


def _trace(root):
    return str(root / "trace.jsonl")


def _distrib_range_dir(root):
    """A completed one-home range dir for the fleet-merge case.

    Built on demand (in-process, no subprocess) so the case stays valid
    under ``-k`` selection without depending on the fleet case's state.
    """
    range_dir = root / "merge-state" / "range-0000"
    if not range_dir.exists():
        from repro.fleet import generate_fleet, write_spec_jsonl
        from repro.fleet.distrib import machine_seed, run_machine

        spec = generate_fleet(
            1, seed=0, n_manual=1, n_non_manual=2, n_attacks=1,
            n_training_events=40,
        )
        spec_path = root / "merge-state" / "spec.jsonl"
        spec_path.parent.mkdir(parents=True, exist_ok=True)
        write_spec_jsonl(
            str(spec_path), spec.homes, name=spec.name, seed=spec.seed,
            n_homes=1,
        )
        assert run_machine(
            {
                "spec": str(spec_path),
                "range_index": 0,
                "start": 0,
                "stop": 1,
                "epoch": 1,
                "range_dir": str(range_dir),
                "machine_seed": machine_seed(spec.seed, 0, 1),
            }
        ) == 0
    return str(range_dir)


# Each case: (name, argv builder, output artifacts the command must create).
CASES = [
    (
        "simulate",
        lambda root: [
            "simulate", "--devices", "SP10", "--duration", "600",
            "--output", str(root / "smoke-trace.jsonl"),
        ],
        ["smoke-trace.jsonl"],
    ),
    ("analyze", lambda root: ["analyze", _trace(root)], []),
    ("events", lambda root: ["events", _trace(root), "--limit", "5"], []),
    (
        "evaluate",
        lambda root: [
            "evaluate", "--devices", "SP10", "--manual", "3",
            "--non-manual", "4", "--attacks", "2",
            "--metrics-out", str(root / "metrics.json"),
            "--audit-out", str(root / "audit.jsonl"),
        ],
        ["metrics.json", "audit.jsonl"],
    ),
    (
        "chaos",
        lambda root: [
            "chaos", "--devices", "SP10", "--trials", "2",
            "--duration", "120", "--bootstrap", "0",
            "--state-root", str(root / "chaos-state"),
        ],
        [],
    ),
    (
        "fleet",
        lambda root: [
            "fleet", "--homes", "2", "--jobs", "1",
            "--manual", "2", "--non-manual", "3", "--attacks", "1",
            "--state-dir", str(root / "fleet-state"),
            "--out", str(root / "fleet-report.json"),
            "--spec-out", str(root / "fleet-spec.jsonl"),
        ],
        ["fleet-report.json", "fleet-spec.jsonl"],
    ),
    (
        "fleet-merge",
        lambda root: [
            "fleet-merge", _distrib_range_dir(root),
            "--out", str(root / "merged-report.json"),
        ],
        ["merged-report.json"],
    ),
    (
        # Against the fleet case's state dir when the full module ran;
        # against an idle (frameless) dir under -k selection — both are
        # valid monitor states and both must exit 0.
        "fleet-top",
        lambda root: ["fleet-top", "--state-dir", str(root / "fleet-state")],
        [],
    ),
    (
        "obs-report",
        lambda root: ["obs-report", str(root / "obs-snapshot.json")],
        [],
    ),
    (
        "export-profile",
        lambda root: [
            "export-profile", _trace(root), "--device", "SP10",
            "--bootstrap", "900", "--output", str(root / "mud.json"),
        ],
        ["mud.json"],
    ),
    (
        "train",
        lambda root: [
            "train", "--device", "E4", "--manual", "12", "--non-manual", "24",
            "--output", str(root / "model.json"),
        ],
        ["model.json"],
    ),
    ("scenario", lambda root: ["scenario", "--example"], []),
]


@pytest.mark.parametrize("name,argv,artifacts", CASES, ids=[c[0] for c in CASES])
def test_subcommand_smoke(workdir, capsys, name, argv, artifacts):
    assert main(argv(workdir)) == 0
    assert capsys.readouterr().out.strip(), f"{name} printed nothing"
    for artifact in artifacts:
        path = workdir / artifact
        assert path.exists() and path.stat().st_size > 0, f"{name}: empty {artifact}"


def test_every_subcommand_is_smoked():
    """Adding a subcommand without a smoke case fails here, not in prod."""
    from repro.cli import build_parser

    subcommands = set()
    for action in build_parser()._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            subcommands |= set(action.choices)
    assert subcommands == {case[0] for case in CASES}


def test_fleet_cli_report_parses(workdir):
    """The fleet artifacts written above are valid, linked documents."""
    report = json.loads((workdir / "fleet-report.json").read_text())
    lines = (workdir / "fleet-spec.jsonl").read_text().splitlines()
    header = json.loads(lines[0])["fleet"]
    homes = [json.loads(line) for line in lines[1:]]
    assert report["n_homes"] == header["n_homes"] == len(homes) == 2
    assert [h["home_id"] for h in report["homes"]] == [
        h["home_id"] for h in homes
    ]
    assert report["coverage"]["partial"] is False


def test_fleet_cli_watch_smoke(workdir, capsys):
    """--watch runs the live monitor thread alongside a tiny fleet and
    leaves a final dashboard render on stderr."""
    code = main(
        [
            "fleet", "--homes", "2", "--jobs", "1",
            "--manual", "2", "--non-manual", "3", "--attacks", "1",
            "--state-dir", str(workdir / "watch-state"),
            "--watch", "--watch-interval", "0.2",
            "--out", str(workdir / "watch-report.json"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "FIAT fleet monitor" in captured.err
    assert "DONE" in captured.err
    # Watching never changes the report bytes.
    assert (
        json.loads((workdir / "watch-report.json").read_text())["n_homes"] == 2
    )


def test_fleet_watch_requires_state_dir(capsys):
    assert main(["fleet", "--homes", "1", "--watch"]) == 2
    assert "--watch requires --state-dir" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--homes", "0"],
        ["--spec", "missing.json"],
        ["--machines", "0"],
        ["--machines", "-1"],
        ["--homes", "1", "--timeout", "-1"],
        ["--spec", "not-a-spec.json"],
        ["--spec", "homes-not-a-list.json"],
        ["--spec", "no-homes.json"],
        ["--spec", "no-homes.jsonl"],
    ],
    ids=[
        "homes-0", "missing-spec", "machines-0", "machines-negative", "timeout-negative",
        "spec-not-a-fleet", "spec-homes-not-a-list", "spec-no-homes", "jsonl-spec-no-homes",
    ],
)
def test_fleet_rejects_bad_input(tmp_path, monkeypatch, capsys, argv):
    """Bad fleet input is one ``fleet: …`` line and exit 2, not a traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "not-a-spec.json").write_text('{"x": 1}')
    (tmp_path / "homes-not-a-list.json").write_text('{"homes": {"home_id": "h"}}')
    (tmp_path / "no-homes.json").write_text('{"name": "f", "seed": 0, "homes": []}')
    (tmp_path / "no-homes.jsonl").write_text('{"fleet": {"name": "f", "seed": 0}}\n')
    assert main(["fleet", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("fleet: ") and captured.err.count("\n") == 1
    assert not captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["missing.json"],
        ["not-json.json"],
        ["--audit", "missing.jsonl", "--trace-id", "proof-x"],
        ["snapshot.json", "--audit", "missing.jsonl"],
    ],
    ids=["missing-snapshot", "unreadable-snapshot", "missing-audit", "snapshot-missing-audit"],
)
def test_obs_report_rejects_bad_files(tmp_path, monkeypatch, capsys, argv):
    """A missing or unreadable input is one ``obs-report: …`` line and exit 2."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "not-json.json").write_text("{not json")
    (tmp_path / "snapshot.json").write_text('{"counters": {}, "gauges": {}, "histograms": {}}')
    assert main(["obs-report", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("obs-report: ") and captured.err.count("\n") == 1
    assert not captured.out


def test_obs_report_reads_fleet_state_dir(workdir, capsys):
    """obs-report pointed at a fleet checkpoint dir renders the latest
    compacted population aggregate."""
    assert (workdir / "fleet-state").is_dir()
    assert main(["obs-report", str(workdir / "fleet-state")]) == 0
    out = capsys.readouterr().out
    assert "fleet state dir" in out
    assert "2 homes folded" in out


def test_fleet_cli_resume_of_complete_run_is_noop(workdir, capsys):
    """--resume over a finished checkpoint re-runs nothing, same bytes."""
    assert (workdir / "fleet-state").is_dir()
    code = main(
        [
            "fleet", "--homes", "2", "--jobs", "1",
            "--manual", "2", "--non-manual", "3", "--attacks", "1",
            "--state-dir", str(workdir / "fleet-state"), "--resume",
            "--out", str(workdir / "fleet-resumed.json"),
        ]
    )
    assert code == 0 and capsys.readouterr().out.strip()
    assert (
        (workdir / "fleet-resumed.json").read_bytes()
        == (workdir / "fleet-report.json").read_bytes()
    )
