"""Cross-commit golden pin for the fleet report.

One fixed serial 12-home fleet — attacks in every home, lossy networks in
a quarter of them, and one home that journals its security state under a
state root (``recover=True``) — must keep producing the same report bytes
and the same merged metrics snapshot.  ``golden/fleet.json`` holds both
SHA-256 digests.

A change that is meant to alter the report updates ``golden/fleet.json``
through ``tools/regen_golden.py``, visibly, in the same commit, and bumps
``repro.fleet.checkpoint.FLEET_STATE_FORMAT``: a state dir holding the
old results must be refused on resume, not folded into the new report.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.fleet import FleetRunner, FleetSpec, generate_fleet

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
REGEN_TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "regen_golden.py")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "fleet.json")

#: the home that journals its state (``recover=True``)
RECOVER_IDX = 3


def golden_spec() -> FleetSpec:
    spec = generate_fleet(
        12,
        seed=0,
        n_manual=2,
        n_non_manual=3,
        n_attacks=1,
        n_training_events=60,
        fault_fraction=0.25,
    )
    homes = list(spec.homes)
    homes[RECOVER_IDX] = dataclasses.replace(homes[RECOVER_IDX], recover=True)
    return FleetSpec(name=spec.name, seed=spec.seed, homes=tuple(homes))


def run_golden_fleet(state_root):
    """Run the golden fleet serially; return ``(spec, report, results)``."""
    spec = golden_spec()
    results = {}
    report = FleetRunner(
        spec,
        jobs=1,
        backend="serial",
        state_root=state_root,
        on_result=lambda idx, result: results.__setitem__(idx, result),
    ).run()
    return spec, report, [results[idx] for idx in range(len(spec.homes))]


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digests(report):
    """The pinned digests of one fleet report (``golden/fleet.json``)."""
    return {
        "report_sha256": sha256(report.to_json()),
        "snapshot_sha256": sha256(report.snapshot().to_json()),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    return run_golden_fleet(str(tmp_path_factory.mktemp("golden-fleet")))


def test_fleet_mix(golden_run):
    spec, report, results = golden_run
    assert report.ok and report.n_homes == 12
    assert results[RECOVER_IDX].recovery_epoch is not None
    assert any(home.faults for home in spec.homes)


def test_report_digest(golden_run, golden):
    _, report, _ = golden_run
    assert sha256(report.to_json()) == golden["report_sha256"]


def test_snapshot_digest(golden_run, golden):
    _, report, _ = golden_run
    assert sha256(report.snapshot().to_json()) == golden["snapshot_sha256"]


def test_regen_tool_refuses_without_reason():
    run = subprocess.run(
        [sys.executable, REGEN_TOOL], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 2 and "--reason" in run.stderr
