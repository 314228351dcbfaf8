"""Cross-commit golden pin for the proxy's decision path.

One fixed scenario — three devices (rule, ML and speaker), packet loss,
duplicates and a validation outage — must keep producing the same
decision log and the same snapshot bytes.  Any change to the packet path
that is meant to be behaviour-preserving has to leave both digests
untouched; a change that is meant to alter decisions updates them here,
visibly, in the same commit.
"""

import hashlib
import json

import pytest

from repro.core import FiatConfig, FiatSystem
from repro.faults import FaultPlan, OutageWindow

DECISION_LOG_SHA256 = "6e153f529d3029eb7bb678ca452d6300784cb2d091ff323bc87e2cb19bf91580"
SNAPSHOT_SHA256 = "6993e8105fd793f26e4b7c1cb786fb49c454c347b94efce01c44b1b7a28b9aae"


@pytest.fixture(scope="module")
def golden_proxy():
    system = FiatSystem(
        ["EchoDot4", "SP10", "WyzeCam"],
        config=FiatConfig(bootstrap_s=0.0),
        seed=0,
        n_training_events=120,
    )
    system.run_accuracy(
        n_manual=10,
        n_non_manual=20,
        n_attacks=10,
        faults=FaultPlan(
            seed=7,
            loss_rate=0.2,
            duplicate_rate=0.05,
            outages=(OutageWindow("validation", 100.0, 300.0),),
        ),
    )
    return system.proxy


def test_decision_log_digest(golden_proxy):
    digest = hashlib.sha256(golden_proxy.decision_log()).hexdigest()
    assert digest == DECISION_LOG_SHA256


def test_snapshot_digest(golden_proxy):
    payload = json.dumps(golden_proxy.snapshot(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == SNAPSHOT_SHA256
