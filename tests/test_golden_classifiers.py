"""Cross-commit golden pins for the per-device event classifiers.

Every ML device of the testbed trains a scaled BernoulliNB on the 66
features of its labelled training events (paper §4.1, deployed per §6
fn. 2).  ``golden/classifiers.json`` pins, per ML ``TESTBED`` device at a
fixed seed, the rendered packets, the feature-matrix bytes, the labels and
the fitted scaler and BernoulliNB parameters, plus the Table-6 per-device
rows of one small ``FiatSystem.run_accuracy``.  A change to how events are
rendered or featurized that is meant to be behaviour-preserving must leave
every digest untouched; a change meant to alter them goes through
``tools/regen_golden.py``, visibly, in the same commit.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from repro.core import FiatConfig, FiatSystem, train_event_classifier
from repro.features import event_labels, events_to_matrix
from repro.testbed import TESTBED, generate_labeled_events

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "classifiers.json")

#: the ML devices (every testbed device not decided by a size rule)
ML_DEVICES = tuple(name for name, profile in TESTBED.items() if not profile.uses_simple_rules)
#: training-set shape of a ``FiatSystem`` built with ``n_training_events=60``
TRAINING = dict(n_manual=30, n_automated=60, n_control=60, seed=7)
#: the small Table-6 run over the whole testbed
ACCURACY_RUN = dict(n_manual=10, n_non_manual=20, n_attacks=6)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def _array_digest(*arrays):
    return sha256(b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays))


def classifier_pins(device):
    """The pinned digests of one ML device's training set and fitted model."""
    events = generate_labeled_events(device, **TRAINING)
    packets = [packet.to_dict() for event in events for packet in event.packets]
    labels = event_labels(events)
    classifier = train_event_classifier(TESTBED[device], events)
    model, scaler = classifier.model, classifier.scaler
    return {
        "packets_sha256": sha256(json.dumps(packets, sort_keys=True).encode()),
        "matrix_sha256": _array_digest(events_to_matrix(events)),
        "labels_sha256": sha256("\n".join(labels.tolist()).encode()),
        "scaler_sha256": _array_digest(scaler.mean_, scaler.scale_),
        "model_sha256": sha256(
            "\n".join(model.classes_.tolist()).encode()
            + np.ascontiguousarray(model.class_log_prior_).tobytes()
            + np.ascontiguousarray(model.feature_log_prob_).tobytes()
        ),
    }


def accuracy_rows():
    """Table-6 per-device rows of the small fixed-seed accuracy run."""
    system = FiatSystem(
        list(TESTBED),
        config=FiatConfig(bootstrap_s=0.0),
        seed=0,
        n_training_events=60,
    )
    results = system.run_accuracy(**ACCURACY_RUN)
    return {device: dataclasses.asdict(row) for device, row in results.items()}


def classifiers_golden():
    """Everything ``golden/classifiers.json`` holds."""
    return {
        "classifiers": {device: classifier_pins(device) for device in ML_DEVICES},
        "table6_rows": accuracy_rows(),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_pins_cover_every_ml_device(golden):
    assert sorted(golden["classifiers"]) == sorted(ML_DEVICES)
    assert len(ML_DEVICES) == 7


@pytest.mark.parametrize("device", ML_DEVICES)
def test_classifier_digests(device, golden):
    assert classifier_pins(device) == golden["classifiers"][device]


def test_table6_rows(golden):
    assert accuracy_rows() == golden["table6_rows"]
