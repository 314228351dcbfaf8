"""The proxy's one-event classification path against the batch path.

The proxy classifies each unpredictable event on its own
(``EventClassifier.classify_packets`` → ``event_features`` → one
validated row through the scaler and the BernoulliNB posterior), while
training and evaluation featurize whole event lists at once
(``events_to_matrix``) and predict them through ``predict``.  Both must
give the same feature bytes and so the same decisions, for every ML
device of the testbed, with observability on (where each decision is
timed into ``ml_predict_latency_ms``) as well as off.
"""

import numpy as np
import pytest

from repro.core.classifier import train_event_classifier
from repro.features import event_features, events_to_matrix
from repro.obs import Observability
from repro.testbed import TESTBED, generate_labeled_events
from tests.conftest import make_packet

ML_PROFILES = sorted(name for name, profile in TESTBED.items() if not profile.uses_simple_rules)


def labelled_events(name, seed):
    return generate_labeled_events(
        name, n_manual=100, n_automated=100, n_control=100, seed=seed
    )


def test_testbed_has_ml_devices():
    assert len(ML_PROFILES) >= 5


def assert_one_event_decisions_match_batch(name, first_n, obs=None):
    classifier = train_event_classifier(
        TESTBED[name], labelled_events(name, seed=1), first_n=first_n, obs=obs
    )
    events = labelled_events(name, seed=2)
    assert len(events) >= 300
    batch = classifier.model.predict(
        classifier.scaler.transform(events_to_matrix(events, first_n))
    )
    one_by_one = [classifier.classify_packets(event.first_n(first_n)) for event in events]
    assert one_by_one == [str(label) for label in batch]
    assert len(set(one_by_one)) > 1
    return len(events)


@pytest.mark.parametrize("name", ML_PROFILES)
@pytest.mark.parametrize("first_n", [5, 8])
def test_one_event_decisions_match_batch(name, first_n):
    assert_one_event_decisions_match_batch(name, first_n)


@pytest.mark.parametrize("name", ML_PROFILES)
@pytest.mark.parametrize("first_n", [5, 8])
def test_one_event_decisions_match_batch_observed(name, first_n):
    """With observability on, each decision is also timed, once."""
    obs = Observability()
    n_events = assert_one_event_decisions_match_batch(name, first_n, obs)
    timed = obs.registry.get_histogram(
        "ml_predict_latency_ms", model="BernoulliNB", device=name
    )
    assert timed is not None and timed.count == n_events


@pytest.mark.parametrize("name", ML_PROFILES)
def test_one_event_features_match_one_row_matrix(name):
    events = labelled_events(name, seed=3)
    assert max(len(event) for event in events) >= 8
    for n in range(1, 13):
        for event in events:
            row = event_features(event, n)
            assert row.dtype == np.float64
            assert row.tobytes() == events_to_matrix([event], n)[0].tobytes()


@pytest.fixture(scope="module")
def first_ml_classifier():
    name = ML_PROFILES[0]
    return train_event_classifier(TESTBED[name], labelled_events(name, seed=1)), name


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_packet_raises(first_ml_classifier, bad):
    classifier, name = first_ml_classifier
    packets = labelled_events(name, seed=2)[0].first_n(5)
    poisoned = [make_packet(timestamp=packets[0].timestamp, size=bad)] + list(packets[1:])
    with pytest.raises(ValueError, match="NaN or infinite"):
        classifier.classify_packets(poisoned)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_row_raises(first_ml_classifier, bad):
    classifier, name = first_ml_classifier
    row = classifier.scaler.transform(events_to_matrix(labelled_events(name, seed=2)[:1]))
    row[0, 3] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        classifier.model.predict(row)
    with pytest.raises(ValueError, match="NaN or infinite"):
        classifier.model.predict_proba(row)
