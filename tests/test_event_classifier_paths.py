"""The proxy's one-event classification path against the batch path.

The proxy classifies each unpredictable event on its own
(``EventClassifier.classify_packets`` → ``event_features``), while
training and evaluation featurize whole event lists at once
(``events_to_matrix``).  Both must give the same feature bytes and so the
same decisions, for every ML device of the testbed.
"""

import numpy as np
import pytest

from repro.core.classifier import train_event_classifier
from repro.features import event_features, events_to_matrix
from repro.testbed import TESTBED, generate_labeled_events

ML_PROFILES = sorted(name for name, profile in TESTBED.items() if not profile.uses_simple_rules)


def labelled_events(name, seed):
    return generate_labeled_events(
        name, n_manual=100, n_automated=100, n_control=100, seed=seed
    )


def test_testbed_has_ml_devices():
    assert len(ML_PROFILES) >= 5


@pytest.mark.parametrize("name", ML_PROFILES)
@pytest.mark.parametrize("first_n", [5, 8])
def test_one_event_decisions_match_batch(name, first_n):
    classifier = train_event_classifier(
        TESTBED[name], labelled_events(name, seed=1), first_n=first_n
    )
    events = labelled_events(name, seed=2)
    assert len(events) >= 300
    batch = classifier.model.predict(
        classifier.scaler.transform(events_to_matrix(events, first_n))
    )
    one_by_one = [classifier.classify_packets(event.first_n(first_n)) for event in events]
    assert one_by_one == [str(label) for label in batch]
    assert len(set(one_by_one)) > 1


@pytest.mark.parametrize("name", ML_PROFILES)
def test_one_event_features_match_one_row_matrix(name):
    events = labelled_events(name, seed=3)
    assert max(len(event) for event in events) >= 8
    for n in range(1, 13):
        for event in events:
            row = event_features(event, n)
            assert row.dtype == np.float64
            assert row.tobytes() == events_to_matrix([event], n)[0].tobytes()
