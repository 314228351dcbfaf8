"""Per-device manual-event classifier (paper §4, deployed per §6 fn. 2).

Two flavours, exactly as the paper deploys them:

* **simple rules** for SP10, WP3 and Nest-E: their manual notification
  packets have a distinctive size (235 / 239 / 267 bytes), so the first
  packet's size decides;
* **BernoulliNB** (sklearn defaults; here :class:`repro.ml.BernoulliNB`)
  over the 66 features of the first 5 packets for every other device,
  chosen over the slightly-more-accurate NCC for its better
  cross-location transferability (§4.3).

The classifier is three-way (control / automated / manual) but the proxy
only cares about manual vs non-manual; :meth:`EventClassifier.is_manual`
collapses accordingly.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Sequence

from ..events.grouping import UnpredictableEvent
from ..features.packet_features import event_features, event_labels, events_to_matrix
from ..ml.base import Classifier, check_X
from ..ml.naive_bayes import BernoulliNB
from ..ml.preprocessing import StandardScaler
from ..net.packet import Packet
from ..obs import NULL_OBS, Observability
from ..testbed.devices import DeviceProfile

__all__ = ["EventClassifier", "SimpleRuleClassifier", "train_event_classifier"]


class SimpleRuleClassifier:
    """First-packet-size rule for simple devices (§4, first paragraph)."""

    def __init__(self, manual_size: int, tolerance: int = 0) -> None:
        self.manual_size = manual_size
        self.tolerance = tolerance

    def is_manual_packets(self, packets: Sequence[Packet]) -> bool:
        """Manual iff the first packet has the distinctive size."""
        if not packets:
            return False
        return abs(packets[0].size - self.manual_size) <= self.tolerance


class EventClassifier:
    """Deployable per-device classifier: rules or scaled BernoulliNB."""

    def __init__(
        self,
        device: str,
        first_n: int = 5,
        rule: Optional[SimpleRuleClassifier] = None,
        model: Optional[Classifier] = None,
        scaler: Optional[StandardScaler] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if rule is None and model is None:
            raise ValueError("either a rule or a trained model is required")
        self.device = device
        self.first_n = first_n
        self.rule = rule
        self.model = model
        self.scaler = scaler
        self.obs = obs if obs is not None else NULL_OBS

    @property
    def uses_rules(self) -> bool:
        """Whether this classifier is the simple size rule."""
        return self.rule is not None

    def classify_packets(self, packets: Sequence[Packet]) -> str:
        """Label an event prefix: ``control``/``automated``/``manual``."""
        if self.rule is not None:
            return "manual" if self.rule.is_manual_packets(packets) else "automated"
        event = UnpredictableEvent(packets=list(packets))
        row = event_features(event, self.first_n).reshape(1, -1)
        # The one validation of the row (finite, scaler-wide); the model
        # then predicts it without checking it again.
        row = self.scaler.transform(row) if self.scaler is not None else check_X(row)
        assert self.model is not None
        if not self.obs.enabled:
            return str(self.model._predict_checked(row)[0])
        t0 = perf_counter()
        label = self.model._predict_checked(row)[0]
        self.obs.observe(
            "ml_predict_latency_ms",
            (perf_counter() - t0) * 1000.0,
            model=type(self.model).__name__,
            device=self.device,
        )
        return str(label)

    def is_manual(self, packets: Sequence[Packet]) -> bool:
        """Collapse to the manual / non-manual decision the proxy needs."""
        return self.classify_packets(packets) == "manual"


def train_event_classifier(
    profile: DeviceProfile,
    training_events: Optional[Sequence[UnpredictableEvent]] = None,
    first_n: int = 5,
    model: Optional[Classifier] = None,
    obs: Optional[Observability] = None,
) -> EventClassifier:
    """Build a device's classifier the way the paper deploys it.

    Rule devices need no training data; ML devices train (by default)
    a BernoulliNB on scaled features of the provided labelled events.
    """
    if profile.uses_simple_rules:
        assert profile.simple_rule_size is not None
        return EventClassifier(
            device=profile.name,
            first_n=first_n,
            rule=SimpleRuleClassifier(profile.simple_rule_size),
            obs=obs,
        )
    if not training_events:
        raise ValueError(f"{profile.name} needs labelled training events")
    X = events_to_matrix(training_events, first_n)
    y = event_labels(training_events)
    scaler = StandardScaler()
    Xs = scaler.fit_transform(X)
    estimator = model if model is not None else BernoulliNB()
    estimator.fit(Xs, y)
    return EventClassifier(
        device=profile.name, first_n=first_n, model=estimator, scaler=scaler, obs=obs
    )
