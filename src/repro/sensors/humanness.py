"""Humanness validation (paper §5.4, "Human Input Validation").

FIAT adopts zkSENSE's approach: an ML classifier over 48 features of the
accelerometer and gyroscope decides whether a *human* was physically
interacting with the phone.  The paper uses the best model from that
study — a **9-layer decision tree** — reporting ~0.95 recall there and
0.934 / 0.982 (human / non-human) in its own Table 6.

:class:`HumannessValidator` packages dataset generation, training and
validation; the ambiguity mix (a fraction of low-intensity human
windows) reproduces the imperfect recall that drives FIAT's FP-M / FN
rates in the Appendix-A model.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..features.sensor_features import N_SENSOR_FEATURES, _block_features, sensor_features
from ..ml.metrics import precision_recall_f1
from ..ml.tree import DecisionTreeClassifier
from .motion import SAMPLE_RATE_HZ, _synthesize_blocks, _window_length

__all__ = ["generate_humanness_dataset", "HumannessValidator"]

#: Label strings used by the validator's classifier.
HUMAN_LABEL = "human"
NON_HUMAN_LABEL = "non_human"


def generate_humanness_dataset(
    n_per_class: int = 200,
    ambiguous_fraction: float = 0.15,
    duration_s: float = 1.0,
    seed: Optional[int] = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a labelled 48-feature humanness dataset.

    ``ambiguous_fraction`` of the human windows use very low touch
    intensity (a barely-moving phone), producing the borderline samples
    that keep the validator's recall below 1 — as in the paper.  The
    windows are synthesized and reduced to features in blocks, without
    building each ``(n, 6)`` window.
    """
    levels = [
        (0.02, 0.12) if (i / max(1, n_per_class)) < ambiguous_fraction else (0.5, 1.5)
        for i in range(n_per_class)
    ] + [None] * n_per_class
    X = np.empty((len(levels), N_SENSOR_FEATURES))
    n = _window_length(duration_s, SAMPLE_RATE_HZ)
    for start, stack in _synthesize_blocks(levels, n, np.random.default_rng(seed)):
        X[start : start + len(stack)] = _block_features(stack)
    return X, np.asarray([HUMAN_LABEL] * n_per_class + [NON_HUMAN_LABEL] * n_per_class)


class HumannessValidator:
    """Decision-tree humanness detector over 48 motion features.

    Parameters
    ----------
    max_depth:
        Tree depth; the paper uses the 9-layer tree found best by
        zkSENSE.
    n_train_per_class / ambiguous_fraction / seed:
        Training-data generation knobs (see
        :func:`generate_humanness_dataset`).
    """

    def __init__(
        self,
        max_depth: int = 9,
        n_train_per_class: int = 300,
        ambiguous_fraction: float = 0.15,
        seed: Optional[int] = 0,
    ) -> None:
        self.max_depth = max_depth
        self.n_train_per_class = n_train_per_class
        self.ambiguous_fraction = ambiguous_fraction
        self.seed = seed
        self._tree: Optional[DecisionTreeClassifier] = None

    def fit(self) -> "HumannessValidator":
        """Train on a freshly generated labelled dataset."""
        X, y = generate_humanness_dataset(
            n_per_class=self.n_train_per_class,
            ambiguous_fraction=self.ambiguous_fraction,
            seed=self.seed,
        )
        self._tree = DecisionTreeClassifier(max_depth=self.max_depth, seed=self.seed)
        self._tree.fit(X, y)
        return self

    def _ensure_fitted(self) -> DecisionTreeClassifier:
        if self._tree is None:
            self.fit()
        assert self._tree is not None
        return self._tree

    def is_human(self, window: np.ndarray) -> bool:
        """Validate one raw sensor window ``(n_samples, 6)``."""
        tree = self._ensure_fitted()
        features = sensor_features(window).reshape(1, -1)
        return tree.predict(features)[0] == HUMAN_LABEL

    def is_human_features(self, features: Sequence[float]) -> bool:
        """Validate a pre-extracted 48-feature vector.

        This is the form FIAT uses in deployment: the *app* extracts the
        features and the *proxy* runs the classifier, so raw sensor data
        never leaves the phone unprocessed.  ``features`` is one row (a
        sequence of floats, or a 1-D or ``(1, 48)`` array); NaN or
        infinite values raise :class:`ValueError`.
        """
        tree = self._ensure_fitted()
        return tree.predict(features)[0] == HUMAN_LABEL

    def evaluate(
        self, n_per_class: int = 200, seed: Optional[int] = 1
    ) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        """Precision/recall on held-out windows.

        Returns ``((precision_human, recall_human),
        (precision_non_human, recall_non_human))`` — the middle columns
        of Table 6.
        """
        tree = self._ensure_fitted()
        X, y = generate_humanness_dataset(
            n_per_class=n_per_class,
            ambiguous_fraction=self.ambiguous_fraction,
            seed=seed,
        )
        predictions = tree.predict(X)
        human_p, human_r, _ = precision_recall_f1(y, predictions, HUMAN_LABEL)
        non_p, non_r, _ = precision_recall_f1(y, predictions, NON_HUMAN_LABEL)
        return (human_p, human_r), (non_p, non_r)
