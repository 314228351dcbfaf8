"""Scalar reference implementations that the vectorized library code must match.

These are the straightforward per-cut and per-window loops the library
used before it was vectorized.  They are kept here, outside the package,
only as test oracles: property tests assert that the library reproduces
them bit for bit.
"""

from typing import List

import numpy as np

from repro.features import AXIS_STATS
from repro.ml.tree import DecisionTreeClassifier, _gini, _midpoint


class ScalarSplitTree(DecisionTreeClassifier):
    """CART tree whose split search walks every cut in a Python loop."""

    def _best_split(self, X, y_idx, features, n_classes):
        parent_counts = np.bincount(y_idx, minlength=n_classes)
        parent_gini = _gini(parent_counts)
        n = len(y_idx)
        best = None
        best_gain = 1e-12
        for feature in features:
            order = np.argsort(X[:, feature], kind="mergesort")
            values = X[order, feature]
            labels = y_idx[order]
            left = np.zeros(n_classes)
            right = parent_counts.astype(float).copy()
            for i in range(n - 1):
                left[labels[i]] += 1
                right[labels[i]] -= 1
                if values[i] == values[i + 1]:
                    continue
                n_left = i + 1
                n_right = n - n_left
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                gain = parent_gini - (
                    n_left * _gini(left) + n_right * _gini(right)
                ) / n
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), _midpoint(values[i], values[i + 1]))
        return best


def tree_lines(tree: DecisionTreeClassifier) -> List[str]:
    """Pre-order ``feature threshold.hex() counts`` lines of a fitted tree."""
    lines = []
    stack = [tree._root]
    while stack:
        node = stack.pop()
        counts = ",".join(str(int(c)) for c in node.counts)
        lines.append(f"{node.feature} {float(node.threshold).hex()} {counts}")
        if not node.is_leaf:
            stack.extend((node.right, node.left))
    return lines


def _count_peaks(samples: np.ndarray) -> int:
    if len(samples) < 3:
        return 0
    threshold = samples.mean() + samples.std()
    interior = samples[1:-1]
    is_peak = (interior > samples[:-2]) & (interior > samples[2:]) & (interior > threshold)
    return int(np.count_nonzero(is_peak))


def axis_statistics(samples: np.ndarray) -> List[float]:
    """The 8 per-axis statistics of one axis, one reduction at a time."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return [0.0] * len(AXIS_STATS)
    diffs = np.abs(np.diff(samples)) if samples.size > 1 else np.zeros(1)
    return [
        float(samples.mean()),
        float(samples.std()),
        float(samples.min()),
        float(samples.max()),
        float(samples.max() - samples.min()),
        float(np.sqrt(np.mean(samples**2))),
        float(diffs.mean()),
        float(_count_peaks(samples)),
    ]


def window_features(window: np.ndarray) -> np.ndarray:
    """48 sensor features of one ``(n_samples, 6)`` window, axis by axis."""
    window = np.asarray(window, dtype=float)
    row: List[float] = []
    for axis in range(window.shape[1]):
        row.extend(axis_statistics(window[:, axis]))
    return np.asarray(row, dtype=float)
