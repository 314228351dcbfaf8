"""Scalar reference implementations that the vectorized library code must match.

These are the straightforward per-cut, per-window and per-touch loops the
library used before it was vectorized.  They are kept here, outside the package,
only as test oracles: property tests assert that the library reproduces
them bit for bit.
"""

from typing import List

import numpy as np

from repro.features import AXIS_STATS, windows_to_matrix
from repro.sensors.motion import GRAVITY, SAMPLE_RATE_HZ, MotionKind
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


def _tremor(n: int, rng: np.random.Generator, amplitude: float) -> np.ndarray:
    """Low-frequency hand tremor: smoothed Gaussian noise (random walk-ish)."""
    raw = rng.normal(0.0, amplitude, size=n)
    width = min(25, n)
    kernel = np.ones(width) / width
    smoothed = np.convolve(raw, kernel, mode="same")
    return smoothed[:n]


def _touch_impulses(
    n: int, rng: np.random.Generator, n_touches: int, intensity: float
) -> np.ndarray:
    """Sparse exponential-decay impulses modelling display touches."""
    signal = np.zeros(n)
    if n_touches <= 0:
        return signal
    positions = rng.integers(0, max(1, n - 40), size=n_touches)
    for pos in positions:
        width = int(rng.integers(10, 40))
        peak = intensity * rng.uniform(0.6, 1.4)
        decay = np.exp(-np.arange(width) / (width / 4.0))
        end = min(n, pos + width)
        signal[pos:end] += peak * decay[: end - pos]
    return signal


def scalar_window(
    kind: MotionKind,
    duration_s: float = 1.0,
    rate_hz: int = SAMPLE_RATE_HZ,
    intensity: float = 1.0,
    rng: np.random.Generator = None,
) -> np.ndarray:
    """One ``(n, 6)`` sensor window, drawn with one ``Generator`` call per value."""
    n = max(8, int(round(duration_s * rate_hz)))
    window = np.empty((n, 6))
    window[:, 0:3] = rng.normal(0.0, 0.02, size=(n, 3))
    window[:, 2] += GRAVITY
    window[:, 3:6] = rng.normal(0.0, 0.005, size=(n, 3))
    if kind is MotionKind.HUMAN:
        n_touches = int(rng.integers(1, 5))
        for axis in range(3):
            window[:, axis] += _tremor(n, rng, 0.05 * intensity)
            window[:, axis] += _touch_impulses(n, rng, n_touches, 0.8 * intensity) * rng.uniform(
                0.3, 1.0
            )
        for axis in range(3, 6):
            window[:, axis] += _tremor(n, rng, 0.02 * intensity)
            window[:, axis] += _touch_impulses(n, rng, n_touches, 0.25 * intensity) * rng.uniform(
                0.3, 1.0
            )
    return window


def scalar_humanness_dataset(
    n_per_class: int, ambiguous_fraction: float = 0.15, duration_s: float = 1.0, seed: int = 0
):
    """``generate_humanness_dataset`` as a loop of :func:`scalar_window` calls."""
    rng = np.random.default_rng(seed)
    windows = []
    labels = []
    for i in range(n_per_class):
        ambiguous = (i / max(1, n_per_class)) < ambiguous_fraction
        intensity = rng.uniform(0.02, 0.12) if ambiguous else rng.uniform(0.5, 1.5)
        windows.append(scalar_window(MotionKind.HUMAN, duration_s, intensity=intensity, rng=rng))
        labels.append("human")
    for _ in range(n_per_class):
        windows.append(scalar_window(MotionKind.NON_HUMAN, duration_s, rng=rng))
        labels.append("non_human")
    return windows_to_matrix(windows), np.asarray(labels)
