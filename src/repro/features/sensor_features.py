"""48-feature extraction from motion-sensor windows (paper §5.4).

FIAT's humanness validator follows zkSENSE: a decision-tree classifier
over **48 features extracted from the gyroscope and accelerometer**.
With 6 axes (accelerometer x/y/z + gyroscope x/y/z) and 8 statistics per
axis, the vector is 6 x 8 = 48 features:

``mean``, ``std``, ``min``, ``max``, ``range``, ``rms`` (signal energy),
``mad`` (mean absolute successive difference — captures jerk) and
``peaks`` (count of local maxima above one standard deviation — captures
discrete touch impulses).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "SENSOR_AXES",
    "AXIS_STATS",
    "SENSOR_FEATURE_NAMES",
    "N_SENSOR_FEATURES",
    "sensor_features",
    "windows_to_matrix",
]

#: Sensor axes in feature order.
SENSOR_AXES: Tuple[str, ...] = ("acc-x", "acc-y", "acc-z", "gyro-x", "gyro-y", "gyro-z")

#: Per-axis statistics in feature order.
AXIS_STATS: Tuple[str, ...] = ("mean", "std", "min", "max", "range", "rms", "mad", "peaks")

#: Canonical 48 feature names, ``<axis>-<stat>``.
SENSOR_FEATURE_NAMES: Tuple[str, ...] = tuple(
    f"{axis}-{stat}" for axis in SENSOR_AXES for stat in AXIS_STATS
)

#: Sensor feature vector length (48, matching zkSENSE).
N_SENSOR_FEATURES = len(SENSOR_FEATURE_NAMES)


#: Windows per batched block.  Every statistic makes a temporary as large
#: as the stacked samples: one 600-window block raised the fleet benchmark's
#: peak RSS by ~20 MB, while a 64-window block of 1 s windows is under 1 MB.
BLOCK_WINDOWS = 64


def _check_window(window: np.ndarray) -> np.ndarray:
    window = np.asarray(window, dtype=float)
    if window.ndim != 2 or window.shape[1] != len(SENSOR_AXES):
        raise ValueError(
            f"window must have shape (n, {len(SENSOR_AXES)}), got {window.shape}"
        )
    return window


def _block_features(stack: np.ndarray) -> np.ndarray:
    """Features of equal-length windows stacked as ``(m, 6, n_samples)``.

    Samples are the contiguous last axis, so every reduction runs over
    each axis's samples in the same order as on that axis alone.
    """
    m, n_axes, n = stack.shape
    if n == 0:
        return np.zeros((m, n_axes * len(AXIS_STATS)))
    mean = stack.mean(axis=-1)
    std = stack.std(axis=-1)
    low = stack.min(axis=-1)
    high = stack.max(axis=-1)
    # rms: signal energy
    rms = np.sqrt(np.mean(stack**2, axis=-1))
    # mad: mean absolute successive difference (jerk)
    mad = np.abs(np.diff(stack, axis=-1)).mean(axis=-1) if n > 1 else np.zeros_like(mean)
    # peaks: local maxima above mean + 1 std (discrete touch impulses);
    # with fewer than 3 samples every slice is empty and the count is 0
    interior = stack[..., 1:-1]
    peaks = np.count_nonzero(
        (interior > stack[..., :-2])
        & (interior > stack[..., 2:])
        & (interior > (mean + std)[..., None]),
        axis=-1,
    )
    stats = [mean, std, low, high, high - low, rms, mad, peaks]
    return np.stack(stats, axis=-1).reshape(m, -1)


def sensor_features(window: np.ndarray) -> np.ndarray:
    """48-dimensional feature vector of one sensor window.

    Parameters
    ----------
    window:
        Array of shape ``(n_samples, 6)``: columns are accelerometer
        x/y/z then gyroscope x/y/z, sampled at a fixed rate (the paper
        samples at 250 Hz).
    """
    return windows_to_matrix([window])[0]


def windows_to_matrix(windows: Sequence[np.ndarray]) -> np.ndarray:
    """Stack sensor windows into an ``(n_windows, 48)`` feature matrix.

    Windows of equal length are computed together, in blocks of
    :data:`BLOCK_WINDOWS`; rows keep the order of ``windows``.
    """
    windows = [_check_window(window) for window in windows]
    matrix = np.empty((len(windows), N_SENSOR_FEATURES))
    by_length: Dict[int, List[int]] = {}
    for row, window in enumerate(windows):
        by_length.setdefault(len(window), []).append(row)
    for rows in by_length.values():
        for start in range(0, len(rows), BLOCK_WINDOWS):
            block = rows[start : start + BLOCK_WINDOWS]
            # np.stack would keep each window's (n, 6) layout; copy the
            # samples into a C-ordered (m, 6, n) array instead.
            stack = np.empty((len(block), len(SENSOR_AXES), len(windows[block[0]])))
            for k, row in enumerate(block):
                stack[k] = windows[row].T
            matrix[block] = _block_features(stack)
    return matrix
