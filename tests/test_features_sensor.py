"""Unit tests for the 48 motion-sensor features (§5.4 / zkSENSE)."""

import numpy as np
import pytest

from repro.features import (
    AXIS_STATS,
    N_SENSOR_FEATURES,
    SENSOR_AXES,
    SENSOR_FEATURE_NAMES,
    sensor_features,
    windows_to_matrix,
)
from repro.features.sensor_features import BLOCK_WINDOWS
from repro.sensors import MotionKind, synthesize_window

from oracles import window_features


def axis_stats(signal):
    """Named statistics of ``signal`` fed to every axis of one window."""
    window = np.tile(np.asarray(signal, dtype=float)[:, None], (1, len(SENSOR_AXES)))
    return dict(zip(AXIS_STATS, sensor_features(window)[: len(AXIS_STATS)]))


class TestLayout:
    def test_exactly_48(self):
        assert N_SENSOR_FEATURES == 48
        assert len(SENSOR_FEATURE_NAMES) == 48
        assert len(SENSOR_AXES) * len(AXIS_STATS) == 48

    def test_feature_vector_shape(self, rng):
        window = synthesize_window(MotionKind.HUMAN, rng=rng)
        assert sensor_features(window).shape == (48,)

    def test_bad_window_shape_rejected(self):
        with pytest.raises(ValueError):
            sensor_features(np.zeros((10, 3)))


class TestAxisStatistics:
    def test_constant_signal(self):
        named = axis_stats(np.full(100, 5.0))
        assert named["mean"] == 5.0
        assert named["std"] == 0.0
        assert named["range"] == 0.0
        assert named["mad"] == 0.0
        assert named["peaks"] == 0.0

    def test_empty_signal(self):
        assert list(axis_stats(np.array([])).values()) == [0.0] * 8

    def test_peak_counting(self):
        signal = np.zeros(50)
        signal[10] = 10.0
        signal[30] = 12.0
        assert axis_stats(signal)["peaks"] == 2.0

    def test_rms(self):
        named = axis_stats(np.array([3.0, -3.0, 3.0, -3.0]))
        assert named["rms"] == pytest.approx(3.0)


class TestDiscriminativePower:
    def test_human_windows_more_energetic(self, rng):
        human = sensor_features(synthesize_window(MotionKind.HUMAN, rng=rng))
        still = sensor_features(synthesize_window(MotionKind.NON_HUMAN, rng=rng))
        names = list(SENSOR_FEATURE_NAMES)
        # Gyroscope should be basically silent on a still phone.
        gyro_range = names.index("gyro-x-range")
        assert human[gyro_range] > still[gyro_range]

    def test_matrix_stacking(self, rng):
        windows = [synthesize_window(MotionKind.HUMAN, rng=rng) for _ in range(3)]
        assert windows_to_matrix(windows).shape == (3, 48)

    def test_empty_matrix(self):
        assert windows_to_matrix([]).shape == (0, 48)


class TestBatchedMatchesPerWindow:
    """The batched features equal the per-axis oracle bit for bit."""

    @staticmethod
    def assert_bitwise(windows):
        expected = np.array([window_features(w) for w in windows]).reshape(-1, 48)
        assert np.array_equal(windows_to_matrix(windows), expected)
        for window, row in zip(windows, expected):
            assert np.array_equal(sensor_features(window), row)

    def test_random_windows(self, rng):
        self.assert_bitwise([rng.normal(scale=s, size=(250, 6)) for s in (0.01, 1.0, 50.0)])

    def test_motion_windows(self, rng):
        self.assert_bitwise(
            [synthesize_window(kind, rng=rng) for kind in MotionKind for _ in range(4)]
        )

    @pytest.mark.parametrize("n_samples", [0, 1, 2, 3])
    def test_tiny_windows(self, rng, n_samples):
        self.assert_bitwise([rng.normal(size=(n_samples, 6)) for _ in range(3)])

    def test_mixed_lengths_keep_row_order(self, rng):
        lengths = [250, 0, 7, 1, 250, 2, 7, 3, 250]
        self.assert_bitwise([rng.normal(size=(n, 6)) for n in lengths])

    def test_more_windows_than_one_block(self, rng):
        n_windows = 2 * BLOCK_WINDOWS + 5
        lengths = rng.choice([40, 41], size=n_windows)
        self.assert_bitwise([rng.normal(size=(n, 6)) for n in lengths])

    @pytest.mark.parametrize("seed", range(20))
    def test_random_window_lists(self, seed):
        rng = np.random.default_rng(seed)
        n_windows = int(rng.integers(1, 2 * BLOCK_WINDOWS + 8))
        lengths = rng.integers(0, 30, size=n_windows)
        scale = 10.0 ** rng.integers(-3, 5)
        self.assert_bitwise([rng.normal(scale=scale, size=(n, 6)) for n in lengths])

    def test_integer_windows_are_cast(self):
        window = np.arange(60).reshape(10, 6)
        assert np.array_equal(sensor_features(window), window_features(window.astype(float)))
