"""Unit tests for motion synthesis and humanness validation."""

import numpy as np
import pytest

from repro.sensors import (
    GRAVITY,
    SAMPLE_RATE_HZ,
    HumannessValidator,
    MotionKind,
    generate_humanness_dataset,
    synthesize_window,
)
from repro.sensors.motion import _WordStream
from repro.util import spawn_seed

from oracles import scalar_humanness_dataset, scalar_window


def entry_generator(seed, has_uint32):
    """A PCG64 generator whose 32-bit half-word buffer is empty or full."""
    rng = np.random.default_rng(seed)
    if has_uint32:
        rng.integers(0, 7)
    assert rng.bit_generator.state["has_uint32"] == has_uint32
    return rng


class TestMotionSynthesis:
    def test_window_shape(self, rng):
        window = synthesize_window(MotionKind.HUMAN, duration_s=1.0, rng=rng)
        assert window.shape == (SAMPLE_RATE_HZ, 6)

    def test_gravity_on_z(self, rng):
        window = synthesize_window(MotionKind.NON_HUMAN, rng=rng)
        assert window[:, 2].mean() == pytest.approx(GRAVITY, abs=0.1)

    def test_still_phone_is_quiet(self, rng):
        window = synthesize_window(MotionKind.NON_HUMAN, rng=rng)
        assert window[:, 3:6].std() < 0.02  # gyro nearly silent

    def test_human_motion_is_loud(self, rng):
        human = synthesize_window(MotionKind.HUMAN, intensity=1.0, rng=rng)
        still = synthesize_window(MotionKind.NON_HUMAN, rng=rng)
        assert human[:, 3:6].std() > 3 * still[:, 3:6].std()

    def test_intensity_scales_motion(self, rng):
        gentle = synthesize_window(MotionKind.HUMAN, intensity=0.05, rng=rng)
        strong = synthesize_window(MotionKind.HUMAN, intensity=2.0, rng=rng)
        # compare x/y accelerometer jitter (z carries constant gravity)
        assert strong[:, 0:2].std() > gentle[:, 0:2].std()

    def test_minimum_length(self, rng):
        window = synthesize_window(MotionKind.HUMAN, duration_s=0.001, rng=rng)
        assert window.shape[0] >= 8

    def test_deterministic_with_seed(self):
        a = synthesize_window(MotionKind.HUMAN, rng=np.random.default_rng(5))
        b = synthesize_window(MotionKind.HUMAN, rng=np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestMatchesScalarOracle:
    """The block kernel gives the per-window loop's bytes and generator state."""

    @pytest.mark.parametrize("kind", list(MotionKind))
    @pytest.mark.parametrize("duration_s", [0.001, 0.2, 1.0, 1.2, 2.0])
    @pytest.mark.parametrize("has_uint32", [0, 1])
    def test_window(self, kind, duration_s, has_uint32):
        for seed, intensity in enumerate([0.02, 0.07, 0.5, 1.0, 1.5, 2.0]):
            expected_rng = entry_generator(seed, has_uint32)
            rng = entry_generator(seed, has_uint32)
            expected = scalar_window(kind, duration_s, intensity=intensity, rng=expected_rng)
            window = synthesize_window(kind, duration_s, intensity=intensity, rng=rng)
            assert window.shape == expected.shape
            assert window.tobytes() == expected.tobytes()
            assert rng.bit_generator.state == expected_rng.bit_generator.state

    @pytest.mark.parametrize("n_per_class", [1, 64, 130, 300])
    def test_dataset(self, n_per_class):
        for seed in (0, spawn_seed(7, "validator")):
            X, y = generate_humanness_dataset(n_per_class=n_per_class, seed=seed)
            expected_X, expected_y = scalar_humanness_dataset(n_per_class, seed=seed)
            assert X.tobytes() == expected_X.tobytes()
            assert np.array_equal(y, expected_y) and y.dtype == expected_y.dtype


class TestStreamContract:
    """Raw-word replay against NumPy's own ``Generator`` algorithms.

    If a NumPy release changes how ``integers`` or ``uniform`` consume a
    PCG64 stream, these tests name the break.
    """

    @staticmethod
    def replay(rng, draw):
        stream = _WordStream(rng)
        values = draw(stream)
        stream.close()
        return values

    @pytest.mark.parametrize("has_uint32", [0, 1])
    # (0, 1) is a width-1 range: NumPy returns ``low`` and draws nothing.
    @pytest.mark.parametrize("low, high", [(0, 1), (1, 5), (10, 40), (0, 210), (0, 3 * 2**30)])
    def test_integers(self, low, high, has_uint32):
        expected_rng = entry_generator(3, has_uint32)
        expected = [int(expected_rng.integers(low, high)) for _ in range(50)]
        expected += expected_rng.integers(low, high, size=150).tolist()
        rng = entry_generator(3, has_uint32)
        values = self.replay(rng, lambda s: [s.integers(low, high) for _ in range(200)])
        assert values == expected
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_lemire_rejection_fires(self):
        # 2**32 % (3 * 2**30) == 2**30: about a quarter of the draws are rejected.
        rng = np.random.default_rng(0)
        stream = _WordStream(rng)
        next64 = stream._next64
        words = []

        def counted_next64():
            words.append(next64())
            return words[-1]

        stream._next64 = counted_next64
        for _ in range(400):
            stream.integers(0, 3 * 2**30)
        assert len(words) > 220  # 200 words without rejection

    @pytest.mark.parametrize("has_uint32", [0, 1])
    def test_uniform_interleaved_with_integers(self, has_uint32):
        ops = [(0.02, 0.12), (1, 5), (0.6, 1.4), (10, 40), (10, 40), (0.3, 1.0), (0, 3 * 2**30)] * 30
        expected_rng = entry_generator(5, has_uint32)
        expected = [
            expected_rng.uniform(*op) if isinstance(op[0], float) else int(expected_rng.integers(*op))
            for op in ops
        ]
        rng = entry_generator(5, has_uint32)
        values = self.replay(
            rng,
            lambda s: [s.uniform(*op) if isinstance(op[0], float) else s.integers(*op) for op in ops],
        )
        assert values == expected
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_non_pcg64_generator_rejected(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(TypeError):
            synthesize_window(MotionKind.HUMAN, rng=rng)


class TestHumannessDataset:
    def test_shape_and_labels(self):
        X, y = generate_humanness_dataset(n_per_class=10, seed=0)
        assert X.shape == (20, 48)
        assert sorted(set(y)) == ["human", "non_human"]

    def test_deterministic(self):
        X1, _ = generate_humanness_dataset(n_per_class=5, seed=3)
        X2, _ = generate_humanness_dataset(n_per_class=5, seed=3)
        assert np.array_equal(X1, X2)


class TestHumannessValidator:
    @pytest.fixture(scope="class")
    def validator(self):
        return HumannessValidator(n_train_per_class=150, seed=0).fit()

    def test_detects_clear_human(self, validator, rng):
        hits = sum(
            validator.is_human(synthesize_window(MotionKind.HUMAN, intensity=1.2, rng=rng))
            for _ in range(30)
        )
        assert hits >= 28

    def test_rejects_still_phone(self, validator, rng):
        rejections = sum(
            not validator.is_human(synthesize_window(MotionKind.NON_HUMAN, rng=rng))
            for _ in range(30)
        )
        assert rejections >= 26

    def test_feature_level_api(self, validator, rng):
        from repro.features import sensor_features

        window = synthesize_window(MotionKind.HUMAN, intensity=1.2, rng=rng)
        assert validator.is_human_features(sensor_features(window))

    def test_evaluation_recall_paper_band(self, validator):
        (hp, hr), (np_, nr) = validator.evaluate(n_per_class=150, seed=9)
        # Paper Table 6: human 0.992/0.934, non-human 0.938/0.982.
        assert hr > 0.85
        assert nr > 0.9
        assert hp > 0.9 and np_ > 0.85

    def test_lazy_fit(self, rng):
        validator = HumannessValidator(n_train_per_class=60, seed=1)
        window = synthesize_window(MotionKind.NON_HUMAN, rng=rng)
        assert validator.is_human(window) in (True, False)  # fits on demand
