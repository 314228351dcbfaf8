"""Synthetic accelerometer / gyroscope traces (paper §5.3-5.4 substrate).

The real FIAT app samples the phone's motion sensors at 250 Hz while an
IoT companion app is in the foreground.  A human physically touching the
display produces force impulses — sharp, correlated bursts across the
accelerometer and gyroscope — superimposed on hand tremor and gravity.
An attacker that injects commands remotely (compromised account) or
simulates touches in software (user-space spyware; the threat model rules
out OS-level sensor forgery) leaves the sensors flat: gravity plus
electronic noise only.

:func:`synthesize_window` generates both kinds of windows with controlled
ambiguity: ``intensity`` scales the human motion, and low intensities
yield the borderline samples responsible for the validator's imperfect
recall (0.934 human / 0.982 non-human in Table 6).
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..features.sensor_features import BLOCK_WINDOWS

__all__ = ["MotionKind", "SAMPLE_RATE_HZ", "GRAVITY", "synthesize_window"]

#: Sampling rate used by FIAT's app (250 samples / second).
SAMPLE_RATE_HZ = 250

#: Standard gravity, m/s^2 (baseline on the accelerometer z axis).
GRAVITY = 9.81


class MotionKind(enum.Enum):
    """Ground-truth of a sensor window."""

    #: A human is holding the phone and touching the display.
    HUMAN = "human"
    #: The phone is untouched (remote attacker / simulated input).
    NON_HUMAN = "non_human"


#: Touch-impulse decay curves, row ``w`` for a touch ``w`` samples wide
#: (widths are drawn from ``[10, 40)``).  Each row is one ``np.exp`` over
#: that width alone, as a single touch's curve is defined.
_DECAY = np.zeros((40, 39))
for _width in range(10, 40):
    _DECAY[_width, :_width] = np.exp(-np.arange(_width) / (_width / 4.0))
del _width

#: Electronic noise scale of the accelerometer and gyroscope axes.
_NOISE_SCALE = np.array([0.02, 0.005])[None, :, None, None]

#: Per window: ``None`` for a still phone; for a human, the intensity, or
#: ``(low, high)`` to draw it as ``uniform(low, high)`` before the window.
_Level = Union[None, float, Tuple[float, float]]


class _WordStream:
    """Bounded integers and uniforms of a PCG64 ``Generator``, replayed from raw words.

    Each method returns what the ``Generator`` call it names would return
    and consumes the same 64-bit words.  It copies NumPy's algorithms:

    * ``uniform(low, high)`` is ``low + (high - low) * ((word >> 11) * 2**-53)``;
    * ``integers(low, high)`` is Lemire's multiply with rejection on a
      32-bit draw, and draws nothing when ``high - low == 1``;
    * a 32-bit draw takes the low half of a fresh word and keeps the high
      half for the next one (PCG64's ``has_uint32``/``uinteger`` buffer).

    The buffer is read from ``bit_generator.state`` here and written back
    by :meth:`close`.  Normals are not replayed: the ziggurat consumes a
    variable number of words, so they stay ``Generator`` calls, and they
    never touch the buffer.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(
                f"sensor synthesis needs a PCG64 Generator, got {type(bit_generator).__name__}"
            )
        self._bit_generator = bit_generator
        self._next64 = bit_generator.random_raw
        state = bit_generator.state
        self._has_uint32 = state["has_uint32"]
        self._uinteger = state["uinteger"]

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * ((self._next64() >> 11) * 2.0**-53)

    def _next32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        word = self._next64()
        self._has_uint32 = 1
        self._uinteger = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, low: int, high: int) -> int:
        """``integers(low, high)`` for ``high - low`` below ``2**32``."""
        span = high - low
        if span == 1:
            return low
        m = self._next32() * span
        if (m & 0xFFFFFFFF) < span:
            threshold = 2**32 % span
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def close(self) -> None:
        """Write the 32-bit buffer back into the generator's state."""
        state = self._bit_generator.state
        state["has_uint32"] = self._has_uint32
        state["uinteger"] = self._uinteger
        self._bit_generator.state = state


def _window_length(duration_s: float, rate_hz: int) -> int:
    return max(8, int(round(duration_s * rate_hz)))


def _synthesize_block(
    levels: Sequence[_Level], n: int, rng: np.random.Generator, stream: _WordStream
) -> np.ndarray:
    """Windows of ``n`` samples stacked as ``(len(levels), 6, n)``.

    A stream pass makes the draws in the order of a per-window loop
    (``tests/oracles.py`` keeps that loop); assembly then computes each
    element as ``noise (+ GRAVITY) + tremor + touches * scale``, in that
    order.
    """
    m = len(levels)
    noise_z = np.empty((m, 2, n, 3))
    tremor_z = np.zeros((m, 6, n))
    amplitude = np.zeros((m, 6))
    scale = np.zeros((m, 6))
    humans = []
    touches = []  # (row of the flattened (m * 6) axes, position, width, peak)
    hi = max(1, n - 40)
    k = 0
    while k < m:
        level = levels[k]
        if level is None:
            # Consecutive still windows draw nothing but their noise.
            end = k + 1
            while end < m and levels[end] is None:
                end += 1
            rng.standard_normal(out=noise_z[k:end])
            k = end
            continue
        if isinstance(level, tuple):
            level = stream.uniform(*level)
        humans.append(k)
        rng.standard_normal(out=noise_z[k])
        n_touches = stream.integers(1, 5)
        scales = []
        for axis in range(6):
            rng.standard_normal(out=tremor_z[k, axis])
            peak_level = (0.8 if axis < 3 else 0.25) * level
            positions = [stream.integers(0, hi) for _ in range(n_touches)]
            for pos in positions:
                width = stream.integers(10, 40)
                touches.append((6 * k + axis, pos, width, peak_level * stream.uniform(0.6, 1.4)))
            scales.append(stream.uniform(0.3, 1.0))
        amplitude[k] = [0.05 * level] * 3 + [0.02 * level] * 3
        scale[k] = scales
        k += 1

    stack = np.empty((m, 6, n))
    stack.reshape(m, 2, 3, n)[...] = (0.0 + _NOISE_SCALE * noise_z).transpose(0, 1, 3, 2)
    stack[:, 2] += GRAVITY
    if not humans:
        return stack
    # Still rows are zeros here and are not convolved.
    raw = 0.0 + amplitude[:, :, None] * tremor_z
    width = min(25, n)
    kernel = np.ones(width) / width
    for k in humans:
        for axis in range(6):
            # One np.convolve per row: its BLAS dot products fix the summation
            # order, which a batched convolution would not reproduce.
            stack[k, axis] += np.convolve(raw[k, axis], kernel, mode="same")
    rows, positions, widths, peaks = (np.array(column) for column in zip(*touches))
    lengths = np.minimum(widths, n - positions)
    offsets = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    # bincount adds its weights in input order: each sample sums its touches
    # in touch order.
    signal = np.bincount(
        np.repeat(rows * n + positions, lengths) + offsets,
        weights=np.repeat(peaks, lengths) * _DECAY[np.repeat(widths, lengths), offsets],
        minlength=m * 6 * n,
    ).reshape(m, 6, n)
    is_human = np.zeros((m, 1, 1), dtype=bool)
    is_human[humans] = True
    # Masked rather than scaled by zero: adding 0.0 turns a -0.0 sample into 0.0.
    np.add(stack, signal * scale[:, :, None], out=stack, where=is_human)
    return stack


def _synthesize_blocks(
    levels: Sequence[_Level], n: int, rng: np.random.Generator
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(start, stack)`` for blocks of up to ``BLOCK_WINDOWS`` windows.

    ``rng`` ends in the same state as after drawing the windows one by one.
    """
    stream = _WordStream(rng)
    try:
        for start in range(0, len(levels), BLOCK_WINDOWS):
            yield start, _synthesize_block(levels[start : start + BLOCK_WINDOWS], n, rng, stream)
    finally:
        stream.close()


def synthesize_window(
    kind: MotionKind,
    duration_s: float = 1.0,
    rate_hz: int = SAMPLE_RATE_HZ,
    intensity: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Generate one sensor window of shape ``(duration*rate, 6)``.

    Columns: accelerometer x/y/z then gyroscope x/y/z.

    Parameters
    ----------
    kind:
        :class:`MotionKind.HUMAN` adds tremor plus touch impulses (their
        magnitude scaled by ``intensity``); ``NON_HUMAN`` produces only
        gravity and electronic sensor noise.
    intensity:
        Human-motion scale.  Values well below 1 create the gentle,
        hard-to-detect interactions that bound validator recall.
    rng:
        A PCG64 ``Generator`` (what ``np.random.default_rng`` returns);
        any other bit generator raises ``TypeError``.
    """
    rng = rng if rng is not None else np.random.default_rng()
    level = intensity if kind is MotionKind.HUMAN else None
    ((_, stack),) = _synthesize_blocks([level], _window_length(duration_s, rate_hz), rng)
    return stack[0].T.copy()
