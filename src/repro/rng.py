"""Raw-word replay of PCG64 ``Generator`` draws.

The simulator's hot loops (sensor windows, event rendering) make many
scalar draws, and a scalar ``Generator`` call costs several times the
64-bit word it consumes.  :class:`WordStream` returns exactly what the
``Generator`` call it names would return, consuming the same words, so a
kernel can replay those draws and leave the generator in the state the
plain calls would have left it in.
"""

from __future__ import annotations

import math

import numpy as np

#: ``(word >> 11) * _DOUBLE_UNIT`` is NumPy's ``next_double`` for PCG64.
_DOUBLE_UNIT = 2.0**-53


class WordStream:
    """Uniforms and bounded integers of a PCG64 ``Generator``, replayed from raw words.

    It copies NumPy's algorithms:

    * ``random()`` is ``(word >> 11) * 2**-53`` and ``uniform(low, high)``
      is ``low + (high - low) * random()``; ``random() < p`` holds exactly
      when the raw word from :attr:`next64` is below :meth:`bound` ``(p)``,
      so a Bernoulli draw need not convert the word;
    * ``integers(low, high)`` is Lemire's multiply with rejection on a
      32-bit draw, and draws nothing when ``high - low == 1``;
    * a 32-bit draw takes the low half of a fresh word and keeps the high
      half for the next one (PCG64's ``has_uint32``/``uinteger`` buffer).

    Only :meth:`integers` uses that buffer.  It is read from
    ``bit_generator.state`` on the first bounded integer and written back
    by :meth:`close`; a stream that replays only ``random``/``uniform``
    never touches the state, so the caller may interleave its own
    ``Generator`` calls freely.  Once the buffer is read, a direct
    ``integers`` call on the generator before :meth:`close` would see a
    stale buffer.  Normals are not replayed: the ziggurat consumes a
    variable number of words, so they stay ``Generator`` calls, and they
    never touch the buffer.
    """

    __slots__ = ("_bit_generator", "next64", "_has_uint32", "_uinteger")

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(
                f"raw-word replay needs a PCG64 Generator, got {type(bit_generator).__name__}"
            )
        self._bit_generator = bit_generator
        #: the next raw 64-bit word (``bit_generator.random_raw``)
        self.next64 = bit_generator.random_raw
        #: the 32-bit buffer; None until the first bounded integer reads it
        self._has_uint32 = None
        self._uinteger = 0

    def random(self) -> float:
        return (self.next64() >> 11) * _DOUBLE_UNIT

    @staticmethod
    def bound(p: float) -> int:
        """The raw-word bound of a Bernoulli draw: ``random() < p`` iff ``next64() < bound(p)``.

        For finite ``p``: ``(word >> 11) * 2**-53 < p`` compares the integer ``word >> 11``
        with ``p * 2**53``, both exact; an integer is below a real ``c``
        iff it is below ``ceil(c)``, and ``word >> 11 < k`` iff
        ``word < k << 11``.
        """
        return math.ceil(p * 2.0**53) << 11

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * ((self.next64() >> 11) * _DOUBLE_UNIT)

    def _next32(self) -> int:
        if self._has_uint32 is None:
            state = self._bit_generator.state
            self._has_uint32 = state["has_uint32"]
            self._uinteger = state["uinteger"]
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        word = self.next64()
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
        """Write the 32-bit buffer back into the generator's state, if it was read."""
        if self._has_uint32 is None:
            return
        state = self._bit_generator.state
        state["has_uint32"] = self._has_uint32
        state["uinteger"] = self._uinteger
        self._bit_generator.state = state
        self._has_uint32 = None
