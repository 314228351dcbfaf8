"""Replay protection for QUIC 0-RTT authentication messages (paper §5.3).

QUIC 0-RTT is vulnerable to replay: an adversary can resend a previously
captured early-data packet unmodified.  The paper argues that, because
only a few devices are authorized per household, the IoT proxy can keep
state of all previously seen connections and reject replays.
:class:`ReplayCache` implements that state: a bounded, time-windowed set
of message identifiers (nonce or payload digest); re-observing an
identifier within the window is a replay.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Dict, List, Tuple

__all__ = ["ReplayCache"]

#: Version of the serialised state schema (see :meth:`ReplayCache.to_state`).
_STATE_VERSION = 1


class ReplayCache:
    """Time-windowed duplicate detector for authentication messages.

    Parameters
    ----------
    window_seconds:
        How long an identifier stays "hot".  Within the window, a second
        occurrence is flagged as replay; afterwards the identifier is
        evicted (the accompanying freshness timestamp check makes stale
        replays useless anyway).
    max_entries:
        Hard memory bound; the oldest entries are evicted first.
    """

    def __init__(self, window_seconds: float = 600.0, max_entries: int = 100_000) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.window_seconds = window_seconds
        self.max_entries = max_entries
        self._seen: "OrderedDict[str, float]" = OrderedDict()
        #: ``(seen_at, identifier)`` in expiry order; items whose entry
        #: the ``max_entries`` bound already removed are dropped lazily
        self._expiry: List[Tuple[float, str]] = []

    def _evict(self, now: float) -> None:
        # Entries are kept in insertion order, which is *not* time order
        # when ``now`` regresses (clock-skew faults), so expiry follows
        # the heap instead.  ``now - seen_at`` shrinks as ``seen_at``
        # grows: the expired entries are exactly a prefix of the heap,
        # however ``now`` moved.
        expiry, seen = self._expiry, self._seen
        while expiry and now - expiry[0][0] > self.window_seconds:
            seen_at, identifier = heapq.heappop(expiry)
            if seen.get(identifier) == seen_at:
                del seen[identifier]

    def check_and_register(self, identifier: str, now: float) -> bool:
        """Register an identifier; return ``True`` if it is fresh.

        ``False`` means the identifier was already seen inside the window
        — a replay.  Fresh identifiers are recorded.
        """
        self._evict(now)
        if identifier in self._seen:  # eviction left only entries inside the window
            return False
        self._seen[identifier] = now
        heapq.heappush(self._expiry, (now, identifier))
        # Enforce the memory bound *after* the insert too, so the cache
        # never exceeds ``max_entries`` even between calls.
        while len(self._seen) > self.max_entries:
            self._seen.popitem(last=False)
        if len(self._expiry) > 2 * self.max_entries:
            self._rebuild_expiry()
        return True

    def _rebuild_expiry(self) -> None:
        """Re-derive the heap from the live entries, dropping stale items."""
        self._expiry = [(seen_at, identifier) for identifier, seen_at in self._seen.items()]
        heapq.heapify(self._expiry)

    def __len__(self) -> int:
        return len(self._seen)

    def clear(self) -> None:
        """Drop all state (e.g. on re-pairing)."""
        self._seen.clear()
        self._expiry.clear()

    # -- durable state ------------------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """Serialise to a JSON-native dict (versioned schema).

        Entry order is preserved: it is the eviction order, so a
        restored cache evicts identically to one that never restarted.
        The replay window closed by this state is exactly why it must
        survive restarts — losing it re-opens the QUIC 0-RTT replay
        window for every previously seen proof.
        """
        return {
            "v": _STATE_VERSION,
            "window_seconds": self.window_seconds,
            "max_entries": self.max_entries,
            "seen": [[identifier, seen_at] for identifier, seen_at in self._seen.items()],
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "ReplayCache":
        """Rebuild a cache from :meth:`to_state` output.

        States written with a ``n_replays_detected`` tally load too; the
        tally is dropped (the channel counts replays per reason).
        """
        if state.get("v") != _STATE_VERSION:
            raise ValueError(f"unsupported ReplayCache state version: {state.get('v')!r}")
        cache = cls(
            window_seconds=float(state["window_seconds"]),
            max_entries=int(state["max_entries"]),
        )
        entries: List[List[object]] = state["seen"]  # type: ignore[assignment]
        for identifier, seen_at in entries:
            cache._seen[str(identifier)] = float(seen_at)
        cache._rebuild_expiry()
        return cache
