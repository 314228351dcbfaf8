"""Unpredictable-event grouping (paper §3.2).

Given the per-packet predictability mask, unpredictable packets are
grouped into *events*: consecutive unpredictable packets whose gaps are
below a threshold (5 seconds in the paper, "chosen empirically and has
very limited impact on the results") belong to the same event; a gap
above the threshold closes the current event and opens a new one.

Events are the unit the manual-traffic classifier (§4) and the FIAT
proxy's access control (§5.4) operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..net.packet import Packet, TrafficClass
from ..net.trace import Trace
from ..obs import Observability

__all__ = ["UnpredictableEvent", "group_events", "EVENT_GAP_SECONDS"]

#: Default event gap threshold, seconds (paper §3.2).
EVENT_GAP_SECONDS = 5.0

#: Tie-break order of :meth:`UnpredictableEvent.majority_class`.
_MOST_MANUAL_FIRST = (
    TrafficClass.ATTACK,
    TrafficClass.MANUAL,
    TrafficClass.AUTOMATED,
    TrafficClass.CONTROL,
)


@dataclass
class UnpredictableEvent:
    """A maximal run of unpredictable packets separated by small gaps."""

    packets: List[Packet] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    @property
    def start(self) -> float:
        """Timestamp of the first packet."""
        return self.packets[0].timestamp

    @property
    def end(self) -> float:
        """Timestamp of the last packet."""
        return self.packets[-1].timestamp

    @property
    def duration(self) -> float:
        """Event span in seconds."""
        return self.end - self.start

    @property
    def device(self) -> str:
        """Device the event belongs to (of the first packet)."""
        return self.packets[0].device

    @property
    def total_bytes(self) -> int:
        """Sum of packet sizes in the event."""
        return sum(p.size for p in self.packets)

    def majority_class(self) -> TrafficClass:
        """Ground-truth label: the most common packet class in the event.

        Ties are broken in favour of the "most manual" class, because a
        single human-caused packet makes the whole event user-visible —
        the same convention the testbed labelling uses.
        """
        classes = [packet.traffic_class for packet in self.packets]
        return max((cls for cls in _MOST_MANUAL_FIRST if cls in classes), key=classes.count)

    @property
    def is_manual(self) -> bool:
        """Whether the event is ground-truth manual (or attack) traffic."""
        cls = self.majority_class()
        return cls in (TrafficClass.MANUAL, TrafficClass.ATTACK)

    def first_n(self, n: int) -> List[Packet]:
        """The first ``n`` packets (fewer if the event is shorter)."""
        return self.packets[:n]


def group_events(
    trace: Trace,
    predictable: Sequence[bool],
    gap: float = EVENT_GAP_SECONDS,
    per_device: bool = True,
    obs: Optional[Observability] = None,
) -> List[UnpredictableEvent]:
    """Group unpredictable packets of ``trace`` into events.

    Parameters
    ----------
    trace:
        Packet trace in timestamp order.
    predictable:
        Boolean mask aligned with ``trace`` (from
        :func:`repro.predictability.label_predictable`).
    gap:
        Gap threshold in seconds closing an event.
    per_device:
        When true (default), events never span devices: each device's
        unpredictable packets are grouped independently, matching the
        testbed analysis where traffic is labelled per device.
    obs:
        Optional :class:`~repro.obs.Observability` handle; when enabled,
        the pass feeds ``event_grouping_latency_ms`` and counts grouped
        events/packets.
    """
    if len(predictable) != len(trace):
        raise ValueError(
            f"mask length {len(predictable)} does not match trace length {len(trace)}"
        )
    if obs is not None and obs.enabled:
        t0 = perf_counter()
        events = _group_events(trace, predictable, gap, per_device)
        obs.observe("event_grouping_latency_ms", (perf_counter() - t0) * 1000.0)
        obs.inc("events_grouped_total", float(len(events)))
        obs.inc("event_packets_total", float(sum(len(e) for e in events)))
        return events
    return _group_events(trace, predictable, gap, per_device)


def _group_events(
    trace: Trace,
    predictable: Sequence[bool],
    gap: float,
    per_device: bool,
) -> List[UnpredictableEvent]:
    open_events: Dict[str, UnpredictableEvent] = {}
    finished: List[UnpredictableEvent] = []

    for packet, is_predictable in zip(trace, predictable):
        if is_predictable:
            continue
        stream = packet.device if per_device else ""
        current = open_events.get(stream)
        if current is not None and packet.timestamp - current.end <= gap:
            current.packets.append(packet)
        else:
            if current is not None:
                finished.append(current)
            open_events[stream] = UnpredictableEvent(packets=[packet])

    finished.extend(open_events.values())
    finished.sort(key=lambda e: e.start)
    return finished
