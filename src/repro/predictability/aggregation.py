"""IoT-Inspector-style 5-second aggregation analysis (paper §2.2).

The IoT Inspector dataset only exposes five-second aggregates (per flow:
sum of packet sizes in each window) rather than individual packets.  The
paper notes this coarsening *reduces* measurable predictability: one
unpredictable packet poisons the byte-sum of its entire window.  This
module reproduces the analysis by converting a packet trace (or a
pre-aggregated corpus) into window records and running the same bucket
heuristic over ``<flow, window byte-sum>`` tuples.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..net.dns import DnsTable
from ..net.flows import FlowDefinition, flow_key
from ..net.packet import Packet
from ..net.trace import Trace
from .binmatch import repeated_iat_labels

__all__ = ["WindowRecord", "aggregate_trace", "windowed_predictability"]

#: IoT Inspector reporting granularity, seconds.
WINDOW_SECONDS = 5.0


class WindowRecord:
    """One flow's aggregate within one window: ``(flow, window, bytes)``."""

    __slots__ = ("flow", "window_index", "total_bytes", "n_packets")

    def __init__(self, flow: Tuple[Hashable, ...], window_index: int) -> None:
        self.flow = flow
        self.window_index = window_index
        self.total_bytes = 0
        self.n_packets = 0

    def add(self, packet: Packet) -> None:
        """Accumulate one packet into the window."""
        self.total_bytes += packet.size
        self.n_packets += 1


def _window_flow_key(
    packet: Packet, definition: FlowDefinition, dns: Optional[DnsTable]
) -> Tuple[Hashable, ...]:
    """Flow identity for aggregation: the packet flow key minus the size.

    Aggregation happens per flow (endpoints + protocol); the byte-sum then
    plays the role packet size plays at packet granularity.
    """
    key = flow_key(packet, definition, dns)
    return key[:-1]  # both Classic and PortLess keys end with the size


def aggregate_trace(
    trace: Trace,
    definition: FlowDefinition = FlowDefinition.PORTLESS,
    dns: Optional[DnsTable] = None,
    window: float = WINDOW_SECONDS,
) -> List[WindowRecord]:
    """Collapse a packet trace into per-flow five-second window records."""
    dns = dns if dns is not None else trace.dns
    records: Dict[Tuple[Hashable, int], WindowRecord] = {}
    origin = trace.start
    for packet in trace:
        flow = _window_flow_key(packet, definition, dns)
        index = int(math.floor((packet.timestamp - origin) / window))
        slot = records.get((flow, index))
        if slot is None:
            slot = WindowRecord(flow, index)
            records[(flow, index)] = slot
        slot.add(packet)
    return sorted(records.values(), key=lambda r: (r.window_index,))


def windowed_predictability(
    trace: Trace,
    definition: FlowDefinition = FlowDefinition.PORTLESS,
    dns: Optional[DnsTable] = None,
    window: float = WINDOW_SECONDS,
) -> float:
    """Fraction of predictable windows under the §2.1 heuristic.

    Windows of a flow are bucketed by ``<flow, byte-sum>``; the
    inter-arrival time between windows of the same bucket (in units of
    windows) must repeat exactly for the windows to be predictable — the
    direct analogue of the packet-level heuristic at 5-second
    granularity, run on the same vectorized core as
    :func:`~repro.predictability.buckets.label_predictable`.
    """
    records = aggregate_trace(trace, definition, dns=dns, window=window)
    if not records:
        return 0.0
    bucket_ids: Dict[Tuple[Hashable, ...], int] = {}
    kids = np.fromiter(
        (bucket_ids.setdefault(r.flow + (r.total_bytes,), len(bucket_ids)) for r in records),
        dtype=np.int64,
        count=len(records),
    )
    windows = np.fromiter((r.window_index for r in records), dtype=np.float64, count=len(records))
    labels = repeated_iat_labels(kids, windows, 1.0, 0)
    return int(labels.sum()) / len(records)
