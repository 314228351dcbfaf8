"""66-feature extraction from unpredictable events (paper §4.1).

The paper selects 66 features over the first (up to) 5 packets of each
unpredictable event: per-packet direction, remote (destination) IP
octets, protocol, TCP flags, source and destination ports, TLS version,
packet length and inter-arrival times, plus aggregate statistics (means
of sizes and IATs, counts, duration).

The exact layout reproduced here (matching the names visible in the
paper's Table 4, e.g. ``pkt1-proto``, ``pkt3-tls``, ``pkt1-dst-ip1``):

* per packet ``i`` in 1..5 (11 features x 5 = 55):
  ``pkt{i}-direction``, ``pkt{i}-proto``, ``pkt{i}-tcp-flags``,
  ``pkt{i}-tls``, ``pkt{i}-len``, ``pkt{i}-src-port``,
  ``pkt{i}-dst-port``, ``pkt{i}-dst-ip1`` .. ``pkt{i}-dst-ip4``;
* inter-arrival times ``pkt{i}-iat`` for ``i`` in 2..5 (4 features);
* aggregates (7 features): ``n-packets``, ``total-bytes``, ``mean-len``,
  ``std-len``, ``mean-iat``, ``std-iat``, ``duration``.

Total: 55 + 4 + 7 = **66**.  Events shorter than 5 packets are
zero-padded, which BernoulliNB's default binarisation naturally treats
as "feature absent".

:func:`event_features` builds one event's row as Python floats and
:func:`events_to_matrix` stacks those rows with one ``np.array`` call, so
the proxy's per-event decision and training share one implementation.
Sums, means and standard deviations repeat the float operations of
``np.sum``/``np.mean``/``np.std``: on at most 7 values NumPy adds left to
right from ``0.0``; from 8 values on (only when ``n >= 8``) it adds
pairwise, so those lists are reduced by NumPy itself.  Rows are
bit-identical to the per-event NumPy code kept in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import List, Sequence, Tuple

import numpy as np

from ..events.grouping import UnpredictableEvent
from ..net.packet import Direction, Packet

__all__ = [
    "FEATURE_NAMES",
    "N_FEATURES",
    "FIRST_N_PACKETS",
    "event_features",
    "events_to_matrix",
    "event_labels",
]

#: Number of leading packets examined per event (paper: N = 5).
FIRST_N_PACKETS = 5


def _build_feature_names(n: int = FIRST_N_PACKETS) -> List[str]:
    names: List[str] = []
    for i in range(1, n + 1):
        names.extend(
            [
                f"pkt{i}-direction",
                f"pkt{i}-proto",
                f"pkt{i}-tcp-flags",
                f"pkt{i}-tls",
                f"pkt{i}-len",
                f"pkt{i}-src-port",
                f"pkt{i}-dst-port",
                f"pkt{i}-dst-ip1",
                f"pkt{i}-dst-ip2",
                f"pkt{i}-dst-ip3",
                f"pkt{i}-dst-ip4",
            ]
        )
    names.extend(f"pkt{i}-iat" for i in range(2, n + 1))
    names.extend(
        ["n-packets", "total-bytes", "mean-len", "std-len", "mean-iat", "std-iat", "duration"]
    )
    return names


#: Canonical feature names, aligned with the columns of `event_features`.
FEATURE_NAMES: Tuple[str, ...] = tuple(_build_feature_names())

#: Feature vector length (66 in the paper's configuration).
N_FEATURES = len(FEATURE_NAMES)


#: Per-packet features of the layout above.
_PACKET_COLUMNS = 11

#: Read once: on CPython 3.11 looking a member up on its enum class costs ~0.2 µs.
_OUTBOUND = Direction.OUTBOUND


@functools.lru_cache(maxsize=4096)
def _ip_octets(ip: str) -> Tuple[float, float, float, float]:
    parts = ip.split(".")
    if len(parts) != 4:
        return (0.0, 0.0, 0.0, 0.0)
    try:
        return tuple(float(int(p)) for p in parts)  # type: ignore[return-value]
    except ValueError:
        return (0.0, 0.0, 0.0, 0.0)


def _packet_columns(packet: Packet) -> Tuple[float, ...]:
    """The 11 per-packet features of one packet."""
    outbound = packet.direction is _OUTBOUND
    return (
        1.0 if outbound else 0.0,
        1.0 if packet.protocol == "tcp" else 0.0,
        packet.tcp_flags,
        packet.tls_version,
        packet.size,
        packet.src_port,
        packet.dst_port,
        # packet.remote_ip, without a second enum lookup
        *_ip_octets(packet.dst_ip if outbound else packet.src_ip),
    )


def _moments(values: Sequence[float]) -> Tuple[float, float, float]:
    """``sum()``, ``mean()`` and ``std()`` of ``values`` as NumPy computes them.

    On at most 7 values ``np.sum`` starts from ``0.0`` and adds left to
    right, ``mean`` divides by the count and ``std`` is
    ``sqrt(sum((x - mean)**2) / count)``, so Python floats give the same
    bits.  From 8 values on ``np.sum`` adds pairwise, and NumPy reduces.
    """
    count = len(values)
    if count >= 8:
        array = np.array(values, dtype=float)
        return array.sum(), array.mean(), array.std()
    # Not sum(): from Python 3.12 it compensates float rounding.
    total = 0.0
    for value in values:
        total += value
    mean = total / count
    squares = 0.0
    for value in values:
        deviation = value - mean
        squares += deviation * deviation
    return total, mean, math.sqrt(squares / count)


def _feature_row(event: UnpredictableEvent, n: int) -> List[float]:
    """The ``11 n + (n - 1) + 7`` features of one event as a list."""
    head = event.first_n(n)
    count = len(head)
    if count == 0:
        raise ValueError("cannot featurise an empty event")
    row: List[float] = []
    for packet in head:
        row += _packet_columns(packet)
    row += [0.0] * (_PACKET_COLUMNS * (n - count))
    start = previous = head[0].timestamp
    iats = []
    for packet in head[1:]:
        iats.append(packet.timestamp - previous)
        previous = packet.timestamp
    row += iats
    row += [0.0] * (n - count)
    size_sum, size_mean, size_std = _moments([packet.size for packet in head])
    # An event of one packet has no IAT; its IAT mean and std are 0.0.
    _, iat_mean, iat_std = _moments(iats) if iats else (0.0, 0.0, 0.0)
    row += (count, size_sum, size_mean, size_std, iat_mean, iat_std, previous - start)
    return row


def event_features(event: UnpredictableEvent, n: int = FIRST_N_PACKETS) -> np.ndarray:
    """Extract the 66-dimensional feature vector of one event.

    Only the first ``n`` packets contribute per-packet features; the
    aggregate statistics are likewise computed over those packets (the
    classifier must decide before the event completes — §3.3's command
    duration argument).
    """
    return np.array(_feature_row(event, n), dtype=float)


def events_to_matrix(
    events: Sequence[UnpredictableEvent], n: int = FIRST_N_PACKETS
) -> np.ndarray:
    """Stack event feature vectors into a ``(n_events, 66)`` matrix."""
    if not events:
        return np.empty((0, 12 * n + 6))
    rows = [_feature_row(event, n) for event in events]
    # One pass over all values: ~30 % faster than np.array over the row lists.
    values = np.fromiter(itertools.chain.from_iterable(rows), float, len(rows) * len(rows[0]))
    return values.reshape(len(rows), -1)


def event_sequences(
    events: Sequence[UnpredictableEvent], n: int = FIRST_N_PACKETS
) -> List[np.ndarray]:
    """Per-event packet-feature *sequences* for temporal models (§7).

    Each event maps to a ``(t_i, 12)`` array: the 11 per-packet features
    of :func:`event_features` plus the inter-arrival time from the
    previous packet (0 for the first), for up to ``n`` leading packets.
    Consumed by :class:`repro.ml.SimpleRNNClassifier`.
    """
    sequences: List[np.ndarray] = []
    for event in events:
        head = event.first_n(n)
        if not head:
            sequences.append(np.empty(0))
            continue
        times = [packet.timestamp for packet in head]
        gaps = [0.0] + [later - earlier for earlier, later in zip(times, times[1:])]
        rows = [(*_packet_columns(packet), gap) for packet, gap in zip(head, gaps)]
        sequences.append(np.array(rows, dtype=float))
    return sequences


def event_labels(events: Sequence[UnpredictableEvent], binary: bool = False) -> np.ndarray:
    """Ground-truth labels for events.

    With ``binary=False`` (default) returns the three-way label the §4
    classifier learns: ``"control"`` / ``"automated"`` / ``"manual"``
    (attack events count as manual — they imitate manual commands).
    With ``binary=True`` returns ``"manual"`` / ``"non_manual"``.
    """
    labels = []
    for event in events:
        cls = event.majority_class().value
        if cls == "attack":
            cls = "manual"
        if binary:
            cls = "manual" if cls == "manual" else "non_manual"
        labels.append(cls)
    return np.asarray(labels)
