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

:func:`events_to_matrix` computes all rows as one block, with the same
float operations as a per-event ``np.mean``/``np.std`` (the per-event code
is kept in ``tests/oracles.py``); :func:`event_features` is its one-row
call.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

import numpy as np

from ..events.grouping import UnpredictableEvent
from ..net.packet import Direction

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


#: Per-packet columns of :func:`_head_block`: the 11 per-packet features
#: of the layout above, then the timestamp.
_PACKET_COLUMNS = 11

#: An event of ``count`` packets has ``count`` sizes and ``count - 1`` IATs.
_SIZE_IAT_OFFSET = np.array([[0], [1]])


@functools.lru_cache(maxsize=4096)
def _ip_octets(ip: str) -> Tuple[float, float, float, float]:
    parts = ip.split(".")
    if len(parts) != 4:
        return (0.0, 0.0, 0.0, 0.0)
    try:
        return tuple(float(int(p)) for p in parts)  # type: ignore[return-value]
    except ValueError:
        return (0.0, 0.0, 0.0, 0.0)


def _head_block(
    events: Sequence[UnpredictableEvent], n: int
) -> Tuple[np.ndarray, List[int]]:
    """Per-packet columns of every event's first ``n`` packets.

    Returns ``(block, counts)``: ``block[e, j]`` holds the 11 per-packet
    features of packet ``j`` of event ``e`` followed by its timestamp,
    zero past the event's ``counts[e]`` packets.
    """
    rows = []
    counts = []
    for event in events:
        head = event.first_n(n)
        counts.append(len(head))
        row: List[float] = []
        for packet in head:
            row += (
                1.0 if packet.direction is Direction.OUTBOUND else 0.0,
                1.0 if packet.protocol == "tcp" else 0.0,
                packet.tcp_flags,
                packet.tls_version,
                packet.size,
                packet.src_port,
                packet.dst_port,
                *_ip_octets(packet.remote_ip),
                packet.timestamp,
            )
        row.extend([0.0] * ((_PACKET_COLUMNS + 1) * (n - len(head))))
        rows.append(row)
    block = np.array(rows, dtype=float).reshape(len(rows), n, _PACKET_COLUMNS + 1)
    return block, counts


def _padded_sum(values: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Sums over the first axis of the present entries, as ``np.sum`` adds them.

    On at most 7 values ``np.sum`` starts from ``0.0`` and adds left to
    right (longer rows are left to the caller).  Absent entries become
    ``-0.0``, which leaves every sum as it is.
    """
    padded = np.where(present, values, -0.0)
    total = 0.0 + padded[0]
    for value in padded[1:]:
        total = total + value
    return total


def _feature_block(events: Sequence[UnpredictableEvent], n: int) -> np.ndarray:
    """The ``(len(events), 11 n + (n - 1) + 7)`` feature matrix, computed as one block."""
    block, count_list = _head_block(events, n)
    if 0 in count_list:
        raise ValueError("cannot featurise an empty event")
    counts = np.array(count_list)
    n_events = len(counts)
    width = _PACKET_COLUMNS * n
    features = np.empty((n_events, width + n + 6))
    features[:, :width] = block[:, :, :_PACKET_COLUMNS].reshape(n_events, width)

    # Sizes and IATs as one (packet, [size, iat], event) stack: entry j of
    # the IAT row is the gap from packet j to packet j + 1.
    timestamps = block[:, :, _PACKET_COLUMNS].T
    values = np.zeros((n, 2, n_events))
    values[:, 0] = block[:, :, 4].T
    values[:-1, 1] = timestamps[1:] - timestamps[:-1]
    lengths = counts - _SIZE_IAT_OFFSET
    present = np.arange(n)[:, None, None] < lengths
    features[:, width : width + n - 1] = np.where(present[:-1, 1], values[:-1, 1], 0.0).T

    # mean() and std() as NumPy computes them on one event's values.  An
    # event of one packet has no IAT: its sums are 0.0, so are its mean and
    # std, as the per-event code sets them.
    count = np.maximum(lengths, 1)
    total = _padded_sum(values, present)
    mean = total / count
    deviation = values - mean
    std = np.sqrt(_padded_sum(deviation * deviation, present) / count)
    if n >= 8:
        # From 8 values on np.sum adds pairwise: rows that long take
        # NumPy's own reductions, grouped by length.
        for row in range(2):
            for length in np.unique(lengths[row][lengths[row] >= 8]).tolist():
                members = np.nonzero(lengths[row] == length)[0]
                long_rows = np.ascontiguousarray(values[:length, row, members].T)
                total[row, members] = long_rows.sum(axis=1)
                mean[row, members] = long_rows.mean(axis=1)
                std[row, members] = long_rows.std(axis=1)

    aggregates = features[:, width + n - 1 :]
    aggregates[:, 0] = counts
    aggregates[:, 1] = total[0]
    aggregates[:, 2] = mean[0]
    aggregates[:, 3] = std[0]
    aggregates[:, 4] = mean[1]
    aggregates[:, 5] = std[1]
    aggregates[:, 6] = timestamps[counts - 1, np.arange(n_events)] - timestamps[0]
    return features


def event_features(event: UnpredictableEvent, n: int = FIRST_N_PACKETS) -> np.ndarray:
    """Extract the 66-dimensional feature vector of one event.

    Only the first ``n`` packets contribute per-packet features; the
    aggregate statistics are likewise computed over those packets (the
    classifier must decide before the event completes — §3.3's command
    duration argument).  A one-row call of :func:`events_to_matrix`.
    """
    return _feature_block([event], n)[0]


def events_to_matrix(
    events: Sequence[UnpredictableEvent], n: int = FIRST_N_PACKETS
) -> np.ndarray:
    """Stack event feature vectors into a ``(n_events, 66)`` matrix."""
    if not events:
        return np.empty((0, N_FEATURES))
    return _feature_block(events, n)


def event_sequences(
    events: Sequence[UnpredictableEvent], n: int = FIRST_N_PACKETS
) -> List[np.ndarray]:
    """Per-event packet-feature *sequences* for temporal models (§7).

    Each event maps to a ``(t_i, 12)`` array: the 11 per-packet features
    of :func:`event_features` plus the inter-arrival time from the
    previous packet (0 for the first), for up to ``n`` leading packets.
    Consumed by :class:`repro.ml.SimpleRNNClassifier`.
    """
    block, counts = _head_block(events, n)
    sequences: List[np.ndarray] = []
    for rows, count in zip(block, counts):
        if count == 0:
            sequences.append(np.empty(0))
            continue
        sequence = rows[:count].copy()
        timestamps = rows[:count, _PACKET_COLUMNS]
        sequence[0, _PACKET_COLUMNS] = 0.0
        sequence[1:, _PACKET_COLUMNS] = timestamps[1:] - timestamps[:-1]
        sequences.append(sequence)
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
