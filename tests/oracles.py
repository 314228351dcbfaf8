"""Scalar reference implementations that the vectorized library code must match.

These are the straightforward per-cut, per-window, per-touch, per-draw,
per-event and per-bucket loops the library used before it was vectorized,
and the float snapshot merge the fleet folded with before its exact sums.
They are kept here, outside the package, only as test oracles: property
tests assert that the library reproduces them bit for bit.
"""

from collections import defaultdict
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.events.grouping import UnpredictableEvent
from repro.features import AXIS_STATS, FIRST_N_PACKETS, windows_to_matrix
from repro.ml.tree import DecisionTreeClassifier, _gini, _midpoint
from repro.net import DnsTable, FlowDefinition, Trace
from repro.net.flows import flow_key
from repro.net.packet import TCP_ACK, TCP_PSH, TLS_1_2, TLS_NONE, Direction, Packet
from repro.obs.registry import Histogram, MetricsSnapshot
from repro.predictability.buckets import DEFAULT_RESOLUTION, quantize_iat
from repro.sensors.motion import GRAVITY, SAMPLE_RATE_HZ, MotionKind
from repro.testbed.household import _event_local_port, _make_packet


class ScalarSplitTree(DecisionTreeClassifier):
    """CART tree whose split search walks every cut in a Python loop."""

    def _best_split(self, X, y_idx, features, n_classes):
        parent_counts = np.bincount(y_idx, minlength=n_classes)
        parent_gini = _gini(parent_counts)
        n = len(y_idx)
        best = None
        best_gain = 1e-12
        for feature in features:
            order = np.argsort(X[:, feature], kind="mergesort")
            values = X[order, feature]
            labels = y_idx[order]
            left = np.zeros(n_classes)
            right = parent_counts.astype(float).copy()
            for i in range(n - 1):
                left[labels[i]] += 1
                right[labels[i]] -= 1
                if values[i] == values[i + 1]:
                    continue
                n_left = i + 1
                n_right = n - n_left
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                gain = parent_gini - (
                    n_left * _gini(left) + n_right * _gini(right)
                ) / n
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), _midpoint(values[i], values[i + 1]))
        return best


def tree_lines(tree: DecisionTreeClassifier) -> List[str]:
    """Pre-order ``feature threshold.hex() counts`` lines of a fitted tree."""
    lines = []
    stack = [tree._root]
    while stack:
        node = stack.pop()
        counts = ",".join(str(int(c)) for c in node.counts)
        lines.append(f"{node.feature} {float(node.threshold).hex()} {counts}")
        if not node.is_leaf:
            stack.extend((node.right, node.left))
    return lines


def array_walk_proba(tree: DecisionTreeClassifier, X: np.ndarray) -> np.ndarray:
    """Tree ``predict_proba`` walking each row as a float64 array.

    The inference the tree used before leaf labels were fixed at fit
    time; its labels are ``classes_[argmax(proba, axis=1)]``.
    """
    proba = np.empty((X.shape[0], len(tree.classes_)))
    for i, x in enumerate(X):
        node = tree._root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        total = node.counts.sum()
        proba[i] = node.counts / total if total else 1.0 / len(node.counts)
    return proba


def _count_peaks(samples: np.ndarray) -> int:
    if len(samples) < 3:
        return 0
    threshold = samples.mean() + samples.std()
    interior = samples[1:-1]
    is_peak = (interior > samples[:-2]) & (interior > samples[2:]) & (interior > threshold)
    return int(np.count_nonzero(is_peak))


def axis_statistics(samples: np.ndarray) -> List[float]:
    """The 8 per-axis statistics of one axis, one reduction at a time."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return [0.0] * len(AXIS_STATS)
    diffs = np.abs(np.diff(samples)) if samples.size > 1 else np.zeros(1)
    return [
        float(samples.mean()),
        float(samples.std()),
        float(samples.min()),
        float(samples.max()),
        float(samples.max() - samples.min()),
        float(np.sqrt(np.mean(samples**2))),
        float(diffs.mean()),
        float(_count_peaks(samples)),
    ]


def window_features(window: np.ndarray) -> np.ndarray:
    """48 sensor features of one ``(n_samples, 6)`` window, axis by axis."""
    window = np.asarray(window, dtype=float)
    row: List[float] = []
    for axis in range(window.shape[1]):
        row.extend(axis_statistics(window[:, axis]))
    return np.asarray(row, dtype=float)


def _tremor(n: int, rng: np.random.Generator, amplitude: float) -> np.ndarray:
    """Low-frequency hand tremor: smoothed Gaussian noise (random walk-ish)."""
    raw = rng.normal(0.0, amplitude, size=n)
    width = min(25, n)
    kernel = np.ones(width) / width
    smoothed = np.convolve(raw, kernel, mode="same")
    return smoothed[:n]


def _touch_impulses(
    n: int, rng: np.random.Generator, n_touches: int, intensity: float
) -> np.ndarray:
    """Sparse exponential-decay impulses modelling display touches."""
    signal = np.zeros(n)
    if n_touches <= 0:
        return signal
    positions = rng.integers(0, max(1, n - 40), size=n_touches)
    for pos in positions:
        width = int(rng.integers(10, 40))
        peak = intensity * rng.uniform(0.6, 1.4)
        decay = np.exp(-np.arange(width) / (width / 4.0))
        end = min(n, pos + width)
        signal[pos:end] += peak * decay[: end - pos]
    return signal


def scalar_window(
    kind: MotionKind,
    duration_s: float = 1.0,
    rate_hz: int = SAMPLE_RATE_HZ,
    intensity: float = 1.0,
    rng: np.random.Generator = None,
) -> np.ndarray:
    """One ``(n, 6)`` sensor window, drawn with one ``Generator`` call per value."""
    n = max(8, int(round(duration_s * rate_hz)))
    window = np.empty((n, 6))
    window[:, 0:3] = rng.normal(0.0, 0.02, size=(n, 3))
    window[:, 2] += GRAVITY
    window[:, 3:6] = rng.normal(0.0, 0.005, size=(n, 3))
    if kind is MotionKind.HUMAN:
        n_touches = int(rng.integers(1, 5))
        for axis in range(3):
            window[:, axis] += _tremor(n, rng, 0.05 * intensity)
            window[:, axis] += _touch_impulses(n, rng, n_touches, 0.8 * intensity) * rng.uniform(
                0.3, 1.0
            )
        for axis in range(3, 6):
            window[:, axis] += _tremor(n, rng, 0.02 * intensity)
            window[:, axis] += _touch_impulses(n, rng, n_touches, 0.25 * intensity) * rng.uniform(
                0.3, 1.0
            )
    return window


def scalar_humanness_dataset(
    n_per_class: int, ambiguous_fraction: float = 0.15, duration_s: float = 1.0, seed: int = 0
):
    """``generate_humanness_dataset`` as a loop of :func:`scalar_window` calls."""
    rng = np.random.default_rng(seed)
    windows = []
    labels = []
    for i in range(n_per_class):
        ambiguous = (i / max(1, n_per_class)) < ambiguous_fraction
        intensity = rng.uniform(0.02, 0.12) if ambiguous else rng.uniform(0.5, 1.5)
        windows.append(scalar_window(MotionKind.HUMAN, duration_s, intensity=intensity, rng=rng))
        labels.append("human")
    for _ in range(n_per_class):
        windows.append(scalar_window(MotionKind.NON_HUMAN, duration_s, rng=rng))
        labels.append("non_human")
    return windows_to_matrix(windows), np.asarray(labels)


def _ip_octets(ip: str) -> List[float]:
    parts = ip.split(".")
    if len(parts) != 4:
        return [0.0, 0.0, 0.0, 0.0]
    try:
        return [float(int(p)) for p in parts]
    except ValueError:
        return [0.0, 0.0, 0.0, 0.0]


def packet_row(packet: Packet) -> List[float]:
    """The 11 per-packet features of one packet."""
    return [
        1.0 if packet.direction is Direction.OUTBOUND else 0.0,
        1.0 if packet.protocol == "tcp" else 0.0,
        float(packet.tcp_flags),
        float(packet.tls_version),
        float(packet.size),
        float(packet.src_port),
        float(packet.dst_port),
        *_ip_octets(packet.remote_ip),
    ]


def scalar_event_features(event: UnpredictableEvent, n: int = FIRST_N_PACKETS) -> np.ndarray:
    """The feature vector of one event, one packet and one statistic at a time."""
    if len(event) == 0:
        raise ValueError("cannot featurise an empty event")
    head = event.first_n(n)
    row: List[float] = []
    for i in range(n):
        if i < len(head):
            row.extend(packet_row(head[i]))
        else:
            row.extend([0.0] * 11)
    timestamps = np.array([p.timestamp for p in head])
    iats = np.diff(timestamps)
    for i in range(n - 1):
        row.append(float(iats[i]) if i < len(iats) else 0.0)
    sizes = np.array([float(p.size) for p in head])
    row.extend(
        [
            float(len(head)),
            float(sizes.sum()),
            float(sizes.mean()),
            float(sizes.std()),
            float(iats.mean()) if len(iats) else 0.0,
            float(iats.std()) if len(iats) else 0.0,
            float(timestamps[-1] - timestamps[0]),
        ]
    )
    return np.asarray(row, dtype=float)


def scalar_events_to_matrix(events, n: int = FIRST_N_PACKETS) -> np.ndarray:
    """``events_to_matrix`` as a stack of :func:`scalar_event_features` rows."""
    return np.vstack([scalar_event_features(event, n) for event in events])


def scalar_event_sequences(events, n: int = FIRST_N_PACKETS) -> List[np.ndarray]:
    """``event_sequences`` built packet by packet."""
    sequences = []
    for event in events:
        rows = []
        previous_time = None
        for packet in event.first_n(n):
            iat = 0.0 if previous_time is None else packet.timestamp - previous_time
            previous_time = packet.timestamp
            rows.append(packet_row(packet) + [iat])
        sequences.append(np.asarray(rows, dtype=float))
    return sequences


def scalar_render_event(
    profile, template, start, traffic_class, device_ip, endpoints, rng, event_id=None
) -> List[Packet]:
    """``render_event`` with one ``Generator`` call per draw."""
    n = int(rng.integers(template.n_packets[0], template.n_packets[1] + 1))
    local_port = _event_local_port(template.service_high, rng)
    event_ips = {service: ep.pick_ip(rng) for service, ep in endpoints.items()}
    packets: List[Packet] = []
    t = start
    for i in range(n):
        service = (
            template.service_high
            if rng.random() < template.port_high_prob
            else template.service_low
        )
        endpoint = endpoints[service]
        if i == 0:
            inbound = rng.random() < template.first_inbound_prob
            udp = rng.random() < template.first_udp_prob
            protocol = "udp" if udp else ("tcp" if rng.random() < template.tcp_prob else "udp")
        else:
            inbound = rng.random() < template.inbound_prob
            protocol = "tcp" if rng.random() < template.tcp_prob else "udp"
        if protocol == "tcp":
            tls = TLS_1_2 if rng.random() < template.tls_prob else TLS_NONE
            flags = TCP_PSH | TCP_ACK if rng.random() < template.psh_prob else TCP_ACK
        else:
            tls = TLS_NONE
            flags = 0
        if i == 0 and template.first_size is not None:
            size = template.first_size
        else:
            mode = template.size_big if rng.random() < template.size_big_prob else template.size_small
            size = max(60, int(rng.normal(*mode)))
        packets.append(
            _make_packet(
                timestamp=t,
                size=size,
                direction=Direction.INBOUND if inbound else Direction.OUTBOUND,
                device=profile.name,
                device_ip=device_ip,
                endpoint=endpoint,
                local_port=local_port,
                protocol=protocol,
                tls=tls,
                flags=flags,
                traffic_class=traffic_class,
                event_id=event_id,
                remote_ip=event_ips[service],
            )
        )
        if rng.random() < template.iat_fast_prob:
            t += float(rng.uniform(*template.iat_fast))
        else:
            t += float(rng.uniform(*template.iat_slow))
    return packets


def scalar_label_predictable(
    trace: Trace,
    definition: FlowDefinition = FlowDefinition.PORTLESS,
    dns: Optional[DnsTable] = None,
    resolution: float = DEFAULT_RESOLUTION,
    neighbor_bins: int = 1,
) -> List[bool]:
    """``label_predictable`` with per-bucket dicts of IAT-bin counts."""
    dns = dns if dns is not None else trace.dns
    labels = [False] * len(trace)

    # First pass: compute IAT bins per bucket, remembering each packet's
    # within-bucket predecessor (only repeated-bin packets need it).
    last_seen: Dict[Tuple[Hashable, ...], Tuple[int, float]] = {}
    packet_bin: Dict[int, Tuple[Tuple[Hashable, ...], int, int]] = {}
    bin_counts: Dict[Tuple[Hashable, ...], Dict[int, int]] = defaultdict(dict)

    for index, packet in enumerate(trace):
        key = flow_key(packet, definition, dns)
        previous = last_seen.get(key)
        if previous is not None:
            prev_index, prev_time = previous
            iat_bin = quantize_iat(packet.timestamp - prev_time, resolution)
            packet_bin[index] = (key, iat_bin, prev_index)
            counts = bin_counts[key]
            counts[iat_bin] = counts.get(iat_bin, 0) + 1
        last_seen[key] = (index, packet.timestamp)

    # Second pass: a bin is "repeated" when, considering neighbour bins,
    # it was computed at least twice in its bucket.
    for index, (key, iat_bin, prev_index) in packet_bin.items():
        counts = bin_counts[key]
        total = 0
        for delta in range(-neighbor_bins, neighbor_bins + 1):
            total += counts.get(iat_bin + delta, 0)
        if total >= 2:
            labels[index] = True
            labels[prev_index] = True

    return labels


def float_merge(first: MetricsSnapshot, later: MetricsSnapshot) -> MetricsSnapshot:
    """Union of two shards in floats: counters and histograms add, gauges
    take ``later``'s value, a histogram boundary conflict takes ``later``'s
    series."""
    counters = {name: dict(series) for name, series in first.counters.items()}
    for name, series in later.counters.items():
        target = counters.setdefault(name, {})
        for key, value in series.items():
            target[key] = target.get(key, 0.0) + value
    gauges = {name: dict(series) for name, series in first.gauges.items()}
    for name, series in later.gauges.items():
        gauges.setdefault(name, {}).update(series)
    histograms = {
        name: {key: dict(data) for key, data in series.items()}
        for name, series in first.histograms.items()
    }
    for name, series in later.histograms.items():
        target = histograms.setdefault(name, {})
        for key, data in series.items():
            mine = target.get(key)
            if mine is None or list(mine["boundaries"]) != list(data["boundaries"]):
                target[key] = dict(data)
                continue
            merged = Histogram.from_dict(mine)
            theirs = Histogram.from_dict(data)
            merged.counts = [a + b for a, b in zip(merged.counts, theirs.counts)]
            merged.sum += theirs.sum
            merged.count += theirs.count
            merged.min = min(merged.min, theirs.min)
            merged.max = max(merged.max, theirs.max)
            target[key] = merged.to_dict()
    return MetricsSnapshot(counters=counters, gauges=gauges, histograms=histograms)
