"""Bucket-based predictability heuristic (paper §2.1).

A packet is *predictable* when packets of the same size travel between
the same endpoints at a constant pace.  Concretely, every packet is
stored in a bucket identified by its flow key (Classic or PortLess, see
:mod:`repro.net.flows`); for each bucket the inter-arrival time (IAT)
between the last two packets is computed, and if that IAT matches any
previously computed IAT for the bucket, then **all** packets associated
with that IAT — previous and future — are considered predictable.

Two consumption modes are provided:

* :func:`label_predictable` — the offline, retroactive analysis used for
  the measurement study (§2, §3): returns a per-packet boolean mask.
* :class:`BucketPredictor` — an online learner used by the FIAT proxy:
  during the bootstrap window it records the recurring IATs of every
  bucket; afterwards :meth:`BucketPredictor.observe` reports whether an
  arriving packet matches a learned pattern.

IATs are quantised to a configurable resolution (default 0.25 s) so that
small scheduling jitter does not break a match, while genuinely drifting
timers — such as the Nest thermostat's motion-triggered wakeups, which
vary by several seconds — remain unpredictable, as observed in the paper.

The offline pass runs on the vectorized bin-matching primitives of
:mod:`repro.predictability.binmatch` (one NumPy pass over the whole
trace); the online learner is the per-packet :meth:`BucketPredictor.observe`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..net.dns import DnsTable
from ..net.flows import FlowDefinition, decode_flow_key, encode_flow_key, flow_key
from ..net.packet import Packet
from ..net.trace import Trace
from ..obs import NULL_OBS, Observability
from .binmatch import KeyInterner, repeated_iat_labels

__all__ = ["BucketPredictor", "label_predictable", "quantize_iat"]

#: Default IAT quantisation resolution in seconds.
DEFAULT_RESOLUTION = 0.25

#: Version of the serialised state schema (see :meth:`BucketPredictor.to_state`).
#: v2 drops the per-packet ``packets`` history unless tracking is enabled;
#: :meth:`BucketPredictor.from_state` refuses every other version.
_STATE_VERSION = 2


def quantize_iat(iat: float, resolution: float = DEFAULT_RESOLUTION) -> int:
    """Quantise an inter-arrival time into an integer bin.

    IATs are rounded to the *nearest* multiple of ``resolution``
    (``floor(iat / resolution + 0.5)``), so every bin ``k >= 1`` covers
    the half-open interval ``((k - 0.5) * resolution, (k + 0.5) *
    resolution]`` while bin 0 only covers ``(0, resolution / 2]`` — at
    the default 0.25 s resolution, ``quantize_iat(0.124) == 0`` but
    ``quantize_iat(0.125) == 1``.  Non-positive IATs (possible only with
    unsorted input) are clamped to bin 0.
    """
    if iat <= 0:
        return 0
    return int(math.floor(iat / resolution + 0.5))


class _BucketState:
    """Per-bucket history: last arrival and IAT-bin occurrence counts."""

    __slots__ = ("last_timestamp", "iat_bins", "packet_bins")

    def __init__(self) -> None:
        self.last_timestamp: Optional[float] = None
        #: bin -> number of times this IAT bin was computed
        self.iat_bins: Dict[int, int] = {}
        #: per observed packet (after the first): (packet_index, bin).
        #: Only populated when the owning predictor tracks packet bins —
        #: the online proxy must stay O(buckets x bins), not O(packets).
        self.packet_bins: List[Tuple[int, int]] = []


class BucketPredictor:
    """Online predictability learner / matcher.

    Parameters
    ----------
    definition:
        Flow definition used for bucketing (PortLess by default, as
        deployed by FIAT).
    dns:
        DNS table for PortLess domain resolution.
    resolution:
        IAT quantisation resolution in seconds.
    neighbor_bins:
        A new IAT matches a learned one when its bin is within this many
        bins of a previously seen bin (0 = exact bin match).  One
        neighbour bin absorbs boundary jitter.
    track_packet_bins:
        When true, every observed packet's (index, bin) pair is kept in
        its bucket's ``packet_bins`` history — an **offline-analysis**
        aid whose memory grows per packet.  Off by default: the
        long-running online proxy must stay bounded by buckets x bins
        (this was an unbounded leak when the history was unconditional),
        and its ``to_state`` snapshots/journals shrink accordingly.
    obs:
        Optional :class:`~repro.obs.Observability` handle backing
        :meth:`timed_observe`, which feeds the
        ``bucket_lookup_latency_ms`` histogram.  :meth:`observe` itself
        is never timed: the lookup body is sub-microsecond, so even a
        per-call sampling check would dominate it — the caller (the FIAT
        proxy) decides when to route a call through the timed variant.
    """

    def __init__(
        self,
        definition: FlowDefinition = FlowDefinition.PORTLESS,
        dns: Optional[DnsTable] = None,
        resolution: float = DEFAULT_RESOLUTION,
        neighbor_bins: int = 1,
        track_packet_bins: bool = False,
        obs: Optional[Observability] = None,
    ) -> None:
        self.definition = definition
        self.dns = dns
        self.resolution = resolution
        self.neighbor_bins = neighbor_bins
        self.track_packet_bins = track_packet_bins
        self._obs = obs if obs is not None else NULL_OBS
        self._buckets: Dict[Tuple[Hashable, ...], _BucketState] = defaultdict(_BucketState)
        self._n_observed = 0

    # -- online interface ---------------------------------------------------------

    def key_for(self, packet: Packet) -> Tuple[Hashable, ...]:
        """Bucket key of a packet under this predictor's flow definition."""
        return flow_key(packet, self.definition, self.dns)

    def _bin_matches(self, state: _BucketState, iat_bin: int) -> bool:
        for delta in range(-self.neighbor_bins, self.neighbor_bins + 1):
            if state.iat_bins.get(iat_bin + delta, 0) > 0:
                return True
        return False

    def timed_observe(self, packet: Packet) -> bool:
        """:meth:`observe` one packet, feeding ``bucket_lookup_latency_ms``.

        Unconditionally timed — callers are expected to sample (the FIAT
        proxy routes at most one call per
        :data:`~repro.obs.TIMING_SAMPLE_INTERVAL_S` simulated seconds
        through here), because the lookup body is sub-microsecond and a
        per-call check here would cost more than the <10 %
        instrumentation budget allows.
        """
        t0 = perf_counter()
        matched = self.observe(packet)
        self._obs.observe("bucket_lookup_latency_ms", (perf_counter() - t0) * 1000.0)
        return matched

    def observe(self, packet: Packet) -> bool:
        """Feed one packet; return ``True`` when it matches a learned IAT.

        The first packet of a bucket is never predictable online (there is
        no IAT yet), and the second is predictable only if its IAT matches
        an IAT learned from earlier traffic.
        """
        state = self._buckets[self.key_for(packet)]
        self._n_observed += 1
        if state.last_timestamp is None:
            state.last_timestamp = packet.timestamp
            return False
        iat = packet.timestamp - state.last_timestamp
        state.last_timestamp = packet.timestamp
        iat_bin = quantize_iat(iat, self.resolution)
        matched = self._bin_matches(state, iat_bin)
        state.iat_bins[iat_bin] = state.iat_bins.get(iat_bin, 0) + 1
        if self.track_packet_bins:
            state.packet_bins.append((self._n_observed - 1, iat_bin))
        return matched

    def learn_trace(self, trace: Iterable[Packet]) -> None:
        """Feed a (bootstrap) trace without collecting the results."""
        for packet in trace:
            self.observe(packet)

    # -- learned-state inspection ---------------------------------------------------

    @property
    def n_buckets(self) -> int:
        """Number of distinct flow buckets seen so far."""
        return len(self._buckets)

    def recurring_buckets(self) -> List[Tuple[Tuple[Hashable, ...], Set[int]]]:
        """Buckets with at least one IAT bin seen twice, with those bins.

        These are the flows the FIAT proxy converts into allow rules
        after the bootstrap window.
        """
        result = []
        for key, state in self._buckets.items():
            repeated = {b for b, count in state.iat_bins.items() if count >= 2}
            if repeated:
                result.append((key, repeated))
        return result

    def learned_bins(self, key: Tuple[Hashable, ...]) -> Set[int]:
        """All IAT bins ever computed for a bucket (empty if unseen)."""
        state = self._buckets.get(key)
        return set(state.iat_bins) if state else set()

    def last_seen(self, key: Tuple[Hashable, ...]) -> Optional[float]:
        """Timestamp of the bucket's most recent packet (None if unseen)."""
        state = self._buckets.get(key)
        return state.last_timestamp if state else None

    # -- durable state ------------------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """Serialise the learned bucket tables (versioned, JSON-native).

        Bucket iteration order is preserved so a restored predictor
        freezes rules in the same order as an uninterrupted one.  The
        per-packet ``packets`` history is emitted only when tracking is
        enabled — the online learner's state is O(buckets x bins), so
        snapshots and journals stay flat no matter how long the proxy
        has been running.
        """
        buckets = []
        for key, state in self._buckets.items():
            encoded: Dict[str, object] = {
                "last": state.last_timestamp,
                "bins": {str(b): count for b, count in state.iat_bins.items()},
            }
            if self.track_packet_bins:
                encoded["packets"] = [[index, b] for index, b in state.packet_bins]
            buckets.append([encode_flow_key(key), encoded])
        return {
            "v": _STATE_VERSION,
            "definition": self.definition.value,
            "resolution": self.resolution,
            "neighbor_bins": self.neighbor_bins,
            "track_packet_bins": self.track_packet_bins,
            "n_observed": self._n_observed,
            "buckets": buckets,
        }

    @classmethod
    def from_state(
        cls,
        state: Dict[str, object],
        dns: Optional[DnsTable] = None,
        obs: Optional[Observability] = None,
    ) -> "BucketPredictor":
        """Rebuild a predictor from :meth:`to_state` output.

        Accepts the current v2 schema only; any other version raises
        ``ValueError``.

        ``dns`` and ``obs`` are process-local resources (the DNS table is
        rebuilt by the host, the observability handle belongs to the new
        process) and are therefore re-injected rather than serialised.
        """
        version = state.get("v")
        if version != _STATE_VERSION:
            raise ValueError(f"unsupported BucketPredictor state version: {version!r}")
        predictor = cls(
            definition=FlowDefinition(state["definition"]),
            dns=dns,
            resolution=float(state["resolution"]),
            neighbor_bins=int(state["neighbor_bins"]),
            track_packet_bins=bool(state["track_packet_bins"]),
            obs=obs,
        )
        predictor._n_observed = int(state["n_observed"])
        for encoded_key, encoded in state["buckets"]:  # type: ignore[union-attr]
            bucket = _BucketState()
            last = encoded["last"]
            bucket.last_timestamp = None if last is None else float(last)
            bucket.iat_bins = {int(b): int(count) for b, count in encoded["bins"].items()}
            if predictor.track_packet_bins:
                bucket.packet_bins = [(int(i), int(b)) for i, b in encoded["packets"]]
            predictor._buckets[decode_flow_key(encoded_key)] = bucket
        return predictor


def label_predictable(
    trace: Trace,
    definition: FlowDefinition = FlowDefinition.PORTLESS,
    dns: Optional[DnsTable] = None,
    resolution: float = DEFAULT_RESOLUTION,
    neighbor_bins: int = 1,
) -> List[bool]:
    """Offline, retroactive predictability labelling (paper §2.1).

    Returns one boolean per packet of ``trace`` (in timestamp order).
    A packet is predictable when the IAT bin linking it to the previous
    packet of its bucket occurs **at least twice** anywhere in the trace
    (counting ±``neighbor_bins`` as the same bin); both the earlier and
    later packets of a repeated IAT are marked, which realises the
    paper's "previous or future" retroactivity.  The first packet of a
    bucket is marked predictable when the bucket contains any repeated
    IAT involving its successor, i.e. when the flow itself is periodic
    from the start.

    Runs on the vectorized primitives of :mod:`repro.predictability.binmatch`
    (one NumPy pass over the whole trace).
    """
    dns = dns if dns is not None else trace.dns
    n = len(trace)
    if n == 0:
        return []

    interner = KeyInterner(definition, dns)
    intern = interner.intern
    kids = np.fromiter((intern(p) for p in trace), dtype=np.int64, count=n)
    timestamps = np.fromiter((p.timestamp for p in trace), dtype=np.float64, count=n)

    return repeated_iat_labels(kids, timestamps, resolution, neighbor_bins).tolist()
