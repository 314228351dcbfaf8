"""Vectorized flow-bucket / IAT-bin primitives behind offline labelling.

The NumPy inner loop of
:func:`~repro.predictability.buckets.label_predictable`: flow keys are
interned to small integer bucket ids, per-bucket predecessor chains and
IAT bins are computed for the whole trace in one pass, and repeated
bins are counted over the ±``neighbor_bins`` window.

Everything here is **bit-equal** to the scalar reference code: the same
IEEE-754 expression as :func:`~repro.predictability.buckets.quantize_iat`
evaluated element-wise, and per-bucket predecessor chains recovered with
a stable argsort so within-bucket order matches the trace order
exactly.

Buckets and bins are packed into a single int64 *pair code*
``kid * PAIR_SHIFT + bin`` for sorted-array counting
(``np.searchsorted``).  Callers must guard with :func:`codes_safe` and
fall back to the scalar path for pathological bins (an IAT of weeks at a
micro-second resolution); real traffic never gets close.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..net.dns import DnsTable
from ..net.flows import FlowDefinition, flow_key
from ..net.packet import Direction, Packet

__all__ = [
    "PAIR_SHIFT",
    "KeyInterner",
    "quantize_iat_array",
    "chain_prev",
    "codes_safe",
    "pair_codes",
    "neighbor_counts",
]

#: Bins per bucket id in the packed pair code.  2**21 bins covers IATs of
#: ~6 days at the default 0.25 s resolution; anything beyond trips
#: :func:`codes_safe` and the caller's scalar fallback.
PAIR_SHIFT = 1 << 21


class KeyInterner:
    """Memoised flow-key computation: packet -> small integer bucket id.

    Interning happens in trace order, so bucket ids are assigned in
    first occurrence order of the *flow key*.  The raw-attribute memo
    skips the :func:`~repro.net.flows.flow_key` call (and its DNS lookup)
    for repeat flows.  The memo assumes the DNS table does not change
    while the interner is in use, so build one interner per pass.
    """

    __slots__ = ("definition", "dns", "memo", "keys", "_key_ids", "_classic")

    def __init__(self, definition: FlowDefinition, dns: Optional[DnsTable]) -> None:
        self.definition = definition
        self.dns = dns
        #: raw attribute tuple -> bucket id
        self.memo: Dict[Tuple[Hashable, ...], int] = {}
        #: bucket id -> flow key (append-only)
        self.keys: List[Tuple[Hashable, ...]] = []
        self._key_ids: Dict[Tuple[Hashable, ...], int] = {}
        self._classic = definition is FlowDefinition.CLASSIC

    def raw(self, packet: Packet) -> Tuple[Hashable, ...]:
        """Memo key: the packet attributes the flow key depends on."""
        if self._classic:
            return (
                packet.src_ip,
                packet.dst_ip,
                packet.src_port,
                packet.dst_port,
                packet.protocol,
                packet.size,
            )
        # PortLess: ports are irrelevant; direction disambiguates which
        # address is the device and which the (DNS-resolved) remote.  It
        # is stored as a bool — hashing an Enum member runs its
        # Python-level __hash__ on every memo probe, and this tuple is
        # hashed once per packet.
        return (
            packet.src_ip,
            packet.dst_ip,
            packet.direction is Direction.OUTBOUND,
            packet.protocol,
            packet.size,
        )

    def intern(self, packet: Packet) -> int:
        """Bucket id of a packet (interning it on first sight)."""
        rk = self.raw(packet)
        kid = self.memo.get(rk)
        if kid is None:
            kid = self.intern_slow(packet, rk)
        return kid

    def intern_slow(self, packet: Packet, rk: Tuple[Hashable, ...]) -> int:
        """Memo miss: compute the flow key and assign / reuse its id."""
        key = flow_key(packet, self.definition, self.dns)
        kid = self._key_ids.get(key)
        if kid is None:
            kid = len(self.keys)
            self.keys.append(key)
            self._key_ids[key] = kid
        self.memo[rk] = kid
        return kid


def quantize_iat_array(iats: np.ndarray, resolution: float) -> np.ndarray:
    """Vectorized :func:`~repro.predictability.buckets.quantize_iat`.

    Bit-equal to the scalar reference: the same ``floor(iat/res + 0.5)``
    double-precision expression, with non-positive (and NaN — "no
    predecessor", masked by callers) IATs clamped to bin 0.
    """
    iats = np.asarray(iats, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        bins = np.floor(iats / resolution + 0.5)
        positive = iats > 0
    return np.where(positive, bins, 0.0).astype(np.int64)


def chain_prev(kids: np.ndarray, timestamps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-packet predecessor within its bucket, preserving feed order.

    Returns ``(prev_index, prev_ts)``: for each packet, the index and
    timestamp of the previous packet with the same bucket id, or
    ``(-1, NaN)`` for the first packet of a bucket.  A stable argsort
    groups packets by bucket while keeping feed order within each
    bucket — exactly the order the scalar per-bucket ``last_timestamp``
    update would see.
    """
    n = len(kids)
    prev_index = np.full(n, -1, dtype=np.int64)
    prev_ts = np.full(n, np.nan, dtype=np.float64)
    if n == 0:
        return prev_index, prev_ts
    order = np.argsort(kids, kind="stable")
    k_sorted = kids[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(k_sorted[1:], k_sorted[:-1], out=first[1:])
    prev_sorted = np.empty(n, dtype=np.int64)
    prev_sorted[0] = -1
    prev_sorted[1:] = order[:-1]
    prev_sorted[first] = -1
    prev_index[order] = prev_sorted
    with_prev = prev_index >= 0
    prev_ts[with_prev] = timestamps[prev_index[with_prev]]
    return prev_index, prev_ts


def codes_safe(kids: np.ndarray, bins: np.ndarray, neighbor_bins: int) -> bool:
    """Whether (kid, bin) pairs pack into int64 codes without collision."""
    if len(bins) == 0:
        return True
    max_bin = int(bins.max())
    if max_bin >= PAIR_SHIFT - neighbor_bins:
        return False
    max_kid = int(kids.max()) if len(kids) else 0
    return max_kid < (2**62) // PAIR_SHIFT


def pair_codes(kids: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Pack (bucket id, bin) pairs into sortable int64 codes."""
    return kids * PAIR_SHIFT + bins


def neighbor_counts(
    uniq_codes: np.ndarray,
    counts: np.ndarray,
    kids: np.ndarray,
    bins: np.ndarray,
    neighbor_bins: int,
) -> np.ndarray:
    """Summed occurrence counts over the ±``neighbor_bins`` window.

    ``uniq_codes``/``counts`` come from ``np.unique(..., return_counts)``
    over the trace's pair codes; the result is, per queried (kid, bin),
    the total number of occurrences of any neighbouring bin in the same
    bucket — the quantity the offline labelling pass thresholds at 2.
    """
    base = pair_codes(kids, bins)
    total = np.zeros(len(base), dtype=np.int64)
    if len(uniq_codes) == 0:
        return total
    for delta in range(-neighbor_bins, neighbor_bins + 1):
        targets = base + delta
        pos = np.searchsorted(uniq_codes, targets)
        pos_clipped = np.minimum(pos, len(uniq_codes) - 1)
        present = (pos < len(uniq_codes)) & (uniq_codes[pos_clipped] == targets)
        total += np.where(present, counts[pos_clipped], 0)
    return total
