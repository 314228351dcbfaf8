"""Access-control rule table learned during bootstrap (paper §5.4).

During the 20-minute bootstrap FIAT allows all traffic and feeds it to a
:class:`~repro.predictability.buckets.BucketPredictor`.  Afterwards the
recurring buckets — flows that exhibited at least one repeated
inter-arrival time — are frozen into *allow rules* under the PortLess
definition.  At enforcement time a packet "hits" when its bucket is a
rule and its IAT since the bucket's previous packet matches a learned
bin (± one neighbour bin); rule hits are allowed immediately, misses
enter the unpredictable-event path.

Rules are per device and per location and are deliberately not
transferred between deployments (the heuristic depends on IPs/domains,
which are geolocation-sensitive — §4.3).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set, Tuple

from ..net.dns import DnsTable
from ..net.flows import FlowDefinition, decode_flow_key, encode_flow_key, flow_key
from ..net.packet import Packet
from ..predictability.buckets import BucketPredictor, quantize_iat

__all__ = ["RuleTable"]

#: Version of the serialised state schema (see :meth:`RuleTable.to_state`).
_STATE_VERSION = 1


class RuleTable:
    """Frozen allow rules: bucket -> accepted IAT bins."""

    def __init__(
        self,
        definition: FlowDefinition,
        dns: Optional[DnsTable],
        resolution: float,
        neighbor_bins: int = 1,
    ) -> None:
        self.definition = definition
        self.dns = dns
        self.resolution = resolution
        self.neighbor_bins = neighbor_bins
        self._rules: Dict[Tuple[Hashable, ...], Set[int]] = {}
        self._last_seen: Dict[Tuple[Hashable, ...], float] = {}
        self._last_hit: Dict[Tuple[Hashable, ...], float] = {}
        self.n_hits = 0
        self.n_misses = 0

    @classmethod
    def from_predictor(cls, predictor: BucketPredictor) -> "RuleTable":
        """Freeze a bootstrap predictor's recurring buckets into rules."""
        table = cls(
            definition=predictor.definition,
            dns=predictor.dns,
            resolution=predictor.resolution,
            neighbor_bins=predictor.neighbor_bins,
        )
        for key, bins in predictor.recurring_buckets():
            table._rules[key] = set(bins)
        return table

    def __len__(self) -> int:
        return len(self._rules)

    def add_rule(self, key: Tuple[Hashable, ...], bins: Set[int]) -> None:
        """Manually install a rule (used by the §7 DAG extension)."""
        self._rules.setdefault(key, set()).update(bins)

    def matches(self, packet: Packet) -> bool:
        """Whether the packet hits an allow rule.

        Also maintains per-bucket last-seen timestamps so the IAT check
        works online.  A rule's first packet after bootstrap matches on
        bucket membership alone (there is no IAT to test yet).
        """
        key = flow_key(packet, self.definition, self.dns)
        bins = self._rules.get(key)
        last = self._last_seen.get(key)
        self._last_seen[key] = packet.timestamp
        if bins is None:
            self.n_misses += 1
            return False
        if last is None:
            self.n_hits += 1
            self._last_hit[key] = packet.timestamp
            return True
        iat_bin = quantize_iat(packet.timestamp - last, self.resolution)
        for delta in range(-self.neighbor_bins, self.neighbor_bins + 1):
            if iat_bin + delta in bins:
                self.n_hits += 1
                self._last_hit[key] = packet.timestamp
                return True
        self.n_misses += 1
        return False

    # -- drift adaptation (§7: temporal variation in device behaviour) ----------

    def expire_stale(self, now: float, ttl_s: float) -> int:
        """Drop rules whose flow has not hit for ``ttl_s`` seconds.

        Devices change behaviour over time (firmware updates, seasonal
        routines); an allow rule for a flow the device no longer sends
        is pure attack surface.  Returns the number of rules removed.
        Rules that never matched are aged from their installation
        (first ``matches`` call seeds ``_last_hit`` only on a hit, so an
        unseen rule's age is measured from the oldest recorded hit or
        treated as stale immediately once a sighting exists).
        """
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        stale = [
            key
            for key in self._rules
            if now - self._last_hit.get(key, self._last_seen.get(key, now)) > ttl_s
        ]
        for key in stale:
            del self._rules[key]
            self._last_hit.pop(key, None)
        return len(stale)

    def merge_from_predictor(
        self,
        predictor: BucketPredictor,
        now: float,
        max_idle_s: Optional[float] = None,
    ) -> int:
        """Adopt newly recurring buckets from a live predictor.

        Used by the proxy's periodic refresh: flows that became periodic
        *after* bootstrap (a new firmware heartbeat, a new season's
        routine) turn into rules without a full re-bootstrap.  Buckets
        idle for longer than ``max_idle_s`` are skipped, so a rule that
        :meth:`expire_stale` retired is not resurrected from the
        predictor's long memory.  Returns the number of new rules.
        """
        added = 0
        for key, bins in predictor.recurring_buckets():
            if max_idle_s is not None:
                last = predictor.last_seen(key)
                if last is None or now - last > max_idle_s:
                    continue
            if key not in self._rules:
                self._rules[key] = set(bins)
                self._last_hit[key] = now
                added += 1
            else:
                self._rules[key].update(bins)
        return added

    @property
    def hit_rate(self) -> float:
        """Fraction of checked packets that hit a rule."""
        total = self.n_hits + self.n_misses
        return self.n_hits / total if total else 0.0

    # -- durable state ------------------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """Serialise the frozen rule table (versioned, JSON-native).

        The allow rules are the product of the 20-minute bootstrap; a
        restart that lost them would silently re-enter bootstrap and
        mass-drop (or mass-allow) traffic the table already vetted.
        Rule order is preserved; bin sets are sorted for canonical bytes.
        """
        return {
            "v": _STATE_VERSION,
            "definition": self.definition.value,
            "resolution": self.resolution,
            "neighbor_bins": self.neighbor_bins,
            "rules": [[encode_flow_key(k), sorted(bins)] for k, bins in self._rules.items()],
            "last_seen": [[encode_flow_key(k), t] for k, t in self._last_seen.items()],
            "last_hit": [[encode_flow_key(k), t] for k, t in self._last_hit.items()],
            "n_hits": self.n_hits,
            "n_misses": self.n_misses,
        }

    @classmethod
    def from_state(
        cls, state: Dict[str, object], dns: Optional[DnsTable] = None
    ) -> "RuleTable":
        """Rebuild a rule table from :meth:`to_state` output."""
        if state.get("v") != _STATE_VERSION:
            raise ValueError(f"unsupported RuleTable state version: {state.get('v')!r}")
        table = cls(
            definition=FlowDefinition(state["definition"]),
            dns=dns,
            resolution=float(state["resolution"]),
            neighbor_bins=int(state["neighbor_bins"]),
        )
        for encoded_key, bins in state["rules"]:  # type: ignore[union-attr]
            table._rules[decode_flow_key(encoded_key)] = {int(b) for b in bins}
        for encoded_key, t in state["last_seen"]:  # type: ignore[union-attr]
            table._last_seen[decode_flow_key(encoded_key)] = float(t)
        for encoded_key, t in state["last_hit"]:  # type: ignore[union-attr]
            table._last_hit[decode_flow_key(encoded_key)] = float(t)
        table.n_hits = int(state["n_hits"])
        table.n_misses = int(state["n_misses"])
        return table
