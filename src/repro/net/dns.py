"""DNS name resolution table for the PortLess flow definition.

The paper obtains the remote domain name either from DNS requests present
in the trace or through a reverse DNS lookup sent to a fixed recursive
resolver (so one IP always maps to one name).  :class:`DnsTable` models
both sources: exact mappings learned from (simulated) DNS responses, and a
deterministic reverse-lookup fallback that may return a coarser *alias*
(the paper notes reverse lookups are less accurate because of domain
aliases; the ``alias_of`` mechanism reproduces that effect).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

__all__ = ["DnsTable"]


class DnsTable:
    """Bidirectional IP <-> domain mapping with reverse-lookup fallback.

    Parameters
    ----------
    records:
        Optional initial ``(ip, domain)`` pairs, as if observed in DNS
        responses in the trace.
    """

    def __init__(self, records: Optional[Iterable[Tuple[str, str]]] = None) -> None:
        self._ip_to_domain: Dict[str, str] = {}
        self._reverse: Dict[str, str] = {}
        self._aliases: Dict[str, str] = {}
        if records:
            for ip, domain in records:
                self.add_record(ip, domain)

    def add_record(self, ip: str, domain: str) -> None:
        """Register a forward DNS record (authoritative for this table)."""
        self._ip_to_domain[ip] = domain

    def add_reverse_record(self, ip: str, domain: str) -> None:
        """Register a PTR record used only when no forward record exists."""
        self._reverse[ip] = domain

    def add_alias(self, domain: str, canonical: str) -> None:
        """Declare ``domain`` to be an alias (CNAME) of ``canonical``."""
        self._aliases[domain] = canonical

    def canonicalize(self, domain: str) -> str:
        """Follow alias chains to the canonical domain name."""
        seen = set()
        while domain in self._aliases and domain not in seen:
            seen.add(domain)
            domain = self._aliases[domain]
        return domain

    def domain_for(self, ip: str) -> Optional[str]:
        """Resolve an IP to a canonical domain, or ``None`` if unknown.

        Forward records (from in-trace DNS) win over reverse lookups,
        matching the paper's methodology.
        """
        domain = self._ip_to_domain.get(ip) or self._reverse.get(ip)
        if domain is None:
            return None
        return self.canonicalize(domain)

    def ips_for(self, domain: str) -> Tuple[str, ...]:
        """All IPs known to map to ``domain`` (after canonicalisation)."""
        canonical = self.canonicalize(domain)
        hits = [
            ip
            for table in (self._ip_to_domain, self._reverse)
            for ip, dom in table.items()
            if self.canonicalize(dom) == canonical
        ]
        # preserve insertion order while deduplicating
        return tuple(dict.fromkeys(hits))

    def records(self) -> Dict[str, str]:
        """All forward ip -> domain records (for serialisation)."""
        return dict(self._ip_to_domain)

    def merge(self, other: "DnsTable") -> "DnsTable":
        """Return a new table with records from both tables (other wins ties)."""
        merged = DnsTable()
        merged._ip_to_domain = {**self._ip_to_domain, **other._ip_to_domain}
        merged._reverse = {**self._reverse, **other._reverse}
        merged._aliases = {**self._aliases, **other._aliases}
        return merged

    def __len__(self) -> int:
        return len(self._ip_to_domain) + len(self._reverse)

    def __contains__(self, ip: str) -> bool:
        return ip in self._ip_to_domain or ip in self._reverse
