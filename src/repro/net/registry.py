"""RIR delegation registry and Team-Cymru-style whois lookup.

The paper learns each ground-truth address's RIR "from querying Team Cymru
whois database" (§2.3.3).  This module provides that whole path:

* :class:`DelegationRegistry` — the authority that hands address blocks to
  organizations within each RIR's address space and answers longest-prefix
  queries about who holds an address;
* :class:`TeamCymruWhois` — the query front-end with the record shape the
  real ``whois.cymru.com`` bulk interface returns (ASN, BGP prefix, country
  code, registry).

Registered country is an *organizational* attribute: a multinational
carrier's ARIN block is registered in the US even when the addressed
router sits in Amsterdam.  Geolocation databases that fall back on
registry data inherit exactly this bias — the mechanism behind the
paper's §5.2.3 ARIN case study.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.geo.rir import RIR
from repro.net.ip import (
    IPv4Address,
    IPv4Network,
    PrefixPool,
    address_int,
    parse_address,
    parse_network,
)


class UnallocatedAddressError(LookupError):
    """Raised when an address is not covered by any delegation."""


#: Top-level IPv4 space each RIR administers in the simulation.  The split
#: mirrors the real IANA /8 ledger's proportions: ARIN and RIPE NCC hold
#: the lion's share, APNIC a large chunk, LACNIC and AFRINIC less.
RIR_PARENT_BLOCKS: dict[RIR, tuple[str, ...]] = {
    RIR.ARIN: ("63.0.0.0/8", "64.0.0.0/8", "65.0.0.0/8", "66.0.0.0/8", "96.0.0.0/8"),
    RIR.RIPENCC: ("77.0.0.0/8", "78.0.0.0/8", "79.0.0.0/8", "80.0.0.0/8", "193.0.0.0/8"),
    RIR.APNIC: ("101.0.0.0/8", "110.0.0.0/8", "111.0.0.0/8", "202.0.0.0/8"),
    RIR.LACNIC: ("177.0.0.0/8", "179.0.0.0/8", "200.0.0.0/8"),
    RIR.AFRINIC: ("41.0.0.0/8", "102.0.0.0/8", "105.0.0.0/8"),
}


@dataclass(frozen=True, slots=True)
class Delegation:
    """One RIR allocation: a prefix held by an organization."""

    prefix: IPv4Network
    rir: RIR
    asn: int
    registered_country: str
    organization: str

    def __contains__(self, address: IPv4Address | str | int) -> bool:
        return parse_address(address) in self.prefix


@dataclass(frozen=True, slots=True)
class WhoisRecord:
    """The answer shape of a Team-Cymru-style bulk whois query."""

    address: IPv4Address
    asn: int
    bgp_prefix: IPv4Network
    country: str
    registry: RIR
    organization: str

    def as_pipe_row(self) -> str:
        """Render like the real ``whois.cymru.com`` verbose output."""
        return (
            f"{self.asn:<7}| {self.address!s:<16}| {self.bgp_prefix!s:<19}| "
            f"{self.country} | {self.registry.value.lower():<8}| {self.organization}"
        )


class DelegationRegistry:
    """Allocates prefixes to organizations and answers coverage queries."""

    def __init__(self, parent_blocks: dict[RIR, tuple[str, ...]] | None = None):
        blocks = parent_blocks if parent_blocks is not None else RIR_PARENT_BLOCKS
        if set(blocks) != set(RIR):
            missing = set(RIR) - set(blocks)
            raise ValueError(f"parent blocks missing for: {sorted(r.value for r in missing)}")
        self._pools = {
            rir: PrefixPool([parse_network(p) for p in prefixes])
            for rir, prefixes in blocks.items()
        }
        # Delegations sorted by network start for bisect lookup.  Pools never
        # overlap, so sorted order is also interval order.
        self._starts: list[int] = []
        self._delegations: list[Delegation] = []

    @classmethod
    def from_delegations(cls, delegations: list[Delegation]) -> "DelegationRegistry":
        """Rebuild a registry from previously-recorded delegations.

        Used when loading released study artifacts: the reconstructed
        registry answers :meth:`lookup`/:meth:`rir_of` exactly as the
        original did, but cannot :meth:`allocate` further space (it has no
        authority over the free pools).  Delegations must not overlap.
        """
        registry = cls()
        ordered = sorted(delegations, key=lambda d: int(d.prefix.network_address))
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.prefix.overlaps(later.prefix):
                raise ValueError(
                    f"overlapping delegations: {earlier.prefix} and {later.prefix}"
                )
        registry._starts = [int(d.prefix.network_address) for d in ordered]
        registry._delegations = ordered
        registry._pools = None  # read-only: allocation authority not restored
        return registry

    def allocate(
        self,
        rir: RIR,
        *,
        asn: int,
        registered_country: str,
        organization: str,
        prefix_len: int = 20,
    ) -> Delegation:
        """Delegate the next free ``/prefix_len`` in ``rir``'s space."""
        if self._pools is None:
            raise RuntimeError(
                "this registry was rebuilt from recorded delegations and is read-only"
            )
        prefix = self._pools[rir].allocate(prefix_len)
        delegation = Delegation(prefix, rir, asn, registered_country.upper(), organization)
        start = int(prefix.network_address)
        index = bisect.bisect_left(self._starts, start)
        self._starts.insert(index, start)
        self._delegations.insert(index, delegation)
        return delegation

    def lookup(self, address: IPv4Address | str | int) -> Delegation:
        """The delegation covering ``address`` (they never overlap)."""
        addr = int(parse_address(address))
        index = bisect.bisect_right(self._starts, addr) - 1
        if index >= 0:
            delegation = self._delegations[index]
            if addr < int(delegation.prefix.network_address) + delegation.prefix.num_addresses:
                return delegation
        raise UnallocatedAddressError(str(parse_address(address)))

    def rir_of(self, address: IPv4Address | str | int) -> RIR:
        """Shorthand for ``lookup(address).rir``."""
        return self.lookup(address).rir

    def delegations(self) -> tuple[Delegation, ...]:
        """All delegations in address order."""
        return tuple(self._delegations)

    def __len__(self) -> int:
        return len(self._delegations)


#: Default per-service memo capacity.  The paper's ground truth is ~16.6 K
#: addresses; 64 K entries memoises every address the study queries while
#: still bounding memory for adversarial workloads.
DEFAULT_WHOIS_CACHE_SIZE = 65536


class TeamCymruWhois:
    """IP→ASN/RIR mapping service over a delegation registry.

    Models the interface of the Team Cymru whois database the paper used:
    callers submit addresses, the service answers with origin ASN, covering
    BGP prefix, registered country, and delegating registry.

    Successful answers are memoised in a bounded LRU (delegations are
    immutable, so entries never go stale): the accuracy-by-RIR split and
    the ARIN case study re-query the same ground-truth addresses, and the
    repeats now cost one cache probe instead of a registry bisect.
    Unallocated addresses are *not* cached — every failing query still
    raises (and counts) exactly as before.  ``whois.queries`` counts all
    calls, hits included; hits additionally count ``whois.cache_hits``.

    **Thread-safety (audited for the concurrent enrichment workers).**
    ``lookup`` is safe to call from many threads: the LRU memo is an
    internally-locked :class:`~repro.serve.cache.LruCache` (every
    get/put/counter mutation happens under its lock), the delegation
    registry is immutable after construction, and the metrics registry
    locks its own counters.  Worst case under contention is a benign
    duplicate compute — two threads miss the same address, both bisect
    the registry, both ``put`` the identical immutable record — never a
    torn record or a lost counter.  The hammer regression test
    (``tests/net/test_whois_hammer.py``) drives this with 8 threads over
    a deliberately tiny, eviction-heavy cache.
    """

    def __init__(
        self,
        registry: DelegationRegistry,
        metrics=None,
        *,
        cache_size: int = DEFAULT_WHOIS_CACHE_SIZE,
    ):
        self._registry = registry
        self._metrics = metrics
        if cache_size > 0:
            # Deferred import: repro.serve pulls in repro.core at package
            # import time, which (transitively) loads this module.
            from repro.serve.cache import LruCache

            self._cache = LruCache(cache_size)
        else:
            self._cache = None

    def attach_metrics(self, metrics) -> None:
        """Emit ``whois.*`` counters into ``metrics`` on every query.

        Pass ``None`` to detach and restore the uninstrumented path.
        """
        self._metrics = metrics

    def cache_clear(self) -> None:
        """Drop every memoised answer (a no-op with the cache disabled)."""
        if self._cache is not None:
            self._cache.clear()

    def lookup(self, address: IPv4Address | str | int) -> WhoisRecord:
        """Resolve one address to its origin ASN, prefix, country, and RIR.

        The memo is keyed by the address integer, so the text, integer
        and object forms of one address share an entry; the record's
        address object is built only on a miss.
        """
        addr = address_int(address)
        if self._metrics is not None:
            self._metrics.inc("whois.queries")
        cache = self._cache
        if cache is not None:
            try:
                record = cache.get(addr)
            except KeyError:
                pass
            else:
                if self._metrics is not None:
                    self._metrics.inc("whois.cache_hits")
                return record
        try:
            delegation = self._registry.lookup(addr)
        except UnallocatedAddressError:
            if self._metrics is not None:
                self._metrics.inc("whois.unallocated")
            raise
        record = WhoisRecord(
            address=IPv4Address(addr),
            asn=delegation.asn,
            bgp_prefix=delegation.prefix,
            country=delegation.registered_country,
            registry=delegation.rir,
            organization=delegation.organization,
        )
        if cache is not None:
            cache.put(addr, record)
        return record

    def bulk_lookup(self, addresses) -> list[WhoisRecord]:
        """Bulk query, mirroring the netcat bulk mode of the real service."""
        if self._metrics is not None:
            self._metrics.inc("whois.bulk_queries")
        return [self.lookup(address) for address in addresses]
