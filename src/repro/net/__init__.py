"""Addressing and registry substrate: IPv4 helpers, ASes, RIR delegations."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "asn": ("ASRole", "AutonomousSystem"),
        "ip": (
            "AddressPoolExhaustedError",
            "IPv4Address",
            "IPv4Network",
            "PrefixPool",
            "block_of",
            "hosts_in",
            "nth_address",
            "parse_address",
            "parse_network",
        ),
        "registry": (
            "RIR_PARENT_BLOCKS",
            "Delegation",
            "DelegationRegistry",
            "TeamCymruWhois",
            "UnallocatedAddressError",
            "WhoisRecord",
        ),
    },
)
