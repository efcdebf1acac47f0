"""Brute-force longest-prefix-match oracle for served answers.

Built from the loaded ``CompiledIndex`` set: every entry the index
keeps becomes a ``(network, prefix length) -> (prefix, record)`` table
row, and an address is answered by probing lengths 32 down to 0.  That
is the definition of longest-prefix match, independent of the interval
sweep, the answer plane and the HTTP renderer it is checked against.
"""

from __future__ import annotations

import ipaddress
import json
from typing import Any, Mapping

_MASKS = [(0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF for length in range(33)]


def _render(prefix: str, record) -> dict[str, Any]:
    return {
        "prefix": prefix,
        "country": record.country,
        "region": record.region,
        "city": record.city,
        "latitude": record.latitude,
        "longitude": record.longitude,
        "resolution": record.resolution.value,
    }


class LpmOracle:
    def __init__(self, indexes: Mapping[str, Any]):
        self.tables: dict[str, dict[tuple[int, int], tuple[str, Any]]] = {}
        for name, index in indexes.items():
            _starts, _answers, entries, records = index.parts()
            table = {}
            for prefix, record_id in entries:
                network = ipaddress.IPv4Network(prefix)
                key = (int(network.network_address), network.prefixlen)
                table[key] = (prefix, records[record_id])
            self.tables[name] = table

    def answers(self, address: str) -> dict[str, dict[str, Any] | None]:
        """Every vendor's expected JSON answer for ``address``."""
        addr = int(ipaddress.IPv4Address(address))
        expected: dict[str, dict[str, Any] | None] = {}
        for name, table in self.tables.items():
            expected[name] = None
            for length in range(32, -1, -1):
                hit = table.get((addr & _MASKS[length], length))
                if hit is not None:
                    expected[name] = _render(*hit)
                    break
        return expected


def check_lookup_body(oracle: LpmOracle, ip: str, body: bytes) -> str | None:
    """``None`` when a ``/lookup`` body is right, else what is wrong."""
    try:
        payload = json.loads(body)
    except ValueError as exc:
        return f"/lookup {ip}: body is not JSON: {exc}"
    if payload.get("ip") != ip:
        return f"/lookup {ip}: body names ip {payload.get('ip')!r}"
    if payload.get("degraded") is not False:
        return f"/lookup {ip}: answer flagged degraded on a healthy server"
    if payload.get("answers") != oracle.answers(ip):
        return f"/lookup {ip}: answers differ from longest-prefix match"
    if not isinstance(payload.get("consensus"), dict):
        return f"/lookup {ip}: no consensus block"
    return None


def check_batch_body(oracle: LpmOracle, ips: list[str], body: bytes) -> str | None:
    """``None`` when a ``/batch`` body is right, else what is wrong."""
    try:
        payload = json.loads(body)
    except ValueError as exc:
        return f"/batch: body is not JSON: {exc}"
    results = payload.get("results")
    if payload.get("count") != len(ips) or not isinstance(results, list):
        return f"/batch: expected {len(ips)} results"
    for ip, item in zip(ips, results):
        if item.get("ip") != ip or "error" in item or item.get("degraded"):
            return f"/batch {ip}: item is {item!r}"
        if item.get("answers") != oracle.answers(ip):
            return f"/batch {ip}: answers differ from longest-prefix match"
    return None
