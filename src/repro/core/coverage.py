"""Database coverage analysis (methodology question (a), §4).

Coverage is the probability of getting *any* answer for a router address,
reported separately at country and city resolution — §5.1's finding that
the MaxMind editions cover 99.3% of Ark addresses at country level but
only 43%/61.6% at city level is a coverage result, not an accuracy one.

Coverage is counted straight off a :class:`~repro.core.frame.LookupFrame`
flag column: a prebuilt frame is read as-is, and raw databases are
resolved into one first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.frame import CITY_LEVEL, HAS_COUNTRY, LookupFrame, as_frame, column_frame
from repro.geodb.database import GeoDatabase
from repro.net.ip import IPv4Address


@dataclass(frozen=True, slots=True)
class CoverageReport:
    """Coverage of one database over one address population."""

    database: str
    total: int
    country_covered: int
    city_covered: int

    @property
    def country_rate(self) -> float:
        return self.country_covered / self.total if self.total else 0.0

    @property
    def city_rate(self) -> float:
        return self.city_covered / self.total if self.total else 0.0

    def render(self) -> str:
        """One-line text summary of this coverage result."""
        return (
            f"{self.database:<18} country {self.country_rate:6.1%}   "
            f"city {self.city_rate:6.1%}   (n={self.total})"
        )


def _coverage_from_column(database: str, flags: Iterable[int], total: int) -> CoverageReport:
    """Count coverage bits over a frame flag column (or a slice of one)."""
    country = city = 0
    for value in flags:
        if value & HAS_COUNTRY:
            country += 1
        if value & CITY_LEVEL == CITY_LEVEL:
            city += 1
    return CoverageReport(
        database=database, total=total, country_covered=country, city_covered=city
    )


def coverage_analysis(
    database: GeoDatabase | str,
    addresses: Iterable[IPv4Address],
    *,
    frame: LookupFrame | None = None,
) -> CoverageReport:
    """Count country- and city-resolution answers over a population.

    With ``frame``, ``database`` may be just the column name; without
    it, a one-column frame is built over ``addresses``.
    """
    pool = list(addresses)
    name, frame = column_frame(database, pool, frame)
    flags = frame.column(name).flags
    positions = frame.positions(pool)
    return _coverage_from_column(name, map(flags.__getitem__, positions), len(positions))


def coverage_table(
    databases: Mapping[str, GeoDatabase] | LookupFrame,
    addresses: Iterable[IPv4Address],
) -> dict[str, CoverageReport]:
    """Coverage for every database over the same population.

    ``databases`` may be a raw database mapping (a frame is built on the
    fly, one resolution pass total) or an existing
    :class:`~repro.core.frame.LookupFrame` covering ``addresses``.
    """
    pool = list(addresses)
    frame = as_frame(databases, pool)
    if frame is not databases and len(pool) == len(frame):
        # freshly built, positions are exactly 0..n-1 in pool order
        return {
            name: _coverage_from_column(name, frame.column(name).flags, len(frame))
            for name in frame.names
        }
    positions = frame.positions(pool)
    return {
        name: _coverage_from_column(
            name,
            map(frame.column(name).flags.__getitem__, positions),
            len(positions),
        )
        for name in frame.names
    }
