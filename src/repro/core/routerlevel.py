"""Router-level (alias-set) consistency of database answers.

§2.1 notes the 1.64 M interfaces belong to ~485 K routers per CAIDA's
ITDK alias resolution, but the paper's analyses stay at IP level.  This
analysis uses the alias sets the same data enables: all interfaces of one
physical router are, by definition, in exactly one place, so a database
that scatters a router's aliases across distant cities is measurably
inconsistent *without any ground truth at all* — a self-check any
researcher can run with just an ITDK snapshot and a database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.cdf import Ecdf
from repro.core.frame import HAS_COORDS, LookupFrame, as_frame, column_frame
from repro.geo.coordinates import GeoPoint
from repro.geodb.database import GeoDatabase
from repro.topology.itdk import AliasMap

DEFAULT_CITY_RANGE_KM = 40.0


@dataclass(frozen=True, slots=True)
class RouterConsistencyReport:
    """How coherently one database locates multi-interface routers."""

    database: str
    routers_evaluated: int  # alias sets with ≥2 located interfaces
    consistent_routers: int  # all aliases within the city range
    scatter_ecdf: Ecdf  # max pairwise distance per alias set
    country_split_routers: int  # aliases in more than one country

    @property
    def consistency_rate(self) -> float:
        if not self.routers_evaluated:
            return 0.0
        return self.consistent_routers / self.routers_evaluated

    @property
    def country_split_rate(self) -> float:
        if not self.routers_evaluated:
            return 0.0
        return self.country_split_routers / self.routers_evaluated


def _node_answers(column, frame, alias_map):
    """Yield ``(located GeoPoints, country ids)`` per alias set."""
    flags = column.flags
    country_ids = column.country_ids
    lats = column.lats
    lons = column.lons
    for addresses in alias_map.nodes.values():
        located = []
        countries = set()
        for position in frame.positions(addresses):
            value = flags[position]
            if not value & HAS_COORDS:
                continue
            located.append(GeoPoint(lats[position], lons[position]))
            identifier = country_ids[position]
            if identifier >= 0:
                countries.add(identifier)
        yield located, countries


def _alias_addresses(alias_map: AliasMap):
    """Every interface address of every alias set."""
    return (address for addresses in alias_map.nodes.values() for address in addresses)


def router_consistency(
    database: GeoDatabase | str,
    alias_map: AliasMap,
    *,
    city_range_km: float = DEFAULT_CITY_RANGE_KM,
    frame: LookupFrame | None = None,
) -> RouterConsistencyReport:
    """Measure alias-set coherence of a database's answers.

    With ``frame`` (covering every alias address), ``database`` may be
    just the column name; without it, a one-column frame is built over
    the alias addresses.
    """
    if city_range_km <= 0:
        raise ValueError(f"city range must be positive: {city_range_km!r}")
    name, frame = column_frame(database, _alias_addresses(alias_map), frame)
    evaluated = consistent = country_split = 0
    scatters = []
    for located, countries in _node_answers(frame.column(name), frame, alias_map):
        if len(located) < 2:
            continue
        evaluated += 1
        max_scatter = 0.0
        for i, a in enumerate(located):
            for b in located[i + 1 :]:
                distance = a.distance_km(b)
                if distance > max_scatter:
                    max_scatter = distance
        scatters.append(max_scatter)
        if max_scatter <= city_range_km:
            consistent += 1
        if len(countries) > 1:
            country_split += 1
    return RouterConsistencyReport(
        database=name,
        routers_evaluated=evaluated,
        consistent_routers=consistent,
        scatter_ecdf=Ecdf(scatters),
        country_split_routers=country_split,
    )


def router_consistency_table(
    databases: Mapping[str, GeoDatabase] | LookupFrame,
    alias_map: AliasMap,
    *,
    city_range_km: float = DEFAULT_CITY_RANGE_KM,
) -> dict[str, RouterConsistencyReport]:
    """Alias-set coherence for every database over one alias map.

    ``databases`` may be a raw mapping (the alias addresses are resolved
    into a frame once) or a prebuilt frame covering them.
    """
    if city_range_km <= 0:
        raise ValueError(f"city range must be positive: {city_range_km!r}")
    frame = as_frame(databases, _alias_addresses(alias_map))
    return {
        name: router_consistency(
            name, alias_map, city_range_km=city_range_km, frame=frame
        )
        for name in frame.names
    }
