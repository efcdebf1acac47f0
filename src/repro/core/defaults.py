"""Default-coordinate detection in database answers.

§3.2 removes RIPE Atlas probes sitting on *default country coordinates* —
the geographic centre of a country, "often assigned to IP addresses due
to the lack of specific location information".  Databases do exactly the
same: when only the country is known, the published coordinates are the
country centroid (MaxMind documents this; the paper cites the convention
via [4, 9, 18]).

A study that feeds raw coordinates into distance computations without
checking for defaults will treat these country-level answers as precise
points hundreds of km from anything real.  This analysis measures how
much of a database's answer surface is default coordinates, so users can
filter them the way the paper filtered probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.frame import (
    HAS_CITY,
    HAS_COORDS,
    HAS_COUNTRY,
    LookupFrame,
    as_frame,
    column_frame,
)
from repro.geo.coordinates import GeoPoint
from repro.geo.countries import COUNTRIES, UnknownCountryError
from repro.geodb.database import GeoDatabase
from repro.net.ip import IPv4Address

DEFAULT_RADIUS_KM = 5.0


@dataclass(frozen=True, slots=True)
class DefaultCoordinateReport:
    """Prevalence of country-centroid answers for one database."""

    database: str
    answers_with_coordinates: int
    on_default_coordinates: int
    #: ...of which carried a city name anyway (suspicious records).
    city_level_defaults: int

    @property
    def default_rate(self) -> float:
        if not self.answers_with_coordinates:
            return 0.0
        return self.on_default_coordinates / self.answers_with_coordinates


def is_default_coordinate(
    country: str, location: GeoPoint, *, radius_km: float = DEFAULT_RADIUS_KM
) -> bool:
    """True when ``location`` is the country's centre-of-country default."""
    try:
        info = COUNTRIES.get(country)
    except UnknownCountryError:
        return False
    centroid = GeoPoint(info.centroid_lat, info.centroid_lon)
    return location.distance_km(centroid) <= radius_km


_NEEDED = HAS_COORDS | HAS_COUNTRY


def detect_default_coordinates(
    database: GeoDatabase | str,
    addresses: Iterable[IPv4Address],
    *,
    radius_km: float = DEFAULT_RADIUS_KM,
    frame: LookupFrame | None = None,
) -> DefaultCoordinateReport:
    """Scan a database's answers over a population for default coordinates.

    With ``frame``, ``database`` may be just the column name; without
    it, a one-column frame is built over ``addresses``.
    """
    if radius_km <= 0:
        raise ValueError(f"radius must be positive: {radius_km!r}")
    pool = list(addresses)
    name, frame = column_frame(database, pool, frame)
    column = frame.column(name)
    flags = column.flags
    country_ids = column.country_ids
    lats = column.lats
    lons = column.lons
    country_of = frame.countries.value_of
    with_coords = on_default = city_defaults = 0
    for position in frame.positions(pool):
        value = flags[position]
        if value & _NEEDED != _NEEDED:
            continue
        with_coords += 1
        if is_default_coordinate(
            country_of(country_ids[position]),
            GeoPoint(lats[position], lons[position]),
            radius_km=radius_km,
        ):
            on_default += 1
            if value & HAS_CITY:
                city_defaults += 1
    return DefaultCoordinateReport(
        database=name,
        answers_with_coordinates=with_coords,
        on_default_coordinates=on_default,
        city_level_defaults=city_defaults,
    )


def default_coordinate_table(
    databases: Mapping[str, GeoDatabase] | LookupFrame,
    addresses: Iterable[IPv4Address],
    *,
    radius_km: float = DEFAULT_RADIUS_KM,
) -> dict[str, DefaultCoordinateReport]:
    """The default-coordinate scan for every database.

    ``databases`` may be a raw mapping (resolved into a frame once) or a
    prebuilt :class:`~repro.core.frame.LookupFrame`.
    """
    if radius_km <= 0:
        raise ValueError(f"radius must be positive: {radius_km!r}")
    pool = list(addresses)
    frame = as_frame(databases, pool)
    return {
        name: detect_default_coordinates(name, pool, radius_km=radius_km, frame=frame)
        for name in frame.names
    }
