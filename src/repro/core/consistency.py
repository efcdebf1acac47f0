"""Cross-database consistency (methodology question (b), §4–§5.1).

Two analyses over the Ark-topo-router population:

* **country-level pairwise agreement** — straight ISO-code comparison
  where both databases answer (§5.1: MaxMind pair 99.6%, cross-vendor
  97.0–97.6%, all-four agreement 95.8%);
* **city-level pairwise distance CDFs** (Figure 1) — rather than
  comparing city *names* across vendors, the paper compares coordinates
  and calls two answers same-city when they fall within the 40 km city
  range.  Only addresses with city-level coordinates in *all* databases
  participate (the ~692 K subset).

:func:`consistency_analysis` reads a
:class:`~repro.core.frame.LookupFrame` (prebuilt, or resolved once from a
database mapping); the pairwise loops compare interned country ids and
coordinate arrays directly — the shared string table makes cross-database
agreement an integer comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.cdf import Ecdf
from repro.core.frame import CITY_LEVEL, LookupFrame, as_frame
from repro.geo.coordinates import haversine_km
from repro.geodb.database import GeoDatabase
from repro.net.ip import IPv4Address

DEFAULT_CITY_RANGE_KM = 40.0


@dataclass(frozen=True, slots=True)
class CountryPairAgreement:
    """Country-code agreement between two databases."""

    database_a: str
    database_b: str
    compared: int
    agreeing: int

    @property
    def rate(self) -> float:
        return self.agreeing / self.compared if self.compared else 0.0


@dataclass(frozen=True, slots=True)
class CityPairDistance:
    """Figure-1 series: the distance distribution between two databases'
    coordinates over the all-city-covered subset."""

    database_a: str
    database_b: str
    ecdf: Ecdf

    @property
    def identical_fraction(self) -> float:
        return self.ecdf.fraction_zero()

    def disagreement_beyond(self, km: float = DEFAULT_CITY_RANGE_KM) -> float:
        """Fraction of addresses the two databases place more than ``km`` apart."""
        return self.ecdf.fraction_beyond(km)


@dataclass(frozen=True, slots=True)
class ConsistencyReport:
    """Everything §5.1 reports."""

    country_pairs: tuple[CountryPairAgreement, ...]
    all_agree_compared: int
    all_agree_count: int
    city_subset_size: int
    city_pairs: tuple[CityPairDistance, ...]
    # Lazily built {frozenset{a, b} -> pair} indexes: pair lookups are
    # O(1) instead of a linear scan per call.  Excluded from equality and
    # repr — they are caches, not state.
    _pair_index: dict | None = field(default=None, repr=False, compare=False)

    @property
    def all_agree_rate(self) -> float:
        return self.all_agree_count / self.all_agree_compared if self.all_agree_compared else 0.0

    def _pairs(self) -> dict:
        index = self._pair_index
        if index is None:
            index = {
                "country": {
                    frozenset((pair.database_a, pair.database_b)): pair
                    for pair in self.country_pairs
                },
                "city": {
                    frozenset((pair.database_a, pair.database_b)): pair
                    for pair in self.city_pairs
                },
            }
            object.__setattr__(self, "_pair_index", index)
        return index

    def country_pair(self, name_a: str, name_b: str) -> CountryPairAgreement:
        """The country-agreement entry for an unordered database pair."""
        pair = self._pairs()["country"].get(frozenset((name_a, name_b)))
        if pair is None:
            raise KeyError(f"no such pair: {name_a} / {name_b}")
        return pair

    def city_pair(self, name_a: str, name_b: str) -> CityPairDistance:
        """The Figure-1 distance entry for an unordered database pair."""
        pair = self._pairs()["city"].get(frozenset((name_a, name_b)))
        if pair is None:
            raise KeyError(f"no such pair: {name_a} / {name_b}")
        return pair


def consistency_analysis(
    databases: Mapping[str, GeoDatabase] | LookupFrame,
    addresses: Iterable[IPv4Address],
) -> ConsistencyReport:
    """Run both §5.1 analyses over a population.

    ``databases`` may be a raw database mapping — the pool is resolved
    once into a frame — or a prebuilt
    :class:`~repro.core.frame.LookupFrame` covering the addresses.
    """
    pool = list(addresses)
    frame = as_frame(databases, pool)
    names = sorted(frame.names)
    if len(names) < 2:
        raise ValueError("consistency needs at least two databases")
    if frame is not databases and len(pool) == len(frame):
        positions: "range | list[int]" = range(len(frame))
    else:
        positions = frame.positions(pool)
    columns = {name: frame.column(name) for name in names}

    # One pool-ordered extraction per database; the pairwise loops then
    # run C-level zips instead of per-position double indexing.  When the
    # frame was built from this exact pool the columns already *are* in
    # pool order and are used as-is.
    def pool_ordered(values):
        if isinstance(positions, range):
            return values
        return list(map(values.__getitem__, positions))

    country_vectors = {name: pool_ordered(columns[name].country_ids) for name in names}

    country_pairs = []
    for name_a, name_b in itertools.combinations(names, 2):
        compared = agreeing = 0
        for id_a, id_b in zip(country_vectors[name_a], country_vectors[name_b]):
            if id_a < 0 or id_b < 0:  # uncovered, or no country code
                continue
            compared += 1
            agreeing += id_a == id_b
        country_pairs.append(CountryPairAgreement(name_a, name_b, compared, agreeing))

    all_compared = all_agree = 0
    for ids in zip(*(country_vectors[name] for name in names)):
        if min(ids) < 0:
            continue
        all_compared += 1
        first = ids[0]
        all_agree += all(identifier == first for identifier in ids[1:])

    # Figure-1 subset: city-level coordinates in every database.
    flag_vectors = [pool_ordered(columns[name].flags) for name in names]
    city_positions = [
        positions[index]
        for index, flag_tuple in enumerate(zip(*flag_vectors))
        if all(flags & CITY_LEVEL == CITY_LEVEL for flags in flag_tuple)
    ]
    city_coordinates = {
        name: (
            list(map(columns[name].lats.__getitem__, city_positions)),
            list(map(columns[name].lons.__getitem__, city_positions)),
        )
        for name in names
    }
    city_pairs = []
    for name_a, name_b in itertools.combinations(names, 2):
        lats_a, lons_a = city_coordinates[name_a]
        lats_b, lons_b = city_coordinates[name_b]
        distances = [
            haversine_km(lat_a, lon_a, lat_b, lon_b)
            for lat_a, lon_a, lat_b, lon_b in zip(lats_a, lons_a, lats_b, lons_b)
        ]
        city_pairs.append(CityPairDistance(name_a, name_b, Ecdf(distances)))

    return ConsistencyReport(
        country_pairs=tuple(country_pairs),
        all_agree_compared=all_compared,
        all_agree_count=all_agree,
        city_subset_size=len(city_positions),
        city_pairs=tuple(city_pairs),
    )
