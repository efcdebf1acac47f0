"""Majority-vote location inference — the prior-work methodology.

Earlier database studies had no router ground truth, so they inferred a
reference location by majority vote across the databases themselves
(Huffaker et al.'s Geocompare; Shavitt & Zilberman) and scored each
database against that inferred reference.  The paper's §5.1 warns that
"agreement between the databases … might also indicate a common incorrect
source of the geolocation information (e.g., registry data)".

This module implements the majority-vote methodology so the warning can
be *quantified*: evaluate databases against the vote, evaluate them
against real ground truth, and measure how much the vote flatters the
databases — and whom it flatters most.

:func:`majority_of_records` is the vote itself, over answer records
already resolved (the serving consensus calls it directly);
:func:`majority_location` stays duck-typed over any mapping of objects
with a ``lookup`` method; the bulk entry points
:func:`majority_vote_reference` and :func:`score_against_majority` read a
:class:`~repro.core.frame.LookupFrame` (prebuilt, or built from a
database mapping) like every other table-level stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from repro.core.frame import CITY_LEVEL, HAS_COUNTRY, LookupFrame, as_frame
from repro.geo.coordinates import GeoPoint, haversine_km
from repro.geodb.database import GeoDatabase
from repro.groundtruth.record import GroundTruthSet
from repro.net.ip import IPv4Address

DEFAULT_CITY_RANGE_KM = 40.0


@dataclass(frozen=True, slots=True)
class MajorityLocation:
    """The vote's answer for one address."""

    address: IPv4Address
    country: str | None  # plurality country (None = no quorum)
    country_votes: int
    location: GeoPoint | None  # medoid of the largest coordinate cluster
    location_votes: int
    voters: int


@dataclass(frozen=True, slots=True)
class MajorityAgreement:
    """One database scored against the majority vote."""

    database: str
    country_compared: int
    country_agreeing: int
    city_compared: int
    city_agreeing: int

    @property
    def country_rate(self) -> float:
        return self.country_agreeing / self.country_compared if self.country_compared else 0.0

    @property
    def city_rate(self) -> float:
        return self.city_agreeing / self.city_compared if self.city_compared else 0.0


def majority_location(
    address: IPv4Address,
    databases: Mapping[str, GeoDatabase],
    *,
    city_range_km: float = DEFAULT_CITY_RANGE_KM,
) -> MajorityLocation:
    """Infer one address's location by vote across the databases.

    Country: plurality of ISO codes (ties → no quorum).  Coordinates: the
    medoid of the largest cluster of answers within the city range of each
    other — the same co-location notion the comparative studies used.
    """
    return MajorityLocation(
        address,
        *majority_of_records(
            [database.lookup(address) for database in databases.values()],
            city_range_km=city_range_km,
        ),
    )


def majority_of_records(
    records,
    *,
    city_range_km: float = DEFAULT_CITY_RANGE_KM,
) -> tuple[str | None, int, GeoPoint | None, int, int]:
    """The vote itself over one address's answer records (``None`` = miss):
    ``(country, country_votes, location, location_votes, voters)``, the
    fields of :class:`MajorityLocation` after its address.

    Every vote runs here — the study's :func:`majority_location` and
    :func:`majority_vote_reference`, and the serving consensus, which
    resolves every vendor once and votes over those records directly —
    so all of them share one plurality, clustering, and tie-break rule.
    """
    countries: dict[str, int] = {}
    coordinates: list[GeoPoint] = []
    voters = 0
    for record in records:
        if record is None:
            continue
        voters += 1
        if record.country is not None:
            countries[record.country] = countries.get(record.country, 0) + 1
        if record.has_city and record.has_coordinates:
            coordinates.append(record.location)

    country = None
    country_votes = 0
    if countries:
        ranked = sorted(countries.items(), key=lambda kv: (-kv[1], kv[0]))
        top_count = ranked[0][1]
        if len(ranked) == 1 or ranked[1][1] < top_count:
            country, country_votes = ranked[0]

    location = None
    location_votes = 0
    if coordinates:
        best_cluster: list[GeoPoint] = []
        for candidate in coordinates:
            cluster = [
                point
                for point in coordinates
                if candidate.distance_km(point) <= city_range_km
            ]
            if len(cluster) > len(best_cluster):
                best_cluster = cluster
        if len(best_cluster) >= 2:  # a vote needs at least two concurring
            # Medoid: the member minimizing total distance to the cluster.
            location = min(
                best_cluster,
                key=lambda p: (sum(p.distance_km(q) for q in best_cluster), p.lat, p.lon),
            )
            location_votes = len(best_cluster)

    return country, country_votes, location, location_votes, voters


def disagreement_of_records(
    records, *, city_range_km: float = DEFAULT_CITY_RANGE_KM
) -> tuple[bool, bool]:
    """``(country_disagreement, city_disagreement)`` over answer records.

    The paper's §5.1 consistency notion: two answering databases name
    different ISO codes, or two city-level answers lie more than
    ``city_range_km`` apart.  The serving engine's live consensus and the
    answer plane's compile-time cells both derive their flags here.
    """
    countries = {r.country for r in records if r.country is not None}
    coordinates = [r.location for r in records if r.has_city and r.has_coordinates]
    city_disagreement = any(
        a.distance_km(b) > city_range_km for a, b in combinations(coordinates, 2)
    )
    return len(countries) > 1, city_disagreement


def majority_vote_reference(
    addresses: Sequence[IPv4Address],
    databases: Mapping[str, GeoDatabase] | LookupFrame,
    *,
    city_range_km: float = DEFAULT_CITY_RANGE_KM,
) -> dict[IPv4Address, MajorityLocation]:
    """The vote's reference location for every address.

    The per-address answers come from the frame's record columns.
    """
    pool = list(addresses)
    frame = as_frame(databases, pool)
    if len(frame.names) < 2:
        raise ValueError("a majority vote needs at least two databases")
    columns = [frame.column(name) for name in frame.names]
    return {
        address: MajorityLocation(
            address,
            *majority_of_records(
                [column.record_at(position) for column in columns],
                city_range_km=city_range_km,
            ),
        )
        for address, position in zip(pool, frame.positions(pool))
    }


def score_against_majority(
    databases: Mapping[str, GeoDatabase] | LookupFrame,
    reference: Mapping[IPv4Address, MajorityLocation],
    *,
    city_range_km: float = DEFAULT_CITY_RANGE_KM,
) -> dict[str, MajorityAgreement]:
    """Score each database against the vote (the prior-work metric)."""
    pool = list(reference)
    frame = as_frame(databases, pool)
    positions = frame.positions(pool)
    country_id_of = frame.countries.id_of
    scores = {}
    for name in frame.names:
        column = frame.column(name)
        flags = column.flags
        country_ids = column.country_ids
        lats = column.lats
        lons = column.lons
        country_compared = country_agreeing = 0
        city_compared = city_agreeing = 0
        for address, position in zip(pool, positions):
            value = flags[position]
            if not value:  # no coverage
                continue
            vote = reference[address]
            if vote.country is not None and value & HAS_COUNTRY:
                country_compared += 1
                country_agreeing += country_ids[position] == country_id_of(vote.country)
            if vote.location is not None and value & CITY_LEVEL == CITY_LEVEL:
                city_compared += 1
                city_agreeing += (
                    haversine_km(
                        lats[position],
                        lons[position],
                        vote.location.lat,
                        vote.location.lon,
                    )
                    <= city_range_km
                )
        scores[name] = MajorityAgreement(
            database=name,
            country_compared=country_compared,
            country_agreeing=country_agreeing,
            city_compared=city_compared,
            city_agreeing=city_agreeing,
        )
    return scores


@dataclass(frozen=True, slots=True)
class MajorityVsTruth:
    """How the vote's reference compares with real ground truth."""

    evaluated: int
    country_votes_with_quorum: int
    country_votes_correct: int
    city_votes_with_quorum: int
    city_votes_correct: int

    @property
    def country_vote_accuracy(self) -> float:
        if not self.country_votes_with_quorum:
            return 0.0
        return self.country_votes_correct / self.country_votes_with_quorum

    @property
    def city_vote_accuracy(self) -> float:
        if not self.city_votes_with_quorum:
            return 0.0
        return self.city_votes_correct / self.city_votes_with_quorum


def validate_majority_against_truth(
    reference: Mapping[IPv4Address, MajorityLocation],
    ground_truth: GroundTruthSet,
    *,
    city_range_km: float = DEFAULT_CITY_RANGE_KM,
) -> MajorityVsTruth:
    """Check the vote itself against ground truth — the paper's point:
    a confident majority can still be confidently wrong."""
    evaluated = 0
    country_quorum = country_correct = 0
    city_quorum = city_correct = 0
    for record in ground_truth:
        vote = reference.get(record.address)
        if vote is None:
            continue
        evaluated += 1
        if vote.country is not None:
            country_quorum += 1
            country_correct += vote.country == record.country
        if vote.location is not None:
            city_quorum += 1
            city_correct += vote.location.distance_km(record.location) <= city_range_km
    return MajorityVsTruth(
        evaluated=evaluated,
        country_votes_with_quorum=country_quorum,
        country_votes_correct=country_correct,
        city_votes_with_quorum=city_quorum,
        city_votes_correct=city_correct,
    )
