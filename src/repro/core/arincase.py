"""The ARIN case study (§5.2.3).

Why is city-level accuracy worst in ARIN?  The paper dissects
MaxMind-Paid: (1) most non-US ARIN ground-truth addresses are geolocated
to the US anyway — registry data at work; (2) among ARIN addresses truly
in the US, most wrong city answers come from *block-level* records
(/24-or-larger prefixes carrying one location), far more often than
correct answers do.  This module computes the same dissection for any
database.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.frame import BLOCK_LEVEL, CITY_LEVEL, LookupFrame, column_frame
from repro.geo.coordinates import haversine_km
from repro.geo.rir import RIR
from repro.geodb.database import GeoDatabase
from repro.groundtruth.record import GroundTruthSet
from repro.net.registry import TeamCymruWhois

DEFAULT_CITY_RANGE_KM = 40.0
FAR_ERROR_KM = 1000.0


@dataclass(frozen=True, slots=True)
class ArinCaseStudy:
    """All the §5.2.3 quantities for one database."""

    database: str
    arin_total: int
    #: ARIN addresses whose ground-truth location is outside the US.
    arin_non_us: int
    #: ...of those, how many the database pulls into the US.
    pulled_to_us: int
    #: ...of the pulled, how many get a city-level answer,
    pulled_city_level: int
    #: ...and how many of those are >1000 km from the truth.
    pulled_city_far: int
    #: Ground-truth addresses actually in the US (any RIR).
    us_total: int
    #: ARIN+US addresses with a city-level answer.
    us_arin_city_covered: int
    #: ...of those, wrong at the city range.
    us_arin_city_wrong: int
    #: Block-level share among wrong and correct city answers.
    wrong_block_level: int
    correct_block_level: int

    @property
    def pulled_rate(self) -> float:
        return self.pulled_to_us / self.arin_non_us if self.arin_non_us else 0.0

    @property
    def us_city_error_rate(self) -> float:
        return (
            self.us_arin_city_wrong / self.us_arin_city_covered
            if self.us_arin_city_covered
            else 0.0
        )

    @property
    def wrong_block_level_rate(self) -> float:
        return self.wrong_block_level / self.us_arin_city_wrong if self.us_arin_city_wrong else 0.0

    @property
    def correct_block_level_rate(self) -> float:
        correct = self.us_arin_city_covered - self.us_arin_city_wrong
        return self.correct_block_level / correct if correct else 0.0


def arin_case_study(
    database: GeoDatabase | str,
    ground_truth: GroundTruthSet,
    whois: TeamCymruWhois,
    *,
    city_range_km: float = DEFAULT_CITY_RANGE_KM,
    far_km: float = FAR_ERROR_KM,
    frame: LookupFrame | None = None,
) -> ArinCaseStudy:
    """Compute the §5.2.3 dissection for one database.

    Coverage, city level, block level, and distances all come from frame
    columns.  With ``frame`` (covering every ground-truth address),
    ``database`` may be just the column name; without it, a one-column
    frame is built over the ground-truth addresses.
    """
    name, frame = column_frame(database, ground_truth.addresses(), frame)
    column = frame.column(name)
    flags = column.flags
    country_ids = column.country_ids
    lats = column.lats
    lons = column.lons
    position_of = frame.position
    us_id = frame.countries.id_of("US")
    arin_total = arin_non_us = pulled = pulled_city = pulled_far = 0
    us_total = 0
    us_city_covered = us_city_wrong = 0
    wrong_block = correct_block = 0
    for record in ground_truth:
        is_arin = whois.lookup(record.address).registry is RIR.ARIN
        truly_us = record.country == "US"
        if truly_us:
            us_total += 1
        if not is_arin:
            continue
        arin_total += 1
        position = position_of(record.address)
        value = flags[position]
        if not truly_us:
            arin_non_us += 1
            if value and country_ids[position] == us_id:
                pulled += 1
                if value & CITY_LEVEL == CITY_LEVEL:
                    pulled_city += 1
                    truth = record.location
                    error = haversine_km(
                        lats[position], lons[position], truth.lat, truth.lon
                    )
                    if error > far_km:
                        pulled_far += 1
            continue
        # ARIN addresses genuinely in the US: the block-level dissection.
        if value & CITY_LEVEL != CITY_LEVEL:
            continue
        us_city_covered += 1
        truth = record.location
        error = haversine_km(lats[position], lons[position], truth.lat, truth.lon)
        block_level = bool(value & BLOCK_LEVEL)
        if error > city_range_km:
            us_city_wrong += 1
            wrong_block += block_level
        else:
            correct_block += block_level
    return ArinCaseStudy(
        database=name,
        arin_total=arin_total,
        arin_non_us=arin_non_us,
        pulled_to_us=pulled,
        pulled_city_level=pulled_city,
        pulled_city_far=pulled_far,
        us_total=us_total,
        us_arin_city_covered=us_city_covered,
        us_arin_city_wrong=us_city_wrong,
        wrong_block_level=wrong_block,
        correct_block_level=correct_block,
    )
