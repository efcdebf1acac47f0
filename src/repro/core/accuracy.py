"""Ground-truth accuracy evaluation (§5.2).

The answer to methodology question (c): what is the probability a
database's answer is *correct*?  Correctness is ISO-code equality at
country level and distance ≤ the 40 km city range at city level, always
measured against the ground-truth dataset.  Breakdowns by RIR (§5.2.2,
Figures 3/5), by country (Figure 4), and by ground-truth source (§5.2.4)
all reuse the same per-subset evaluator.

Every evaluator reads a :class:`~repro.core.frame.LookupFrame` (a
prebuilt one, or one built over the ground-truth pool) through one
per-record scorer cached on the frame, so the whole §5.2 battery costs
a single resolution pass and a single scoring pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.cdf import Ecdf
from repro.core.frame import CITY_LEVEL, HAS_COUNTRY, LookupFrame, as_frame, column_frame
from repro.geo.coordinates import haversine_km
from repro.geo.rir import RIR
from repro.geodb.database import GeoDatabase
from repro.groundtruth.record import GroundTruthSet, GroundTruthSource
from repro.net.registry import TeamCymruWhois

DEFAULT_CITY_RANGE_KM = 40.0


@dataclass(frozen=True, slots=True)
class DatabaseAccuracy:
    """One database evaluated against one ground-truth (sub)set."""

    database: str
    subset: str
    total: int
    country_covered: int
    country_correct: int
    city_covered: int
    city_correct: int
    city_error_ecdf: Ecdf

    @property
    def country_coverage(self) -> float:
        return self.country_covered / self.total if self.total else 0.0

    @property
    def country_accuracy(self) -> float:
        """Fraction correct among covered (the paper's accuracy metric)."""
        return self.country_correct / self.country_covered if self.country_covered else 0.0

    @property
    def city_coverage(self) -> float:
        return self.city_covered / self.total if self.total else 0.0

    @property
    def city_accuracy(self) -> float:
        return self.city_correct / self.city_covered if self.city_covered else 0.0

    @property
    def country_incorrect(self) -> int:
        return self.country_covered - self.country_correct

    def render(self) -> str:
        """One-line text summary of this accuracy result."""
        return (
            f"{self.database:<18} [{self.subset}] "
            f"country {self.country_accuracy:6.1%} acc / {self.country_coverage:6.1%} cov   "
            f"city {self.city_accuracy:6.1%} acc / {self.city_coverage:6.1%} cov   "
            f"(n={self.total})"
        )


class _AccuracyScorer:
    """Per-record verdicts for every database over one ground-truth set.

    The §5.2 battery evaluates the *same* records four times — overall,
    then split by RIR, by country, and by source.  The verdicts (country
    covered/correct, city-level error distance) depend only on the
    database answer and the record, not on the split, so this scorer
    computes them once over the base set and each breakdown just
    aggregates its subset.  Cached on the frame's
    :attr:`~repro.core.frame.LookupFrame.stage_cache`, keyed by the base
    set's identity, so every stage of a study shares one pass.
    """

    __slots__ = ("base", "city_range_km", "records", "_index", "_by_db")

    def __init__(self, frame: LookupFrame, ground_truth: GroundTruthSet, city_range_km: float):
        self.base = ground_truth
        self.city_range_km = city_range_km
        records = self.records = list(ground_truth)
        self._index = {int(record.address): i for i, record in enumerate(records)}
        positions = frame.positions(record.address for record in records)
        country_id_of = frame.countries.id_of
        truth_ids = [country_id_of(record.country) for record in records]
        self._by_db: dict[str, tuple[bytearray, bytearray, list[float | None]]] = {}
        for name in frame.names:
            column = frame.column(name)
            flags = column.flags
            country_ids = column.country_ids
            lats = column.lats
            lons = column.lons
            has_country = bytearray(len(records))
            country_ok = bytearray(len(records))
            errors: list[float | None] = [None] * len(records)
            for i, (record, position, truth_id) in enumerate(
                zip(records, positions, truth_ids)
            ):
                value = flags[position]
                if not value:  # no coverage
                    continue
                if value & HAS_COUNTRY:
                    has_country[i] = 1
                    country_ok[i] = country_ids[position] == truth_id
                if value & CITY_LEVEL == CITY_LEVEL:
                    truth = record.location
                    errors[i] = haversine_km(
                        lats[position], lons[position], truth.lat, truth.lon
                    )
            self._by_db[name] = (has_country, country_ok, errors)

    def subset_indices(self, subset_set: GroundTruthSet) -> "range | list[int]":
        """Base-set indices of a subset (KeyError if not a subset)."""
        if subset_set is self.base:
            return range(len(self.records))
        index_of = self._index.__getitem__
        return [index_of(int(record.address)) for record in subset_set]

    def evaluate(
        self, name: str, indices: "range | list[int]", subset: str
    ) -> DatabaseAccuracy:
        has_country, country_ok, errors = self._by_db[name]
        country_covered = country_correct = city_covered = city_correct = 0
        city_errors: list[float] = []
        city_range_km = self.city_range_km
        for i in indices:
            country_covered += has_country[i]
            country_correct += country_ok[i]
            error = errors[i]
            if error is not None:
                city_covered += 1
                city_errors.append(error)
                city_correct += error <= city_range_km
        return DatabaseAccuracy(
            database=name,
            subset=subset,
            total=len(indices),
            country_covered=country_covered,
            country_correct=country_correct,
            city_covered=city_covered,
            city_correct=city_correct,
            city_error_ecdf=Ecdf(city_errors),
        )


def _accuracy_scorer(
    frame: LookupFrame, ground_truth: GroundTruthSet, city_range_km: float
) -> _AccuracyScorer:
    """The (frame, base set) scorer, cached on the frame."""
    key = ("accuracy_scorer", id(ground_truth), city_range_km)
    cached = frame.stage_cache.get(key)
    # The id() in the key could be recycled after the original set is
    # garbage-collected; the scorer pins its base, so identity confirms.
    if cached is not None and cached.base is ground_truth:
        return cached
    scorer = frame.stage_cache[key] = _AccuracyScorer(frame, ground_truth, city_range_km)
    return scorer


def evaluate_database(
    database: GeoDatabase | str,
    ground_truth: GroundTruthSet,
    *,
    subset: str = "all",
    city_range_km: float = DEFAULT_CITY_RANGE_KM,
    frame: LookupFrame | None = None,
) -> DatabaseAccuracy:
    """Evaluate one database over one ground-truth set.

    With ``frame`` (covering every ground-truth address), ``database``
    may be just the column name; without it, a one-column frame is built
    over the ground-truth addresses.
    """
    name, frame = column_frame(database, ground_truth.addresses(), frame)
    scorer = _accuracy_scorer(frame, ground_truth, city_range_km)
    return scorer.evaluate(name, scorer.subset_indices(ground_truth), subset)


def evaluate_all(
    databases: Mapping[str, GeoDatabase] | LookupFrame,
    ground_truth: GroundTruthSet,
    *,
    subset: str = "all",
    city_range_km: float = DEFAULT_CITY_RANGE_KM,
) -> dict[str, DatabaseAccuracy]:
    """Evaluate every database over the same set (Figure 2's series).

    ``databases`` may be a mapping (resolved into a frame once) or an
    existing frame covering at least this ground-truth set.
    """
    frame = as_frame(databases, ground_truth.addresses())
    scorer = _accuracy_scorer(frame, ground_truth, city_range_km)
    indices = scorer.subset_indices(ground_truth)
    return {name: scorer.evaluate(name, indices, subset) for name in frame.names}


def split_by_rir(
    ground_truth: GroundTruthSet, whois: TeamCymruWhois
) -> dict[RIR, GroundTruthSet]:
    """Partition a ground-truth set by delegating RIR (via whois)."""
    buckets: dict[RIR, list] = {rir: [] for rir in RIR}
    for record in ground_truth:
        buckets[whois.lookup(record.address).registry].append(record)
    return {
        rir: GroundTruthSet(records)
        for rir, records in buckets.items()
        if records
    }


def evaluate_by_rir(
    databases: Mapping[str, GeoDatabase] | LookupFrame,
    ground_truth: GroundTruthSet,
    whois: TeamCymruWhois,
    *,
    city_range_km: float = DEFAULT_CITY_RANGE_KM,
) -> dict[RIR, dict[str, DatabaseAccuracy]]:
    """Figure 3 / Figure 5: per-RIR accuracy for every database.

    One frame — and one scoring pass — over the full set serves every
    RIR subset.
    """
    frame = as_frame(databases, ground_truth.addresses())
    scorer = _accuracy_scorer(frame, ground_truth, city_range_km)
    return {
        rir: {
            name: scorer.evaluate(name, indices, rir.value)
            for name in frame.names
        }
        for rir, indices in (
            (rir, scorer.subset_indices(subset_set))
            for rir, subset_set in split_by_rir(ground_truth, whois).items()
        )
    }


def split_by_country(ground_truth: GroundTruthSet) -> dict[str, GroundTruthSet]:
    """Partition by the *ground-truth* country of each address."""
    buckets: dict[str, list] = {}
    for record in ground_truth:
        buckets.setdefault(record.country, []).append(record)
    return {country: GroundTruthSet(records) for country, records in buckets.items()}


def top_countries(ground_truth: GroundTruthSet, count: int = 20) -> tuple[tuple[str, int], ...]:
    """The countries with most ground-truth addresses (Figure 4's x-axis)."""
    sizes = {
        country: len(subset)
        for country, subset in split_by_country(ground_truth).items()
    }
    ranked = sorted(sizes.items(), key=lambda item: (-item[1], item[0]))
    return tuple(ranked[:count])


def evaluate_by_country(
    databases: Mapping[str, GeoDatabase] | LookupFrame,
    ground_truth: GroundTruthSet,
    *,
    countries: tuple[str, ...] | None = None,
    city_range_km: float = DEFAULT_CITY_RANGE_KM,
) -> dict[str, dict[str, DatabaseAccuracy]]:
    """Figure 4: per-country country-level accuracy.

    One frame — and one scoring pass — over the full set serves every
    country subset.
    """
    subsets = split_by_country(ground_truth)
    selected = countries if countries is not None else tuple(sorted(subsets))
    frame = as_frame(databases, ground_truth.addresses())
    scorer = _accuracy_scorer(frame, ground_truth, city_range_km)
    return {
        country: {
            name: scorer.evaluate(name, indices, country)
            for name in frame.names
        }
        for country, indices in (
            (country, scorer.subset_indices(subsets[country]))
            for country in selected
            if country in subsets
        )
    }


@dataclass(frozen=True, slots=True)
class SharedErrorReport:
    """How much of each database's errors are *shared* errors (§5.2.2).

    The paper found IP2Location-Lite, MaxMind-GeoLite and MaxMind-Paid
    agreeing on the (incorrect) location of 2,277 addresses — 61%, 64%
    and 67% of their respective incorrect answers — fingerprinting a
    common wrong source (registry data) rather than independent mistakes.
    """

    databases: tuple[str, ...]
    #: addresses where every database answers the *same wrong* country
    shared_incorrect: int
    #: per database: its total incorrect country answers over the set
    incorrect_counts: Mapping[str, int]

    def shared_fraction(self, database: str) -> float:
        """Fraction of ``database``'s errors that are shared errors."""
        incorrect = self.incorrect_counts.get(database, 0)
        return self.shared_incorrect / incorrect if incorrect else 0.0


def shared_incorrect_analysis(
    databases: Mapping[str, GeoDatabase] | LookupFrame,
    ground_truth: GroundTruthSet,
    *,
    subset: tuple[str, ...] = ("IP2Location-Lite", "MaxMind-GeoLite", "MaxMind-Paid"),
) -> SharedErrorReport:
    """Count country-level errors shared identically across databases.

    ``subset`` defaults to the paper's three registry-leaning products.
    Only addresses covered by every subset database participate in the
    shared count; per-database incorrect totals count all their errors.
    """
    frame = as_frame(databases, ground_truth.addresses())
    names = [name for name in subset if name in frame.names]
    if len(names) < 2:
        raise ValueError("shared-error analysis needs at least two databases")
    country_columns = [frame.column(name).country_ids for name in names]
    country_id_of = frame.countries.id_of
    position_of = frame.position
    incorrect_counts = {name: 0 for name in names}
    shared = 0
    for record in ground_truth:
        position = position_of(record.address)
        truth_id = country_id_of(record.country)
        answer_ids = [column[position] for column in country_columns]
        for name, answer_id in zip(names, answer_ids):
            if answer_id >= 0 and answer_id != truth_id:
                incorrect_counts[name] += 1
        first = answer_ids[0]
        if (
            first >= 0
            and first != truth_id
            and all(identifier == first for identifier in answer_ids[1:])
        ):
            shared += 1
    return SharedErrorReport(
        databases=tuple(names),
        shared_incorrect=shared,
        incorrect_counts=incorrect_counts,
    )


def evaluate_by_source(
    databases: Mapping[str, GeoDatabase] | LookupFrame,
    ground_truth: GroundTruthSet,
    *,
    city_range_km: float = DEFAULT_CITY_RANGE_KM,
) -> dict[GroundTruthSource, dict[str, DatabaseAccuracy]]:
    """§5.2.4: accuracy split by ground-truth construction method.

    One frame — and one scoring pass — over the full set serves both
    method subsets.
    """
    frame = as_frame(databases, ground_truth.addresses())
    scorer = _accuracy_scorer(frame, ground_truth, city_range_km)
    result: dict[GroundTruthSource, dict[str, DatabaseAccuracy]] = {}
    for source in GroundTruthSource:
        subset_set = ground_truth.by_source(source)
        if not len(subset_set):
            continue
        indices = scorer.subset_indices(subset_set)
        result[source] = {
            name: scorer.evaluate(name, indices, source.value)
            for name in frame.names
        }
    return result
