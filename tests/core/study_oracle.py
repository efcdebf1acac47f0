"""Brute-force reference for every analysis stage that reads database answers.

Each function recomputes one stage's report from ``GeoDatabase.lookup``
and ``GeoDatabase.lookup_entry`` alone: no lookup frame, no interval
sweep, no compiled index.  The loops are the slow, obvious ones on
purpose; the columnar stages in :mod:`repro.core` are tested against
them.
"""

from itertools import combinations

from repro.core.accuracy import (
    DatabaseAccuracy,
    SharedErrorReport,
    split_by_country,
    split_by_rir,
    top_countries,
)
from repro.core.arincase import ArinCaseStudy
from repro.core.cdf import Ecdf
from repro.core.cityrange import calibrate_city_range
from repro.core.consistency import CityPairDistance, ConsistencyReport, CountryPairAgreement
from repro.core.coverage import CoverageReport
from repro.core.defaults import DefaultCoordinateReport, is_default_coordinate
from repro.core.majority import MajorityAgreement, majority_location
from repro.core.pipeline import StudyResult
from repro.core.recommendations import build_recommendations
from repro.core.routerlevel import RouterConsistencyReport
from repro.geo.rir import RIR
from repro.groundtruth.record import GroundTruthSource
from repro.groundtruth.stats import table1

CITY_RANGE_KM = 40.0


def _city_level(record):
    return record is not None and record.has_city and record.has_coordinates


def coverage(database, addresses):
    answers = [database.lookup(address) for address in addresses]
    return CoverageReport(
        database=database.name,
        total=len(answers),
        country_covered=sum(a is not None and a.has_country for a in answers),
        city_covered=sum(_city_level(a) for a in answers),
    )


def consistency(databases, addresses):
    addresses = list(addresses)
    names = sorted(databases)
    answers = {name: [databases[name].lookup(a) for a in addresses] for name in names}
    countries = {name: [a and a.country for a in answers[name]] for name in names}
    country_pairs = []
    for a, b in combinations(names, 2):
        both = [(x, y) for x, y in zip(countries[a], countries[b]) if x and y]
        country_pairs.append(
            CountryPairAgreement(a, b, len(both), sum(x == y for x, y in both))
        )
    answered_by_all = [row for row in zip(*countries.values()) if all(row)]
    city_rows = [
        i for i in range(len(addresses)) if all(_city_level(answers[n][i]) for n in names)
    ]
    city_pairs = [
        CityPairDistance(
            a,
            b,
            Ecdf(
                answers[a][i].location.distance_km(answers[b][i].location)
                for i in city_rows
            ),
        )
        for a, b in combinations(names, 2)
    ]
    return ConsistencyReport(
        country_pairs=tuple(country_pairs),
        all_agree_compared=len(answered_by_all),
        all_agree_count=sum(len(set(row)) == 1 for row in answered_by_all),
        city_subset_size=len(city_rows),
        city_pairs=tuple(city_pairs),
    )


def majority_reference(addresses, databases, city_range_km=CITY_RANGE_KM):
    return {
        address: majority_location(address, databases, city_range_km=city_range_km)
        for address in addresses
    }


def majority_scores(databases, reference, city_range_km=CITY_RANGE_KM):
    scores = {}
    for name, database in databases.items():
        country = country_ok = city = city_ok = 0
        for address, vote in reference.items():
            answer = database.lookup(address)
            if answer is None:
                continue
            if vote.country is not None and answer.country is not None:
                country += 1
                country_ok += answer.country == vote.country
            if vote.location is not None and _city_level(answer):
                city += 1
                city_ok += answer.location.distance_km(vote.location) <= city_range_km
        scores[name] = MajorityAgreement(name, country, country_ok, city, city_ok)
    return scores


def default_coordinates(database, addresses, radius_km=5.0):
    with_coords = on_default = city_defaults = 0
    for address in addresses:
        answer = database.lookup(address)
        if answer is None or not answer.has_coordinates or answer.country is None:
            continue
        with_coords += 1
        if is_default_coordinate(answer.country, answer.location, radius_km=radius_km):
            on_default += 1
            city_defaults += answer.has_city
    return DefaultCoordinateReport(database.name, with_coords, on_default, city_defaults)


def router_consistency(database, alias_map, city_range_km=CITY_RANGE_KM):
    scatters = []
    split = 0
    for addresses in alias_map.nodes.values():
        located = [
            a for a in map(database.lookup, addresses) if a is not None and a.has_coordinates
        ]
        if len(located) < 2:
            continue
        scatters.append(
            max(a.location.distance_km(b.location) for a, b in combinations(located, 2))
        )
        split += len({a.country for a in located if a.country is not None}) > 1
    return RouterConsistencyReport(
        database=database.name,
        routers_evaluated=len(scatters),
        consistent_routers=sum(s <= city_range_km for s in scatters),
        scatter_ecdf=Ecdf(scatters),
        country_split_routers=split,
    )


def accuracy(database, ground_truth, subset="all", city_range_km=CITY_RANGE_KM):
    country = country_ok = 0
    errors = []
    for record in ground_truth:
        answer = database.lookup(record.address)
        if answer is not None and answer.country is not None:
            country += 1
            country_ok += answer.country == record.country
        if _city_level(answer):
            errors.append(answer.location.distance_km(record.location))
    return DatabaseAccuracy(
        database=database.name,
        subset=subset,
        total=len(ground_truth),
        country_covered=country,
        country_correct=country_ok,
        city_covered=len(errors),
        city_correct=sum(e <= city_range_km for e in errors),
        city_error_ecdf=Ecdf(errors),
    )


def accuracy_all(databases, ground_truth, subset="all", city_range_km=CITY_RANGE_KM):
    return {
        name: accuracy(database, ground_truth, subset, city_range_km)
        for name, database in databases.items()
    }


def accuracy_by_rir(databases, ground_truth, whois, city_range_km=CITY_RANGE_KM):
    return {
        rir: accuracy_all(databases, subset, rir.value, city_range_km)
        for rir, subset in split_by_rir(ground_truth, whois).items()
    }


def accuracy_by_country(databases, ground_truth, countries, city_range_km=CITY_RANGE_KM):
    subsets = split_by_country(ground_truth)
    return {
        country: accuracy_all(databases, subsets[country], country, city_range_km)
        for country in countries
        if country in subsets
    }


def accuracy_by_source(databases, ground_truth, city_range_km=CITY_RANGE_KM):
    return {
        source: accuracy_all(
            databases, ground_truth.by_source(source), source.value, city_range_km
        )
        for source in GroundTruthSource
        if len(ground_truth.by_source(source))
    }


def shared_incorrect(databases, ground_truth, subset):
    names = [name for name in subset if name in databases]
    incorrect = dict.fromkeys(names, 0)
    shared = 0
    for record in ground_truth:
        wrong = []
        for name in names:
            answer = databases[name].lookup(record.address)
            country = answer.country if answer is not None else None
            wrong.append(country if country not in (None, record.country) else None)
            incorrect[name] += wrong[-1] is not None
        shared += wrong[0] is not None and len(set(wrong)) == 1
    return SharedErrorReport(tuple(names), shared, incorrect)


def arin_case(database, ground_truth, whois, city_range_km=CITY_RANGE_KM, far_km=1000.0):
    arin_total = arin_non_us = pulled = pulled_city = pulled_far = us_total = 0
    covered = wrong = wrong_block = correct_block = 0
    for record in ground_truth:
        us_total += record.country == "US"
        if whois.lookup(record.address).registry is not RIR.ARIN:
            continue
        arin_total += 1
        entry = database.lookup_entry(record.address)
        answer = entry.record if entry is not None else None
        if record.country != "US":
            arin_non_us += 1
            if answer is not None and answer.country == "US":
                pulled += 1
                if _city_level(answer):
                    pulled_city += 1
                    pulled_far += answer.location.distance_km(record.location) > far_km
        elif _city_level(answer):
            covered += 1
            if answer.location.distance_km(record.location) > city_range_km:
                wrong += 1
                wrong_block += entry.is_block_level
            else:
                correct_block += entry.is_block_level
    return ArinCaseStudy(
        database=database.name,
        arin_total=arin_total,
        arin_non_us=arin_non_us,
        pulled_to_us=pulled,
        pulled_city_level=pulled_city,
        pulled_city_far=pulled_far,
        us_total=us_total,
        us_arin_city_covered=covered,
        us_arin_city_wrong=wrong,
        wrong_block_level=wrong_block,
        correct_block_level=correct_block,
    )


def study_result(study, *, all_databases=False):
    """The :class:`StudyResult` ``study.run()`` should produce, assembled
    from the oracle stages plus the stages that read no database answer."""
    databases = study.databases
    ground_truth = study.ground_truth
    city_range_km = study.city_range_km
    coverage_reports = {
        name: coverage(database, study.ark_addresses) for name, database in databases.items()
    }
    overall = accuracy_all(databases, ground_truth, city_range_km=city_range_km)
    by_rir = accuracy_by_rir(databases, ground_truth, study.whois, city_range_km)
    top20 = top_countries(ground_truth, 20)
    by_source = accuracy_by_source(databases, ground_truth, city_range_km)
    case_names = list(databases) if all_databases else [study.case_study_database]
    return StudyResult(
        coverage=coverage_reports,
        consistency=consistency(databases, study.ark_addresses),
        city_range=calibrate_city_range(databases, study.gazetteer, city_range_km),
        table1_rows=table1(study.dns_ground_truth, study.rtt_ground_truth, study.whois),
        overall=overall,
        by_rir=by_rir,
        top20=top20,
        by_country=accuracy_by_country(
            databases, ground_truth, tuple(c for c, _ in top20), city_range_km
        ),
        by_source=by_source,
        arin_cases={
            name: arin_case(databases[name], ground_truth, study.whois, city_range_km)
            for name in case_names
        },
        recommendations=build_recommendations(coverage_reports, overall, by_rir, by_source),
        city_range_km=city_range_km,
    )
