"""Differential fuzzing: every frame-reading stage against the oracle.

Tiny random databases with nested prefixes and answers that lack a city,
coordinates or a country; address pools that hit each prefix's first and
last address, the addresses just outside it, and the /24 boundaries
around it, where wrong answers cluster ("Lost in the Prefix").  For each
draw, every stage must report exactly what
:mod:`tests.core.study_oracle` computes from ``GeoDatabase.lookup``,
both through a shared frame and through the frame a stage builds itself.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core import (
    LookupFrame,
    arin_case_study,
    consistency_analysis,
    coverage_analysis,
    coverage_table,
    detect_default_coordinates,
    evaluate_all,
    evaluate_by_country,
    evaluate_by_rir,
    evaluate_by_source,
    evaluate_database,
    majority_vote_reference,
    router_consistency,
    score_against_majority,
    shared_incorrect_analysis,
)
from repro.geo import GeoPoint
from repro.geo.rir import RIR
from repro.groundtruth import GroundTruthRecord, GroundTruthSet, GroundTruthSource
from repro.net.ip import parse_address
from repro.topology.itdk import AliasMap
from tests.core import study_oracle
from tests.test_property_fuzz import (
    clustered_points,
    country_codes,
    databases,
    latitudes,
    longitudes,
)

_RIRS = list(RIR)


class _Whois:
    """Registry by /24: every RIR, ARIN included, shows up in a small pool."""

    def lookup(self, address):
        return SimpleNamespace(registry=_RIRS[(int(address) >> 8) % len(_RIRS)])


def _edges(database):
    """First, last, one before and one after each prefix, and the /24
    boundaries around its first and last address."""
    edges = set()
    for entry in database.entries():
        first = int(entry.prefix.network_address)
        last = first + entry.prefix.num_addresses - 1
        edges.update((first - 1, first, last, last + 1))
        for address in (first, last):
            block = address & ~0xFF
            edges.update((block - 1, block, block + 0xFF, block + 0x100))
    return edges


#: Truth locations on points the drawn answers also use, or anywhere.
truth_points = st.one_of(clustered_points, st.tuples(latitudes, longitudes))
#: Half the truth in the US, so §5.2.3's US-only branches run.
truth_countries = st.one_of(st.just("US"), country_codes)


@st.composite
def worlds(draw):
    count = draw(st.integers(2, 3))
    dbs = {
        name: draw(databases(name=name, nested=True))
        for name in ("MaxMind-Paid", "NetAcuity", "IP2Location-Lite")[:count]
    }
    edges = sorted(set().union(*map(_edges, dbs.values())))
    extra = draw(
        st.lists(st.integers((10 << 24) - 256, (10 << 24) + 2**12 + 256), max_size=8)
    )
    pool = [parse_address(a) for a in edges + extra]
    pool += draw(st.lists(st.sampled_from(pool), max_size=4))  # duplicates
    covered = sorted(
        {int(entry.prefix[i]) for db in dbs.values() for entry in db.entries() for i in (0, -1)}
    )
    truth_addresses = draw(
        st.lists(
            st.one_of(st.sampled_from(covered), st.sampled_from(edges)),
            max_size=24,
            unique=True,
        )
    )
    ground_truth = GroundTruthSet(
        [
            GroundTruthRecord(
                address=parse_address(address),
                location=GeoPoint(*draw(truth_points)),
                country=draw(truth_countries),
                source=draw(st.sampled_from(list(GroundTruthSource))),
            )
            for address in truth_addresses
        ]
    )
    groups = draw(st.lists(st.integers(1, 4), max_size=8))
    nodes, start = {}, 0
    for index, size in enumerate(groups):
        if start >= len(edges):
            break
        nodes[f"N{index}"] = tuple(map(parse_address, edges[start : start + size]))
        start += size
    alias_map = AliasMap(
        nodes=nodes,
        node_of={address: node for node, members in nodes.items() for address in members},
    )
    return dbs, pool, ground_truth, alias_map


@given(worlds())
@settings(max_examples=150, deadline=None)
def test_every_stage_matches_the_oracle(world):
    dbs, pool, ground_truth, alias_map = world
    whois = _Whois()
    # The alias sets are drawn from the pool, so this frame covers every
    # address any stage reads, like the study's own frame.
    frame = LookupFrame.build(dbs, [*pool, *ground_truth.addresses()])

    for name, database in dbs.items():
        expected = study_oracle.coverage(database, pool)
        assert coverage_analysis(database, pool) == expected
        assert coverage_analysis(name, pool, frame=frame) == expected

        expected = study_oracle.default_coordinates(database, pool)
        assert detect_default_coordinates(database, pool) == expected
        assert detect_default_coordinates(name, pool, frame=frame) == expected

        expected = study_oracle.router_consistency(database, alias_map)
        assert router_consistency(database, alias_map) == expected
        assert router_consistency(name, alias_map, frame=frame) == expected

        expected = study_oracle.accuracy(database, ground_truth)
        assert evaluate_database(database, ground_truth) == expected
        assert evaluate_database(name, ground_truth, frame=frame) == expected

        expected = study_oracle.arin_case(database, ground_truth, whois)
        assert arin_case_study(database, ground_truth, whois) == expected
        assert arin_case_study(name, ground_truth, whois, frame=frame) == expected

    reference = study_oracle.majority_reference(pool, dbs)
    scores = study_oracle.majority_scores(dbs, reference)
    countries = ("US", "DE", "NL", "JP")
    for source in (dbs, frame):
        assert coverage_table(source, pool) == {
            name: study_oracle.coverage(database, pool) for name, database in dbs.items()
        }
        assert consistency_analysis(source, pool) == study_oracle.consistency(dbs, pool)
        assert majority_vote_reference(pool, source) == reference
        assert score_against_majority(source, reference) == scores
        assert evaluate_all(source, ground_truth) == study_oracle.accuracy_all(
            dbs, ground_truth
        )
        assert evaluate_by_rir(source, ground_truth, whois) == study_oracle.accuracy_by_rir(
            dbs, ground_truth, whois
        )
        assert evaluate_by_country(
            source, ground_truth, countries=countries
        ) == study_oracle.accuracy_by_country(dbs, ground_truth, countries)
        assert evaluate_by_source(source, ground_truth) == study_oracle.accuracy_by_source(
            dbs, ground_truth
        )
        assert shared_incorrect_analysis(
            source, ground_truth, subset=tuple(dbs)
        ) == study_oracle.shared_incorrect(dbs, ground_truth, tuple(dbs))
