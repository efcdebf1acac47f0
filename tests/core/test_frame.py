"""The columnar lookup frame, checked against direct database lookups.

Every column value must be derivable from :meth:`GeoDatabase.lookup` on
the same address, every analysis stage must report exactly what the
brute-force oracle in :mod:`tests.core.study_oracle` computes from
lookups alone, and the full study must render the same bytes as a result
assembled from the oracle.  The column tests run over the demanding
shared probe pool (prefix edges, pseudorandom spread, the space's first
and last address).
"""

import math

import pytest

from repro.core.frame import (
    BLOCK_LEVEL,
    CITY_LEVEL,
    COVERED,
    HAS_CITY,
    HAS_COORDS,
    HAS_COUNTRY,
    LookupFrame,
    StringTable,
    as_frame,
)
from tests.core import study_oracle


@pytest.fixture(scope="module")
def pool_frame(small_scenario, probe_addresses):
    return LookupFrame.build(small_scenario.databases, probe_addresses)


class TestStringTable:
    def test_intern_allocates_dense_ids_and_none_is_minus_one(self):
        table = StringTable()
        assert table.intern(None) == -1
        assert table.intern("US") == 0
        assert table.intern("DE") == 1
        assert table.intern("US") == 0
        assert len(table) == 2

    def test_id_of_never_matches_without_allocation(self):
        table = StringTable()
        table.intern("US")
        assert table.id_of("US") == 0
        assert table.id_of(None) == -1
        assert table.id_of("ZZ") == -2  # unseen: sentinel equals no stored id
        assert len(table) == 1 and "ZZ" not in table

    def test_value_of_round_trips_and_negatives_are_none(self):
        table = StringTable()
        identifier = table.intern("Dallas")
        assert table.value_of(identifier) == "Dallas"
        assert table.value_of(-1) is None
        assert table.value_of(-2) is None


class TestColumnEquivalence:
    """Every column value equals the direct lookup, all four vendors."""

    def test_columns_match_direct_lookups(
        self, small_scenario, probe_addresses, pool_frame
    ):
        for name, database in small_scenario.databases.items():
            column = pool_frame.column(name)
            for position, address in enumerate(probe_addresses):
                record = database.lookup(address)
                flags = column.flags[position]
                if record is None:
                    assert flags == 0
                    assert column.country_ids[position] == -1
                    assert column.city_ids[position] == -1
                    assert math.isnan(column.lats[position])
                    assert column.record_ids[position] == -1
                    assert column.record_at(position) is None
                    continue
                assert flags & COVERED
                assert bool(flags & HAS_COUNTRY) == (record.country is not None)
                assert bool(flags & HAS_CITY) == (record.city is not None)
                assert bool(flags & HAS_COORDS) == (record.latitude is not None)
                assert (
                    pool_frame.countries.value_of(column.country_ids[position])
                    == record.country
                )
                assert (
                    pool_frame.cities.value_of(column.city_ids[position])
                    == record.city
                )
                if record.latitude is None:
                    assert math.isnan(column.lats[position])
                    assert math.isnan(column.lons[position])
                else:
                    assert column.lats[position] == record.latitude
                    assert column.lons[position] == record.longitude
                assert column.record_at(position) == record

    def test_record_numbering_is_the_compiled_index_numbering(
        self, small_scenario, probe_addresses, pool_frame
    ):
        """Frame and serving index number records in one place
        (``number_entries``), so their record tables and per-address
        answers agree."""
        from repro.serve import CompiledIndex

        for name, database in small_scenario.databases.items():
            column = pool_frame.column(name)
            index = CompiledIndex.compile(database)
            assert column.records == index.parts()[3]
            for position, address in enumerate(probe_addresses):
                assert column.record_at(position) == index.probe(int(address))

    def test_block_level_flag_tracks_the_matched_prefix_length(
        self, small_scenario, probe_addresses, pool_frame
    ):
        for name, database in small_scenario.databases.items():
            column = pool_frame.column(name)
            for position, address in enumerate(probe_addresses):
                entry = database.lookup_entry(address)
                if entry is None:
                    continue
                assert bool(column.flags[position] & BLOCK_LEVEL) == (
                    entry.prefix.prefixlen <= 24
                )

    def test_frame_lookup_is_the_direct_lookup(self, small_scenario, pool_frame):
        for name, database in small_scenario.databases.items():
            for address in small_scenario.ark_dataset.addresses[:200]:
                assert pool_frame.lookup(name, address) == database.lookup(address)

    def test_city_level_flag_is_city_and_coords(self, pool_frame):
        for name in pool_frame.names:
            for flags in pool_frame.column(name).flags:
                if flags & CITY_LEVEL == CITY_LEVEL:
                    assert flags & HAS_CITY and flags & HAS_COORDS


class TestConstructionPaths:
    def test_pool_is_deduplicated_first_occurrence_wins(self, small_scenario):
        addresses = ["10.0.0.1", "10.0.0.2", "10.0.0.1", "10.0.0.3"]
        frame = LookupFrame.build(small_scenario.databases, addresses)
        assert [str(a) for a in frame.addresses] == [
            "10.0.0.1",
            "10.0.0.2",
            "10.0.0.3",
        ]
        assert frame.positions(addresses) == [0, 1, 0, 2]
        assert len(frame) == 3

    def test_build_metrics(self, small_scenario):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        addresses = list(small_scenario.ark_dataset.addresses[:500])
        frame = LookupFrame.build(small_scenario.databases, addresses, metrics=metrics)
        assert metrics.counter("frame.builds") == 1
        assert metrics.counter("frame.addresses") == len(frame)
        # The geodb.* mirror replays one lookup per pool address per db.
        assert metrics.counter_total("geodb.lookups") == len(frame) * len(
            frame.names
        )


class TestAccess:
    def test_positions_accepts_every_address_form(self, pool_frame, probe_addresses):
        raw = probe_addresses[17]
        from repro.net.ip import parse_address

        parsed = parse_address(raw)
        assert pool_frame.positions([raw, str(parsed), parsed]) == [17, 17, 17]
        assert pool_frame.position(parsed) == 17
        assert parsed in pool_frame

    def test_missing_address_raises_with_the_address_text(self, small_scenario):
        frame = LookupFrame.build(small_scenario.databases, ["10.0.0.1"])
        with pytest.raises(KeyError, match="not in frame"):
            frame.positions(["203.0.113.9"])
        assert "not an address" not in frame

    def test_unknown_column_raises(self, pool_frame):
        with pytest.raises(KeyError, match="no such database"):
            pool_frame.column("nope")

    def test_as_frame_passes_frames_through(self, pool_frame):
        assert as_frame(pool_frame, []) is pool_frame

    def test_stage_cache_is_per_frame_scratch_space(self, small_scenario):
        frame = LookupFrame.build(small_scenario.databases, ["10.0.0.1"])
        frame.stage_cache[("test", 1)] = "memo"
        other = LookupFrame.build(small_scenario.databases, ["10.0.0.1"])
        assert ("test", 1) not in other.stage_cache


@pytest.fixture(scope="module")
def study_frame(small_scenario):
    """The study's own frame over its pool (Ark + merged ground truth)."""
    from repro.core.pipeline import RouterGeolocationStudy

    return RouterGeolocationStudy.from_scenario(small_scenario).lookup_frame()


class TestStageEquivalence:
    """Every frame-reading stage equals the brute-force oracle, whether it
    reads the study frame, a frame it builds from a database mapping, or
    the one-column frame a per-database call builds."""

    def test_coverage(self, small_scenario, study_frame):
        from repro.core.coverage import coverage_analysis, coverage_table

        addresses = small_scenario.ark_dataset.addresses
        databases = small_scenario.databases
        for name, database in databases.items():
            expected = study_oracle.coverage(database, addresses)
            assert coverage_analysis(database, addresses) == expected
            assert coverage_analysis(name, addresses, frame=study_frame) == expected
        expected = {
            name: study_oracle.coverage(database, addresses)
            for name, database in databases.items()
        }
        assert coverage_table(databases, addresses) == expected
        assert coverage_table(study_frame, addresses) == expected

    def test_consistency(self, small_scenario, study_frame):
        from repro.core.consistency import consistency_analysis

        addresses = small_scenario.ark_dataset.addresses
        expected = study_oracle.consistency(small_scenario.databases, addresses)
        assert consistency_analysis(small_scenario.databases, addresses) == expected
        assert consistency_analysis(study_frame, addresses) == expected

    def test_majority(self, small_scenario, study_frame):
        from repro.core.majority import majority_vote_reference, score_against_majority

        addresses = list(small_scenario.ark_dataset.addresses[:400])
        databases = small_scenario.databases
        reference = study_oracle.majority_reference(addresses, databases)
        assert majority_vote_reference(addresses, databases) == reference
        assert majority_vote_reference(addresses, study_frame) == reference
        scores = study_oracle.majority_scores(databases, reference)
        assert score_against_majority(databases, reference) == scores
        assert score_against_majority(study_frame, reference) == scores

    def test_defaults(self, small_scenario, study_frame):
        from repro.core.defaults import detect_default_coordinates

        addresses = small_scenario.ark_dataset.addresses
        for name, database in small_scenario.databases.items():
            expected = study_oracle.default_coordinates(database, addresses)
            assert detect_default_coordinates(database, addresses) == expected
            framed = detect_default_coordinates(name, addresses, frame=study_frame)
            assert framed == expected

    def test_routerlevel(self, small_scenario, study_frame):
        import random

        from repro.core.routerlevel import router_consistency
        from repro.topology import AliasResolver

        alias_map = AliasResolver(small_scenario.internet, completeness=1.0).resolve(
            small_scenario.ark_dataset.addresses, random.Random(23)
        )
        for name, database in small_scenario.databases.items():
            expected = study_oracle.router_consistency(database, alias_map)
            assert router_consistency(database, alias_map) == expected
            assert router_consistency(name, alias_map, frame=study_frame) == expected

    def test_accuracy_overall_and_breakdowns(self, small_scenario, study_frame):
        from repro.core.accuracy import (
            evaluate_all,
            evaluate_by_country,
            evaluate_by_rir,
            evaluate_by_source,
            evaluate_database,
        )

        ground_truth = small_scenario.ground_truth
        whois = small_scenario.internet.whois
        databases = small_scenario.databases
        overall = study_oracle.accuracy_all(databases, ground_truth)
        for name, database in databases.items():
            assert evaluate_database(database, ground_truth) == overall[name]
            assert evaluate_database(name, ground_truth, frame=study_frame) == overall[name]
        by_rir = study_oracle.accuracy_by_rir(databases, ground_truth, whois)
        by_source = study_oracle.accuracy_by_source(databases, ground_truth)
        countries = ("US", "DE", "JP", "ZZ")
        by_country = study_oracle.accuracy_by_country(databases, ground_truth, countries)
        for source in (databases, study_frame):
            assert evaluate_all(source, ground_truth) == overall
            assert evaluate_by_rir(source, ground_truth, whois) == by_rir
            assert evaluate_by_source(source, ground_truth) == by_source
            assert (
                evaluate_by_country(source, ground_truth, countries=countries)
                == by_country
            )

    def test_arin_case(self, small_scenario, study_frame):
        from repro.core.arincase import arin_case_study

        ground_truth = small_scenario.ground_truth
        whois = small_scenario.internet.whois
        for name, database in small_scenario.databases.items():
            expected = study_oracle.arin_case(database, ground_truth, whois)
            assert arin_case_study(database, ground_truth, whois) == expected
            framed = arin_case_study(name, ground_truth, whois, frame=study_frame)
            assert framed == expected


class TestColumnNameNeedsFrame:
    """A per-database stage given a column name but no frame has nothing
    to resolve against: it raises a TypeError that says so."""

    @pytest.mark.parametrize(
        "stage",
        [
            "coverage_analysis",
            "evaluate_database",
            "detect_default_coordinates",
            "router_consistency",
            "arin_case_study",
        ],
    )
    def test_raises_type_error(self, small_scenario, stage):
        from repro import core
        from repro.topology.itdk import AliasMap

        ground_truth = small_scenario.ground_truth
        addresses = tuple(small_scenario.ark_dataset.addresses[:2])
        args = {
            "coverage_analysis": (addresses,),
            "evaluate_database": (ground_truth,),
            "detect_default_coordinates": (addresses,),
            "router_consistency": (
                AliasMap(nodes={"N1": addresses}, node_of=dict.fromkeys(addresses, "N1")),
            ),
            "arin_case_study": (ground_truth, small_scenario.internet.whois),
        }[stage]
        with pytest.raises(TypeError, match="a column name needs frame="):
            getattr(core, stage)("MaxMind-Paid", *args)


class TestStudyEquivalence:
    """The acceptance bar: the full study renders byte-identically to a
    result assembled from the oracle stages."""

    def test_summary_is_byte_identical_oracle_vs_frame(self, small_scenario):
        from repro.core.pipeline import RouterGeolocationStudy

        study = RouterGeolocationStudy.from_scenario(small_scenario)
        framed = study.run(all_databases=True)
        expected = study_oracle.study_result(study, all_databases=True)
        assert framed.render_summary() == expected.render_summary()
        assert framed.render_markdown() == expected.render_markdown()


class TestDegradedEquivalence:
    """A quarantined vendor must not perturb the healthy vendors' stages.

    The serving layer decides which vendors are healthy (one injected
    always-failing vendor gets quarantined); the analysis pipeline then
    runs over exactly the surviving set, and every stage must still
    match the oracle over that set, as it does when nothing is broken.
    A fault that leaked into healthy vendors' numbers would show here.
    """

    @pytest.fixture(scope="class")
    def healthy_vendors(self, small_scenario):
        """The vendor set that survives an injected single-vendor outage."""
        from repro.faults import FaultInjector, FaultKind, FaultSpec
        from repro.serve import CompiledIndex, ResiliencePolicy, ServingEngine

        victim = sorted(small_scenario.databases)[0]
        injector = FaultInjector(
            20160806, [FaultSpec(FaultKind.LOOKUP_RAISE, vendor=victim)]
        )
        engine = ServingEngine(
            {
                name: CompiledIndex.compile(database)
                for name, database in small_scenario.databases.items()
            },
            injector=injector,
            policy=ResiliencePolicy(retries=0, quarantine_threshold=1),
        )
        outcome = engine.lookup_outcome(small_scenario.ark_dataset.addresses[0])
        assert outcome.degraded and victim in outcome.errors
        healthy = [
            name
            for name, health in engine.health_snapshot().items()
            if health["state"] == "healthy"
        ]
        assert victim not in healthy
        assert len(healthy) == len(small_scenario.databases) - 1
        return healthy

    def test_stage_reports_agree_over_the_surviving_set(
        self, small_scenario, healthy_vendors
    ):
        from repro.core.consistency import consistency_analysis
        from repro.core.coverage import coverage_analysis
        from repro.core.majority import majority_vote_reference

        databases = {
            name: small_scenario.databases[name] for name in healthy_vendors
        }
        addresses = small_scenario.ark_dataset.addresses
        frame = LookupFrame.build(databases, addresses)
        for name, database in databases.items():
            expected = study_oracle.coverage(database, addresses)
            assert coverage_analysis(database, addresses) == expected
            assert coverage_analysis(name, addresses, frame=frame) == expected
        expected = study_oracle.consistency(databases, addresses)
        assert consistency_analysis(databases, addresses) == expected
        assert consistency_analysis(frame, addresses) == expected
        voters = list(addresses[:400])
        expected = study_oracle.majority_reference(voters, databases)
        assert majority_vote_reference(voters, databases) == expected
        assert majority_vote_reference(voters, frame) == expected
