"""CompiledIndex: structure invariants and answer equivalence.

The acceptance bar for the serving layer is *byte-identical answers*:
for every probed address, the compiled interval index must return
exactly what the hash-table engine returns, across all four vendor
tables.
"""

import json
import sys
import threading
import urllib.request
from collections import Counter

import pytest

from repro.enrich import EnrichmentPipeline, EventConfig, EventSource
from repro.faults import FaultInjector, FaultKind, FaultSpec
from repro.geodb import GeoDatabase, GeoRecord, single_prefix
from repro.loadgen import covered_pool
from repro.net.ip import IPv4Address
from repro.obs import MetricsRegistry
from repro.serve import (
    CompiledIndex,
    GeoServer,
    ServingEngine,
    load_index_set,
    load_plane,
    save_index_set,
    save_plane,
)

from tests.faults.test_chaos_matrix import FakeClock


def toy_database():
    return GeoDatabase(
        "toy",
        [
            single_prefix("10.0.0.0/8", GeoRecord(country="US")),
            single_prefix(
                "10.1.0.0/16",
                GeoRecord(country="US", region="Texas", city="Dallas",
                          latitude=32.78, longitude=-96.8),
            ),
            single_prefix("10.1.2.0/24", GeoRecord(country="CA")),
            single_prefix("192.0.2.0/24", GeoRecord(country="DE")),
        ],
    )


class TestStructure:
    def test_intervals_are_sorted_disjoint_and_cover_everything(self, compiled_indexes):
        for index in compiled_indexes.values():
            previous_end = 0
            for start, end, _ in index.intervals():
                assert start == previous_end  # no gaps, no overlap
                assert start < end
                previous_end = end
            assert previous_end == 2**32

    def test_adjacent_intervals_are_merged(self, compiled_indexes):
        for index in compiled_indexes.values():
            answers = [answer for _, _, answer in index.intervals()]
            assert all(a != b for a, b in zip(answers, answers[1:]))

    def test_nested_prefixes_split_the_outer_interval(self):
        index = CompiledIndex.compile(toy_database())
        # 10.0.0.0/8 is pierced twice (the /16, itself pierced by the /24),
        # so the space decomposes into: miss, /8, /16, /24, /16, /8, miss,
        # /24(192.0.2.0), miss.
        assert index.interval_count == 9
        assert index.lookup("10.1.2.3").country == "CA"
        assert index.lookup("10.1.3.4").city == "Dallas"
        assert index.lookup("10.200.0.1").country == "US"
        assert index.lookup("11.0.0.1") is None

    def test_records_are_deduplicated(self, small_scenario, compiled_indexes):
        for name, index in compiled_indexes.items():
            _, _, entries, records = index.parts()
            assert len(records) <= len(entries)
            assert len(records) == len(set(records))
            assert index.source_entries == len(small_scenario.databases[name])

    def test_rejects_table_not_starting_at_zero(self):
        from array import array

        with pytest.raises(ValueError):
            CompiledIndex("bad", 0, array("I", [5]), array("i", [-1]), (), ())


class TestEquivalence:
    def test_identical_answers_to_geodatabase(
        self, small_scenario, compiled_indexes, probe_addresses
    ):
        """The property the whole serving layer rests on: one bisect probe
        answers exactly like the 33-table walk, for all four vendors."""
        for name, database in small_scenario.databases.items():
            index = compiled_indexes[name]
            for addr in probe_addresses:
                expected = database.probe(addr)
                assert index.probe(addr) == (
                    expected.record if expected is not None else None
                )

    def test_lookup_answer_reports_the_matched_prefix(
        self, small_scenario, compiled_indexes, probe_addresses
    ):
        for name, database in small_scenario.databases.items():
            index = compiled_indexes[name]
            for addr in probe_addresses[:2000]:
                expected = database.lookup_entry(addr)
                answer = index.lookup_answer(addr)
                if expected is None:
                    assert answer is None
                else:
                    assert answer.prefix == str(expected.prefix)
                    assert answer.record == expected.record

    def test_accepts_all_address_forms(self, compiled_indexes):
        index = next(iter(compiled_indexes.values()))
        from repro.net.ip import parse_address

        as_str = index.lookup("41.0.0.2")
        assert index.lookup(parse_address("41.0.0.2")) == as_str
        assert index.lookup(int(parse_address("41.0.0.2"))) == as_str

    def test_invalid_addresses_raise_uniform_valueerror(self, compiled_indexes):
        index = next(iter(compiled_indexes.values()))
        for bad in ("pancake", "::1", "1.2.3.4/24", -1, 2**32, 2**80):
            with pytest.raises(ValueError, match="not an IPv4 address"):
                index.lookup(bad)


class TestLazyProbes:
    """Loaded indexes keep their interval columns as arrays; the list
    tables the live probes bisect are built on the first live probe —
    once per index, shared by every thread — and never by healthy
    traffic, which the answer plane serves."""

    @pytest.fixture()
    def loaded(self, compiled_indexes, answer_plane, tmp_path):
        root = save_index_set(compiled_indexes, tmp_path)
        save_plane(answer_plane, root / "plane.rgpl")
        indexes = load_index_set(root)
        return indexes, load_plane(root / "plane.rgpl", indexes=indexes)

    @pytest.fixture()
    def builds(self, monkeypatch):
        """Counts list-table builds per index name."""
        counts = Counter()
        build = CompiledIndex._build_probes

        def counting(index):
            counts[index.name] += 1
            return build(index)

        monkeypatch.setattr(CompiledIndex, "_build_probes", counting)
        return counts

    def test_loaded_columns_are_four_byte_arrays(self, loaded):
        indexes, _ = loaded
        for index in indexes.values():
            starts, answers, _, _ = index.parts()
            assert (starts.itemsize, answers.itemsize) == (4, 4)
            assert index._probe_tables is None

    def test_healthy_traffic_builds_no_list_probes(
        self, loaded, builds, small_scenario, probe_addresses
    ):
        indexes, plane = loaded
        engine = ServingEngine(indexes, plane=plane)
        assert all(engine.lookup_plane(addr) is not None for addr in probe_addresses)

        server = GeoServer(engine, port=0, metrics=MetricsRegistry())
        server.start_background()
        try:
            ips = [str(IPv4Address(addr)) for addr in probe_addresses[::97]]
            request = urllib.request.Request(
                server.url + "/batch",
                data=json.dumps({"ips": ips}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
                assert json.load(response)["count"] == len(ips)
        finally:
            server.stop()

        pool = covered_pool(indexes, per_vendor=64)
        report = EnrichmentPipeline(
            engine, whois=small_scenario.internet.whois
        ).run(EventSource(pool, EventConfig(seed=5)).take(300), max_events=300)
        assert report.enriched == 300 and report.errors == 0

        assert not builds
        assert all(index._probe_tables is None for index in indexes.values())

    def test_degraded_vendor_resolves_live_and_builds_once(
        self, loaded, builds, small_scenario, probe_addresses
    ):
        indexes, plane = loaded
        names = sorted(indexes)
        victim = names[1]
        clock = FakeClock()
        injector = FaultInjector(
            7, [FaultSpec(FaultKind.LOOKUP_RAISE, vendor=victim)], sleep=clock.sleep
        )
        engine = ServingEngine(
            indexes, plane=plane, injector=injector, clock=clock, sleep=clock.sleep
        )
        addresses = probe_addresses[::37]

        def assert_live_answers(expected_vendors):
            for addr in addresses:
                outcome = engine.lookup_outcome(addr)
                assert outcome.cell is None  # resolved live, not from the plane
                assert set(outcome.answers) == expected_vendors
                for name, answer in outcome.answers.items():
                    record = small_scenario.databases[name].lookup(addr)
                    assert (answer.record if answer is not None else None) == record

        assert_live_answers(set(names) - {victim})
        assert engine.degraded_vendors() == (victim,)
        assert builds == {name: 1 for name in names if name != victim}

        # The fault clears and the quarantine expires: the victim answers
        # live too, from one build of its own.
        injector.disarm()
        clock.sleep(3600.0)
        assert_live_answers(set(names))
        assert builds == {name: 1 for name in names}

    def test_concurrent_first_live_probes_share_one_build(
        self, loaded, builds, small_scenario, probe_addresses
    ):
        indexes, _ = loaded
        addresses = probe_addresses[::211]
        expected = {
            name: [small_scenario.databases[name].lookup(addr) for addr in addresses]
            for name in indexes
        }
        barrier = threading.Barrier(8)
        results = []

        def worker():
            barrier.wait()
            results.append(
                {
                    name: [index.probe(addr) for addr in addresses]
                    for name, index in indexes.items()
                }
            )

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the first probes finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        assert all(answers == expected for answers in results)
        assert builds == {name: 1 for name in indexes}
