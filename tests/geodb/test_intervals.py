"""The interval sweep: partition invariants and engine equivalence.

:func:`~repro.geodb.intervals.sweep_sorted_entries` replaces probing
the hash-table engine at every prefix boundary with one stack-based pass
over the sorted entry list.  The bar is exactness: the partition must
answer every address the way :meth:`GeoDatabase.lookup` does, including
at the edges where prefixes nest, abut, and close.
"""

from repro.geodb import GeoDatabase, GeoRecord, single_prefix
from repro.geodb.intervals import ADDRESS_SPACE_END, sweep_sorted_entries


def build(name, prefixes):
    return GeoDatabase(
        name,
        [
            single_prefix(prefix, GeoRecord(country=country))
            for prefix, country in prefixes
        ],
    )


def boundary_probes(starts):
    """Start, midpoint, and last address of every interval."""
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else ADDRESS_SPACE_END
        yield start
        yield start + (end - start) // 2
        yield end - 1


def assert_partition_matches_engine(database):
    starts, entries = sweep_sorted_entries(database.entries())
    assert starts[0] == 0
    assert all(a < b for a, b in zip(starts, starts[1:]))
    assert all(a is not b for a, b in zip(entries, entries[1:]))  # merged
    assert len(starts) == len(entries)
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else ADDRESS_SPACE_END
        entry = entries[i]
        expected = entry.record if entry is not None else None
        for probe in (start, start + (end - start) // 2, end - 1):
            assert database.lookup(probe) == expected, hex(probe)
    return starts, entries


class TestToyShapes:
    def test_disjoint_prefixes_interleave_with_misses(self):
        database = build("d", [("10.0.0.0/8", "US"), ("192.0.2.0/24", "DE")])
        starts, entries = assert_partition_matches_engine(database)
        answers = [e.record.country if e else None for e in entries]
        assert answers == [None, "US", None, "DE", None]

    def test_nested_prefix_pierces_its_parent(self):
        database = build("d", [("10.0.0.0/8", "US"), ("10.1.0.0/16", "CA")])
        _, entries = assert_partition_matches_engine(database)
        answers = [e.record.country if e else None for e in entries]
        assert answers == [None, "US", "CA", "US", None]

    def test_child_starting_at_parent_start_overwrites_the_point(self):
        database = build("d", [("10.0.0.0/8", "US"), ("10.0.0.0/16", "CA")])
        _, entries = assert_partition_matches_engine(database)
        answers = [e.record.country if e else None for e in entries]
        assert answers == [None, "CA", "US", None]

    def test_child_ending_at_parent_end_merges_the_close(self):
        database = build("d", [("10.0.0.0/8", "US"), ("10.255.0.0/16", "CA")])
        _, entries = assert_partition_matches_engine(database)
        answers = [e.record.country if e else None for e in entries]
        assert answers == [None, "US", "CA", None]

    def test_deep_nesting_reopens_each_enclosing_level(self):
        database = build(
            "d",
            [
                ("10.0.0.0/8", "US"),
                ("10.128.0.0/9", "CA"),
                ("10.128.0.0/16", "DE"),
                ("10.128.64.0/24", "FR"),
            ],
        )
        _, entries = assert_partition_matches_engine(database)
        answers = [e.record.country if e else None for e in entries]
        assert answers == [None, "US", "DE", "FR", "DE", "CA", None]

    def test_prefix_reaching_the_end_of_the_address_space(self):
        database = build("d", [("255.255.255.0/24", "US")])
        starts, entries = assert_partition_matches_engine(database)
        assert entries[-1] is not None  # no trailing miss row
        assert starts[-1] + 256 == ADDRESS_SPACE_END

    def test_abutting_prefixes_stay_separate_intervals(self):
        database = build("d", [("10.0.0.0/24", "US"), ("10.0.1.0/24", "CA")])
        _, entries = assert_partition_matches_engine(database)
        answers = [e.record.country if e else None for e in entries]
        assert answers == [None, "US", "CA", None]

    def test_empty_database_is_one_miss_interval(self):
        starts, entries = sweep_sorted_entries(GeoDatabase("empty", []).entries())
        assert starts == [0]
        assert entries == [None]


class TestVendorEquivalence:
    def test_every_vendor_partition_matches_the_engine(self, small_scenario):
        for database in small_scenario.databases.values():
            assert_partition_matches_engine(database)

    def test_partition_answers_match_on_the_demanding_pool(
        self, small_scenario, probe_addresses
    ):
        from bisect import bisect_right

        for database in small_scenario.databases.values():
            starts, entries = sweep_sorted_entries(database.entries())
            shifted = [None, *entries]
            for address in probe_addresses:
                entry = shifted[bisect_right(starts, address)]
                expected = entry.record if entry is not None else None
                assert database.lookup(address) == expected
