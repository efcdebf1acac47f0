"""AnswerPlane: compile-time cross-vendor consensus, byte-identical to live.

The plane's whole value proposition is that the healthy path returns
*exactly* what the live per-vendor resolve path would have — same
outcome mapping, same §5.1 consensus, same flags — just without the
per-request work.  These tests sweep the demanding probe pool (every
prefix edge, uncovered space, disagreement cells) through both paths
and assert equality, then cover the ``.rgpl`` persistence trust ladder,
the engine's compile-parameter handshake, and the degraded-bypass
metrics.
"""

import dataclasses
import hashlib
import sys
import threading

import pytest

from repro.geodb import GeoDatabase
from repro.net.ip import IPv4Address
from repro.obs import MetricsRegistry
from repro.serve import (
    AnswerPlane,
    CompiledIndex,
    ServingEngine,
    SnapshotError,
    compile_plane,
    load_index_set,
    load_plane,
    save_index_set,
    save_plane,
)
from repro.serve.engine import ResiliencePolicy


def _with_one_city_changed(scenario, name):
    """``name`` recompiled with one city-level record moved to a city
    that does not exist — same prefixes, so the same intervals."""
    entries = list(scenario.databases[name].entries())
    position = next(i for i, e in enumerate(entries) if e.record.city is not None)
    victim = entries[position]
    entries[position] = dataclasses.replace(
        victim, record=dataclasses.replace(victim.record, city="Elsewhere")
    )
    return CompiledIndex.compile(GeoDatabase(name, entries))


@pytest.fixture(scope="module")
def live_engine(compiled_indexes):
    """The reference: no plane — every lookup resolves live."""
    return ServingEngine(compiled_indexes)


@pytest.fixture(scope="module")
def plane_engine(compiled_indexes, answer_plane):
    return ServingEngine(compiled_indexes, plane=answer_plane)


class TestEquivalence:
    def test_outcomes_match_live_over_the_probe_pool(
        self, live_engine, plane_engine, probe_addresses
    ):
        """Covered, uncovered, and multi-vendor-disagreement addresses
        all come back identical through the plane."""
        for address in probe_addresses:
            live = live_engine.lookup_outcome(address)
            assert plane_engine.lookup_outcome(address) == live
            cell = plane_engine.lookup_plane(address)
            assert dict(cell.answers) == dict(live.answers)

    def test_consensus_matches_live_over_the_probe_pool(
        self, live_engine, plane_engine, probe_addresses
    ):
        for address in probe_addresses[::17]:
            live = live_engine.consensus_of(live_engine.lookup_outcome(address))
            plane = plane_engine.lookup_outcome(address)
            assert plane_engine.consensus_of(plane) == live

    def test_merged_boundaries_flip_exactly_where_live_flips(
        self, live_engine, plane_engine, answer_plane
    ):
        """Either side of every merged interval boundary agrees with the
        live path — an off-by-one in the bisect shift would fail here —
        and so does its consensus, which checks the compile-time vote of
        every cell against the live one."""
        starts = answer_plane.parts()[0]
        for start in starts[1:]:
            for address in (start - 1, start):
                live = live_engine.lookup_outcome(address)
                plane = plane_engine.lookup_outcome(address)
                assert plane == live
                assert plane_engine.consensus_of(plane) == live_engine.consensus_of(
                    live
                )

    def test_pool_exercises_every_address_class(
        self, answer_plane, probe_addresses
    ):
        """The sweep above is only meaningful if the pool really hits
        uncovered space, full coverage, and disagreement cells."""
        cells = {id(answer_plane.lookup(a)): answer_plane.lookup(a)
                 for a in probe_addresses}.values()
        assert any(
            all(answer is None for answer in cell.answers.values())
            for cell in cells
        )
        assert any(
            all(answer is not None for answer in cell.answers.values())
            for cell in cells
        )
        assert any(cell.consensus.country_disagreement for cell in cells)
        assert any(not cell.consensus.quorum for cell in cells)
        assert any(cell.consensus.quorum for cell in cells)

    def test_adjacent_intervals_never_share_a_cell(self, answer_plane):
        starts, cell_ids, cells = answer_plane.parts()
        assert starts[0] == 0
        assert all(a < b for a, b in zip(starts, starts[1:]))
        assert all(a != b for a, b in zip(cell_ids, cell_ids[1:]))
        assert answer_plane.cell_count <= answer_plane.interval_count
        assert set(cell_ids) == set(range(len(cells)))


class TestCellReference:
    """A plane outcome carries its cell so consensus_of can reuse the
    compile-time vote; the reference is invisible to equality."""

    def test_plane_outcome_equals_live_and_carries_its_cell(
        self, live_engine, plane_engine, probe_addresses
    ):
        for address in probe_addresses[::7]:
            plane = plane_engine.lookup_outcome(address)
            live = live_engine.lookup_outcome(address)
            assert plane == live
            assert plane.cell is plane_engine.lookup_plane(address)
            assert live.cell is None
            assert "cell" not in repr(plane)

    def test_consensus_of_plane_outcome_matches_the_live_vote(
        self, live_engine, plane_engine, probe_addresses
    ):
        for address in probe_addresses[::7]:
            plane = plane_engine.lookup_outcome(address)
            live = live_engine.lookup_outcome(address)
            assert plane_engine.consensus_of(plane) == live_engine.consensus_of(live)
            assert plane_engine.consensus_of(plane) is plane.cell.consensus

    @pytest.mark.parametrize("with_plane", [True, False])
    def test_consensus_counts_once_per_call(
        self, compiled_indexes, answer_plane, with_plane
    ):
        metrics = MetricsRegistry()
        engine = ServingEngine(
            compiled_indexes,
            metrics=metrics,
            plane=answer_plane if with_plane else None,
        )
        outcome = engine.lookup_outcome("41.0.0.2")
        assert (outcome.cell is not None) is with_plane
        for calls in (1, 2, 3):
            engine.consensus_of(outcome)
            assert metrics.counter("serve.consensus") == calls
        engine.consensus_of(engine.lookup_outcome("41.0.0.3"))
        assert metrics.counter("serve.consensus") == 4
        assert metrics.counter("serve.lookups") == 2
        assert metrics.counter("plane.hits") == (2 if with_plane else 0)

    def test_degraded_outcome_has_no_cell(self, compiled_indexes, answer_plane):
        engine = ServingEngine(
            compiled_indexes,
            plane=answer_plane,
            policy=ResiliencePolicy(cooldown_s=3600.0, cooldown_max_s=3600.0),
        )
        victim = engine.vendor_names()[0]
        for _ in range(engine._policy.quarantine_threshold):
            engine._record_failure(victim, RuntimeError("backend down"))
        outcome = engine.lookup_outcome("41.0.0.2")
        assert outcome.degraded and victim in outcome.quarantined
        assert outcome.cell is None
        assert engine.consensus_of(outcome).degraded


class TestEngineHandshake:
    def test_quorum_mismatch_is_refused(self, compiled_indexes, answer_plane):
        with pytest.raises(ValueError, match="quorum_min"):
            ServingEngine(
                compiled_indexes,
                plane=answer_plane,
                policy=ResiliencePolicy(quorum_min=3),
            )

    def test_city_range_mismatch_is_refused(self, compiled_indexes, answer_plane):
        with pytest.raises(ValueError, match="city_range_km"):
            ServingEngine(
                compiled_indexes, plane=answer_plane, city_range_km=10.0
            )

    def test_vendor_set_mismatch_is_refused(self, compiled_indexes, answer_plane):
        subset = dict(sorted(compiled_indexes.items())[:-1])
        with pytest.raises(ValueError, match="vendors"):
            ServingEngine(subset, plane=answer_plane)

    def test_stale_plane_is_refused(self, small_scenario, compiled_indexes):
        """A plane compiled over different snapshots (interval counts
        disagree) must not boot — it would serve the old answers."""
        victim = sorted(compiled_indexes)[0]
        entries = list(small_scenario.databases[victim].entries())[1:]
        older = CompiledIndex.compile(GeoDatabase(victim, entries))
        stale = compile_plane({**compiled_indexes, victim: older})
        assert stale.vendor_intervals[victim] != compiled_indexes[victim].interval_count
        with pytest.raises(ValueError, match="recompile"):
            ServingEngine(compiled_indexes, plane=stale)

    def test_plane_over_changed_content_is_refused(
        self, small_scenario, compiled_indexes, answer_plane, tmp_path
    ):
        """Same intervals, one record's city changed: interval counts
        match, so only the content binding can catch it — in memory (the
        plane is bound to other index objects) and on disk (the .rgix
        payload checksum differs)."""
        changed = _with_one_city_changed(small_scenario, "NetAcuity")
        assert changed.interval_count == compiled_indexes["NetAcuity"].interval_count
        served = {**compiled_indexes, "NetAcuity": changed}
        with pytest.raises(ValueError, match="recompile"):
            ServingEngine(served, plane=answer_plane)

        root = save_index_set(compiled_indexes, tmp_path / "set")
        path = save_plane(answer_plane, root / "plane.rgpl")
        loaded = load_plane(path)  # binds to the .rgix set beside it
        with pytest.raises(ValueError, match="recompile"):
            ServingEngine(served, plane=loaded)
        save_index_set({"NetAcuity": changed}, root)
        with pytest.raises(SnapshotError, match="recompile"):
            load_plane(path)
        with pytest.raises(SnapshotError, match="recompile"):
            load_plane(path, indexes=served)

    def test_equal_content_from_another_load_is_accepted(
        self, compiled_indexes, answer_plane, tmp_path
    ):
        root = save_index_set(compiled_indexes, tmp_path)
        plane = load_plane(save_plane(answer_plane, root / "plane.rgpl"))
        engine = ServingEngine(load_index_set(root), plane=plane)
        assert engine.plane_stats()["active"] is True
        assert ServingEngine(compiled_indexes, plane=plane).lookup_plane("41.0.0.2")

    def test_compile_needs_at_least_one_index(self):
        with pytest.raises(ValueError):
            compile_plane({})


class TestLookupPlaneInput:
    """``lookup_plane`` probes an exact in-range ``int`` as it is and
    parses everything else, with the typed error."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        import repro.serve.engine as engine_module

        seen = []
        parse = engine_module.parse_address

        def spy(address):
            seen.append(address)
            return parse(address)

        monkeypatch.setattr(engine_module, "parse_address", spy)
        return seen

    def test_an_int_gives_the_cell_of_its_dotted_quad(
        self, plane_engine, probe_addresses, parsed
    ):
        for value in probe_addresses[::7]:
            cell = plane_engine.lookup_plane(value)
            assert cell is not None
            assert parsed == []  # the int skipped the parser
            assert cell is plane_engine.lookup_plane(str(IPv4Address(value)))
            parsed.clear()

    def test_both_ends_of_the_range_are_probed(self, plane_engine, parsed):
        assert plane_engine.lookup_plane(0) is plane_engine.lookup_plane("0.0.0.0")
        assert plane_engine.lookup_plane(2**32 - 1) is plane_engine.lookup_plane(
            "255.255.255.255"
        )
        assert parsed == ["0.0.0.0", "255.255.255.255"]

    @pytest.mark.parametrize("value", [-1, 2**32])
    def test_out_of_range_ints_raise_the_typed_error(self, plane_engine, value):
        with pytest.raises(ValueError, match=f"not an IPv4 address: {value}"):
            plane_engine.lookup_plane(value)

    def test_a_bool_goes_through_the_parser(self, plane_engine, parsed):
        with pytest.raises(ValueError, match="not an IPv4 address: True"):
            plane_engine.lookup_plane(True)
        assert parsed == [True]


class TestDegradedBypass:
    def test_failure_falls_back_and_recovery_returns_to_the_plane(
        self, compiled_indexes, answer_plane
    ):
        metrics = MetricsRegistry()
        engine = ServingEngine(
            compiled_indexes,
            metrics=metrics,
            plane=answer_plane,
        )
        address = "41.0.0.2"
        healthy = engine.lookup_outcome(address)
        assert metrics.counter("plane.hits") == 1
        assert engine.plane_stats()["active"] is True

        # One recorded failure (below the quarantine threshold) flips the
        # fast gate: the next lookup runs the live path — which probes the
        # perfectly healthy index, heals the streak, and re-arms the plane.
        victim = engine.vendor_names()[0]
        engine._record_failure(victim, RuntimeError("transient blip"))
        assert engine.plane_stats()["active"] is False
        assert engine.lookup_plane(address) is None
        fallback = engine.lookup_outcome(address)
        assert metrics.counter("plane.fallbacks") == 1
        assert fallback == healthy  # the vendor answered fine live

        assert engine.plane_stats()["active"] is True
        assert engine.lookup_outcome(address) == healthy
        assert metrics.counter("plane.hits") == 2

    def test_missing_vendor_bypasses_the_plane_for_good(
        self, compiled_indexes, answer_plane, tmp_path
    ):
        """A plane compiled over the full vendor set still boots when one
        snapshot is missing — but never answers, because its cells bake
        in the missing vendor's data."""
        root = save_index_set(compiled_indexes, tmp_path / "set")
        victim = sorted(compiled_indexes)[0]
        (root / f"{victim}.rgix").unlink()
        metrics = MetricsRegistry()
        engine = ServingEngine(
            load_index_set(root),
            expected=sorted(compiled_indexes),
            metrics=metrics,
            plane=answer_plane,
        )
        assert engine.degraded
        assert engine.plane_stats()["active"] is False
        assert engine.lookup_plane("41.0.0.2") is None
        outcome = engine.lookup_outcome("41.0.0.2")
        assert outcome.degraded and victim in outcome.quarantined
        assert metrics.counter("plane.hits") == 0
        assert metrics.counter("plane.fallbacks") == 1

    def test_engine_without_plane_reports_none(self, live_engine):
        assert live_engine.plane_stats() is None
        assert live_engine.lookup_plane("41.0.0.2") is None


class TestPersistence:
    def test_roundtrip_preserves_every_interval_and_cell(
        self, compiled_indexes, answer_plane, tmp_path, probe_addresses
    ):
        # With no indexes passed, the plane loads the .rgix set beside it.
        save_index_set(compiled_indexes, tmp_path)
        path = save_plane(answer_plane, tmp_path / "plane.rgpl")
        loaded = load_plane(path)
        assert loaded.names == answer_plane.names
        assert loaded.vendor_intervals == answer_plane.vendor_intervals
        assert loaded.stats() == answer_plane.stats()
        starts, cell_ids, cells = answer_plane.parts()
        loaded_starts, loaded_cell_ids, loaded_cells = loaded.parts()
        assert list(loaded_starts) == list(starts)
        assert list(loaded_cell_ids) == list(cell_ids)
        assert list(loaded_cells) == list(cells)
        for address in probe_addresses[::29]:
            assert loaded.lookup(address) == answer_plane.lookup(address)

    def test_saved_bytes_are_pinned(self, answer_plane, tmp_path):
        """The ``.rgpl`` of the session scenario (seed 2016, scale 0.08)
        is byte-for-byte fixed: a change to how cells are built or packed
        must not move a single byte of the file."""
        path = save_plane(answer_plane, tmp_path / "plane.rgpl")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "dcc46fc44c8e32b0a2e2cb6a19bb8d1a05478f8f1d69f41278bd2bd34693d0b2"
        )

    def test_saved_index_bytes_are_pinned(self, compiled_indexes, tmp_path):
        """The ``.rgix`` set the plane binds to is pinned the same way: a
        change to how intervals are packed must not move a byte either."""
        root = save_index_set(compiled_indexes, tmp_path)
        digests = {
            path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in root.glob("*.rgix")
        }
        assert digests == {
            "IP2Location-Lite": (
                "b5a06e98c6b0ad85abd68b62419e73e8e966786ce010f19359dfca1282a63640"
            ),
            "MaxMind-GeoLite": (
                "07ab23ae805528d446ffd863f854b55f09e46cbeb44718ad001abe1bd03bf154"
            ),
            "MaxMind-Paid": (
                "614f34a823e4a8656dffdfbda3954692f83bcaaac14d523eab54971ac71dc0d1"
            ),
            "NetAcuity": (
                "0825e4ef6a8575900403da8f9f0c4cabdc48a783840e13ee35f8d542c6e96b5c"
            ),
        }

    def test_loaded_plane_serves_identically(
        self, compiled_indexes, answer_plane, live_engine, tmp_path, probe_addresses
    ):
        path = save_plane(answer_plane, tmp_path / "plane.rgpl")
        engine = ServingEngine(
            compiled_indexes, plane=load_plane(path, indexes=compiled_indexes)
        )
        for address in probe_addresses[::41]:
            assert engine.lookup_outcome(address) == live_engine.lookup_outcome(
                address
            )

    def test_missing_file_raises_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_plane(tmp_path / "absent.rgpl")

    def test_bad_magic_raises_snapshot_error(self, answer_plane, tmp_path):
        path = save_plane(answer_plane, tmp_path / "plane.rgpl")
        blob = path.read_bytes()
        path.write_bytes(b"NOPE" + blob[4:])
        with pytest.raises(SnapshotError, match="bad magic"):
            load_plane(path)

    def test_truncation_raises_snapshot_error(self, answer_plane, tmp_path):
        path = save_plane(answer_plane, tmp_path / "plane.rgpl")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 100])
        with pytest.raises(SnapshotError, match="truncated"):
            load_plane(path)

    @pytest.mark.parametrize("offset_fraction", [0.1, 0.5, 0.9])
    def test_flipped_byte_raises_snapshot_error(
        self, answer_plane, tmp_path, offset_fraction
    ):
        path = save_plane(answer_plane, tmp_path / "plane.rgpl")
        blob = bytearray(path.read_bytes())
        position = int(len(blob) * offset_fraction)
        blob[position] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError):
            load_plane(path)


class TestConstruction:
    def test_rejects_mismatched_parallel_arrays(self):
        with pytest.raises(ValueError, match="parallel"):
            AnswerPlane(("A",), {"A": 1}, [0, 10], [0], [])

    def test_rejects_a_table_not_starting_at_zero(self):
        with pytest.raises(ValueError, match="address 0"):
            AnswerPlane(("A",), {"A": 1}, [5], [0], [])

    def test_rejects_out_of_range_cell_ids(self, answer_plane):
        cells = answer_plane.parts()[2][:1]
        with pytest.raises(ValueError, match="outside"):
            AnswerPlane(("A",), {"A": 1}, [0], [7], cells)


class TestLazyDecode:
    """A loaded plane decodes no cell at load; each decodes on its first
    probe, once, into a per-cell-id memo shared by every interval."""

    @pytest.fixture()
    def loaded(self, compiled_indexes, answer_plane, tmp_path):
        path = save_plane(answer_plane, tmp_path / "plane.rgpl")
        return load_plane(path, indexes=compiled_indexes)

    def test_stats_are_complete_before_any_probe(
        self, compiled_indexes, loaded, answer_plane
    ):
        assert loaded._cells.count(None) == loaded.cell_count  # nothing decoded
        assert loaded.stats() == answer_plane.stats()
        engine = ServingEngine(compiled_indexes, plane=loaded)
        stats = engine.plane_stats()
        assert (stats["cells"], stats["intervals"]) == (
            answer_plane.cell_count,
            answer_plane.interval_count,
        )
        assert loaded._cells.count(None) == loaded.cell_count

    def test_parts_match_the_compiled_plane(self, loaded, answer_plane):
        starts, cell_ids, _ = loaded.parts()
        assert type(starts) is list and type(cell_ids) is list
        assert loaded.parts()[:2] == answer_plane.parts()[:2]

    def test_first_touch_decodes_one_cell_and_fills_its_slot(
        self, loaded, answer_plane, probe_addresses
    ):
        address = probe_addresses[len(probe_addresses) // 2]
        cell = loaded.lookup(address)
        assert cell == answer_plane.lookup(address)
        assert loaded.cell_count - loaded._cells.count(None) == 1
        assert loaded.lookup(address) is cell
        assert loaded.locate(0)[1] == 0

    def test_concurrent_first_probes_share_one_cell(
        self, loaded, answer_plane, probe_addresses
    ):
        addresses = probe_addresses[::53]
        barrier = threading.Barrier(8)
        results = []

        def worker():
            barrier.wait()
            results.append([loaded.probe(addr) for addr in addresses])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the decodes as finely as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = [answer_plane.probe(addr) for addr in addresses]
        assert len(results) == 8
        for cells in results:
            assert cells == expected
            assert all(a is b for a, b in zip(cells, results[0]))

    def test_cells_point_at_the_indexes_shared_answers(
        self, compiled_indexes, loaded, probe_addresses
    ):
        for addr in probe_addresses[::101]:
            for name, answer in loaded.probe(addr).answers.items():
                assert answer is compiled_indexes[name].probe_answer(addr)
