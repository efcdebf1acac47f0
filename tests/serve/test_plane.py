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

import pytest

from repro.obs import MetricsRegistry
from repro.serve import (
    AnswerPlane,
    ServingEngine,
    SnapshotError,
    compile_plane,
    load_plane,
    save_index_set,
    save_plane,
)
from repro.serve.engine import ResiliencePolicy


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
        live path — an off-by-one in the bisect shift would fail here."""
        starts = answer_plane.parts()[0]
        for start in starts[1:]:
            for address in (start - 1, start):
                live = live_engine.lookup_outcome(address)
                assert plane_engine.lookup_outcome(address) == live

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
        assert any(cell.country_disagreement for cell in cells)
        assert any(not cell.quorum for cell in cells)
        assert any(cell.quorum for cell in cells)

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

    def test_stale_plane_is_refused(self, compiled_indexes, answer_plane):
        """A plane compiled over different snapshots (interval counts
        disagree) must not boot — it would serve the old answers."""
        starts, cell_ids, cells = answer_plane.parts()
        victim = answer_plane.names[0]
        stale = AnswerPlane(
            names=answer_plane.names,
            vendor_intervals={
                **answer_plane.vendor_intervals,
                victim: answer_plane.vendor_intervals[victim] + 1,
            },
            starts=starts,
            cell_ids=cell_ids,
            cells=cells,
            city_range_km=answer_plane.city_range_km,
            quorum_min=answer_plane.quorum_min,
        )
        with pytest.raises(ValueError, match="recompile"):
            ServingEngine(compiled_indexes, plane=stale)

    def test_compile_needs_at_least_one_index(self):
        with pytest.raises(ValueError):
            compile_plane({})


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
        engine = ServingEngine.from_snapshot_dir(
            root,
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
        self, answer_plane, tmp_path, probe_addresses
    ):
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

    def test_loaded_plane_serves_identically(
        self, compiled_indexes, answer_plane, live_engine, tmp_path, probe_addresses
    ):
        path = save_plane(answer_plane, tmp_path / "plane.rgpl")
        engine = ServingEngine(compiled_indexes, plane=load_plane(path))
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
