"""SnapshotStore + StoreWatcher: publish, hot reload, rollback, lifecycle."""

import json
import threading

import pytest

from repro.geodb import GeoDatabase
from repro.obs import MetricsRegistry
from repro.obs.reqtrace import TraceRing
from repro.serve import (
    CompiledIndex,
    ServeError,
    ServingEngine,
    SnapshotError,
    SnapshotStore,
    StoreError,
    StoreWatcher,
    compile_plane,
    load_index,
    load_plane,
    save_index,
    save_plane,
)


@pytest.fixture()
def store(tmp_path):
    return SnapshotStore(tmp_path / "store")


@pytest.fixture()
def probe_sample(probe_addresses):
    return probe_addresses[::211][:120]


def flat_answers(engine, addresses):
    """Per-address serialized answers — the byte-identity comparator."""
    flat = []
    for addr in addresses:
        answers = engine.lookup_outcome(addr).answers
        flat.append({
            name: (None if a is None else (a.prefix, a.record))
            for name in engine.vendor_names()
            for a in (answers.get(name),)
        })
    return flat


class TestPublish:
    def test_ids_are_sequential_and_current_follows(
        self, store, compiled_indexes, answer_plane
    ):
        assert store.current_id() is None
        assert store.latest_id() is None
        first = store.publish(compiled_indexes, answer_plane)
        second = store.publish(compiled_indexes, answer_plane)
        assert (first.generation, second.generation) == (1, 2)
        assert store.current_id() == 2
        assert store.latest_id() == 2
        assert store.generation_path(1).is_dir()
        assert store.generation_path(2).is_dir()

    def test_manifest_digests_every_payload(
        self, store, compiled_indexes, answer_plane
    ):
        record = store.publish(compiled_indexes, answer_plane)
        manifest = json.loads(
            (record.path / "MANIFEST.json").read_text(encoding="utf-8")
        )
        assert manifest["format"] == "repro-snapshot-generation"
        assert manifest["generation"] == record.generation
        assert set(manifest["vendors"]) == set(compiled_indexes)
        for entry in manifest["vendors"].values():
            payload = record.path / entry["file"]
            assert payload.stat().st_size == entry["bytes"]
            assert len(entry["sha256"]) == 64
        assert (record.path / manifest["plane"]["file"]).is_file()

    def test_plane_is_optional(self, store, compiled_indexes):
        store.publish(compiled_indexes)
        record, indexes, plane = store.load(store.current_id())
        assert record.plane is None
        assert plane is None
        assert set(indexes) == set(compiled_indexes)

    def test_refuses_an_empty_generation(self, store):
        with pytest.raises(StoreError, match="no vendors"):
            store.publish({})
        assert store.latest_id() is None

    def test_rejected_ids_are_never_reused(
        self, store, compiled_indexes, answer_plane
    ):
        store.publish(compiled_indexes, answer_plane)
        bad = store.publish(compiled_indexes, answer_plane)
        store.reject(bad.generation, "synthetic")
        replacement = store.publish(compiled_indexes, answer_plane)
        assert replacement.generation == bad.generation + 1

    def test_open_without_create_requires_a_store(self, tmp_path):
        with pytest.raises(StoreError, match="not a snapshot store"):
            SnapshotStore(tmp_path / "nowhere", create=False)
        SnapshotStore(tmp_path / "real")  # creates
        SnapshotStore(tmp_path / "real", create=False)  # now opens


class TestLoadAndVerify:
    def test_round_trip_preserves_answers(
        self, store, compiled_indexes, answer_plane, probe_sample
    ):
        store.publish(compiled_indexes, answer_plane)
        _, indexes, plane = store.load(store.current_id())
        for addr in probe_sample:
            for name, index in compiled_indexes.items():
                assert indexes[name].probe_answer(addr) == index.probe_answer(
                    addr
                )
            assert plane.locate(addr) == answer_plane.locate(addr)

    def test_flipped_byte_fails_digest_with_generation_and_file(
        self, store, compiled_indexes
    ):
        record = store.publish(compiled_indexes)
        victim = sorted(record.path.glob("*.rgix"))[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        victim.write_bytes(bytes(blob))
        with pytest.raises(StoreError) as err:
            store.load(record.generation)
        assert f"generation {record.generation}" in str(err.value)
        assert victim.name in str(err.value)
        assert "digest" in str(err.value)

    def test_missing_payload_is_named(self, store, compiled_indexes):
        record = store.publish(compiled_indexes)
        victim = sorted(record.path.glob("*.rgix"))[-1]
        victim.unlink()
        with pytest.raises(StoreError, match="missing on disk") as err:
            store.load(record.generation)
        assert victim.name in str(err.value)

    def test_manifest_claiming_another_generation_is_refused(
        self, store, compiled_indexes
    ):
        record = store.publish(compiled_indexes)
        manifest_path = record.path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["generation"] = 99
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(StoreError, match="was moved or"):
            store.load(record.generation)

    def test_listing_survives_one_aborted_publish(
        self, store, compiled_indexes
    ):
        store.publish(compiled_indexes)
        broken = store.generations_dir / "000002"
        broken.mkdir()
        (broken / "MANIFEST.json").write_text("{not json", encoding="utf-8")
        records = store.generations()
        assert [r.generation for r in records] == [1]
        # ...but ids still advance past the wreck: no reuse.
        assert store.publish(compiled_indexes).generation == 3


class TestRollback:
    def test_reject_restores_newest_good(self, store, compiled_indexes):
        store.publish(compiled_indexes)
        store.publish(compiled_indexes)
        bad = store.publish(compiled_indexes)
        restored = store.reject(bad.generation, "canary regression")
        assert restored == 2
        assert store.current_id() == 2
        listed = {r.generation: r for r in store.generations()}
        assert listed[bad.generation].rejected
        assert listed[bad.generation].reason == "canary regression"
        assert not listed[2].rejected

    def test_reject_with_nothing_good_leaves_current(
        self, store, compiled_indexes
    ):
        only = store.publish(compiled_indexes)
        assert store.reject(only.generation, "bad") is None
        assert store.current_id() == only.generation

    def test_manual_rollback_skips_rejected(self, store, compiled_indexes):
        store.publish(compiled_indexes)
        skipped = store.publish(compiled_indexes)
        store.publish(compiled_indexes)
        store.reject(skipped.generation, "bad")
        assert store.current_id() == 3
        assert store.rollback() == 1
        assert store.current_id() == 1
        with pytest.raises(StoreError, match="nothing to roll back"):
            store.rollback()

    def test_rollback_needs_a_current(self, store):
        with pytest.raises(StoreError, match="no CURRENT"):
            store.rollback()

    def test_garbage_current_is_an_error(self, store, compiled_indexes):
        store.publish(compiled_indexes)
        (store.root / "CURRENT").write_text("yesterday\n", encoding="utf-8")
        with pytest.raises(StoreError, match="not a generation id"):
            store.current_id()

    def test_set_current_requires_the_generation(self, store):
        with pytest.raises(StoreError, match="does not exist"):
            store.set_current(5)


class TestWatcher:
    def make_engine(self, store, **kwargs):
        record, indexes, plane = store.load(store.current_id())
        return ServingEngine(
            indexes,
            plane=plane,
            generation_id=record.generation,
            generation_source="store",
            **kwargs,
        )

    def test_noop_republish_serves_identical_answers(
        self, store, compiled_indexes, answer_plane, probe_sample
    ):
        store.publish(compiled_indexes, answer_plane)
        engine = self.make_engine(store)
        watcher = StoreWatcher(store, engine, canary_addresses=probe_sample)
        before = flat_answers(engine, probe_sample)
        assert watcher.poll_once() == "noop"

        store.publish(compiled_indexes, answer_plane)
        assert watcher.poll_once() == "swapped"
        assert engine.generation_id == 2
        assert engine.generation_info()["source"] == "store"
        assert flat_answers(engine, probe_sample) == before
        engine.close()

    def test_swap_counts_and_staleness_reset(
        self, store, compiled_indexes, answer_plane
    ):
        metrics = MetricsRegistry()
        store.publish(compiled_indexes, answer_plane)
        engine = self.make_engine(store, metrics=metrics)
        watcher = StoreWatcher(store, engine, metrics=metrics)
        store.publish(compiled_indexes, answer_plane)
        assert watcher.poll_once() == "swapped"
        info = engine.generation_info()
        assert (info["id"], info["swaps"], info["rollbacks"]) == (2, 1, 0)
        assert engine.generation_age_s >= 0.0
        assert metrics.counter("serve.generation_swaps") == 1
        engine.close()

    def test_corrupt_candidate_rolls_back_and_keeps_serving(
        self, store, compiled_indexes, answer_plane, probe_sample
    ):
        store.publish(compiled_indexes, answer_plane)
        engine = self.make_engine(store)
        metrics = MetricsRegistry()
        traces = TraceRing(capacity=8)
        watcher = StoreWatcher(
            store, engine, metrics=metrics, trace_sink=traces
        )
        before = flat_answers(engine, probe_sample)

        bad = store.publish(compiled_indexes, answer_plane)
        victim = sorted(bad.path.glob("*.rgix"))[0]
        blob = bytearray(victim.read_bytes())
        blob[-10] ^= 0x01
        victim.write_bytes(bytes(blob))

        assert watcher.poll_once() == "rolled_back"
        assert engine.generation_id == 1
        assert engine.generation_info()["rollbacks"] == 1
        assert store.current_id() == 1
        assert "digest" in watcher.last_error
        assert metrics.counter("store.rejected_generations") == 1
        assert flat_answers(engine, probe_sample) == before
        # The swap trace records the rollback span.
        def names(spans):
            for span in spans:
                yield span["name"]
                yield from names(span.get("children", ()))

        recorded = [n for t in traces.slowest() for n in names(t["spans"])]
        assert "swap.rollback" in recorded
        # The rejected generation is never retried.
        assert watcher.poll_once() == "noop"
        engine.close()

    def test_canary_regression_is_rejected(
        self, small_scenario, store, compiled_indexes, answer_plane, probe_sample
    ):
        store.publish(compiled_indexes, answer_plane)
        engine = self.make_engine(store)
        watcher = StoreWatcher(
            store,
            engine,
            canary_addresses=probe_sample,
            canary_max_drop=0.25,
        )
        # A candidate where one vendor lost almost its whole table: the
        # classic truncated export.  It parses fine — only the canary
        # probe can see the crater.
        truncated = dict(compiled_indexes)
        victim = sorted(truncated)[0]
        database = small_scenario.databases[victim]
        truncated[victim] = CompiledIndex.compile(
            GeoDatabase(victim, database.entries()[:3])
        )
        store.publish(truncated, compile_plane(truncated))
        assert watcher.poll_once() == "rolled_back"
        assert "canary regression" in watcher.last_error
        assert victim in watcher.last_error
        assert engine.generation_id == 1
        engine.close()

    def test_vendor_set_change_is_rejected(
        self, store, compiled_indexes, answer_plane
    ):
        store.publish(compiled_indexes, answer_plane)
        engine = self.make_engine(store)
        watcher = StoreWatcher(store, engine)
        shrunk = dict(compiled_indexes)
        shrunk.pop(sorted(shrunk)[0])
        store.publish(shrunk, compile_plane(shrunk))
        assert watcher.poll_once() == "rolled_back"
        assert "vendor set changed" in watcher.last_error
        assert engine.generation_id == 1
        engine.close()

    def test_rolling_current_backwards_counts_as_rollback(
        self, store, compiled_indexes, answer_plane
    ):
        store.publish(compiled_indexes, answer_plane)
        engine = self.make_engine(store)
        watcher = StoreWatcher(store, engine)
        store.publish(compiled_indexes, answer_plane)
        assert watcher.poll_once() == "swapped"
        store.rollback()
        assert watcher.poll_once() == "swapped"
        info = engine.generation_info()
        assert (info["id"], info["rollbacks"]) == (1, 1)
        engine.close()

    def test_watcher_validates_constructor_arguments(
        self, store, compiled_indexes
    ):
        store.publish(compiled_indexes)
        engine = self.make_engine(store)
        with pytest.raises(ValueError, match="interval_s"):
            StoreWatcher(store, engine, interval_s=0.0)
        with pytest.raises(ValueError, match="canary_max_drop"):
            StoreWatcher(store, engine, canary_max_drop=1.5)
        engine.close()


class TestEngineLifecycle:
    def test_close_stops_watcher_thread_and_is_idempotent(
        self, store, compiled_indexes, answer_plane
    ):
        store.publish(compiled_indexes, answer_plane)
        record, indexes, plane = store.load(store.current_id())
        engine = ServingEngine(
            indexes, plane=plane, generation_id=record.generation
        )
        watcher = StoreWatcher(store, engine, interval_s=0.05)
        watcher.start()
        watcher.start()  # idempotent while running
        threads = [
            t for t in threading.enumerate()
            if t.name == "repro-store-watcher"
        ]
        assert len(threads) == 1

        engine.close()
        assert not threads[0].is_alive()
        assert watcher._thread is None
        engine.close()  # idempotent
        assert not any(
            t.name == "repro-store-watcher" for t in threading.enumerate()
        )
        watcher.stop()  # also idempotent after the engine stopped it

    def test_closed_engine_refuses_swaps_and_watchers(
        self, store, compiled_indexes, answer_plane
    ):
        store.publish(compiled_indexes, answer_plane)
        record, indexes, plane = store.load(store.current_id())
        engine = ServingEngine(
            indexes, plane=plane, generation_id=record.generation
        )
        engine.close()
        assert engine.closed
        with pytest.raises(ServeError, match="engine is closed"):
            engine.swap(indexes, plane, generation_id=2)
        with pytest.raises(ServeError, match="engine is closed"):
            StoreWatcher(store, engine)
        # Reads still work after close — only the lifecycle is frozen.
        assert engine.lookup_outcome("41.0.0.2") is not None


class TestGenerationLabelledErrors:
    def test_corrupt_index_names_file_and_generation(
        self, tmp_path, compiled_indexes
    ):
        name = sorted(compiled_indexes)[0]
        path = save_index(compiled_indexes[name], tmp_path / f"{name}.rgix")
        blob = bytearray(path.read_bytes())
        blob[5] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError) as err:
            load_index(path, generation=7)
        assert str(err.value).startswith("generation 7: ")

    def test_corrupt_plane_names_generation(self, tmp_path, answer_plane):
        path = save_plane(answer_plane, tmp_path / "plane.rgpl")
        blob = bytearray(path.read_bytes())
        blob[5] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError) as err:
            load_plane(path, generation=9)
        assert str(err.value).startswith("generation 9: ")

    def test_unlabelled_load_is_unchanged(self, tmp_path, compiled_indexes):
        name = sorted(compiled_indexes)[0]
        path = save_index(compiled_indexes[name], tmp_path / f"{name}.rgix")
        blob = bytearray(path.read_bytes())
        blob[5] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError) as err:
            load_index(path)
        assert "generation" not in str(err.value)
