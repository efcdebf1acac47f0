"""Store filesystem faults: every lifecycle failure leaves serving intact.

The runtime chaos matrix (test_chaos_matrix.py) proves per-request
fail-closed behaviour; this suite proves the *lifecycle* equivalent — a
candidate generation wrecked on disk after publish (manifest cut short,
payload rotting under its digest, promised plane file gone) is rejected
by the watcher, the serving generation keeps answering byte-identically,
and the store's CURRENT pointer is restored to the last good generation.
"""

import pytest

from repro.faults import STORE_KINDS, FaultInjector, StoreFaultKind
from repro.obs import MetricsRegistry
from repro.serve import ServingEngine, SnapshotStore, StoreWatcher

from tests.faults.conftest import CHAOS_SEED


@pytest.fixture()
def store(tmp_path):
    return SnapshotStore(tmp_path / "store")


def flat_answers(engine, addresses):
    flat = []
    for addr in addresses:
        answers = engine.lookup_outcome(addr).answers
        flat.append({name: answers.get(name) for name in engine.vendor_names()})
    return flat


@pytest.mark.parametrize("kind", STORE_KINDS, ids=lambda k: k.value)
def test_sabotaged_candidate_never_reaches_serving(
    kind, store, compiled_indexes, answer_plane, chaos_addresses
):
    sample = chaos_addresses[:120]
    metrics = MetricsRegistry()
    good = store.publish(compiled_indexes, answer_plane)
    record, indexes, plane = store.load(good.generation)
    engine = ServingEngine(
        indexes,
        plane=plane,
        metrics=metrics,
        generation_id=record.generation,
        generation_source="store",
    )
    watcher = StoreWatcher(
        store, engine, canary_addresses=sample, metrics=metrics
    )
    baseline = flat_answers(engine, sample)

    bad = store.publish(compiled_indexes, answer_plane)
    injector = FaultInjector(CHAOS_SEED, [], metrics=metrics)
    description = injector.sabotage_generation(bad.path, kind)
    assert description  # the chaos log line names the wrecked file

    assert watcher.poll_once() == "rolled_back"
    assert watcher.last_error is not None

    # The serving generation is untouched in every failure path.
    assert engine.generation_id == good.generation
    assert engine.generation_info()["rollbacks"] == 1
    assert flat_answers(engine, sample) == baseline

    # The store healed its pointer and remembers what it refused.
    assert store.current_id() == good.generation
    rejected = {r.generation: r for r in store.generations()}.get(
        bad.generation
    )
    if kind is StoreFaultKind.MANIFEST_PARTIAL:
        # An unreadable manifest drops the generation from the listing
        # entirely, but the marker still lands on disk.
        assert rejected is None
    else:
        assert rejected is not None and rejected.rejected
    assert (bad.path / "REJECTED").exists()
    assert metrics.counter("store.rejected_generations") == 1

    # A later good publish rolls forward past the wreck.
    repaired = store.publish(compiled_indexes, answer_plane)
    assert repaired.generation == bad.generation + 1
    assert watcher.poll_once() == "swapped"
    assert engine.generation_id == repaired.generation
    assert flat_answers(engine, sample) == baseline
    engine.close()


def test_store_faults_are_deterministic(tmp_path, compiled_indexes, answer_plane):
    """Same seed + same generation name → the same wrecked bytes.

    A failing store-fault cell must reproduce from CHAOS_SEED alone, the
    same guarantee the runtime matrix gives.
    """
    descriptions = []
    for attempt in range(2):
        replica = SnapshotStore(tmp_path / f"replica-{attempt}")
        record = replica.publish(compiled_indexes, answer_plane)
        descriptions.append(
            FaultInjector(CHAOS_SEED, []).sabotage_generation(
                record.path, StoreFaultKind.PAYLOAD_CORRUPT
            )
        )
    assert descriptions[0] == descriptions[1]


def test_plane_missing_requires_a_plane(store, compiled_indexes):
    record = store.publish(compiled_indexes)  # published without a plane
    injector = FaultInjector(CHAOS_SEED, [])
    with pytest.raises(ValueError, match="no plane"):
        injector.sabotage_generation(record.path, StoreFaultKind.PLANE_MISSING)
