"""Concurrent swap hammer: no torn answers under generation churn.

Reader threads stream lookups while the main thread swaps the engine
between two generations (one swap marked as a rollback).  The atomicity
claim under test: every response is internally consistent — the full
per-vendor answer dict matches exactly one generation's precomputed
truth, never a mix — and the lookup/swap counters balance afterwards.
"""

import random
import threading
import time

import pytest

from repro.geodb import refresh_snapshot
from repro.obs import MetricsRegistry
from repro.serve import CompiledIndex, ServingEngine, compile_plane

from tests.faults.conftest import CHAOS_SEED

READERS = 4
SWAPS = 24  # generation flips driven while the readers stream


@pytest.fixture(scope="module")
def aged_indexes(small_scenario):
    """A second generation: every vendor aged two simulated years."""
    return {
        name: CompiledIndex.compile(
            refresh_snapshot(
                database,
                small_scenario.internet.gazetteer,
                months=24.0,
                seed=CHAOS_SEED,
            )
        )
        for name, database in small_scenario.databases.items()
    }


def truth_table(indexes, addresses):
    """Per-address flat answers straight from the indexes — what every
    response served from that generation must equal, in full."""
    names = sorted(indexes)
    return {
        addr: {name: indexes[name].probe_answer(addr) for name in names}
        for addr in addresses
    }


def covered_sample(addresses, *truths):
    """Addresses some vendor answers in every generation — the engine
    fail-closes (raises) on fully-uncovered addresses, which is not the
    invariant under test here."""
    return [
        addr
        for addr in addresses
        if all(
            any(answer is not None for answer in truth[addr].values())
            for truth in truths
        )
    ]


def run_hammer(engine, sample, truths, *, swap):
    stop = threading.Event()
    torn = []
    crashes = []
    reads = [0] * READERS
    started = threading.Barrier(READERS + 1)

    def reader(slot):
        rng = random.Random(CHAOS_SEED + slot)
        started.wait()
        count = 0
        try:
            while not stop.is_set():
                addr = sample[rng.randrange(len(sample))]
                answers = dict(engine.lookup_outcome(addr).answers)
                count += 1
                if not any(answers == truth[addr] for truth in truths):
                    torn.append((addr, answers))
                    stop.set()
                    break
        except BaseException as exc:  # surfaced in the main thread
            crashes.append(exc)
            stop.set()
        finally:
            reads[slot] = count

    threads = [
        threading.Thread(target=reader, args=(slot,), daemon=True)
        for slot in range(READERS)
    ]
    for thread in threads:
        thread.start()
    started.wait()
    for flip in range(SWAPS):
        swap(flip)
        time.sleep(0.002)  # yield the GIL so readers land mid-flip lookups
    stop.set()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    assert crashes == [], f"reader crashed: {crashes[0]!r}"
    return torn, sum(reads)


@pytest.fixture(scope="module")
def hammer_pool(small_scenario, chaos_addresses):
    """Ark interface addresses (dense coverage) plus the chaos slice."""
    pool = {int(a) for a in small_scenario.ark_dataset.addresses}
    pool.update(chaos_addresses)
    return sorted(pool)


def test_no_torn_answers_across_generation_flips(
    compiled_indexes, answer_plane, aged_indexes, hammer_pool
):
    truth_a = truth_table(compiled_indexes, hammer_pool)
    truth_b = truth_table(aged_indexes, hammer_pool)
    sample = covered_sample(hammer_pool, truth_a, truth_b)[:200]
    assert len(sample) > 50
    aged_plane = compile_plane(aged_indexes)
    metrics = MetricsRegistry()
    engine = ServingEngine(
        compiled_indexes,
        plane=answer_plane,
        metrics=metrics,
        generation_id=1,
        generation_source="store",
    )

    generations = [
        (compiled_indexes, answer_plane),
        (aged_indexes, aged_plane),
    ]

    def swap(flip):
        indexes, plane = generations[(flip + 1) % 2]
        # The final flip lands back on generation 1, marked the way the
        # watcher marks a CURRENT pointer that moved backwards.
        rollback = flip == SWAPS - 1
        engine.swap(
            indexes,
            plane,
            generation_id=1 if rollback else flip + 2,
            source="hammer",
            rollback=rollback,
        )

    torn, total_reads = run_hammer(
        engine, sample, (truth_a, truth_b), swap=swap
    )
    assert torn == [], f"mixed-generation answers: {torn[:3]}"
    assert total_reads > 0

    # Counters balance: every read and every flip is accounted for.
    info = engine.generation_info()
    assert (info["swaps"], info["rollbacks"]) == (SWAPS, 1)
    assert info["id"] == 1  # the last flip rolled back to generation 1
    assert metrics.counter("serve.lookups") == total_reads
    assert metrics.counter("serve.generation_swaps") == SWAPS
    assert metrics.counter("serve.generation_rollbacks") == 1
    engine.close()


def test_hammer_without_plane_exercises_live_path(
    compiled_indexes, aged_indexes, hammer_pool
):
    """Same invariant on the live probe path (no plane attached): every
    vendor probe of one lookup must read the same generation."""
    truth_a = truth_table(compiled_indexes, hammer_pool)
    truth_b = truth_table(aged_indexes, hammer_pool)
    sample = covered_sample(hammer_pool, truth_a, truth_b)[:150]
    assert len(sample) > 50
    metrics = MetricsRegistry()
    engine = ServingEngine(compiled_indexes, metrics=metrics, generation_id=1)

    generations = [compiled_indexes, aged_indexes]

    def swap(flip):
        engine.swap(
            generations[(flip + 1) % 2], generation_id=flip + 2, source="hammer"
        )

    torn, total_reads = run_hammer(
        engine, sample, (truth_a, truth_b), swap=swap
    )
    assert torn == [], f"mixed-generation answers: {torn[:3]}"
    assert metrics.counter("serve.lookups") == total_reads
    engine.close()
