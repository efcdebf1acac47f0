"""Concurrency hammer for ``TeamCymruWhois.lookup``'s LRU memo.

One registry, and so one memo, may be shared by any threads that hold
it.  The audited claim (see the class docstring): the internally-locked
``LruCache`` plus an immutable registry make concurrent lookups safe —
worst case is a benign duplicate compute, never a torn record or a lost
counter.  This test drives that claim with 8 threads over a
deliberately tiny, eviction-heavy cache and reconciles every counter.
"""

import random
import threading

from repro.net.registry import TeamCymruWhois, UnallocatedAddressError
from repro.obs import MetricsRegistry

THREADS = 8
ROUNDS = 6


def test_concurrent_lookups_are_correct_and_counters_reconcile(small_scenario):
    registry = small_scenario.internet.registry
    metrics = MetricsRegistry()
    # cache_size far below the working set: constant eviction churn, so
    # get/put/evict interleave across threads on the same entries.
    whois = TeamCymruWhois(registry, metrics, cache_size=32)

    allocated = sorted({int(a) for a in small_scenario.ark_dataset.addresses})[:200]
    unallocated = [int_addr for int_addr in range(0xF0000000, 0xF0000000 + 40)]
    pool = allocated + unallocated

    # Single-threaded reference truth, computed via the registry alone.
    reference = {}
    for addr in pool:
        try:
            reference[addr] = whois.lookup(addr)
        except UnallocatedAddressError:
            reference[addr] = None

    mismatches = []
    crashes = []
    lookups_per_thread = [0] * THREADS
    unallocated_per_thread = [0] * THREADS
    barrier = threading.Barrier(THREADS)

    def hammer(slot):
        rng = random.Random(20160806 + slot)
        shuffled = pool * ROUNDS
        rng.shuffle(shuffled)
        barrier.wait()
        try:
            for addr in shuffled:
                lookups_per_thread[slot] += 1
                try:
                    record = whois.lookup(addr)
                except UnallocatedAddressError:
                    unallocated_per_thread[slot] += 1
                    record = None
                if record != reference[addr]:
                    mismatches.append((addr, record))
                    return
        except BaseException as exc:  # surfaced in the main thread
            crashes.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(slot,), daemon=True)
        for slot in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not any(thread.is_alive() for thread in threads)
    assert crashes == [], f"lookup crashed under contention: {crashes[0]!r}"
    assert mismatches == [], f"torn/wrong record under contention: {mismatches[:3]}"

    # Counter reconciliation: nothing lost, nothing double-counted.
    hammer_lookups = sum(lookups_per_thread)
    total_queries = len(pool) + hammer_lookups  # reference pass + hammer
    assert metrics.counter("whois.queries") == total_queries
    assert metrics.counter("whois.unallocated") == (
        len(unallocated) + sum(unallocated_per_thread)
    )
    cache = whois._cache
    assert cache.hits == metrics.counter("whois.cache_hits")
    # Every query probes the cache exactly once: hit or miss, never both.
    assert cache.hits + cache.misses == total_queries
    # The tiny cache really churned — this was a contended test, not a
    # warm-cache idle.
    assert cache.evictions > 0
