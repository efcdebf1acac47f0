"""Thread hammer for the LRU cache the whois client memoises through.

Correctness under concurrency means two things here: the cache never
returns another key's value (isolation), and the accounting reconciles
exactly — every ``get`` is one hit or one miss.  A lost update or a
cross-wired entry shows up as an off-by-anything in these totals.
"""

import random
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.serve import LruCache

from tests.faults.conftest import CHAOS_SEED

THREADS = 8
OPS_PER_THREAD = 3000


class TestLruCacheHammer:
    def test_counters_reconcile_and_values_stay_keyed(self):
        cache = LruCache(capacity=64)
        key_space = 256  # 4x capacity: constant eviction pressure
        barrier = threading.Barrier(THREADS)
        wrong: list[tuple[int, str]] = []

        def hammer(worker: int) -> int:
            rng = random.Random(f"{CHAOS_SEED}|hammer|{worker}")
            barrier.wait()  # maximum interleaving: everyone starts together
            gets = 0
            for _ in range(OPS_PER_THREAD):
                key = rng.randrange(key_space)
                if rng.random() < 0.5:
                    cache.put(key, f"value-{key}")
                else:
                    gets += 1
                    try:
                        value = cache.get(key)
                    except KeyError:
                        continue
                    if value != f"value-{key}":
                        wrong.append((key, value))
            return gets

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            total_gets = sum(pool.map(hammer, range(THREADS)))

        assert not wrong, f"cache returned another key's value: {wrong[:3]}"
        assert cache.hits + cache.misses == total_gets
        assert len(cache) <= cache.capacity
        assert cache.stats()["evictions"] > 0

    def test_clear_under_load_never_corrupts(self):
        """An eviction storm (concurrent ``clear``) may cost hits, never
        correctness or counter reconciliation."""
        cache = LruCache(capacity=128)
        barrier = threading.Barrier(THREADS + 1)

        def clearer() -> int:
            barrier.wait()
            for _ in range(200):
                cache.clear()
            return 0

        def hammer(worker: int) -> int:
            rng = random.Random(f"{CHAOS_SEED}|storm|{worker}")
            barrier.wait()
            gets = 0
            for _ in range(OPS_PER_THREAD):
                key = rng.randrange(64)
                cache.put(key, key * 2)
                gets += 1
                try:
                    assert cache.get(key) == key * 2
                except KeyError:
                    pass  # a storm between put and get: a miss, not a bug
            return gets

        with ThreadPoolExecutor(max_workers=THREADS + 1) as pool:
            futures = [pool.submit(hammer, w) for w in range(THREADS)]
            futures.append(pool.submit(clearer))
            total_gets = sum(f.result() for f in futures)

        assert cache.hits + cache.misses == total_gets

