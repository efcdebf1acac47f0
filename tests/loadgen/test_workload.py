"""Determinism and distribution tests for the Zipf workload generator."""

from __future__ import annotations

from collections import Counter
from ipaddress import IPv4Address, IPv4Network

import pytest

from repro.loadgen import MISS_PREFIX, WorkloadConfig, ZipfWorkload

POOL = [f"10.{i // 256}.{i % 256}.1" for i in range(300)]
MISS_NET = IPv4Network(MISS_PREFIX)


class TestDeterminism:
    def test_same_seed_and_config_identical_stream(self):
        config = WorkloadConfig(seed=42, zipf_s=1.2, miss_fraction=0.1)
        first = ZipfWorkload(POOL, config).take(5_000)
        second = ZipfWorkload(POOL, config).take(5_000)
        assert first == second

    def test_different_seed_different_stream(self):
        first = ZipfWorkload(POOL, WorkloadConfig(seed=1)).take(200)
        second = ZipfWorkload(POOL, WorkloadConfig(seed=2)).take(200)
        assert first != second

    def test_stream_continues_deterministically_across_take_calls(self):
        config = WorkloadConfig(seed=9)
        split = ZipfWorkload(POOL, config)
        joined = ZipfWorkload(POOL, config)
        assert split.take(100) + split.take(100) == joined.take(200)

    def test_popularity_decoupled_from_address_order(self):
        # The hottest rank should not simply be the numerically smallest
        # pool address — the pool is shuffled before ranks are assigned.
        workload = ZipfWorkload(POOL, WorkloadConfig(seed=3, zipf_s=1.5))
        assert workload.pool[0] != sorted(POOL)[0]


class TestZipfShape:
    def test_empirical_frequencies_match_exponent(self):
        s = 1.1
        workload = ZipfWorkload(POOL, WorkloadConfig(seed=7, zipf_s=s))
        draws = workload.take(60_000)
        counts = Counter(draws)
        for rank in range(4):
            expected = workload.expected_share(rank)
            observed = counts[workload.pool[rank]] / len(draws)
            assert observed == pytest.approx(expected, rel=0.15), rank

    def test_rank_ratio_follows_power_law(self):
        s = 1.3
        workload = ZipfWorkload(POOL, WorkloadConfig(seed=11, zipf_s=s))
        counts = Counter(workload.take(80_000))
        ratio = counts[workload.pool[0]] / counts[workload.pool[1]]
        assert ratio == pytest.approx(2.0**s, rel=0.2)

    def test_zero_exponent_is_uniform(self):
        pool = POOL[:20]
        counts = Counter(
            ZipfWorkload(pool, WorkloadConfig(seed=5, zipf_s=0.0)).take(40_000)
        )
        shares = [counts[address] / 40_000 for address in pool]
        assert max(shares) / min(shares) < 1.35


class TestMissTraffic:
    def test_miss_fraction_observed(self):
        workload = ZipfWorkload(POOL, WorkloadConfig(seed=13, miss_fraction=0.25))
        draws = workload.take(20_000)
        misses = sum(1 for a in draws if IPv4Address(a) in MISS_NET)
        assert misses / len(draws) == pytest.approx(0.25, abs=0.02)

    def test_misses_never_collide_with_pool(self):
        workload = ZipfWorkload(POOL, WorkloadConfig(seed=13, miss_fraction=0.5))
        pool = set(workload.pool)
        for address in workload.take(5_000):
            in_miss = IPv4Address(address) in MISS_NET
            assert in_miss != (address in pool)

    def test_all_miss_stream(self):
        workload = ZipfWorkload(POOL, WorkloadConfig(seed=1, miss_fraction=1.0))
        assert all(IPv4Address(a) in MISS_NET for a in workload.take(500))


class TestValidation:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ZipfWorkload([], WorkloadConfig())

    def test_bad_addresses_rejected(self):
        with pytest.raises(ValueError, match="not an IPv4 address"):
            ZipfWorkload(["not-an-ip"], WorkloadConfig())

    def test_config_bounds(self):
        with pytest.raises(ValueError, match="zipf_s"):
            WorkloadConfig(zipf_s=-0.1)
        with pytest.raises(ValueError, match="miss_fraction"):
            WorkloadConfig(miss_fraction=1.5)

    def test_negative_take_rejected(self):
        with pytest.raises(ValueError, match="count"):
            ZipfWorkload(POOL, WorkloadConfig()).take(-1)

    def test_mixed_input_forms_normalized(self):
        workload = ZipfWorkload(
            [IPv4Address("10.0.0.1"), "10.0.0.2", int(IPv4Address("10.0.0.3"))],
            WorkloadConfig(seed=1),
        )
        assert sorted(workload.pool) == ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
