"""ServingEngine: multi-database lookup, batching, consensus, metrics."""

import pytest

from repro.geodb import GeoDatabase, GeoRecord, single_prefix
from repro.obs import MetricsRegistry
from repro.serve import CompiledIndex, NoHealthyVendors, ServingEngine
from repro.serve.engine import ResiliencePolicy


class PoisonedIndex:
    """A compiled index that raises for one specific address."""

    def __init__(self, inner, poison: int):
        self._inner = inner
        self._poison = poison
        self.probed: list[int] = []

    def probe_answer(self, addr: int):
        self.probed.append(addr)
        if addr == self._poison:
            raise RuntimeError("poisoned address")
        return self._inner.probe_answer(addr)


@pytest.fixture(scope="module")
def engine(compiled_indexes):
    return ServingEngine(compiled_indexes)


def three_vendor_databases():
    """A hand-built disagreement scenario: two vendors say Dallas, one
    says Berlin (wrong country and far away)."""
    dallas = GeoRecord(country="US", region="Texas", city="Dallas",
                       latitude=32.78, longitude=-96.8)
    dallas_b = GeoRecord(country="US", region="Texas", city="Dallas",
                         latitude=32.80, longitude=-96.82)
    berlin = GeoRecord(country="DE", region="Berlin", city="Berlin",
                       latitude=52.52, longitude=13.40)
    return {
        "A": GeoDatabase("A", [single_prefix("198.51.100.0/24", dallas)]),
        "B": GeoDatabase("B", [single_prefix("198.51.100.0/24", dallas_b)]),
        "C": GeoDatabase("C", [single_prefix("198.51.100.0/24", berlin)]),
    }


class TestLookup:
    def test_answers_match_the_databases(self, small_scenario, engine):
        for address in small_scenario.ark_dataset.addresses[:200]:
            answers = engine.lookup_outcome(address).answers
            assert set(answers) == set(small_scenario.databases)
            for name, database in small_scenario.databases.items():
                expected = database.lookup(address)
                got = answers[name]
                assert (got.record if got is not None else None) == expected

    def test_invalid_address_raises_before_any_metrics(self, compiled_indexes):
        metrics = MetricsRegistry()
        engine = ServingEngine(compiled_indexes, metrics=metrics)
        with pytest.raises(ValueError, match="not an IPv4 address"):
            engine.lookup_outcome("not-an-ip")
        assert metrics.counter("serve.lookups") == 0

    def test_needs_at_least_one_index(self):
        with pytest.raises(ValueError):
            ServingEngine({})


class TestBatch:
    def test_small_batch_runs_inline_and_preserves_order(
        self, small_scenario, engine
    ):
        addresses = list(small_scenario.ark_dataset.addresses[:50])
        results = engine.outcome_batch(addresses)
        assert len(results) == len(addresses)
        for address, result in zip(addresses, results):
            assert result == engine.lookup_outcome(address)

    def test_large_batch_equals_per_address_lookups(
        self, small_scenario, compiled_indexes, answer_plane
    ):
        """A batch of 256 addresses or more resolves to exactly the
        per-address lookup_outcome results, on the plane and the live
        path."""
        addresses = list(small_scenario.ark_dataset.addresses)
        assert len(addresses) >= 256
        for engine in (
            ServingEngine(compiled_indexes),
            ServingEngine(compiled_indexes, plane=answer_plane),
        ):
            assert engine.outcome_batch(addresses) == [
                engine.lookup_outcome(address) for address in addresses
            ]

    def test_batch_metrics(self, compiled_indexes):
        metrics = MetricsRegistry()
        engine = ServingEngine(compiled_indexes, metrics=metrics)
        engine.outcome_batch(["41.0.0.2", "41.0.0.3"])
        assert metrics.counter("serve.batch_lookups") == 1
        snapshot = metrics.histograms_snapshot()
        assert snapshot["serve.batch_size"]["max"] == 2

    def test_empty_batch(self, engine):
        assert engine.outcome_batch([]) == []

    def test_failing_address_is_inlined_after_the_batch_drains(
        self, compiled_indexes
    ):
        """A mid-batch ServeError must not abandon the rest of the batch:
        it comes back in its slot as a value, every later address still
        resolves, and the batch is counted exactly once."""
        poison = int.from_bytes(bytes([41, 0, 0, 3]), "big")
        poisoned = {
            name: PoisonedIndex(index, poison)
            for name, index in compiled_indexes.items()
        }
        metrics = MetricsRegistry()
        engine = ServingEngine(
            poisoned,
            metrics=metrics,
            policy=ResiliencePolicy(retries=0, quarantine_threshold=100),
        )
        tail = int.from_bytes(bytes([41, 0, 0, 4]), "big")
        results = engine.outcome_batch(["41.0.0.2", "41.0.0.3", "41.0.0.4"])
        assert isinstance(results[1], NoHealthyVendors)
        assert not results[0].degraded and not results[2].degraded
        assert metrics.counter("serve.batch_lookups") == 1
        assert metrics.histograms_snapshot()["serve.batch_size"]["max"] == 3
        # The address *after* the poisoned one was still resolved.
        assert all(tail in index.probed for index in poisoned.values())

    def test_close_is_idempotent_and_the_engine_stays_usable(
        self, small_scenario, compiled_indexes
    ):
        engine = ServingEngine(compiled_indexes)
        addresses = list(small_scenario.ark_dataset.addresses[:12])
        engine.outcome_batch(addresses)
        engine.close()
        engine.close()
        assert engine.closed
        results = engine.outcome_batch(addresses)
        assert len(results) == len(addresses)


class TestConsensus:
    def test_majority_wins_and_disagreement_is_flagged(self):
        engine = ServingEngine(
            {
                name: CompiledIndex.compile(database)
                for name, database in three_vendor_databases().items()
            }
        )
        consensus = engine.consensus_of(engine.lookup_outcome("198.51.100.7"))
        assert consensus.country == "US"
        assert consensus.country_votes == 2
        assert consensus.voters == 3
        # Two Dallas answers cluster; Berlin is the outlier.
        assert consensus.location is not None
        assert consensus.location_votes == 2
        assert consensus.country_disagreement
        assert consensus.city_disagreement

    def test_unanimous_answers_raise_no_flags(self, small_scenario, engine):
        # Find an address where all four databases agree on the country.
        for address in small_scenario.ark_dataset.addresses:
            records = [
                database.lookup(address)
                for database in small_scenario.databases.values()
            ]
            if all(r is not None and r.country for r in records) and len(
                {r.country for r in records}
            ) == 1:
                consensus = engine.consensus_of(engine.lookup_outcome(address))
                assert consensus.country == records[0].country
                assert not consensus.country_disagreement
                return
        pytest.fail("no unanimous address in the scenario")

    def test_uncovered_address_has_no_quorum(self, engine):
        # Reserved space: no vendor covers it.
        consensus = engine.consensus_of(engine.lookup_outcome("240.0.0.1"))
        assert consensus.voters == 0
        assert consensus.country is None
        assert not consensus.country_disagreement
        assert not consensus.city_disagreement

    def test_matches_study_majority_vote(self, small_scenario, engine):
        """The engine must reuse — not reimplement — the §5.1 majority
        logic: answers equal repro.core.majority over the same tables."""
        from repro.core.majority import majority_location

        for address in small_scenario.ark_dataset.addresses[:100]:
            vote = majority_location(address, small_scenario.databases)
            consensus = engine.consensus_of(engine.lookup_outcome(address))
            assert consensus.country == vote.country
            assert consensus.location == vote.location
            assert consensus.voters == vote.voters
