"""The chaos sweep: every fault-matrix cell, one invariant.

The serving layer's contract under faults is *fail closed*: for any
injected fault, every response is a correct answer, a flagged degraded
answer, or a typed error — never an unflagged wrong answer.  Each test
here drives one region of the matrix (runtime faults per vendor and
rate, total outage, quarantine lifecycle, deadline budget, load-time
snapshot faults) and asserts that invariant against the pristine
indexes.  Everything derives from ``CHAOS_SEED``; time is a fake clock,
so the sweep is deterministic and sleeps cost nothing.
"""

import pytest

from repro.faults import (
    RUNTIME_KINDS,
    FaultInjector,
    FaultKind,
    FaultSpec,
    default_chaos_specs,
    full_matrix,
)
from repro.obs import MetricsRegistry
from repro.serve import (
    NoHealthyVendors,
    ResiliencePolicy,
    ServingEngine,
    SnapshotError,
    load_index,
    load_index_set,
    save_index_set,
)

from tests.faults.conftest import CHAOS_SEED


class FakeClock:
    """Deterministic monotonic time: ``sleep`` advances instead of waiting."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.t += seconds

    def advance(self, seconds: float) -> None:
        self.t += seconds


def build_engine(indexes, specs, *, policy=None, metrics=None):
    """One chaos cell: a seeded injector wrapping a fresh engine."""
    clock = FakeClock()
    injector = FaultInjector(CHAOS_SEED, specs, metrics=metrics, sleep=clock.sleep)
    engine = ServingEngine(
        indexes,
        metrics=metrics,
        policy=policy,
        injector=injector,
        clock=clock,
        sleep=clock.sleep,
    )
    return engine, injector, clock


def assert_fail_closed(engine, pristine, addresses):
    """The invariant, checked per address; returns a replayable summary.

    Every vendor either answers exactly what its pristine index answers,
    or is named in ``unavailable()`` on a ``degraded`` outcome — and a
    lookup that cannot be answered at all raises the typed error.
    """
    summary = []
    for addr in addresses:
        try:
            outcome = engine.lookup_outcome(addr)
        except NoHealthyVendors:
            summary.append("typed-error")
            continue
        unavailable = set(outcome.unavailable())
        for name, answer in outcome.answers.items():
            assert answer == pristine[name].probe_answer(addr), (
                f"vendor {name} returned a wrong answer for {addr}"
            )
        for name in engine.vendor_names():
            if name not in outcome.answers:
                assert name in unavailable, (
                    f"vendor {name} vanished from {addr} without being flagged"
                )
                assert outcome.degraded
        summary.append((outcome.degraded, tuple(sorted(unavailable))))
    return summary


class TestRuntimeCells:
    """Runtime kinds × vendors × rates: the per-cell sweep."""

    @pytest.mark.parametrize("kind", RUNTIME_KINDS, ids=lambda kind: kind.value)
    @pytest.mark.parametrize("rate", [1.0, 0.35])
    def test_cell_never_returns_a_wrong_answer(
        self, kind, rate, compiled_indexes, chaos_addresses
    ):
        for victim in compiled_indexes:
            engine, injector, _ = build_engine(
                compiled_indexes,
                [FaultSpec(kind, vendor=victim, rate=rate, delay_s=0.001)],
            )
            summary = assert_fail_closed(engine, compiled_indexes, chaos_addresses)
            assert len(summary) == len(chaos_addresses)
            if rate == 1.0 and kind is FaultKind.LOOKUP_RAISE:
                assert injector.fired > 0
                # A single always-failing vendor degrades, never outages.
                assert "typed-error" not in summary
                assert all(degraded for degraded, _ in summary)

    def test_delay_faults_change_nothing_without_a_deadline(
        self, compiled_indexes, chaos_addresses
    ):
        engine, _, clock = build_engine(
            compiled_indexes,
            [FaultSpec(FaultKind.LOOKUP_DELAY, rate=1.0, delay_s=0.01)],
        )
        summary = assert_fail_closed(engine, compiled_indexes, chaos_addresses)
        assert all(entry == (False, ()) for entry in summary)
        assert clock.t > 0  # the stalls really happened


class TestTotalOutage:
    def test_every_vendor_dead_is_a_typed_error(
        self, compiled_indexes, chaos_addresses
    ):
        metrics = MetricsRegistry()
        engine, _, _ = build_engine(
            compiled_indexes,
            [FaultSpec(FaultKind.LOOKUP_RAISE)],  # vendor=None: everyone
            metrics=metrics,
        )
        for addr in chaos_addresses[:20]:
            with pytest.raises(NoHealthyVendors, match="no healthy vendor"):
                engine.lookup_outcome(addr)
        assert engine.degraded
        assert metrics.counter_total("serve.vendor_errors") > 0
        assert metrics.counter_total("serve.quarantines") == len(compiled_indexes)

    def test_consensus_of_degraded_outcome_is_flagged(
        self, compiled_indexes, chaos_addresses
    ):
        victim = sorted(compiled_indexes)[0]
        engine, _, _ = build_engine(
            compiled_indexes, [FaultSpec(FaultKind.LOOKUP_RAISE, vendor=victim)]
        )
        for addr in chaos_addresses:
            try:
                outcome = engine.lookup_outcome(addr)
            except NoHealthyVendors:
                continue
            consensus = engine.consensus_of(outcome)
            assert consensus.degraded == outcome.degraded
            assert consensus.quorum == (consensus.voters >= 2)


class TestQuarantineLifecycle:
    def test_threshold_cooldown_halfopen_and_recovery(
        self, compiled_indexes, chaos_addresses
    ):
        victim = sorted(compiled_indexes)[0]
        metrics = MetricsRegistry()
        policy = ResiliencePolicy(
            retries=0, quarantine_threshold=3, cooldown_s=0.5, cooldown_max_s=30.0
        )
        engine, injector, clock = build_engine(
            compiled_indexes,
            [FaultSpec(FaultKind.LOOKUP_RAISE, vendor=victim)],
            policy=policy,
            metrics=metrics,
        )
        addr = chaos_addresses[0]

        # Three consecutive failures trip the breaker.
        for _ in range(3):
            outcome = engine.lookup_outcome(addr)
            assert victim in outcome.errors
        health = engine.health_snapshot()[victim]
        assert health["state"] == "quarantined"
        assert metrics.counter("serve.quarantines", vendor=victim) == 1

        # While quarantined the vendor is skipped, not probed.
        fired_before = injector.fired
        outcome = engine.lookup_outcome(addr)
        assert victim in outcome.quarantined and victim not in outcome.errors
        assert injector.fired == fired_before

        # Past the cooldown one half-open probe runs; it fails, so the
        # quarantine re-arms with a doubled cooldown.
        clock.advance(0.6)
        outcome = engine.lookup_outcome(addr)
        assert victim in outcome.errors
        health = engine.health_snapshot()[victim]
        assert health["quarantines"] == 2
        assert health["cooldown_s"] == 2.0  # 0.5 -> 1.0 (armed) -> 2.0 (re-armed)

        # Fault cleared + cooldown elapsed: the half-open probe heals it.
        injector.disarm()
        clock.advance(1.5)
        outcome = engine.lookup_outcome(addr)
        assert not outcome.degraded
        assert outcome.answers[victim] == compiled_indexes[victim].probe_answer(addr)
        assert engine.health_snapshot()[victim]["state"] == "healthy"
        assert not engine.degraded
        assert metrics.counter("serve.vendor_recoveries", vendor=victim) == 1


class TestDeadlineBudget:
    def test_budget_exhaustion_skips_vendors_and_is_flagged(
        self, compiled_indexes, chaos_addresses
    ):
        metrics = MetricsRegistry()
        engine, _, _ = build_engine(
            compiled_indexes,
            [FaultSpec(FaultKind.LOOKUP_DELAY, rate=1.0, delay_s=0.2)],
            policy=ResiliencePolicy(deadline_ms=300.0),
            metrics=metrics,
        )
        addr = chaos_addresses[0]
        outcome = engine.lookup_outcome(addr)
        # 0.2 s per vendor against a 0.3 s budget: two vendors answer
        # (the check happens before each probe), the rest are skipped.
        assert outcome.deadline_exceeded and outcome.degraded
        assert len(outcome.answers) == 2 and len(outcome.skipped) == 2
        for name, answer in outcome.answers.items():
            assert answer == compiled_indexes[name].probe_answer(addr)
        assert metrics.counter("serve.deadline_exceeded") == 1
        # Deadline skips are a budget decision, not vendor failures.
        assert all(
            health["state"] == "healthy"
            for health in engine.health_snapshot().values()
        )


class TestSnapshotCells:
    """Load-time faults: corrupt bytes refuse to boot, absence degrades."""

    @pytest.mark.parametrize(
        "kind",
        [
            FaultKind.SNAPSHOT_BITFLIP,
            FaultKind.SNAPSHOT_TRUNCATE,
            FaultKind.SNAPSHOT_MAGIC,
        ],
        ids=lambda kind: kind.value,
    )
    def test_corrupt_snapshot_raises_typed_error(
        self, kind, compiled_indexes, tmp_path
    ):
        victim = sorted(compiled_indexes)[1]
        root = save_index_set(compiled_indexes, tmp_path / kind.value)
        injector = FaultInjector(CHAOS_SEED, [FaultSpec(kind, vendor=victim)])
        applied = injector.sabotage_snapshots(root)
        assert len(applied) == 1 and victim in applied[0]
        with pytest.raises(SnapshotError):
            load_index(root / f"{victim}.rgix", expect_name=victim)
        # The set loader refuses the whole directory rather than serving
        # a silently smaller vendor set.
        with pytest.raises(SnapshotError):
            load_index_set(root)

    def test_missing_vendor_serves_degraded_not_silent(
        self, compiled_indexes, chaos_addresses, tmp_path
    ):
        victim = sorted(compiled_indexes)[2]
        root = save_index_set(compiled_indexes, tmp_path / "missing")
        injector = FaultInjector(
            CHAOS_SEED, [FaultSpec(FaultKind.INDEX_MISSING, vendor=victim)]
        )
        injector.sabotage_snapshots(root)
        engine = ServingEngine(load_index_set(root), expected=sorted(compiled_indexes))
        assert engine.degraded
        assert victim in engine.vendor_names()
        assert engine.health_snapshot()[victim]["state"] == "missing"
        for addr in chaos_addresses[:100]:
            try:
                outcome = engine.lookup_outcome(addr)
            except NoHealthyVendors:
                continue
            assert outcome.degraded and victim in outcome.quarantined
            for name, answer in outcome.answers.items():
                assert answer == compiled_indexes[name].probe_answer(addr)


class TestPlaneInterplay:
    """The precomputed answer plane must never mask a fault.

    The plane encodes only the all-healthy answer, so the engine keeps
    it inert whenever an injector is armed and bypasses it whenever any
    vendor carries a failure streak — every chaos cell above therefore
    still runs the live fail-closed path, and these tests pin that.
    """

    def test_armed_injector_keeps_the_plane_inert(
        self, compiled_indexes, answer_plane, chaos_addresses
    ):
        specs = default_chaos_specs(sorted(compiled_indexes))

        def sweep(plane):
            metrics = MetricsRegistry()
            clock = FakeClock()
            injector = FaultInjector(
                CHAOS_SEED, specs, metrics=metrics, sleep=clock.sleep
            )
            engine = ServingEngine(
                compiled_indexes,
                metrics=metrics,
                injector=injector,
                plane=plane,
                clock=clock,
                sleep=clock.sleep,
            )
            summary = assert_fail_closed(engine, compiled_indexes, chaos_addresses)
            return engine, metrics, summary

        engine, metrics, with_plane = sweep(answer_plane)
        assert engine.plane_stats()["active"] is False
        assert metrics.counter("plane.hits") == 0
        # Same seed, no plane: the degradation pattern is identical, so
        # the plane changed nothing about chaos behaviour.
        _, _, without_plane = sweep(None)
        assert with_plane == without_plane

    def test_quarantine_bypasses_plane_until_recovery(
        self, compiled_indexes, answer_plane, chaos_addresses
    ):
        """No injector: a recorded failure streak alone must route around
        the plane, and the half-open recovery must route back."""
        metrics = MetricsRegistry()
        clock = FakeClock()
        engine = ServingEngine(
            compiled_indexes,
            metrics=metrics,
            plane=answer_plane,
            policy=ResiliencePolicy(retries=0, quarantine_threshold=1, cooldown_s=5.0),
            clock=clock,
            sleep=clock.sleep,
        )
        addr = chaos_addresses[0]
        healthy = engine.lookup_outcome(addr)
        assert metrics.counter("plane.hits") == 1

        victim = sorted(compiled_indexes)[0]
        engine._record_failure(victim, RuntimeError("boom"))
        assert engine.health_snapshot()[victim]["state"] == "quarantined"
        assert engine.plane_stats()["active"] is False
        outcome = engine.lookup_outcome(addr)
        assert outcome.degraded and victim in outcome.quarantined
        assert metrics.counter("plane.fallbacks") == 1

        # Past the cooldown the half-open probe hits the (healthy) real
        # index, the streak clears, and the plane serves again.
        clock.advance(6.0)
        recovered = engine.lookup_outcome(addr)
        assert not recovered.degraded
        assert recovered == healthy
        assert engine.plane_stats()["active"] is True
        engine.lookup_outcome(addr)
        assert metrics.counter("plane.hits") == 2


class TestDeterminism:
    def test_full_matrix_covers_every_cell(self, compiled_indexes):
        vendors = sorted(compiled_indexes)
        cells = full_matrix(vendors)
        assert len(cells) == len(FaultKind) * len(vendors)
        assert {(spec.kind, spec.vendor) for spec in cells} == {
            (kind, vendor) for kind in FaultKind for vendor in vendors
        }

    def test_same_seed_replays_the_same_chaos(
        self, compiled_indexes, chaos_addresses
    ):
        """The reproducibility bar: one seed, identical degradation."""
        specs = default_chaos_specs(sorted(compiled_indexes))

        def one_run():
            engine, injector, _ = build_engine(compiled_indexes, specs)
            return (
                assert_fail_closed(engine, compiled_indexes, chaos_addresses),
                injector.fired,
            )

        first_summary, first_fired = one_run()
        second_summary, second_fired = one_run()
        assert first_summary == second_summary
        assert first_fired == second_fired

    def test_sabotage_is_byte_deterministic(self, compiled_indexes, tmp_path):
        blobs = []
        for attempt in ("a", "b"):
            root = save_index_set(compiled_indexes, tmp_path / attempt)
            injector = FaultInjector(
                CHAOS_SEED, [FaultSpec(FaultKind.SNAPSHOT_BITFLIP)]
            )
            injector.sabotage_snapshots(root)
            blobs.append(
                {path.name: path.read_bytes() for path in sorted(root.glob("*.rgix"))}
            )
        assert blobs[0] == blobs[1]
