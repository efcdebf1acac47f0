"""Chaos interplay: drift detection vs quarantine, and live hot swaps.

Two adversarial scenarios the drift detector must survive:

* A vendor failing and getting quarantined looks *exactly* like a
  vendor whose database lost coverage — unless suppression is wired to
  the engine's degradation signal.  The first test drives a full
  quarantine → cooldown → half-open → recovery cycle through the
  pipeline and asserts zero spurious alerts while degraded, with alerts
  resuming once the vendor heals.
* A `SnapshotStore` hot swap mid-stream must never produce an enriched
  event whose per-vendor answers mix generations (a torn read would
  immediately read as drift), and the per-cell drift memo must not
  outlive the generation whose cells it holds.
"""

import threading

from repro.enrich import DriftDetector, EnrichConfig, EnrichmentPipeline, EventConfig, EventSource
from repro.faults import FaultInjector, FaultKind, FaultSpec
from repro.geodb import refresh_snapshot
from repro.net.ip import parse_address
from repro.serve import CompiledIndex, ResiliencePolicy, ServingEngine, compile_plane
from repro.serve.store import SnapshotStore

from tests.faults.conftest import CHAOS_SEED
from tests.faults.test_chaos_matrix import FakeClock
from tests.faults.test_swap_hammer import covered_sample, truth_table


def run_through(pipeline, events):
    pipeline.start()
    for event in events:
        pipeline.submit(event)
    pipeline.drain()


def test_quarantine_cycle_suppresses_then_resumes_alerts(
    enrich_indexes, event_pool
):
    victim = sorted(enrich_indexes)[0]
    clock = FakeClock()
    injector = FaultInjector(
        CHAOS_SEED,
        [FaultSpec(FaultKind.LOOKUP_RAISE, vendor=victim, rate=1.0)],
        sleep=clock.sleep,
    )
    # No plane: an injector-armed engine must resolve live so the fault
    # (and the quarantine it trips) is actually exercised.
    engine = ServingEngine(
        enrich_indexes,
        policy=ResiliencePolicy(retries=0, quarantine_threshold=3, cooldown_s=0.5),
        injector=injector,
        clock=clock,
        sleep=clock.sleep,
    )
    detector = DriftDetector(city_range_km=engine.city_range_km)
    source = EventSource(event_pool, EventConfig(seed=41))
    config = EnrichConfig(batch_size=8, whois_workers=2)

    # Phase 1 — vendor failing, then quarantined: every outcome is
    # degraded, so every inspection suppresses and none alerts.
    degraded_flags = []
    pipeline = EnrichmentPipeline(
        engine,
        config=config,
        detector=detector,
        sink=lambda e: degraded_flags.append(e.degraded),
    )
    run_through(pipeline, source.take(80))
    assert all(degraded_flags)
    assert detector.alerts == 0, "quarantine masqueraded as database drift"
    assert detector.suppressed == 80
    assert victim in engine.degraded_vendors()
    assert engine.health_snapshot()[victim]["state"] == "quarantined"

    # Phase 2 — fault cleared, cooldown elapsed: the half-open probe
    # heals the vendor and alerting resumes on genuine disagreement.
    injector.disarm()
    clock.advance(5.0)
    suppressed_before = detector.suppressed
    healthy_alerts = []
    pipeline = EnrichmentPipeline(
        engine,
        config=config,
        detector=detector,
        sink=lambda e: healthy_alerts.extend(e.alerts),
    )
    run_through(pipeline, source.take(200))
    assert engine.health_snapshot()[victim]["state"] == "healthy"
    assert engine.degraded_vendors() == ()
    # The half-open probe heals on the first batch; everything after is
    # healthy, so suppression stops almost immediately...
    assert detector.suppressed - suppressed_before <= 8
    # ...and real cross-vendor disagreement (the paper's §5.1 point)
    # produces alerts again.
    assert detector.alerts > 0
    assert healthy_alerts and all(a.kind for a in healthy_alerts)
    stats = detector.stats()
    assert stats["alerts"] == len(healthy_alerts)
    assert set(stats["by_vendor"])  # per-vendor attribution present


def test_store_hot_swap_never_tears_an_enriched_event(
    small_scenario, enrich_indexes, enrich_plane, tmp_path
):
    # Generation B: every vendor aged two simulated years, published and
    # reloaded through a real store so swap payloads went disk-round-trip.
    aged_indexes = {
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
    store = SnapshotStore(tmp_path / "store", create=True)
    record_a = store.publish(enrich_indexes, enrich_plane)
    record_b = store.publish(aged_indexes, compile_plane(aged_indexes))
    _, indexes_a, plane_a = store.load(record_a.generation)
    _, indexes_b, plane_b = store.load(record_b.generation)

    pool = [int(a) for a in small_scenario.ark_dataset.addresses]
    truth_a = truth_table(indexes_a, pool)
    truth_b = truth_table(indexes_b, pool)
    sample = covered_sample(pool, truth_a, truth_b)[:300]
    assert len(sample) > 50

    engine = ServingEngine(
        indexes_a, plane=plane_a, generation_id=record_a.generation
    )
    source = EventSource(sample, EventConfig(seed=43, zipf_s=0.0))
    torn = []

    def check(enriched):
        addr = int(parse_address(enriched.event.address))
        answers = dict(enriched.answers)
        if answers != truth_a[addr] and answers != truth_b[addr]:
            torn.append((addr, answers))

    pipeline = EnrichmentPipeline(
        engine,
        config=EnrichConfig(batch_size=8, whois_workers=2),
        sink=check,
    )
    pipeline.start()

    # Flip generations from a side thread while events stream — lookups
    # land before, during, and after each swap.
    generations = [
        (indexes_a, plane_a, record_a.generation),
        (indexes_b, plane_b, record_b.generation),
    ]
    stop = threading.Event()

    def swapper():
        flip = 0
        while not stop.is_set():
            indexes, plane, gen_id = generations[(flip + 1) % 2]
            engine.swap(indexes, plane, generation_id=gen_id, source="store")
            flip += 1
            stop.wait(0.005)

    thread = threading.Thread(target=swapper, daemon=True)
    thread.start()
    events = source.take(600)
    for event in events:
        pipeline.submit(event)
    pipeline.drain()
    stop.set()
    thread.join(timeout=10.0)
    assert not thread.is_alive()

    assert torn == [], f"mixed-generation enrichment: {torn[:3]}"
    assert pipeline.enriched == 600 and pipeline.shed == 0
    assert pipeline.errors == 0

    # The drift memo lives in the served generation's memo: once the
    # swaps stop, every entry it holds pins a cell of the plane now
    # served, never one of the plane swapped out.
    run_through(
        EnrichmentPipeline(engine, detector=pipeline.detector),
        source.take(100),
    )
    served = plane_a if engine.generation_id == record_a.generation else plane_b
    served_cells = {id(cell) for cell in served.parts()[2]}
    table = pipeline.detector.cell_verdicts(engine.generation_memo())
    assert table, "the follow-up stream filled no drift memo entries"
    assert all(id(cell) in served_cells for cell, _ in table.values())
