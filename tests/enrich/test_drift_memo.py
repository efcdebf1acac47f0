"""The per-cell drift memo changes nothing but the cost of judging.

``DriftDetector.inspect`` remembers, per answer-plane cell, which alerts
the cell's answers raise against its consensus; each event then only
fills in ``seq`` and ``address``.  These tests pin that the memo is
invisible: the enriched stream of a fixed seed hashes to the digest the
unmemoised pipeline produced, every cell of a plane gets exactly the
alerts ``_judge`` gives it, and outcomes without a cell (live, degraded)
never touch the memo.
"""

import dataclasses
import hashlib
import json

from repro.enrich import (
    DriftDetector,
    EnrichConfig,
    EnrichmentPipeline,
    EventConfig,
    EventSource,
)
from repro.serve import ServingEngine

#: sha256 of the enriched ``to_dict()`` lines, then the alert lines, of
#: :func:`enriched_stream` — taken from the unmemoised pipeline.
PINNED_STREAM = "25616f6dffa5f938ecf9ae9b939e3b6de5d1c394510503f55ebf10d151696183"


def enriched_stream(engine, whois, event_pool) -> tuple[str, int]:
    lines: list[bytes] = []
    alerts: list[bytes] = []

    def sink(enriched):
        lines.append(json.dumps(enriched.to_dict(), sort_keys=True).encode())
        alerts.extend(
            json.dumps(alert.to_dict(), sort_keys=True).encode()
            for alert in enriched.alerts
        )

    pipeline = EnrichmentPipeline(
        engine,
        whois=whois,
        config=EnrichConfig(whois_workers=2),
        sink=sink,
    )
    pipeline.start()
    source = EventSource(event_pool, EventConfig(seed=2016, miss_fraction=0.05))
    for event in source.take(1500):
        pipeline.submit(event)
    pipeline.drain()
    hasher = hashlib.sha256()
    for line in lines + [b"--"] + alerts:
        hasher.update(line + b"\n")
    return hasher.hexdigest(), len(alerts)


def test_enriched_stream_is_pinned(engine, whois, event_pool):
    digest, alerts = enriched_stream(engine, whois, event_pool)
    assert alerts > 0  # the pin covers real alerts, not an empty stream
    assert digest == PINNED_STREAM


def cell_addresses(plane):
    """``(cell, first address, last address)`` of one interval per
    distinct cell of ``plane``."""
    starts, cell_ids, cells = plane.parts()
    seen = {}
    for i, cell_id in enumerate(cell_ids):
        if cell_id not in seen:
            end = starts[i + 1] - 1 if i + 1 < len(starts) else (1 << 32) - 1
            seen[cell_id] = (cells[cell_id], starts[i], end)
    return list(seen.values())


def test_memo_matches_judge_on_every_cell(engine, enrich_plane):
    detector = DriftDetector(city_range_km=engine.city_range_km)
    cells: dict = {}
    judged = 0
    for seq, (cell, first, last) in enumerate(cell_addresses(enrich_plane)):
        # The first address fills the cell's entry, the last one hits it.
        for address in (first, last):
            outcome = engine.lookup_outcome(address)
            assert outcome.cell is cell
            consensus = engine.consensus_of(outcome)
            expected = (
                tuple(detector._judge(seq, outcome, consensus))
                if consensus.quorum
                else ()
            )
            assert detector.inspect(seq, outcome, consensus, cells) == expected
            judged += bool(expected)
    assert judged > 0
    quorum_cells = {
        id(cell) for cell, _, _ in cell_addresses(enrich_plane) if cell.consensus.quorum
    }
    assert set(cells) == quorum_cells


def test_live_and_degraded_outcomes_bypass_the_memo(
    enrich_indexes, enrich_plane, event_pool
):
    live = ServingEngine(enrich_indexes)
    plane = ServingEngine(enrich_indexes, plane=enrich_plane)
    detector = DriftDetector(city_range_km=live.city_range_km)
    cells: dict = {}
    for seq, address in enumerate(event_pool[:300]):
        outcome = live.lookup_outcome(address)
        assert outcome.cell is None
        consensus = live.consensus_of(outcome)
        expected = (
            tuple(detector._judge(seq, outcome, consensus))
            if consensus.quorum
            else ()
        )
        assert detector.inspect(seq, outcome, consensus, cells) == expected
    assert cells == {}

    # A degraded outcome is suppressed before the memo is consulted,
    # even if it still carried a cell.
    outcome = plane.lookup_outcome(event_pool[0])
    vendor = sorted(outcome.answers)[0]
    degraded = dataclasses.replace(outcome, errors={vendor: "boom"})
    assert degraded.cell is not None and degraded.degraded
    suppressed = detector.suppressed
    assert detector.inspect(0, degraded, plane.consensus_of(degraded), cells) == ()
    assert detector.suppressed == suppressed + 1
    assert cells == {}


def test_verdict_table_lives_in_the_generation(
    engine, enrich_indexes, enrich_plane
):
    detector = DriftDetector(city_range_km=engine.city_range_km)
    table = detector.cell_verdicts(engine.generation_memo())
    assert detector.cell_verdicts(engine.generation_memo()) is table
    engine.swap(enrich_indexes, enrich_plane)
    assert detector.cell_verdicts(engine.generation_memo()) is not table
