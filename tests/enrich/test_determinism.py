"""Worker-count independence: the concurrency is unobservable.

Mirrors ``tests/geodb/test_stream_equivalence.py``'s streamed-vs-
materialized style: the same seed and event stream must produce
byte-identical enriched output and the identical ``DriftAlert``
sequence whether ``whois_workers`` is 1, 2, or 8 (the setting is inert
while whois runs on the stage thread, and the sweep keeps it that way)
— timing may move latency numbers, never payloads.
"""

import json

import pytest

from repro.enrich import EnrichConfig, EnrichmentPipeline, EventConfig, EventSource
from repro.serve import ServingEngine

EVENTS = 400
WORKER_COUNTS = (1, 2, 8)


def enrich_bytes(enrich_indexes, enrich_plane, whois, event_pool, workers: int):
    """One full run → (serialized output lines, serialized alert lines)."""
    # A fresh engine per run: worker count must be the only variable the
    # sweep changes (cache warmth and health state start identical).
    engine = ServingEngine(enrich_indexes, plane=enrich_plane)
    source = EventSource(
        event_pool, EventConfig(seed=59, zipf_s=1.2, miss_fraction=0.05)
    )
    lines: list[str] = []
    alerts: list[str] = []

    def sink(enriched):
        lines.append(json.dumps(enriched.to_dict(), sort_keys=True))
        alerts.extend(
            json.dumps(alert.to_dict(), sort_keys=True) for alert in enriched.alerts
        )

    pipeline = EnrichmentPipeline(
        engine,
        whois=whois,
        config=EnrichConfig(batch_size=16, whois_workers=workers),
        sink=sink,
    )
    pipeline.start()
    for event in source.take(EVENTS):
        pipeline.submit(event)
    pipeline.drain()
    assert pipeline.enriched == EVENTS and pipeline.shed == 0
    return lines, alerts


@pytest.fixture(scope="module")
def sweep(enrich_indexes, enrich_plane, whois, event_pool):
    return {
        workers: enrich_bytes(
            enrich_indexes, enrich_plane, whois, event_pool, workers
        )
        for workers in WORKER_COUNTS
    }


def test_output_is_byte_identical_across_worker_counts(sweep):
    reference_lines, _ = sweep[1]
    assert len(reference_lines) == EVENTS
    for workers in WORKER_COUNTS[1:]:
        lines, _ = sweep[workers]
        assert lines == reference_lines, (
            f"workers={workers} changed the enriched bytes"
        )


def test_alert_sequence_is_identical_across_worker_counts(sweep):
    reference_alerts = sweep[1][1]
    for workers in WORKER_COUNTS[1:]:
        assert sweep[workers][1] == reference_alerts, (
            f"workers={workers} changed the alert sequence"
        )


def test_rerun_with_same_seed_is_byte_identical(
    enrich_indexes, enrich_plane, whois, event_pool, sweep
):
    again = enrich_bytes(enrich_indexes, enrich_plane, whois, event_pool, 2)
    assert again == sweep[2]
