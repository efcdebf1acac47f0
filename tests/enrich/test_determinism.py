"""Worker and batch-boundary independence: neither is observable.

Mirrors ``tests/geodb/test_stream_equivalence.py``'s streamed-vs-
materialized style: the same seed and event stream must produce
byte-identical enriched output and the identical ``DriftAlert``
sequence whether the pipeline runs no stage worker (``block`` enriches
each event inline on the submitting thread) or one (the ``shed`` stage
thread, in batches of at most 1, 7 or 64 — each batch is whatever has
queued, so its boundaries move with timing).  The default 2048-event
queue holds all 400 events, so ``shed`` sheds none of them.  Timing may
move latency numbers, never payloads.
"""

import json

import pytest

from repro.enrich import EnrichConfig, EnrichmentPipeline, EventConfig, EventSource
from repro.serve import ServingEngine

EVENTS = 400
#: ``(overload, batch_size)`` per run; the first is the reference.
CONFIGS = (("block", 64), ("shed", 1), ("shed", 7), ("shed", 64))


def enrich_bytes(
    enrich_indexes, enrich_plane, whois, event_pool, overload: str, batch_size: int
):
    """One full run → (serialized output lines, serialized alert lines)."""
    # A fresh engine per run: the batching must be the only variable the
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
        config=EnrichConfig(batch_size=batch_size, overload=overload),
        sink=sink,
    )
    pipeline.start()
    for event in source.take(EVENTS):
        pipeline.submit(event)
    pipeline.drain()
    assert pipeline.enriched == EVENTS and pipeline.shed == 0
    assert pipeline.batches >= -(-EVENTS // batch_size)
    return lines, alerts


@pytest.fixture(scope="module")
def sweep(enrich_indexes, enrich_plane, whois, event_pool):
    return {
        config: enrich_bytes(
            enrich_indexes, enrich_plane, whois, event_pool, *config
        )
        for config in CONFIGS
    }


def test_output_is_byte_identical_across_worker_counts(sweep):
    reference_lines, _ = sweep[CONFIGS[0]]
    assert len(reference_lines) == EVENTS
    for config in CONFIGS[1:]:
        lines, _ = sweep[config]
        assert lines == reference_lines, f"{config} changed the enriched bytes"


def test_alert_sequence_is_identical_across_worker_counts(sweep):
    reference_alerts = sweep[CONFIGS[0]][1]
    for config in CONFIGS[1:]:
        assert sweep[config][1] == reference_alerts, (
            f"{config} changed the alert sequence"
        )


def test_rerun_with_same_seed_is_byte_identical(
    enrich_indexes, enrich_plane, whois, event_pool, sweep
):
    again = enrich_bytes(enrich_indexes, enrich_plane, whois, event_pool, "shed", 7)
    assert again == sweep[("shed", 7)]
