"""Serving path and telemetry are not observable in enriched output.

Mirrors ``tests/geodb/test_stream_equivalence.py``'s streamed-vs-
materialized style: the same seed and event stream must produce
byte-identical enriched output and the identical ``DriftAlert``
sequence whether the engine serves from the compiled answer plane or
resolves live, and whether or not a metrics registry is attached.  The
plane runs answer from compiled cells and reuse the drift detector's
per-cell memo; the live runs vote on every lookup and judge drift
afresh for every event.  Metrics attach to the engine, the pipeline and
its drift detector, so counting must not change a payload either.
"""

import json

import pytest

from repro.enrich import EnrichmentPipeline, EventConfig, EventSource
from repro.obs import MetricsRegistry
from repro.serve import ServingEngine

EVENTS = 400
#: ``(plane, metrics)`` per run; the first is the reference.
CONFIGS = ((True, False), (True, True), (False, False), (False, True))


def enrich_bytes(
    enrich_indexes, enrich_plane, whois, event_pool, plane: bool, metrics: bool
):
    """One full run → (serialized output lines, serialized alert lines)."""
    # A fresh engine per run, so cache warmth, health state and the drift
    # memo start identical.
    registry = MetricsRegistry() if metrics else None
    engine = ServingEngine(
        enrich_indexes, plane=enrich_plane if plane else None, metrics=registry
    )
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

    pipeline = EnrichmentPipeline(engine, whois=whois, metrics=registry, sink=sink)
    pipeline.start()
    for event in source.take(EVENTS):
        pipeline.submit(event)
    pipeline.drain()
    assert pipeline.enriched == EVENTS and pipeline.errors == 0
    if metrics:
        assert registry.counter_total("enrich.enriched") == EVENTS
        assert registry.counter_total("serve.lookups") == EVENTS
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
    assert reference_alerts  # the sweep compares real alerts, not none
    for config in CONFIGS[1:]:
        assert sweep[config][1] == reference_alerts, (
            f"{config} changed the alert sequence"
        )


def test_rerun_with_same_seed_is_byte_identical(
    enrich_indexes, enrich_plane, whois, event_pool, sweep
):
    again = enrich_bytes(enrich_indexes, enrich_plane, whois, event_pool, False, True)
    assert again == sweep[(False, True)]
