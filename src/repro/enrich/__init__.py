"""Streaming enrichment: the firehose consumer over the serving engine.

``repro.enrich`` turns the one-shot lookup story into a streaming one —
a seeded synthetic event source (:mod:`repro.enrich.events`), a
naturally batching single-stage pipeline with explicit overload
policies (:mod:`repro.enrich.pipeline`), and a live drift
detector holding every vendor against the §5.1 consensus
(:mod:`repro.enrich.drift`).
"""

from repro.enrich.drift import ALERT_KINDS, DriftAlert, DriftDetector
from repro.enrich.events import EVENT_KINDS, Event, EventConfig, EventSource
from repro.enrich.pipeline import (
    OVERLOAD_POLICIES,
    BoundedQueue,
    EnrichConfig,
    EnrichedEvent,
    EnrichmentPipeline,
    EnrichReport,
)

__all__ = [
    "ALERT_KINDS",
    "EVENT_KINDS",
    "OVERLOAD_POLICIES",
    "BoundedQueue",
    "DriftAlert",
    "DriftDetector",
    "EnrichConfig",
    "EnrichReport",
    "EnrichedEvent",
    "EnrichmentPipeline",
    "Event",
    "EventConfig",
    "EventSource",
]
