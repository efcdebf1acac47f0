"""Observability: tracing spans, metrics, stage logging, run manifests.

The study pipeline runs ten analysis stages over datasets built in six
phases; this package makes that execution observable without touching the
numbers it produces:

* :mod:`repro.obs.reqtrace` — the one span model: a
  :class:`RequestTrace` of flat :class:`SpanRecord` rows, written per
  request by the server (``begin``/``end``) and per run by the study,
  scenario build and compile (the nesting ``span()`` context manager);
  the no-op :data:`NOOP_TRACE` that costs nothing when tracing is off;
  :func:`render_span_tree`; and the :class:`TraceRing` of the slowest
  recent requests (``/tracez``);
* :mod:`repro.obs.metrics` — process-wide named counters and histograms
  (``geodb.lookups``, ``whois.queries``, per-database resolution counts);
* :mod:`repro.obs.quantiles` — the log-bucketed
  :class:`BucketHistogram` behind every registry histogram: p50/p99
  estimates in bounded memory, summary fields unchanged;
* :mod:`repro.obs.window` — :class:`RollingWindow` per-second ring
  buffers for "how much, lately" rates (RPS, error rate over 10s/60s);
* :mod:`repro.obs.prom` — Prometheus text exposition for the registry
  (``/metricsz``) plus the strict format validator the tests and CI
  scrape through;
* :mod:`repro.obs.logging` — a human-readable stage log to stderr, driven
  by span completion (the CLI's ``--verbose``);
* :mod:`repro.obs.manifest` — the JSON *run manifest*: span tree +
  counters + scenario config + result digests in one reproducible
  artifact (the CLI's ``run --metrics PATH``).

Instrumentation is opt-in everywhere: the default trace is a no-op and
the default metrics registry is ``None``, so uninstrumented runs execute
the exact pre-observability code path.
"""

from repro.obs.logging import StageLogger
from repro.obs.manifest import RunManifest
from repro.obs.metrics import CounterCell, MetricsRegistry
from repro.obs.prom import render_prometheus, validate_exposition
from repro.obs.quantiles import BucketHistogram, Histogram
from repro.obs.reqtrace import (
    NOOP_TRACE,
    RequestTrace,
    SpanRecord,
    TraceRing,
    new_trace_id,
    render_span_tree,
)
from repro.obs.window import RollingWindow

__all__ = [
    "BucketHistogram",
    "CounterCell",
    "Histogram",
    "MetricsRegistry",
    "NOOP_TRACE",
    "RequestTrace",
    "RollingWindow",
    "RunManifest",
    "SpanRecord",
    "StageLogger",
    "TraceRing",
    "new_trace_id",
    "render_prometheus",
    "render_span_tree",
    "validate_exposition",
]
