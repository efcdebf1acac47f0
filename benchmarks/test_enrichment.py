"""Sustained enrichment firehose at bench scale, with regression gates.

``perfbench/`` measures the serving stack over HTTP and the firehose
out of process; this one records the streaming consumer in-process at
bench scale: a paced synthetic firehose through the lookup → whois →
consensus → drift pipeline, where ``submit`` enriches each event inline
on the producer's thread (no stage thread, no queue).  The
``enrichment`` block of ``BENCH_pipeline.json`` records sustained
events/s, end-to-end event latency quantiles, and error/drift counts,
gated so a regression in any step (resolve, whois, detection) — or
anything holding events back — fails the run rather than quietly
shifting the trajectory.
"""

from __future__ import annotations

from repro.enrich import EnrichmentPipeline, EventConfig, EventSource
from repro.loadgen import covered_pool
from repro.obs import MetricsRegistry
from repro.serve import CompiledIndex, ServingEngine, compile_plane

from benchmarks.conftest import BENCH_SEED

#: The acceptance floor is 2000 events/s sustained for 10 s; offer a
#: quarter more so the gate tests headroom, not the exact boundary.
RATE_EPS = 2500.0
DURATION_S = 10.0


def test_enrichment_firehose_profile(scenario, record_perf):
    indexes = {
        name: CompiledIndex.compile(database)
        for name, database in sorted(scenario.databases.items())
    }
    engine = ServingEngine(
        indexes, plane=compile_plane(indexes), metrics=MetricsRegistry()
    )
    source = EventSource(
        covered_pool(indexes),
        EventConfig(seed=BENCH_SEED, rate=RATE_EPS, zipf_s=1.1, miss_fraction=0.02),
    )
    pipeline = EnrichmentPipeline(
        engine,
        whois=scenario.internet.whois,
        metrics=MetricsRegistry(),
    )
    report = pipeline.run(source.events(), rate=RATE_EPS, duration_s=DURATION_S)

    section = report.to_dict()
    section["rate_eps"] = RATE_EPS
    section["duration_s_target"] = DURATION_S
    record_perf("enrichment", section)

    # Regression gates: the acceptance criteria, asserted.
    expected = int(RATE_EPS * DURATION_S)
    assert report.offered == expected
    assert report.errors == 0, report.errors
    assert report.enriched == expected
    # Sustained throughput: the 10 s run may not stretch (a pipeline that
    # cannot keep up turns open-loop pacing into a longer wall clock).
    assert report.achieved_eps >= 2000.0, report.achieved_eps
    # End-to-end event latency: each event is enriched as it is
    # submitted, so the median stays far below a millisecond or two, and
    # the p99 well under a tenth of a second at bench scale.
    assert report.latency_ms["p50"] <= 2.0, report.latency_ms
    assert report.latency_ms["p99"] <= 100.0, report.latency_ms
    # The detector saw every event and never suppressed on a healthy run.
    assert report.drift["inspected"] == expected
    assert report.drift["suppressed"] == 0
