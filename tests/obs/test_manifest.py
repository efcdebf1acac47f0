"""Tests for the run manifest: assembly, JSON round-trip, pipeline glue."""

import json

from repro.obs.manifest import (
    MANIFEST_VERSION,
    RunManifest,
    sha256_digest,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.reqtrace import RequestTrace

#: Every key a span node may carry, in the manifest and on ``/tracez``.
SPAN_NODE_KEYS = {"name", "start_ms", "duration_ms", "attrs", "children"}


def _traced_run() -> RequestTrace:
    tracer = RequestTrace("run")
    with tracer.span("run") as run:
        run.set(databases=2)
        with tracer.span("coverage") as span:
            span.set(items=10)
        with tracer.span("accuracy"):
            pass
    return tracer


def _spans(tracer: RequestTrace) -> list:
    return tracer.to_dict()["spans"]


def walk(nodes):
    """Every span node of a forest, at every depth."""
    for node in nodes:
        yield node
        yield from walk(node.get("children", ()))


class TestManifestAssembly:
    def test_build_collects_spans_counters_and_config(self):
        tracer = _traced_run()
        metrics = MetricsRegistry()
        metrics.inc("geodb.lookups", 5, database="A")
        metrics.inc("whois.queries", 2)
        metrics.inc("scenario.probes", 70)
        manifest = RunManifest.build(
            config={"seed": 3, "scale": 0.05, "city_range_km": 40.0},
            spans=_spans(tracer),
            metrics=metrics,
            digests={"summary_sha256": sha256_digest("report")},
        )
        assert manifest.config["seed"] == 3
        assert manifest.counter_families == ("geodb", "scenario", "whois")
        assert manifest.counters["whois.queries"] == 2
        assert manifest.stage_names() == ("run", "coverage", "accuracy")
        assert len(manifest.digests["summary_sha256"]) == 64

    def test_build_without_metrics(self):
        manifest = RunManifest.build(config={}, spans=_spans(_traced_run()))
        assert manifest.counters == {}
        assert manifest.counter_families == ()


class TestManifestRoundTrip:
    def test_json_reproduces_the_span_tree(self):
        tracer = _traced_run()
        manifest = RunManifest.build(config={"seed": 1}, spans=_spans(tracer))
        payload = json.loads(manifest.to_json())
        assert payload["version"] == MANIFEST_VERSION == 2
        assert payload["spans"] == _spans(tracer)
        (run,) = payload["spans"]
        assert run["attrs"] == {"databases": 2}
        names = [child["name"] for child in run["children"]]
        assert names == ["coverage", "accuracy"]
        assert run["children"][0]["attrs"] == {"items": 10}
        for node in walk(payload["spans"]):
            assert {"name", "start_ms", "duration_ms"} <= set(node) <= SPAN_NODE_KEYS

    def test_from_json_round_trips_exactly(self):
        metrics = MetricsRegistry()
        metrics.inc("geodb.lookups", database="A")
        metrics.observe("geodb.prefix_length", 24, database="A")
        manifest = RunManifest.build(
            config={"seed": 1, "scale": 0.1},
            spans=_spans(_traced_run()),
            metrics=metrics,
            digests={"summary_sha256": "ab" * 32},
        )
        restored = RunManifest.from_json(manifest.to_json())
        assert restored == manifest

    def test_digest_is_stable(self):
        assert sha256_digest("x") == sha256_digest("x")
        assert sha256_digest("x") != sha256_digest("y")


class TestPipelineManifest:
    def test_instrumented_run_attaches_manifest(self, small_scenario):
        from repro.core.pipeline import RouterGeolocationStudy

        tracer = RequestTrace("run")
        metrics = MetricsRegistry()
        try:
            result = RouterGeolocationStudy.from_scenario(
                small_scenario, tracer=tracer, metrics=metrics
            ).run()
        finally:
            # The scenario fixture is session-scoped and shared: detach the
            # registry so later tests see uninstrumented databases again.
            for database in small_scenario.databases.values():
                database.attach_metrics(None)
            small_scenario.internet.whois.attach_metrics(None)
        manifest = result.manifest
        assert manifest is not None
        stages = manifest.stage_names()
        for stage in (
            "run", "coverage", "consistency", "city_range", "table1",
            "accuracy_overall", "accuracy_by_rir", "accuracy_by_country",
            "accuracy_by_source", "arin_case_study", "recommendations",
        ):
            assert stage in stages
        assert {"geodb", "whois"} <= set(manifest.counter_families)
        assert manifest.config["seed"] == small_scenario.config.seed
        assert manifest.config["city_range_km"] == 40.0
        # The study stays well inside the trace's row cap: no stage span
        # is ever dropped from the manifest.
        assert tracer.dropped_spans == 0
        assert manifest.spans == tuple(_spans(tracer))
        # The digests certify the rendered reports.
        assert manifest.digests["summary_sha256"] == sha256_digest(
            result.render_summary()
        )

    def test_uninstrumented_run_has_no_manifest(self, study_result):
        assert study_result.manifest is None
