"""Trace threading through the serving engine: span rows per path.

Every request path must attribute itself honestly on the trace —
``plane`` (precomputed cell), ``live`` (full resolve), ``degraded``
(resolve with vendors missing) — and the span rows must stay bounded no matter how large a batch rides one trace.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.reqtrace import RequestTrace
from repro.serve import ServingEngine


class BoomIndex:
    """A vendor index whose every probe raises."""

    interval_count = 0

    def probe_answer(self, addr):
        raise RuntimeError("vendor backend down")


@pytest.fixture()
def traced():
    return RequestTrace("lookup")


class TestLivePath:
    def test_resolve_records_per_vendor_probe_spans(self, compiled_indexes, traced):
        engine = ServingEngine(compiled_indexes)
        engine.lookup_outcome("41.0.0.2", trace=traced)
        assert traced.path == "live"
        tree = traced.to_dict()
        (resolve,) = tree["spans"]
        assert resolve["name"] == "resolve"
        probes = {span["name"] for span in resolve["children"]}
        assert probes == {f"probe:{name}" for name in compiled_indexes}
        assert all(span["attrs"]["ok"] for span in resolve["children"])

    def test_untraced_lookup_matches_traced(self, compiled_indexes, traced):
        engine = ServingEngine(compiled_indexes)
        assert engine.lookup_outcome(
            "41.0.0.2", trace=traced
        ) == engine.lookup_outcome("41.0.0.2")


class TestPlanePath:
    def test_plane_hit_records_interval_attribution(
        self, compiled_indexes, answer_plane
    ):
        engine = ServingEngine(compiled_indexes, plane=answer_plane)
        trace = RequestTrace("lookup")
        engine.lookup_outcome("41.0.0.2", trace=trace)
        assert trace.path == "plane"
        (span,) = trace.to_dict()["spans"]
        assert span["name"] == "plane.probe"
        assert span["attrs"]["interval"] >= 0

    def test_locate_agrees_with_probe(self, answer_plane):
        from repro.net.ip import parse_address

        addr = int(parse_address("41.0.0.2"))
        cell, interval = answer_plane.locate(addr)
        assert cell is answer_plane.probe(addr)
        assert 0 <= interval < answer_plane.interval_count

    def test_traced_plane_outcome_equals_untraced(
        self, compiled_indexes, answer_plane
    ):
        engine = ServingEngine(compiled_indexes, plane=answer_plane)
        trace = RequestTrace("lookup")
        assert engine.lookup_outcome(
            "41.0.0.2", trace=trace
        ) == engine.lookup_outcome("41.0.0.2")

    def test_plane_hit_counters_stay_exact(self, compiled_indexes, answer_plane):
        metrics = MetricsRegistry()
        engine = ServingEngine(
            compiled_indexes, plane=answer_plane, metrics=metrics
        )
        for _ in range(7):
            engine.lookup_outcome("41.0.0.2")
        assert metrics.counter("serve.lookups") == 7
        assert metrics.counter("plane.hits") == 7

    def test_plane_consensus_counters_stay_exact(
        self, compiled_indexes, answer_plane
    ):
        metrics = MetricsRegistry()
        engine = ServingEngine(
            compiled_indexes, plane=answer_plane, metrics=metrics
        )
        for _ in range(3):
            engine.consensus_of(engine.lookup_outcome("41.0.0.2"))
        assert metrics.counter("serve.lookups") == 3
        assert metrics.counter("serve.consensus") == 3
        assert metrics.counter("plane.hits") == 3


class TestDegradedPath:
    def test_failing_vendor_marks_the_trace_degraded(self, compiled_indexes):
        name = next(iter(compiled_indexes))
        indexes = {**compiled_indexes, f"{name}-broken": BoomIndex()}
        engine = ServingEngine(indexes)
        trace = RequestTrace("lookup")
        outcome = engine.lookup_outcome("41.0.0.2", trace=trace)
        assert outcome.degraded
        assert trace.path == "degraded"
        (resolve,) = trace.to_dict()["spans"]
        assert resolve["attrs"]["degraded"] is True
        failed = [
            span for span in resolve["children"] if not span["attrs"]["ok"]
        ]
        assert len(failed) == 1


class TestBatchTracing:
    def test_batch_spans_are_bounded(self, compiled_indexes, answer_plane):
        engine = ServingEngine(compiled_indexes, plane=answer_plane)
        trace = RequestTrace("batch", max_spans=10)
        addresses = ["41.0.0.2"] * 50
        results = engine.outcome_batch(addresses, trace=trace)
        assert len(results) == 50
        assert trace.span_count() == 10
        assert trace.dropped_spans == 41  # 50 lookups + 1 batch span - 10 kept
        assert trace.path == "plane"

    def test_batch_span_carries_size(self, compiled_indexes):
        engine = ServingEngine(compiled_indexes)
        trace = RequestTrace("batch")
        engine.outcome_batch(["41.0.0.2", "41.0.0.3"], trace=trace)
        batch = trace.to_dict()["spans"][0]
        assert batch["name"] == "batch"
        assert batch["attrs"]["size"] == 2
