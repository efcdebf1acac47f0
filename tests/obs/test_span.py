"""Tests for ``RequestTrace.span``: nesting, timing, the no-op default."""

import time

import pytest

from repro.obs.reqtrace import NOOP_TRACE, RequestTrace, render_span_tree


def roots(trace):
    return trace.to_dict()["spans"]


class TestSpanNesting:
    def test_nested_spans_form_a_tree(self):
        trace = RequestTrace("run")
        with trace.span("outer"):
            with trace.span("inner-1"):
                pass
            with trace.span("inner-2"):
                with trace.span("leaf"):
                    pass
        assert [root["name"] for root in roots(trace)] == ["outer"]
        (outer,) = roots(trace)
        assert [child["name"] for child in outer["children"]] == ["inner-1", "inner-2"]
        assert [child["name"] for child in outer["children"][1]["children"]] == ["leaf"]

    def test_sibling_roots(self):
        trace = RequestTrace("run")
        with trace.span("a"):
            pass
        with trace.span("b"):
            pass
        assert [root["name"] for root in roots(trace)] == ["a", "b"]

    def test_span_closes_and_unnests_when_its_body_raises(self):
        trace = RequestTrace("run")
        with pytest.raises(RuntimeError):
            with trace.span("failed"):
                raise RuntimeError("stage crashed")
        with trace.span("next"):
            pass
        failed, after = roots(trace)
        assert failed["name"] == "failed" and "children" not in failed
        assert after["name"] == "next"

    def test_spans_past_the_row_cap_are_counted_not_kept(self):
        trace = RequestTrace("run", max_spans=2)
        with trace.span("kept"):
            with trace.span("child"):
                pass
            with trace.span("over") as row:
                row.set(items=1)
        assert trace.span_count() == 2
        assert trace.dropped_spans == 1
        (kept,) = roots(trace)
        assert [child["name"] for child in kept["children"]] == ["child"]


class TestSpanTiming:
    def test_duration_monotonic_and_contains_children(self):
        trace = RequestTrace("run")
        with trace.span("parent"):
            with trace.span("child"):
                time.sleep(0.01)
        (parent,) = roots(trace)
        (child,) = parent["children"]
        assert child["duration_ms"] >= 10.0
        # A parent's wall-time covers the wall-time of its children.
        assert parent["duration_ms"] >= child["duration_ms"]
        assert child["start_ms"] >= parent["start_ms"]

    def test_duration_frozen_after_close(self):
        trace = RequestTrace("run")
        with trace.span("s") as row:
            pass
        first = row.duration_ms
        assert first is not None
        time.sleep(0.005)
        assert row.duration_ms == first
        assert roots(trace)[0]["duration_ms"] == round(first, 3)


class TestSpanAttributes:
    def test_count_and_set_round_trip_to_dict(self):
        trace = RequestTrace("run")
        with trace.span("stage", seed=7) as span:
            span.set(items=42)
            span.set(databases=4)
        (node,) = roots(trace)
        assert node["name"] == "stage"
        assert node["attrs"] == {"seed": 7, "items": 42, "databases": 4}
        assert node["duration_ms"] >= 0

    def test_listener_fires_on_close_with_depth(self):
        seen = []
        trace = RequestTrace(
            "run", listener=lambda row, depth: seen.append((row.name, depth))
        )
        with trace.span("outer"):
            with trace.span("inner"):
                with trace.span("leaf"):
                    pass
            with trace.span("sibling"):
                pass
        # Children close before their parents, at greater depth.
        assert seen == [("leaf", 2), ("inner", 1), ("sibling", 1), ("outer", 0)]


class TestNoopTracer:
    def test_noop_records_nothing(self):
        with NOOP_TRACE.span("anything", key="value") as span:
            span.set(items=10)
            span.set(more=1)
        # The shared object has no state to record into.
        assert NOOP_TRACE.__slots__ == ()

    def test_noop_is_shared_and_disabled(self):
        assert NOOP_TRACE.span("a") is NOOP_TRACE.span("b")
        with NOOP_TRACE.span("a") as span:
            assert span is NOOP_TRACE.span("b")

    def test_real_tracer_is_enabled(self):
        trace = RequestTrace("run")
        with trace.span("a") as span:
            assert span is not NOOP_TRACE
        assert trace.span_count() == 1


class TestRenderSpanTree:
    def test_render_shows_all_spans_and_shares(self):
        trace = RequestTrace("run")
        with trace.span("root"):
            with trace.span("stage-a") as span:
                span.set(items=3)
            with trace.span("stage-b"):
                time.sleep(0.002)
        (root,) = roots(trace)
        lines = render_span_tree(root).splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("root")
        assert "100.0%" in lines[0]
        assert lines[1].lstrip().startswith("stage-a") and "items=3" in lines[1]
        assert lines[2].lstrip().startswith("stage-b")
        assert all("ms" in line for line in lines)
        stage_b = root["children"][1]
        share = stage_b["duration_ms"] / root["duration_ms"]
        assert f"{share:6.1%}" in lines[2]
