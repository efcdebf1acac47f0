"""Per-request traces: span rows, path attribution, the slow-trace ring."""

import time
from types import SimpleNamespace

import pytest

from repro.obs import reqtrace
from repro.obs.reqtrace import (
    DEFAULT_MAX_SPANS,
    RequestTrace,
    TraceRing,
    new_trace_id,
)


class TestTraceIds:
    def test_minted_ids_are_16_hex_chars(self):
        trace_id = new_trace_id()
        assert len(trace_id) == 16
        int(trace_id, 16)  # hex or raise

    def test_client_supplied_id_is_honoured(self):
        trace = RequestTrace("lookup", trace_id="client-abc.123")
        assert trace.trace_id == "client-abc.123"

    def test_missing_id_is_minted(self):
        assert RequestTrace("lookup").trace_id != RequestTrace("lookup").trace_id


class TestSpanRecording:
    def test_begin_end_builds_a_nested_tree(self):
        trace = RequestTrace("lookup")
        root = trace.begin("resolve", address="10.0.0.1")
        trace.add("probe:A", 1.5, parent=root, ok=True)
        trace.add("probe:B", 0.5, parent=root, ok=False)
        trace.end(root, degraded=True)
        trace.finish(status=200)
        tree = trace.to_dict()
        assert tree["endpoint"] == "lookup"
        assert tree["status"] == 200
        (resolve,) = tree["spans"]
        assert resolve["name"] == "resolve"
        assert resolve["attrs"]["degraded"] is True
        assert [span["name"] for span in resolve["children"]] == [
            "probe:A",
            "probe:B",
        ]
        assert resolve["children"][0]["duration_ms"] == 1.5

    def test_span_cap_drops_and_counts(self):
        trace = RequestTrace("batch", max_spans=3)
        for i in range(10):
            assert trace.begin(f"span{i}") == (i if i < 3 else -2)
        assert trace.span_count() == 3
        assert trace.dropped_spans == 7
        assert trace.to_dict()["dropped_spans"] == 7

    def test_end_of_a_dropped_span_is_a_noop(self):
        trace = RequestTrace("batch", max_spans=1)
        trace.begin("kept")
        dropped = trace.begin("dropped")
        trace.end(dropped)  # must not raise or touch the kept span

    def test_default_cap_bounds_huge_batches(self):
        trace = RequestTrace("batch")
        for _ in range(10_000):
            trace.add("lookup", 0.001)
        assert trace.span_count() == DEFAULT_MAX_SPANS

    def test_finish_freezes_duration(self):
        trace = RequestTrace("lookup")
        trace.finish(status=503)
        first = trace.duration_ms
        trace.finish()
        assert trace.duration_ms == first
        assert trace.status == 503


class TestPathAttribution:
    def test_single_path_sticks(self):
        trace = RequestTrace("lookup")
        trace.note_path("plane")
        trace.note_path("plane")
        assert trace.path == "plane"

    def test_heterogeneous_batch_is_mixed(self):
        trace = RequestTrace("batch")
        trace.note_path("cache")
        trace.note_path("live")
        assert trace.path == "mixed"


def finished(duration_ms, endpoint="lookup"):
    trace = RequestTrace(endpoint)
    trace.duration_ms = duration_ms
    trace.status = 200
    return trace


def fake_monotonic(monkeypatch):
    """Point the module's monotonic clock (only its own) at ``now[0]``."""
    now = [1000.0]
    monkeypatch.setattr(
        reqtrace,
        "time",
        SimpleNamespace(
            monotonic=lambda: now[0], perf_counter=time.perf_counter, time=time.time
        ),
    )
    return now


class TestTraceRing:
    def test_keeps_the_n_slowest(self):
        ring = TraceRing(capacity=3)
        for duration in (5.0, 1.0, 9.0, 2.0, 7.0, 3.0):
            ring.record(finished(duration))
        durations = [trace["duration_ms"] for trace in ring.slowest()]
        assert durations == [9.0, 7.0, 5.0]

    def test_slowest_is_sorted_descending(self):
        ring = TraceRing(capacity=8)
        for duration in (1.0, 4.0, 2.0):
            ring.record(finished(duration))
        durations = [trace["duration_ms"] for trace in ring.slowest()]
        assert durations == sorted(durations, reverse=True)

    def test_stale_traces_are_evicted(self):
        ring = TraceRing(capacity=4, max_age_s=60.0)
        old = finished(1000.0)
        old._mono -= 3600.0  # started an hour ago
        ring.record(old)
        ring.record(finished(1.0))
        durations = [trace["duration_ms"] for trace in ring.slowest()]
        assert durations == [1.0]

    def test_trace_aging_out_while_resident_is_evicted(self, monkeypatch):
        now = fake_monotonic(monkeypatch)
        ring = TraceRing(capacity=4, max_age_s=60.0)
        ring.record(finished(50.0))  # t=1000
        now[0] = 1030.0
        ring.record(finished(40.0))  # t=1030
        now[0] = 1061.0  # the first is 61 s old, the second 31 s
        ring.record(finished(1.0))
        assert [t["duration_ms"] for t in ring.slowest()] == [40.0, 1.0]
        now[0] = 1091.0  # the second ages out with no record in between
        assert [t["duration_ms"] for t in ring.slowest()] == [1.0]

    def test_displaced_oldest_trace_leaves_eviction_exact(self, monkeypatch):
        now = fake_monotonic(monkeypatch)
        ring = TraceRing(capacity=2, max_age_s=60.0)
        ring.record(finished(1.0))  # t=1000, the oldest: displaced below
        now[0] = 1010.0
        ring.record(finished(30.0))  # t=1010
        now[0] = 1020.0
        ring.record(finished(20.0))  # t=1020, displaces the 1.0 trace
        assert len(ring) == 2
        now[0] = 1065.0  # past the displaced trace's age, nothing stale
        assert [t["duration_ms"] for t in ring.slowest()] == [30.0, 20.0]
        now[0] = 1071.0  # only the t=1010 trace is stale
        assert [t["duration_ms"] for t in ring.slowest()] == [20.0]
        now[0] = 1081.0
        assert ring.slowest() == []

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceRing(capacity=0)

    def test_clear_empties_the_ring(self):
        ring = TraceRing(capacity=2)
        ring.record(finished(1.0))
        ring.clear()
        assert len(ring) == 0 and ring.slowest() == []
