"""Pipeline correctness: queues, ordering, enrichment content, stats.

Both paths are covered: ``block`` (the default) enriches on the
submitting thread, ``shed`` on a natural-batching stage thread.
"""

import threading
import time

import pytest

from repro.enrich import (
    BoundedQueue,
    EnrichConfig,
    EnrichmentPipeline,
    EventConfig,
    EventSource,
)
from repro.net.ip import parse_address
from repro.net.registry import UnallocatedAddressError


class TestBoundedQueue:
    def test_fifo_and_census(self):
        queue = BoundedQueue(4, "q")
        for item in (1, 2, 3):
            assert queue.put(item)
        assert queue.depth() == 3
        assert queue.take(8) == [1, 2, 3]
        stats = queue.stats()
        assert stats == {
            "capacity": 4, "depth": 0, "high_water": 3, "puts": 3, "rejected": 0,
        }

    def test_nonblocking_put_rejects_when_full_and_counts(self):
        queue = BoundedQueue(2, "q")
        assert queue.put("a", block=False)
        assert queue.put("b", block=False)
        assert not queue.put("c", block=False)
        assert not queue.put("d", block=False)
        stats = queue.stats()
        assert (stats["rejected"], stats["puts"]) == (2, 2)
        assert stats["high_water"] == 2 == stats["capacity"]

    def test_blocking_put_waits_for_space(self):
        queue = BoundedQueue(1, "q")
        queue.put("a")
        done = []

        def producer():
            queue.put("b")
            done.append(True)

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not done  # still blocked on the full queue
        assert queue.take(1) == ["a"]
        thread.join(timeout=5.0)
        assert done and queue.take(1) == ["b"]

    def test_take_returns_what_has_queued_up_to_the_limit(self):
        queue = BoundedQueue(8, "q")
        for item in range(5):
            queue.put(item)
        assert queue.take(3) == [0, 1, 2]
        assert queue.take(3) == [3, 4]  # what is there, not a full batch
        assert queue.stats()["depth"] == 0

    def test_take_waits_for_the_first_item_only(self):
        queue = BoundedQueue(8, "q")
        taken = []
        thread = threading.Thread(
            target=lambda: taken.append(queue.take(8)), daemon=True
        )
        thread.start()
        queue.put("x")
        thread.join(timeout=5.0)
        assert taken == [["x"]]

    def test_take_frees_room_for_a_blocked_producer(self):
        queue = BoundedQueue(2, "q")
        queue.put("a")
        queue.put("b")
        thread = threading.Thread(target=lambda: queue.put("c"), daemon=True)
        thread.start()
        assert queue.take(2) == ["a", "b"]
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert queue.take(2) == ["c"]
        assert queue.stats()["high_water"] == 2

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)


class TestEnrichConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"batch_size": -1},
            {"whois_workers": 0},
            {"overload": "drop"},
            {"event_queue": 0},
            {"event_queue": -1},
        ],
    )
    def test_rejects_bad_shapes(self, kwargs):
        with pytest.raises(ValueError):
            EnrichConfig(**kwargs)

    @pytest.mark.parametrize("name", ["linger_ms", "work_queue", "done_queue"])
    def test_has_no_timer_or_internal_queues(self, name):
        with pytest.raises(TypeError):
            EnrichConfig(**{name: 1})


def run_events(engine, events, *, whois=None, config=None, detector=None):
    out = []
    pipeline = EnrichmentPipeline(
        engine, whois=whois, config=config, detector=detector, sink=out.append
    )
    pipeline.start()
    for event in events:
        pipeline.submit(event)
    pipeline.drain()
    return pipeline, out


def test_enriched_output_is_ordered_and_matches_the_engine(
    engine, whois, event_pool, enrich_indexes
):
    events = EventSource(event_pool, EventConfig(seed=11)).take(300)
    pipeline, out = run_events(
        engine, events, whois=whois, config=EnrichConfig(batch_size=16)
    )

    assert [e.event.seq for e in out] == list(range(300))
    assert pipeline.enriched == 300 and pipeline.errors == 0
    for enriched in out:
        addr = enriched.event.address
        # Vendor answers are exactly what the indexes answer.
        for vendor, answer in enriched.answers.items():
            assert answer == enrich_indexes[vendor].probe_answer(
                int(parse_address(addr))
            )
        assert not enriched.degraded and enriched.unavailable == ()
        # Whois agrees with a direct query (or both say unallocated).
        try:
            expected = whois.lookup(addr)
        except UnallocatedAddressError:
            expected = None
        assert enriched.whois == expected
        assert enriched.error is None


def test_consensus_matches_direct_resolution(engine, event_pool):
    events = EventSource(event_pool, EventConfig(seed=13)).take(150)
    _pipeline, out = run_events(engine, events)
    for enriched in out:
        expected = engine.consensus_of(engine.lookup_outcome(enriched.event.address))
        assert enriched.consensus == expected


def test_miss_traffic_flows_through_without_errors(engine, event_pool):
    events = EventSource(
        event_pool, EventConfig(seed=17, miss_fraction=1.0)
    ).take(60)
    pipeline, out = run_events(engine, events)
    assert pipeline.errors == 0 and len(out) == 60
    for enriched in out:
        assert all(answer is None for answer in enriched.answers.values())
        assert enriched.consensus.country is None
        assert not enriched.consensus.quorum
        assert enriched.whois is None and enriched.alerts == ()


def test_accounting_and_stats_shape(engine, whois, event_pool):
    events = EventSource(event_pool, EventConfig(seed=19)).take(200)
    pipeline, out = run_events(engine, events, whois=whois)
    stats = pipeline.stats()
    assert stats["submitted"] == 200
    assert stats["submitted"] == stats["enriched"] + stats["shed"]
    assert stats["enriched"] == len(out)
    assert stats["batches"] == pipeline.batches > 0
    assert set(stats["queues"]) == {"events", "work", "done"}
    for queue_stats in stats["queues"].values():
        assert queue_stats["high_water"] <= queue_stats["capacity"]
    assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"] > 0
    assert stats["drift"]["inspected"] == 200
    assert stats["degraded_vendors"] == []
    assert stats["policy"] == "block"


def test_to_dict_is_json_ready_and_wall_clock_free(engine, whois, event_pool):
    import json

    events = EventSource(event_pool, EventConfig(seed=23)).take(50)
    _pipeline, out = run_events(engine, events, whois=whois)
    for enriched in out:
        payload = enriched.to_dict()
        json.dumps(payload)  # must serialize without custom encoders
        assert sorted(payload["answers"]) == sorted(enriched.answers)
        assert payload["event"]["ts"] == enriched.event.ts


def test_lifecycle_misuse_raises(engine, event_pool):
    pipeline = EnrichmentPipeline(engine)
    with pytest.raises(RuntimeError):
        pipeline.submit(object())  # never started
    pipeline.start()
    with pytest.raises(RuntimeError):
        pipeline.start()  # double start
    pipeline.drain()
    pipeline.drain()  # idempotent
    with pytest.raises(RuntimeError):
        pipeline.submit(object())  # after drain


def test_run_paces_and_reports(engine, whois, event_pool):
    source = EventSource(event_pool, EventConfig(seed=29))
    pipeline = EnrichmentPipeline(engine, whois=whois)
    report = pipeline.run(source.events(), rate=1000.0, duration_s=0.5)
    assert report.offered == 500 == report.enriched
    assert report.shed == 0 and report.errors == 0
    assert report.duration_s >= 0.45
    assert report.achieved_eps > 0
    assert report.latency_ms["p99"] > 0
    rendered = report.render()
    assert "offered 500" in rendered and "policy block" in rendered
    payload = report.to_dict()
    assert payload["enriched"] == 500 and payload["queues"]["events"]["rejected"] == 0


class GatedWhois:
    """A whois whose first lookup parks until ``release`` is set, so a
    test can queue events behind the batch in flight.  ``threads`` names
    the thread each lookup ran on."""

    def __init__(self, inner):
        self._inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()
        self.threads: list[str] = []

    def lookup(self, address):
        self.threads.append(threading.current_thread().name)
        if not self.entered.is_set():
            self.entered.set()
            self.release.wait(10.0)
        return self._inner.lookup(address)


def test_events_queued_behind_a_batch_leave_together(engine, whois, event_pool):
    events = EventSource(event_pool, EventConfig(seed=61)).take(7)
    gated = GatedWhois(whois)
    out = []
    # Only the shed stage queues and batches; its queue holds all seven.
    pipeline = EnrichmentPipeline(
        engine,
        whois=gated,
        config=EnrichConfig(batch_size=4, whois_workers=2, overload="shed"),
        sink=lambda enriched: out.append((enriched, pipeline.batches)),
    )
    pipeline.start()
    pipeline.submit(events[0])
    assert gated.entered.wait(10.0)  # batch 1, the lone event, is resolving
    for event in events[1:]:
        pipeline.submit(event)
    gated.release.set()
    pipeline.drain()

    # Batch 2 takes what queued meanwhile, capped at batch_size; batch 3
    # the rest.
    assert [(e.event.seq, batch) for e, batch in out] == [
        (0, 1), (1, 2), (2, 2), (3, 2), (4, 2), (5, 3), (6, 3),
    ]
    # Whois never leaves the stage thread, whatever whois_workers says.
    assert gated.threads == ["enrich-stage"] * 7
    for enriched, _batch in out:
        try:
            expected = whois.lookup(enriched.event.address)
        except UnallocatedAddressError:
            expected = None
        assert enriched.whois == expected
    stats = pipeline.stats()
    assert stats["batches"] == 3
    for name in ("work", "done"):
        assert stats["queues"][name] == {
            "capacity": 4, "depth": 0, "high_water": 4, "puts": 7, "rejected": 0,
        }
    assert stats["reorder_high_water"] == 0


def test_an_idle_pipelines_lone_event_is_a_batch_of_one(engine, event_pool):
    event = EventSource(event_pool, EventConfig(seed=67)).take(1)[0]
    seen = []
    pipeline = EnrichmentPipeline(
        engine, sink=lambda enriched: seen.append(pipeline.batches)
    )
    pipeline.start()
    pipeline.submit(event)
    pipeline.drain()
    assert seen == [1]
    stats = pipeline.stats()
    assert stats["batches"] == 1
    assert stats["queues"]["work"]["high_water"] == 1


@pytest.mark.parametrize("error", [ValueError, SystemExit])
def test_a_crashed_stage_fails_drain_instead_of_wedging(engine, event_pool, error):
    events = EventSource(event_pool, EventConfig(seed=71)).take(50)

    def sink(_enriched):
        raise error("sink exploded")

    pipeline = EnrichmentPipeline(
        engine,
        config=EnrichConfig(batch_size=4, event_queue=4, overload="shed"),
        sink=sink,
    )
    pipeline.start()
    for event in events:  # more than the queue holds: the stage must keep taking
        pipeline.submit(event)
    with pytest.raises(RuntimeError, match="sink exploded"):
        pipeline.drain()


def test_block_enriches_on_the_submitting_thread(engine, whois, event_pool):
    events = EventSource(event_pool, EventConfig(seed=73)).take(20)
    recorder = GatedWhois(whois)
    recorder.entered.set()  # never park: this test only records threads
    sink_threads = []
    pipeline = EnrichmentPipeline(
        engine,
        whois=recorder,
        sink=lambda _enriched: sink_threads.append(threading.current_thread().name),
    ).start()
    assert "enrich-stage" not in {thread.name for thread in threading.enumerate()}
    for count, event in enumerate(events, 1):
        assert pipeline.submit(event)
        assert len(sink_threads) == count  # the sink has it before submit returns
    pipeline.drain()

    caller = threading.current_thread().name
    assert recorder.threads == [caller] * 20 == sink_threads
    stats = pipeline.stats()
    assert stats["batches"] == stats["enriched"] == 20
    assert stats["queues"]["events"] == {
        "capacity": 2048, "depth": 0, "high_water": 0, "puts": 0, "rejected": 0,
    }
    assert stats["queues"]["work"]["high_water"] == 1


@pytest.mark.parametrize("error", [ValueError, SystemExit])
def test_an_inline_sink_crash_fails_drain_not_submit(engine, event_pool, error):
    events = EventSource(event_pool, EventConfig(seed=79)).take(10)
    calls = []

    def sink(enriched):
        calls.append(enriched.event.seq)
        raise error("sink exploded")

    pipeline = EnrichmentPipeline(engine, sink=sink).start()
    for event in events:
        assert pipeline.submit(event)  # raises nothing: the crash is recorded
    assert calls == [0]  # events after the crash are dropped
    assert pipeline.submitted == 10
    with pytest.raises(RuntimeError, match="sink exploded"):
        pipeline.drain()


def test_keyboard_interrupt_in_an_inline_sink_propagates_from_submit(
    engine, event_pool
):
    event = EventSource(event_pool, EventConfig(seed=83)).take(1)[0]

    def sink(_enriched):
        raise KeyboardInterrupt

    pipeline = EnrichmentPipeline(engine, sink=sink).start()
    with pytest.raises(KeyboardInterrupt):
        pipeline.submit(event)
    pipeline.drain()  # an interrupt is the caller stopping, not a crash
