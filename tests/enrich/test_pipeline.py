"""Pipeline correctness: ordering, enrichment content, stats, lifecycle.

``submit`` enriches each event on the submitting thread.
"""

import dataclasses
import threading

import pytest

from repro.enrich import (
    EnrichConfig,
    EnrichmentPipeline,
    EventConfig,
    EventSource,
)
from repro.net.ip import parse_address
from repro.net.registry import UnallocatedAddressError


class TestEnrichConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"whois_workers": 0}, {"whois_workers": -1}],
    )
    def test_rejects_bad_shapes(self, kwargs):
        with pytest.raises(ValueError):
            EnrichConfig(**kwargs)

    @pytest.mark.parametrize(
        "name",
        [
            "linger_ms",
            "work_queue",
            "done_queue",
            "overload",
            "batch_size",
            "event_queue",
        ],
    )
    def test_has_no_timer_or_internal_queues(self, name):
        with pytest.raises(TypeError):
            EnrichConfig(**{name: 1})

    def test_whois_workers_is_the_only_setting(self):
        assert [f.name for f in dataclasses.fields(EnrichConfig)] == ["whois_workers"]


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
    pipeline, out = run_events(engine, events, whois=whois)

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
    assert stats["submitted"] == stats["enriched"] == len(out)
    assert stats["enriched"] == pipeline.enriched
    assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"] > 0
    assert stats["drift"]["inspected"] == 200
    assert stats["degraded_vendors"] == []


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
    assert report.errors == 0
    assert report.duration_s >= 0.45
    assert report.achieved_eps > 0
    assert report.latency_ms["p99"] > 0
    rendered = report.render()
    assert "offered 500 · enriched 500 · errors 0" in rendered
    payload = report.to_dict()
    assert payload["enriched"] == 500 and payload["errors"] == 0


class GatedWhois:
    """A whois whose first lookup parks until ``release`` is set.
    ``threads`` names the thread each lookup ran on."""

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


def test_an_idle_pipelines_lone_event_is_a_batch_of_one(engine, event_pool):
    event = EventSource(event_pool, EventConfig(seed=67)).take(1)[0]
    seen = []
    pipeline = EnrichmentPipeline(
        engine, sink=lambda enriched: seen.append(pipeline.stats()["batches"])
    )
    pipeline.start()
    pipeline.submit(event)
    pipeline.drain()
    assert seen == [1]
    stats = pipeline.stats()
    assert stats["batches"] == 1
    assert stats["queues"]["work"]["high_water"] == 1


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
