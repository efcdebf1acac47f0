"""A healthy event is enriched straight from its answer-plane cell.

``EnrichmentPipeline`` parses an event's address once and takes the
answers and consensus of its ``engine.lookup_plane`` cell as they are,
without a ``LookupOutcome`` or a ``consensus_of`` call.  These tests pin
that the shortcut changes nothing a consumer can see: the enriched
lines, the alert lines and the ``serve.*``/``plane.*``/``whois.*``
counters read as on the outcome path, and a malformed address is one
error event, not the end of the stream.
"""

import dataclasses
import json

import pytest

from repro.enrich import EnrichmentPipeline, EventConfig, EventSource
from repro.enrich.events import Event
from repro.net.ip import parse_address
from repro.net.registry import TeamCymruWhois, UnallocatedAddressError
from repro.obs.metrics import MetricsRegistry

COUNTED = ("serve.", "plane.", "whois.")


def enrich(engine, registry, events):
    """The ``to_dict()`` lines, the alert lines, and the engine and
    whois counters and histograms of one fresh pipeline run."""
    metrics = MetricsRegistry()
    engine.attach_metrics(metrics)
    whois = TeamCymruWhois(registry, metrics)
    lines: list[str] = []
    alerts: list[str] = []

    def sink(enriched):
        lines.append(json.dumps(enriched.to_dict(), sort_keys=True))
        alerts.extend(
            json.dumps(alert.to_dict(), sort_keys=True) for alert in enriched.alerts
        )

    pipeline = EnrichmentPipeline(engine, whois=whois, sink=sink)
    pipeline.start()
    for event in events:
        pipeline.submit(event)
    pipeline.drain()
    counted = {
        name: value
        for name, value in {
            **metrics.counters_snapshot(),
            **metrics.histograms_snapshot(),
        }.items()
        if name.startswith(COUNTED)
    }
    return lines, alerts, counted


@pytest.fixture
def events(event_pool):
    return EventSource(event_pool, EventConfig(seed=31, miss_fraction=0.05)).take(800)


def hide_plane(engine, monkeypatch):
    """Make the pipeline's cell read miss, so every event takes
    ``outcome_batch`` and ``consensus_of`` (the plane stays attached)."""
    monkeypatch.setattr(engine, "lookup_plane", lambda address: None)


def test_plane_and_outcome_paths_enrich_identically(
    engine, small_scenario, enrich_indexes, events, monkeypatch
):
    registry = small_scenario.internet.registry
    lines, alerts, _ = enrich(engine, registry, events)
    assert alerts and any('"whois": null' not in line for line in lines)

    hide_plane(engine, monkeypatch)
    assert enrich(engine, registry, events)[:2] == (lines, alerts)

    monkeypatch.undo()
    engine.swap(enrich_indexes, None)  # plane detached: every event resolves live
    assert engine.lookup_plane(events[0].address) is None
    assert enrich(engine, registry, events)[:2] == (lines, alerts)


def test_plane_path_counts_what_the_outcome_path_counts(
    engine, small_scenario, events, monkeypatch
):
    registry = small_scenario.internet.registry
    calls = []
    for name in ("lookup_outcome", "consensus_of"):
        method = getattr(engine, name)

        def spy(*args, _method=method, _name=name, **kwargs):
            calls.append(_name)
            return _method(*args, **kwargs)

        monkeypatch.setattr(engine, name, spy)
    _, _, counted = enrich(engine, registry, events)
    assert calls == []  # every event was answered from its cell
    assert counted["serve.lookups"] == counted["plane.hits"] == len(events)
    assert counted["serve.consensus"] == counted["serve.batch_lookups"] == len(events)
    assert counted["whois.queries"] == len(events)

    hide_plane(engine, monkeypatch)
    assert enrich(engine, registry, events)[2] == counted
    assert len(calls) == 2 * len(events)


@pytest.mark.parametrize("address", ["999.1.1.1", "2001:db8::1", "", None, True])
def test_a_malformed_address_is_one_error_event(
    engine, small_scenario, event_pool, address
):
    good = EventSource(event_pool, EventConfig(seed=37)).take(2)
    events = [
        good[0],
        Event(seq=1, ts=0.0, kind="flow", address=address),
        dataclasses.replace(good[1], seq=2),
    ]
    metrics = MetricsRegistry()
    out = []
    pipeline = EnrichmentPipeline(
        engine,
        whois=TeamCymruWhois(small_scenario.internet.registry),
        metrics=metrics,
        sink=out.append,
    )
    pipeline.start()
    for event in events:
        pipeline.submit(event)
    pipeline.drain()  # no crash recorded

    assert [enriched.event.seq for enriched in out] == [0, 1, 2]
    assert pipeline.enriched == 3 and pipeline.errors == 1
    assert metrics.counter("enrich.errors") == 1
    bad = out[1]
    assert bad.error == f"ValueError: not an IPv4 address: {address!r}"
    assert bad.answers == {} and bad.consensus is None and bad.whois is None
    assert bad.degraded and bad.unavailable == () and bad.alerts == ()
    for enriched in (out[0], out[2]):
        assert enriched.error is None and enriched.answers
        assert enriched.consensus is not None


def test_a_non_text_address_reports_its_dotted_quad(engine, event_pool):
    out = []
    pipeline = EnrichmentPipeline(engine, sink=out.append)
    pipeline.start()
    for event in EventSource(event_pool, EventConfig(seed=41)).take(400):
        pipeline.submit(event)
    pipeline.drain()
    alerting = next(enriched for enriched in out if enriched.alerts)
    text = alerting.event.address

    out.clear()
    pipeline = EnrichmentPipeline(engine, sink=out.append)
    pipeline.start()
    pipeline.submit(
        Event(seq=alerting.event.seq, ts=0.0, kind="flow",
              address=int(parse_address(text)))
    )
    pipeline.drain()
    (enriched,) = out
    assert enriched.answers == alerting.answers
    assert enriched.consensus == alerting.consensus
    assert enriched.alerts == alerting.alerts
    assert all(alert.address == text for alert in enriched.alerts)


def test_whois_text_int_and_object_forms_share_one_entry(small_scenario, event_pool):
    metrics = MetricsRegistry()
    whois = TeamCymruWhois(small_scenario.internet.registry, metrics)
    allocated = 0
    for pooled in event_pool[:200]:
        address = parse_address(pooled)
        try:
            records = [
                whois.lookup(form) for form in (int(address), str(address), address)
            ]
        except UnallocatedAddressError:
            continue
        allocated += 1
        assert records[0] is records[1] is records[2]
        assert records[0].address == address
    assert allocated > 0
    assert len(whois._cache) == allocated
    assert metrics.counter("whois.cache_hits") == 2 * allocated
