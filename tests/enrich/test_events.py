"""The synthetic firehose: deterministic, well-shaped, restartable."""

import hashlib
import json

import pytest

from repro.enrich import EVENT_KINDS, EventConfig, EventSource
from repro.loadgen import MISS_PREFIX


def test_same_seed_same_stream(event_pool):
    a = EventSource(event_pool, EventConfig(seed=42))
    b = EventSource(event_pool, EventConfig(seed=42))
    assert [e.to_dict() for e in a.take(500)] == [e.to_dict() for e in b.take(500)]


def test_stream_bytes_are_pinned():
    """The firehose is a pure function of (pool, config): a config
    refactor must not move a single byte of the event stream."""
    pool = [f"10.{i // 256}.{i % 256}.1" for i in range(3000)]
    events = EventSource(pool, EventConfig(seed=2016, miss_fraction=0.05)).take(2000)
    blob = json.dumps([e.to_dict() for e in events], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "3d444b313f8e72fa0305d352c400cc8e52e181df234f60e539d82232e13aef87"
    )


def test_stream_restarts_from_event_zero(event_pool):
    source = EventSource(event_pool, EventConfig(seed=42))
    first = [e.to_dict() for e in source.take(300)]
    again = [e.to_dict() for e in source.take(300)]
    assert first == again


def test_different_seeds_diverge(event_pool):
    a = EventSource(event_pool, EventConfig(seed=1))
    b = EventSource(event_pool, EventConfig(seed=2))
    assert [e.address for e in a.take(200)] != [e.address for e in b.take(200)]


def test_sequence_and_timestamps_are_stream_time(event_pool):
    rate = 500.0
    events = EventSource(event_pool, EventConfig(seed=7, rate=rate)).take(250)
    assert [e.seq for e in events] == list(range(250))
    assert all(e.ts == round(e.seq / rate, 6) for e in events)


def test_mix_produces_every_kind_with_dressing(event_pool):
    events = EventSource(event_pool, EventConfig(seed=9)).take(2000)
    by_kind = {kind: [e for e in events if e.kind == kind] for kind in EVENT_KINDS}
    for kind, bucket in by_kind.items():
        assert bucket, f"no {kind} events in 2000 draws"
    # Default mix weights flows heaviest, traceroutes lightest.
    assert len(by_kind["flow"]) > len(by_kind["access_log"]) > len(by_kind["traceroute"])
    assert all(1 <= e.attrs["hop"] <= 24 for e in by_kind["traceroute"])
    assert all(e.attrs["proto"] in ("tcp", "udp") for e in by_kind["flow"])
    assert all(e.attrs["path"].startswith("/api/") for e in by_kind["access_log"])


def test_miss_fraction_draws_from_reserved_space(event_pool):
    miss_octet = MISS_PREFIX.split(".")[0]
    events = EventSource(
        event_pool, EventConfig(seed=5, miss_fraction=0.3)
    ).take(1000)
    misses = [e for e in events if e.address.split(".")[0] == miss_octet]
    assert 0.2 < len(misses) / len(events) < 0.4


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rate": 0.0},
        {"rate": -5.0},
        {"mix": (1.0, 1.0)},
        {"mix": (0.0, 0.0, 0.0)},
        {"mix": (1.0, -1.0, 1.0)},
    ],
)
def test_config_rejects_bad_shapes(kwargs):
    with pytest.raises(ValueError):
        EventConfig(**kwargs)
