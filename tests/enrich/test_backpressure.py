"""Overload soak: a burst far above drain rate, under both policies.

The drain rate is throttled by a deliberately slow whois (every lookup
sleeps), so the burst arrives at well over 10x what the pipeline can
absorb.  The contract under test: queues never exceed their configured
bounds, ``block`` loses nothing, ``shed`` counts every drop exactly
once, and in == enriched out + shed either way.
"""

import time

from repro.enrich import EnrichConfig, EnrichmentPipeline, EventConfig, EventSource

BURST = 400


class SlowWhois:
    """A whois whose every lookup costs wall time — the drain throttle."""

    def __init__(self, inner, delay_s: float):
        self._inner = inner
        self._delay_s = delay_s
        self.calls = 0

    def lookup(self, address):
        self.calls += 1
        time.sleep(self._delay_s)
        return self._inner.lookup(address)


def tight_config(policy: str) -> EnrichConfig:
    return EnrichConfig(
        batch_size=8,
        event_queue=32,
        whois_workers=1,
        overload=policy,
    )


def burst(engine, whois, event_pool, policy: str):
    """Submit BURST events as fast as the policy admits them."""
    source = EventSource(event_pool, EventConfig(seed=31))
    out = []
    pipeline = EnrichmentPipeline(
        engine,
        whois=SlowWhois(whois, 0.002),
        config=tight_config(policy),
        sink=out.append,
    )
    pipeline.start()
    for event in source.take(BURST):
        pipeline.submit(event)
    pipeline.drain()
    return pipeline, out


def assert_bounded(pipeline):
    stats = pipeline.stats()
    for name, queue_stats in stats["queues"].items():
        assert queue_stats["high_water"] <= queue_stats["capacity"], (
            f"queue {name} overflowed its bound: {queue_stats}"
        )
        assert queue_stats["depth"] == 0, f"queue {name} not drained"
    return stats


def test_block_policy_loses_nothing(engine, whois, event_pool):
    pipeline, out = burst(engine, whois, event_pool, "block")
    stats = assert_bounded(pipeline)
    assert stats["submitted"] == BURST
    assert stats["shed"] == 0
    assert stats["enriched"] == BURST == len(out)
    assert stats["queues"]["events"]["rejected"] == 0
    # Lossless ordering: the output is the input, exactly.
    assert [e.event.seq for e in out] == list(range(BURST))


def test_shed_policy_counts_every_drop_exactly_once(engine, whois, event_pool):
    pipeline, out = burst(engine, whois, event_pool, "shed")
    stats = assert_bounded(pipeline)
    assert stats["submitted"] == BURST
    # A 10x+ overload against a 32-slot admission queue must shed.
    assert stats["shed"] > 0
    # The central accounting identity: in == enriched out + shed.
    assert stats["enriched"] + stats["shed"] == BURST
    assert stats["enriched"] == len(out)
    # Every queue rejection is a counted shed, and only admission sheds.
    assert stats["queues"]["events"]["rejected"] == stats["shed"]
    assert stats["queues"]["work"]["rejected"] == 0
    assert stats["queues"]["done"]["rejected"] == 0
    # Survivors pass through exactly once, in admission order.
    seqs = [e.event.seq for e in out]
    assert len(set(seqs)) == len(seqs)
    assert seqs == sorted(seqs)


def test_shed_only_under_pressure(engine, whois, event_pool):
    """The same policy sheds nothing when the pipeline keeps up."""
    source = EventSource(event_pool, EventConfig(seed=37))
    pipeline = EnrichmentPipeline(
        engine, whois=whois, config=EnrichConfig(overload="shed")
    )
    pipeline.start()
    for event in source.take(100):
        pipeline.submit(event)
        time.sleep(0.0005)  # a trickle, far below capacity
    pipeline.drain()
    stats = pipeline.stats()
    assert stats["shed"] == 0 and stats["enriched"] == 100
