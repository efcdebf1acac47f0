"""Overload soak: a burst far above drain rate loses nothing.

The drain rate is throttled by a deliberately slow whois (every lookup
sleeps), so the burst arrives at well over 10x what the pipeline can
absorb.  ``submit`` enriches each event before it returns, so the
producer pays for every event it offers: nothing is lost, output is in
admission order, and in == enriched out.
"""

import time

from repro.enrich import EnrichmentPipeline, EventConfig, EventSource

BURST = 400
DELAY_S = 0.002


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


def test_block_policy_loses_nothing(engine, whois, event_pool):
    source = EventSource(event_pool, EventConfig(seed=31))
    out = []
    slow = SlowWhois(whois, DELAY_S)
    pipeline = EnrichmentPipeline(engine, whois=slow, sink=out.append)
    pipeline.start()
    started = time.perf_counter()
    for event in source.take(BURST):
        pipeline.submit(event)
    submitting_s = time.perf_counter() - started
    pipeline.drain()

    # Back-pressure: the producer's own clock paid for every slow whois.
    assert slow.calls == BURST
    assert submitting_s >= BURST * DELAY_S
    stats = pipeline.stats()
    assert stats["submitted"] == stats["enriched"] == BURST == len(out)
    # Lossless ordering: the output is the input, exactly.
    assert [e.event.seq for e in out] == list(range(BURST))
