"""The ``enrich-firehose`` workload, run as its own process.

Usage: ``python perfbench/enrich_child.py SNAPSHOT_DIR SEED SECONDS TRACE OUT_JSON``

Builds the enrichment stack over the cached snapshots (streamed world
for whois, compiled indexes plus answer plane for the engine) several
times to time set-up, then feeds an :class:`EnrichmentPipeline` on an
open-loop schedule.  Event *i* is due at ``epoch + i / rate``; its
latency runs from that due time to the moment the pipeline's public
``sink`` callback receives it, so time the producer spent blocked on a
full queue is charged to the events that waited, not hidden.  The
output stream's digest is checked against a ``whois_workers=1``
reference run over the same events; the stream is hashed after the
pipeline has drained, outside the timed window.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import world  # noqa: E402
from stats import (  # noqa: E402
    FIXED_SHARE,
    STEP_S,
    StepResult,
    mean,
    median,
    proc_cpu_s,
    proc_peak_rss_mib,
    search_max_rate,
    tail,
)

RATE = 2500.0
LIMIT_MS = 50.0
SETUPS = 5
#: Events of the fixed phase whose output is checked against the
#: ``whois_workers=1`` reference.
REFERENCE_EVENTS = 10_000
WARMUP_S = 0.5
SATURATED_CPU_SHARE = 0.9
KINDS = ("traceroute", "flow", "access_log")
KIND_WEIGHTS = (0.1, 0.6, 0.3)


class Stack:
    """Whois, engine and pipeline configuration: the set-up being timed."""

    def __init__(self, snapshots: Path):
        from repro.enrich.pipeline import EnrichConfig
        from repro.net.registry import TeamCymruWhois
        from repro.serve import plane as plane_mod
        from repro.serve import snapshot as snapshot_mod
        from repro.serve.engine import ServingEngine
        from repro.topology.stream import StreamedWorld, StreamTierConfig

        started = time.perf_counter()
        streamed = StreamedWorld.build(
            StreamTierConfig(seed=world.WORLD_SEED, interfaces=world.SERVE_INTERFACES)
        )
        self.whois = TeamCymruWhois(streamed.registry)
        self.indexes = snapshot_mod.load_index_set(snapshots)
        plane = plane_mod.load_plane(snapshots / f"plane{plane_mod.PLANE_SUFFIX}")
        self.engine = ServingEngine(self.indexes, plane=plane)
        self.config = EnrichConfig()
        self.pipeline(self.config, None)
        self.setup_s = time.perf_counter() - started

    def pipeline(self, config, sink):
        from repro.enrich.pipeline import EnrichmentPipeline

        return EnrichmentPipeline(self.engine, whois=self.whois, config=config, sink=sink)


class EventMaker:
    """Seeded firehose events over the covered pool (Zipf s=1.1)."""

    def __init__(self, indexes, seed: int):
        pool = world.covered_pool(indexes, random.Random(seed))
        self.stream = world.ZipfStream(pool, seed + 1, 1.1)
        self.rng = random.Random(seed + 2)

    def take(self, count: int) -> list:
        from repro.enrich.events import Event

        rng = self.rng
        return [
            Event(seq=seq, ts=round(seq / RATE, 6),
                  kind=rng.choices(KINDS, KIND_WEIGHTS)[0], address=address,
                  attrs={"n": rng.randrange(1 << 16)})
            for seq, address in enumerate(self.stream.take(count))
        ]


@dataclass
class Phase:
    events: int
    latencies_ms: list[float]
    #: Due time (s after the epoch) of each entry of ``latencies_ms``.
    due_s: list[float]
    lateness_ms: list[float]
    #: Per event, when ``submit`` returned (perf_counter seconds).
    admitted: list[float]
    failed: int
    cpu_s: float
    producer_cpu_s: float
    wall_s: float
    drain_ms: float
    digest: str
    stats: dict

    def producer(self) -> dict:
        share = self.producer_cpu_s / self.wall_s
        lateness = tail(self.lateness_ms)[1]
        return {"cpu_share": share, "lateness_ms": lateness,
                "saturated": share > SATURATED_CPU_SHARE}


def _thread_cpu_s() -> float:
    return proc_cpu_s(f"self/task/{threading.get_native_id()}")


def _digest(received: list) -> str:
    hasher = hashlib.sha256()
    for enriched in received:
        hasher.update(json.dumps(enriched.to_dict(), sort_keys=True).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def run_phase(stack: Stack, events: list, rate: float | None, config=None,
              digest: int = 0) -> Phase:
    """Offer ``events`` at ``rate`` (``None``: as fast as admitted); the
    phase's ``digest`` covers its first ``digest`` output events."""
    count = len(events)
    emitted = [0.0] * count
    received: list = []
    perf = time.perf_counter

    def sink(enriched) -> None:
        emitted[enriched.event.seq] = perf()
        if len(received) < digest:
            received.append(enriched)

    pipeline = stack.pipeline(config or stack.config, sink).start()
    lateness, dues, admitted = [], [], []
    cpu_before, producer_before = time.process_time(), _thread_cpu_s()
    epoch = perf() + 0.02
    for i, event in enumerate(events):
        due = epoch + i / rate if rate else perf()
        now = perf()
        if due > now:
            time.sleep(due - now)
        lateness.append((perf() - due) * 1000.0)
        dues.append(due)
        pipeline.submit(event)
        admitted.append(perf())
    producer_cpu = _thread_cpu_s() - producer_before
    pipeline.drain()
    cpu_s = time.process_time() - cpu_before
    wall_s = perf() - epoch
    stats = pipeline.stats()
    return Phase(
        events=count,
        latencies_ms=[(done - due) * 1000.0 for done, due in zip(emitted, dues) if done],
        due_s=[due - epoch for done, due in zip(emitted, dues) if done],
        lateness_ms=lateness,
        admitted=admitted,
        failed=stats["shed"] + stats["errors"] + count - stats["enriched"],
        cpu_s=cpu_s,
        producer_cpu_s=producer_cpu,
        wall_s=wall_s,
        drain_ms=max(0.0, (max(emitted) - dues[-1]) * 1000.0),
        digest=_digest(received),
        stats=stats,
    )


def _search(stack: Stack, maker: EventMaker, seconds: float, start: float):
    notes: list[str] = []

    def step(rate: float) -> StepResult:
        result = run_phase(stack, maker.take(round(rate * STEP_S)), rate)
        notes.append(
            f"{rate:.0f} events/s: tail {tail(result.latencies_ms)[1]:.2f} ms,"
            f" failed {result.failed}, drain {result.drain_ms:.1f} ms"
        )
        return StepResult(rate, result.failed, result.latencies_ms,
                          result.due_s, result.drain_ms)

    steps = max(3, int(seconds / (STEP_S + 0.2)))
    best, _history = search_max_rate(step, LIMIT_MS, start, steps)
    return best, notes


def _traced(snapshots: Path, maker: EventMaker, seconds: float,
            plain_cpu_us: float) -> dict:
    """Per-layer metrics from a traced fixed-rate phase."""
    from repro.obs.metrics import MetricsRegistry

    from spans import SpanRecorder, SpanSummary, install_enrich_spans

    recorder = SpanRecorder()
    install_enrich_spans(recorder)
    stack = Stack(snapshots)
    registry = MetricsRegistry()
    stack.whois.attach_metrics(registry)
    stack.engine.attach_metrics(registry)
    phase_start_ns = time.perf_counter_ns()
    phase = run_phase(stack, maker.take(round(RATE * seconds / 2)), RATE)
    rows = recorder.export()
    boot = SpanSummary(rows, keep=lambda row: row[1] < phase_start_ns)
    summary = SpanSummary(rows, keep=lambda row: row[1] >= phase_start_ns)

    # Batches run one at a time in admission order, so batch k resolves
    # the next (its child lookups) events admitted.
    sizes = [0] * len(rows)
    for row in rows:
        if row[3] >= 0 and row[0] == "serve.engine.lookup_outcome":
            sizes[row[3]] += 1
    batches = sorted(
        (row[1], sizes[i]) for i, row in enumerate(rows)
        if row[0] == "serve.engine.outcome_batch" and row[1] >= phase_start_ns
    )
    waits, event = [], 0
    for start_ns, size in batches:
        for admitted in phase.admitted[event : event + size]:
            waits.append(start_ns / 1e6 - admitted * 1000.0)
        event += size

    stats = phase.stats
    queues = stats["queues"]
    queries = registry.counter_total("whois.queries")
    lookups = registry.counter_total("serve.lookups")
    producer = phase.producer()
    loads = max(1, boot.count.get("serve.snapshot.load_index_set", 0))
    return {
        "net.ip.parse_address_us": summary.mean_self_us("net.ip.parse_address"),
        "serve.engine.lookup_outcome_us": summary.mean_self_us(
            "serve.engine.lookup_outcome"),
        "serve.engine.outcome_batch_us": summary.self_ns["serve.engine.outcome_batch"]
        / 1000.0 / max(1, phase.events),
        "serve.engine.consensus_of_us": summary.mean_self_us("serve.engine.consensus_of"),
        "serve.engine.plane_hit_ratio":
            registry.counter_total("plane.hits") / lookups if lookups else 0.0,
        "serve.plane.probe_ns": summary.mean_self_us("serve.plane.probe") * 1000.0,
        "serve.plane.cells": stack.engine.plane_stats()["cells"],
        "serve.plane.intervals": stack.engine.plane_stats()["intervals"],
        "serve.snapshot.load_s": (boot.total_ns["serve.snapshot.load_index_set"]
                                  + boot.total_ns["serve.snapshot.load_plane"]) / loads / 1e9,
        "enrich.queue_wait_ms": mean(waits),
        "enrich.batch_fill": stats["enriched"] / max(1, stats["batches"])
        / stats["batch_size"],
        "enrich.resolve_us": summary.total_ns["serve.engine.outcome_batch"]
        / 1000.0 / max(1, phase.events),
        "enrich.whois_us": summary.mean_total_us("net.registry.whois"),
        "enrich.drift_us": summary.mean_total_us("enrich.drift.inspect"),
        "net.registry.whois_cache_hit_ratio":
            registry.counter_total("whois.cache_hits") / queries if queries else 0.0,
        "enrich.queue_high_water.events": queues["events"]["high_water"],
        "enrich.queue_high_water.work": queues["work"]["high_water"],
        "enrich.queue_high_water.done": queues["done"]["high_water"],
        "enrich.reorder_high_water": stats["reorder_high_water"],
        "enrich.shed": stats["shed"],
        "obs.tracing_overhead": phase.cpu_s / phase.events * 1e6 - plain_cpu_us,
        "loadgen.cpu_share": producer["cpu_share"],
        "loadgen.lateness_ms": producer["lateness_ms"],
        "loadgen.saturated": float(producer["saturated"]),
    }


def main() -> int:
    snapshots, seed, seconds, trace, out = (
        Path(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]),
        sys.argv[4] == "1", Path(sys.argv[5]),
    )
    world.require_program()
    world.pin_to_one_cpu()
    from repro.enrich.pipeline import EnrichConfig

    setup_s = []
    stack = None
    for _ in range(1 if trace else SETUPS):
        stack = None  # one stack in memory at a time: peak RSS is one set-up's
        stack = Stack(snapshots)
        setup_s.append(stack.setup_s)
    maker = EventMaker(stack.indexes, seed)
    run_phase(stack, maker.take(round(RATE * WARMUP_S)), RATE)
    fixed_s = seconds * FIXED_SHARE
    events = maker.take(round(RATE * fixed_s))
    fixed = run_phase(stack, events, RATE, digest=REFERENCE_EVENTS)
    cpu_us = fixed.cpu_s / fixed.events * 1e6
    problems = []
    reference = run_phase(stack, events[:REFERENCE_EVENTS], None,
                          config=EnrichConfig(whois_workers=1), digest=REFERENCE_EVENTS)
    if reference.digest != fixed.digest:
        problems.append("enriched stream differs from the whois_workers=1 reference")
    pct, tail_ms = tail(fixed.latencies_ms)
    producer = fixed.producer()
    lines = [
        f"fixed {RATE:g} events/s x {fixed_s:g} s: {fixed.events} events,"
        f" {fixed.failed} shed or failed (error_rate {fixed.failed / fixed.events:.6f}),"
        f" p50 {median(fixed.latencies_ms):.3f} ms, p{pct:g} {tail_ms:.3f} ms"
        f" (n={len(fixed.latencies_ms)}; tail not gated, see README)",
        f"producer: cpu share {producer['cpu_share']:.3f},"
        f" lateness p{tail(fixed.lateness_ms)[0]:g} {producer['lateness_ms']:.3f} ms,"
        f" pipeline cpu {cpu_us:.1f} us/event",
    ]
    if producer["saturated"]:
        lines.append("WARNING: the producer saturated before the pipeline")
    if trace:
        metrics = _traced(snapshots, maker, seconds, cpu_us)
    else:
        best, notes = _search(stack, maker, seconds - fixed_s, max(RATE, 1e6 / cpu_us))
        lines += [f"search step {note}" for note in notes]
        lines.append(f"max_rate {best:.1f} events/s (not gated, see README)")
        metrics = {
            "setup_s": median(setup_s),
            "p50_ms": median(fixed.latencies_ms),
            "cpu_us_per_op": cpu_us,
            "peak_rss_mib": proc_peak_rss_mib(),
            "snapshot_mib": world.snapshot_mib(snapshots),
        }
    out.write_text(json.dumps({
        "correct": not problems, "problems": problems, "attempted": fixed.events,
        "failed": fixed.failed, "lines": lines, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
