"""The streaming enrichment pipeline: firehose in, enriched events out.

Topology — one path per overload policy::

      block:  submit() ──▶ enrich on the caller ──▶ sink

      shed:   submit() ──▶ [event queue] ──▶ stage thread ──▶ sink
                                             │ take what has queued
                                             │ (≤ batch_size)

Either way a batch runs ``engine.outcome_batch``, then whois →
consensus → drift per event, in admission order.

**``block`` enriches on the caller.**  Engine, consensus, the in-memory
whois registry and drift are CPU-bound Python that the GIL runs one
thread at a time, so handing an event to another thread buys no
parallelism; it only adds a condition notify, a futex wake and a GIL
hand-over per event — at a few thousand events/s, more than the work
itself.  So under ``block`` ``submit`` enriches its event inline, as a
batch of one, and returns once the sink has it.  There is no queue and
no thread: a slow pipeline backs up into ``submit`` directly, which is
exactly the lossless back-pressure ``block`` promises.

**``shed`` keeps a stage thread with natural batching.**  ``shed``
promises that ``submit`` never waits on work, so it hands each event to
a bounded queue and one stage thread enriches it.  The stage blocks for
the first queued event, then takes whatever else has queued behind it,
up to ``batch_size`` — there is no linger timer.  An idle pipeline
handles a lone event at once; under load, events queue while the
previous batch resolves, so batches grow exactly when the arrival rate
makes them pay.  When the queue is full, ``submit`` refuses the event
and counts it.  ``submitted == enriched + shed`` is an invariant the
soak suite asserts under both policies.

**Determinism by construction.**  Enrichment of one event is a pure
function of the engine/whois state (no wall time is serialized) and
both paths emit in admission order, so the same seed and stream produce
byte-identical enriched output and drift alerts whatever the policy or
the batch boundaries.  Timing only moves latency metrics.

Failure and shutdown: a sink or engine exception (``SystemExit``
included) is recorded as a crash, later events are dropped, and
``drain()`` raises it — on the inline path too, so a bad sink fails
``drain`` rather than ``submit``.  ``KeyboardInterrupt`` on the inline
path propagates from ``submit``, so Ctrl-C stops the producer.  Under
``shed``, ``drain()`` queues a sentinel behind the last event and the
stage exits after the batch it arrives in; a crashed stage keeps taking
(and dropping) events until the sentinel, so neither ``submit`` nor
``drain`` can wedge on a full queue.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.enrich.drift import DriftAlert, DriftDetector
from repro.net.registry import TeamCymruWhois, UnallocatedAddressError, WhoisRecord
from repro.obs.quantiles import BucketHistogram
from repro.serve.engine import ConsensusAnswer, ServingEngine
from repro.serve.errors import ServeError
from repro.serve.index import IndexAnswer

__all__ = [
    "OVERLOAD_POLICIES",
    "BoundedQueue",
    "EnrichConfig",
    "EnrichReport",
    "EnrichedEvent",
    "EnrichmentPipeline",
]

#: Admission behaviour when the event queue is full.
OVERLOAD_POLICIES = ("block", "shed")

#: Queue sentinel marking end-of-stream (identity-compared, never equal
#: to a payload).
_STOP = object()


class BoundedQueue:
    """A bounded FIFO hand-off with exact accounting.

    ``queue.Queue`` hides its high-water mark; this one tracks depth,
    high water, puts, and rejections under the same lock that guards the
    deque, so ``stats()`` is an exact census rather than a race.  The
    soak suite's "queues never exceed configured bounds" assertion reads
    ``high_water`` straight from here.
    """

    def __init__(self, capacity: int, name: str = "queue"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        self.capacity = capacity
        self.name = name
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._high_water = 0
        self._puts = 0
        self._rejected = 0

    def put(self, item: Any, *, block: bool = True) -> bool:
        """Enqueue; ``False`` (and a rejection count) iff non-blocking
        on a full queue."""
        with self._lock:
            if not block and len(self._items) >= self.capacity:
                self._rejected += 1
                return False
            while len(self._items) >= self.capacity:
                self._not_full.wait()
            self._items.append(item)
            depth = len(self._items)
            if depth > self._high_water:
                self._high_water = depth
            self._puts += 1
            self._not_empty.notify()
            return True

    def take(self, limit: int) -> list:
        """Block until an item is queued, then dequeue everything that
        has queued, up to ``limit`` items, in FIFO order — never waiting
        for more to arrive."""
        with self._lock:
            items = self._items
            while not items:
                self._not_empty.wait()
            taken = [items.popleft() for _ in range(min(limit, len(items)))]
            self._not_full.notify(len(taken))
            return taken

    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def high_water(self) -> int:
        with self._lock:
            return self._high_water

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "depth": len(self._items),
                "high_water": self._high_water,
                "puts": self._puts,
                "rejected": self._rejected,
            }


@dataclass(frozen=True, slots=True)
class EnrichConfig:
    """Pipeline shape: batch cap, admission bound, overload policy.

    ``batch_size`` and ``event_queue`` shape the ``shed`` stage; under
    ``block`` every event is enriched inline as a batch of one.
    """

    batch_size: int = 64
    event_queue: int = 2048
    #: Inert: whois runs inline with the rest of the batch.  Kept, and
    #: validated, because the benchmark's reference run still builds
    #: ``EnrichConfig(whois_workers=1)``.
    whois_workers: int = 2
    overload: str = "block"

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {self.batch_size!r}")
        if self.event_queue < 1:
            raise ValueError(f"event_queue must be >= 1: {self.event_queue!r}")
        if self.whois_workers < 1:
            raise ValueError(f"whois_workers must be >= 1: {self.whois_workers!r}")
        if self.overload not in OVERLOAD_POLICIES:
            raise ValueError(
                f"overload must be one of {OVERLOAD_POLICIES}: {self.overload!r}"
            )


def _whois_to_json(record: WhoisRecord) -> dict[str, Any]:
    return {
        "asn": record.asn,
        "bgp_prefix": str(record.bgp_prefix),
        "country": record.country,
        "registry": record.registry.value,
        "organization": record.organization,
    }


@dataclass(frozen=True, slots=True)
class EnrichedEvent:
    """One firehose event with everything the pipeline learned about it.

    ``error`` is set (and the geo fields emptied) when the serving layer
    returned a typed error for this address — the event still flows
    through so the in == out + shed accounting holds.
    """

    event: Any
    answers: Mapping[str, IndexAnswer | None]
    consensus: ConsensusAnswer | None
    whois: WhoisRecord | None
    degraded: bool
    unavailable: tuple[str, ...]
    alerts: tuple[DriftAlert, ...] = ()
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form, free of wall-clock state — the unit the
        determinism suite compares byte-for-byte across worker counts."""
        return {
            "event": self.event.to_dict(),
            "answers": {
                vendor: (None if answer is None else answer.to_dict())
                for vendor, answer in sorted(self.answers.items())
            },
            "consensus": (
                None if self.consensus is None else self.consensus.to_dict()
            ),
            "whois": None if self.whois is None else _whois_to_json(self.whois),
            "degraded": self.degraded,
            "unavailable": list(self.unavailable),
            "alerts": [alert.to_dict() for alert in self.alerts],
            "error": self.error,
        }


@dataclass(slots=True)
class EnrichReport:
    """The ``repro enrich`` run summary (CLI ``--json`` payload)."""

    policy: str
    offered: int
    enriched: int
    shed: int
    errors: int
    alerts: int
    suppressed: int
    batches: int
    duration_s: float
    offered_rate: float | None
    achieved_eps: float
    latency_ms: dict[str, float]
    queues: dict[str, dict[str, int]]
    drift: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "offered": self.offered,
            "enriched": self.enriched,
            "shed": self.shed,
            "errors": self.errors,
            "alerts": self.alerts,
            "suppressed": self.suppressed,
            "batches": self.batches,
            "duration_s": round(self.duration_s, 3),
            "offered_rate": self.offered_rate,
            "achieved_eps": round(self.achieved_eps, 1),
            "latency_ms": self.latency_ms,
            "queues": self.queues,
            "drift": self.drift,
        }

    def render(self) -> str:
        lines = [
            "enrichment firehose",
            f"  policy {self.policy} · {self.duration_s:.1f}s",
            f"  offered {self.offered} · enriched {self.enriched} · "
            f"shed {self.shed} · errors {self.errors}",
            f"  achieved {self.achieved_eps:,.0f} events/s"
            + (f" (offered {self.offered_rate:,.0f}/s)" if self.offered_rate else ""),
            f"  e2e latency ms p50={self.latency_ms.get('p50', 0.0):g} "
            f"p99={self.latency_ms.get('p99', 0.0):g}",
            f"  drift alerts {self.alerts} · suppressed {self.suppressed}",
        ]
        for name, stats in self.queues.items():
            lines.append(
                f"  queue {name}: high-water {stats['high_water']}/"
                f"{stats['capacity']} · rejected {stats['rejected']}"
            )
        return "\n".join(lines)


class EnrichmentPipeline:
    """Enrichment inline on the caller (``block``) or on one
    natural-batching stage thread (``shed``).

    Single-producer: exactly one thread may call :meth:`submit` /
    :meth:`run` (admission order *is* output order, so admission must be
    a sequence).  Under ``block`` the sink runs on that thread.

    Lifecycle is one-shot: :meth:`start`, submit events, :meth:`drain`.
    :meth:`run` wraps all three around an event iterable with optional
    open-loop pacing.
    """

    def __init__(
        self,
        engine: ServingEngine,
        *,
        whois: TeamCymruWhois | None = None,
        config: EnrichConfig | None = None,
        detector: DriftDetector | None = None,
        metrics=None,
        sink: Callable[[EnrichedEvent], None] | None = None,
    ):
        self.engine = engine
        self.whois = whois
        self.config = config = config if config is not None else EnrichConfig()
        self.detector = (
            detector
            if detector is not None
            else DriftDetector(city_range_km=engine.city_range_km, metrics=metrics)
        )
        self._metrics = metrics
        self._sink = sink
        self._events = BoundedQueue(config.event_queue, "events")
        self._thread: threading.Thread | None = None
        self._crash: BaseException | None = None
        self._started = False
        self._drained = False
        # Counters below are single-writer each (the submitting thread or
        # the shed stage), so plain ints are exact.
        self.submitted = 0
        self.shed = 0
        self.enriched = 0
        self.errors = 0
        self.batches = 0
        self._taken = 0
        self._in_hand = 0
        self._largest_batch = 0
        self.latency_ms = BucketHistogram()
        if metrics is not None:
            metrics.track_window("enrich_enriched", "enrich.enriched", horizon_s=60)
            metrics.track_window("enrich_shed", "enrich.shed", horizon_s=60)
            events = self._events
            metrics.register_gauge("enrich.queue_depth", events.depth, queue="events")
            metrics.register_gauge(
                "enrich.queue_high_water", lambda: events.high_water, queue="events"
            )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "EnrichmentPipeline":
        if self._started:
            raise RuntimeError("pipeline already started")
        self._started = True
        if self.config.overload == "shed":
            self._thread = threading.Thread(
                target=self._stage_loop, name="enrich-stage", daemon=True
            )
            self._thread.start()
        return self

    def submit(self, event) -> bool:
        """Admit one event; ``False`` means it was shed (policy
        ``shed``, event queue full) and counted.

        Under ``block`` the event is enriched before this returns.
        """
        if not self._started or self._drained:
            raise RuntimeError("pipeline not running")
        self.submitted += 1
        if self._thread is None:
            admitted = time.perf_counter()
            if self._metrics is not None:
                self._metrics.inc("enrich.events")
            if self._crash is None:
                try:
                    self._enrich([(admitted, event)])
                except KeyboardInterrupt:
                    raise
                except BaseException as exc:  # noqa: BLE001 - surfaces from drain()
                    self._crash = exc
            return True
        accepted = self._events.put((time.perf_counter(), event), block=False)
        if accepted:
            if self._metrics is not None:
                self._metrics.inc("enrich.events")
        else:
            self.shed += 1
            if self._metrics is not None:
                self._metrics.inc("enrich.shed")
        return accepted

    def drain(self, timeout_s: float = 60.0) -> None:
        """Flush everything in flight and stop the pipeline.

        Under ``block`` nothing is in flight once ``submit`` returns, so
        this only raises a recorded crash.  Under ``shed`` it stops the
        stage thread first.  Raises if enrichment crashed or the stage
        failed to stop — a wedged pipeline must fail the test that built
        it, not hang it.
        """
        if not self._started:
            raise RuntimeError("pipeline never started")
        if self._drained:
            return
        self._drained = True
        thread = self._thread
        if thread is not None:
            self._events.put(_STOP)  # always blocking: shutdown is not load
            thread.join(timeout_s)
            if thread.is_alive():
                raise RuntimeError("enrichment stage failed to drain")
        if self._crash is not None:
            raise RuntimeError(
                f"enrichment stage crashed: {self._crash!r}"
            ) from self._crash

    def run(
        self,
        events: Iterable,
        *,
        rate: float | None = None,
        duration_s: float | None = None,
        max_events: int | None = None,
    ) -> EnrichReport:
        """Start, pump ``events`` (open-loop paced at ``rate`` if given),
        drain, and report.

        ``max_events`` bounds the count directly; with ``rate`` and
        ``duration_s`` the count is ``rate * duration_s`` so a paced run
        offers a fixed workload rather than a fixed wall time (open-loop:
        a slow pipeline faces the full offered load, not a politely
        throttled one).
        """
        limit = max_events
        if limit is None and rate is not None and duration_s is not None:
            limit = int(rate * duration_s)
        if limit is None and duration_s is None:
            raise ValueError("need max_events, duration_s, or rate+duration_s")
        self.start()
        started = time.perf_counter()
        count = 0
        for event in events:
            if limit is not None and count >= limit:
                break
            if rate is not None:
                target = started + count / rate
                now = time.perf_counter()
                if now < target:
                    time.sleep(target - now)
            elif duration_s is not None and time.perf_counter() - started >= duration_s:
                break
            self.submit(event)
            count += 1
        self.drain()
        duration = time.perf_counter() - started
        return self.report(duration_s=duration, offered_rate=rate)

    # -- enrichment ----------------------------------------------------------

    def _stage_loop(self) -> None:
        take, limit = self._events.take, self.config.batch_size
        stopped = False
        try:
            while not stopped:
                batch = take(limit)
                if batch[-1] is _STOP:  # the sentinel is always queued last
                    batch.pop()
                    stopped = True
                if batch:
                    self._enrich(batch)
        except BaseException as exc:  # noqa: BLE001 - the stage must report, not vanish
            self._crash = exc
        finally:
            while not stopped:  # keep submit() and drain() from wedging
                stopped = take(limit)[-1] is _STOP

    def _enrich(self, batch: list[tuple[float, Any]]) -> None:
        size = len(batch)
        self.batches += 1
        self._taken += size
        self._in_hand = size
        if size > self._largest_batch:
            self._largest_batch = size
        engine = self.engine
        # Fetched before the lookups: a swap mid-batch can then only put
        # newer cells into an older generation's table, never the reverse.
        cells = self.detector.cell_verdicts(engine.generation_memo())
        outcomes = engine.outcome_batch([event.address for _, event in batch])
        if self._metrics is not None:
            self._metrics.inc("enrich.batches")
            self._metrics.observe("enrich.batch_size", size)
        for (admitted, event), outcome in zip(batch, outcomes):
            self._emit(admitted, event, outcome, cells)
        self._in_hand = 0

    def _emit(self, admitted: float, event, outcome, cells: dict) -> None:
        if isinstance(outcome, ServeError):
            answers, degraded, unavailable = {}, True, ()
            consensus = record = None
            error: str | None = f"{type(outcome).__name__}: {outcome}"
        else:
            answers, degraded = outcome.answers, outcome.degraded
            unavailable = outcome.unavailable()
            record = None
            if self.whois is not None:
                try:
                    record = self.whois.lookup(outcome.address)
                except UnallocatedAddressError:
                    pass
                except Exception as exc:  # noqa: BLE001 - one bad event must not kill the stream
                    record = exc
            try:
                consensus = self.engine.consensus_of(outcome)
            except Exception as exc:  # noqa: BLE001 - one bad event must not kill the stream
                consensus, record = None, exc
            error = None
            if isinstance(record, Exception):
                error = f"{type(record).__name__}: {record}"
                consensus = record = None
        enriched = EnrichedEvent(
            event=event,
            answers=answers,
            consensus=consensus,
            whois=record,
            degraded=degraded,
            unavailable=unavailable,
            alerts=(
                ()
                if consensus is None
                else self.detector.inspect(event.seq, outcome, consensus, cells)
            ),
            error=error,
        )
        latency_ms = (time.perf_counter() - admitted) * 1000.0
        self.latency_ms.observe(latency_ms)
        self.enriched += 1
        if error is not None:
            self.errors += 1
        if self._metrics is not None:
            self._metrics.inc("enrich.enriched")
            self._metrics.observe("enrich.event_latency_ms", latency_ms)
            if error is not None:
                self._metrics.inc("enrich.errors")
        if self._sink is not None:
            self._sink(enriched)

    # -- observability -------------------------------------------------------

    def _queues(self) -> dict[str, dict[str, int]]:
        """The event queue's census (no puts and a high water of 0
        under ``block``, which queues nothing), plus the in-hand batch
        under the names ``work`` and ``done`` that the benchmark ledger
        still reads."""
        in_hand = {
            "capacity": self.config.batch_size,
            "depth": self._in_hand,
            "high_water": self._largest_batch,
            "puts": self._taken,
            "rejected": 0,
        }
        return {"events": self._events.stats(), "work": in_hand, "done": dict(in_hand)}

    def stats(self) -> dict[str, Any]:
        """``/statusz``-style block: policy, accounting, queue census,
        latency quantiles, drift summary, engine degradation."""
        return {
            "policy": self.config.overload,
            "batch_size": self.config.batch_size,
            "submitted": self.submitted,
            "shed": self.shed,
            "enriched": self.enriched,
            "errors": self.errors,
            "batches": self.batches,
            "queues": self._queues(),
            # Read by the benchmark ledger; nothing is reordered, so 0.
            "reorder_high_water": 0,
            "latency_ms": self.latency_ms.quantiles() if self.latency_ms.count else {},
            "drift": self.detector.stats(),
            "degraded_vendors": list(self.engine.degraded_vendors()),
        }

    def report(
        self, *, duration_s: float, offered_rate: float | None = None
    ) -> EnrichReport:
        drift = self.detector.stats()
        return EnrichReport(
            policy=self.config.overload,
            offered=self.submitted,
            enriched=self.enriched,
            shed=self.shed,
            errors=self.errors,
            alerts=drift["alerts"],
            suppressed=drift["suppressed"],
            batches=self.batches,
            duration_s=duration_s,
            offered_rate=offered_rate,
            achieved_eps=self.enriched / duration_s if duration_s > 0 else 0.0,
            latency_ms=self.latency_ms.quantiles() if self.latency_ms.count else {},
            queues=self._queues(),
            drift=drift,
        )
