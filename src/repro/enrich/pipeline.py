"""The streaming enrichment pipeline: firehose in, enriched events out.

Topology::

    submit() ──▶ on the caller: engine.outcome_batch([event])
                 → whois → consensus → drift → sink

**Enrichment runs on the caller.**  Engine, consensus, the in-memory
whois registry and drift are CPU-bound Python that the GIL runs one
thread at a time, so handing an event to another thread buys no
parallelism; it only adds a condition notify, a futex wake and a GIL
hand-over per event — at a few thousand events/s, more than the work
itself.  So ``submit`` enriches its event inline and returns once the
sink has it.  There is no queue and no thread: a slow pipeline backs up
into ``submit`` directly, which is lossless back-pressure by
construction, and output order is admission order.

**Determinism by construction.**  Enrichment of one event is a pure
function of the engine/whois state (no wall time is serialized), so the
same seed and stream produce byte-identical enriched output and drift
alerts.  Timing only moves latency metrics.

Failure: a sink or engine exception (``SystemExit`` included) is
recorded as a crash, later events are dropped, and ``drain()`` raises
it, so a bad sink fails ``drain`` rather than ``submit``.
``KeyboardInterrupt`` propagates from ``submit``, so Ctrl-C stops the
producer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.enrich.drift import DriftAlert, DriftDetector
from repro.net.registry import TeamCymruWhois, UnallocatedAddressError, WhoisRecord
from repro.obs.quantiles import BucketHistogram
from repro.serve.engine import ConsensusAnswer, ServingEngine
from repro.serve.errors import ServeError
from repro.serve.index import IndexAnswer

__all__ = [
    "EnrichConfig",
    "EnrichReport",
    "EnrichedEvent",
    "EnrichmentPipeline",
]


@dataclass(frozen=True, slots=True)
class EnrichConfig:
    """Pipeline settings.

    ``whois_workers`` is inert: whois runs inline with the rest of the
    event.  Kept, and validated, because the benchmark's reference run
    still builds ``EnrichConfig(whois_workers=1)``.
    """

    whois_workers: int = 2

    def __post_init__(self) -> None:
        if self.whois_workers < 1:
            raise ValueError(f"whois_workers must be >= 1: {self.whois_workers!r}")


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
    through, so every submitted event comes out exactly once.
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
        determinism suite compares byte-for-byte across runs."""
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

    offered: int
    enriched: int
    errors: int
    alerts: int
    suppressed: int
    duration_s: float
    offered_rate: float | None
    achieved_eps: float
    latency_ms: dict[str, float]
    drift: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "offered": self.offered,
            "enriched": self.enriched,
            "errors": self.errors,
            "alerts": self.alerts,
            "suppressed": self.suppressed,
            "duration_s": round(self.duration_s, 3),
            "offered_rate": self.offered_rate,
            "achieved_eps": round(self.achieved_eps, 1),
            "latency_ms": self.latency_ms,
            "drift": self.drift,
        }

    def render(self) -> str:
        return "\n".join([
            f"enrichment firehose · {self.duration_s:.1f}s",
            f"  offered {self.offered} · enriched {self.enriched} · "
            f"errors {self.errors}",
            f"  achieved {self.achieved_eps:,.0f} events/s"
            + (f" (offered {self.offered_rate:,.0f}/s)" if self.offered_rate else ""),
            f"  e2e latency ms p50={self.latency_ms.get('p50', 0.0):g} "
            f"p99={self.latency_ms.get('p99', 0.0):g}",
            f"  drift alerts {self.alerts} · suppressed {self.suppressed}",
        ])


class EnrichmentPipeline:
    """Enrichment inline on the submitting thread.

    Single-producer: exactly one thread may call :meth:`submit` /
    :meth:`run` (admission order *is* output order, so admission must be
    a sequence).  The sink runs on that thread.

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
        self.config = config if config is not None else EnrichConfig()
        self.detector = (
            detector
            if detector is not None
            else DriftDetector(city_range_km=engine.city_range_km, metrics=metrics)
        )
        self._metrics = metrics
        self._sink = sink
        self._crash: BaseException | None = None
        self._started = False
        self._drained = False
        # Written only by the submitting thread, so plain ints are exact.
        self.submitted = 0
        self.enriched = 0
        self.errors = 0
        self.latency_ms = BucketHistogram()
        if metrics is not None:
            metrics.track_window("enrich_enriched", "enrich.enriched", horizon_s=60)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "EnrichmentPipeline":
        if self._started:
            raise RuntimeError("pipeline already started")
        self._started = True
        return self

    def submit(self, event) -> bool:
        """Admit one event and enrich it before returning ``True``."""
        if not self._started or self._drained:
            raise RuntimeError("pipeline not running")
        self.submitted += 1
        admitted = time.perf_counter()
        if self._metrics is not None:
            self._metrics.inc("enrich.events")
        if self._crash is None:
            try:
                self._enrich(admitted, event)
            except KeyboardInterrupt:
                raise
            except BaseException as exc:  # noqa: BLE001 - surfaces from drain()
                self._crash = exc
        return True

    def drain(self) -> None:
        """Stop the pipeline.

        Nothing is in flight once ``submit`` returns, so this only
        raises a recorded crash — a broken pipeline must fail the run
        that built it.
        """
        if not self._started:
            raise RuntimeError("pipeline never started")
        if self._drained:
            return
        self._drained = True
        if self._crash is not None:
            raise RuntimeError(f"enrichment crashed: {self._crash!r}") from self._crash

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

    def _enrich(self, admitted: float, event) -> None:
        engine = self.engine
        # Fetched before the lookup: a swap in between can then only put
        # newer cells into an older generation's table, never the reverse.
        cells = self.detector.cell_verdicts(engine.generation_memo())
        # A batch of one hands back a serving error as a value, not a raise.
        (outcome,) = engine.outcome_batch([event.address])
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

    def stats(self) -> dict[str, Any]:
        """``/statusz``-style block: accounting, latency quantiles, drift
        summary, engine degradation."""
        in_hand = {
            "capacity": 1, "depth": 0, "high_water": 1, "puts": self.enriched,
            "rejected": 0,
        }
        return {
            "submitted": self.submitted,
            "enriched": self.enriched,
            "errors": self.errors,
            "latency_ms": self.latency_ms.quantiles() if self.latency_ms.count else {},
            "drift": self.detector.stats(),
            "degraded_vendors": list(self.engine.degraded_vendors()),
            # Read by ``perfbench/enrich_child.py``; the benchmark change
            # (ROADMAP item 1) drops them.  Nothing is shed, queued or
            # reordered, and every event is a batch of one.
            "shed": 0,
            "batch_size": 1,
            "batches": self.enriched,
            "reorder_high_water": 0,
            "queues": {
                "events": {
                    "capacity": 2048, "depth": 0, "high_water": 0, "puts": 0,
                    "rejected": 0,
                },
                "work": in_hand,
                "done": in_hand,
            },
        }

    def report(
        self, *, duration_s: float, offered_rate: float | None = None
    ) -> EnrichReport:
        drift = self.detector.stats()
        return EnrichReport(
            offered=self.submitted,
            enriched=self.enriched,
            errors=self.errors,
            alerts=drift["alerts"],
            suppressed=drift["suppressed"],
            duration_s=duration_s,
            offered_rate=offered_rate,
            achieved_eps=self.enriched / duration_s if duration_s > 0 else 0.0,
            latency_ms=self.latency_ms.quantiles() if self.latency_ms.count else {},
            drift=drift,
        )
