"""Open-loop HTTP replay with coordinated-omission-safe latency.

The driver models an *open* system: request *i* is due at
``epoch + i / rate`` whether or not earlier responses have returned.
This is the property closed-loop benchmarks (one request per connection
at a time, next sent when the previous completes) silently lose — a
server stall makes a closed client *stop offering load*, so the stall
barely appears in its numbers.  That failure mode is coordinated
omission (Tene's term), and the driver avoids it twice over:

* **Scheduling** is open-loop: the schedule is fixed up front from the
  offered rate; a slow response never delays the next request's due
  time, it only makes the sender late.
* **Accounting** measures every latency from the request's *scheduled*
  time, not its actual send time.  A request sent late because the
  worker was stuck behind a stalled response inherits the queueing
  delay in its recorded latency — exactly what a real open client
  would have experienced.  Late requests are sent immediately, never
  skipped.

Mechanics: ``clients`` worker threads each own one persistent
``http.client`` keep-alive connection; worker *k* sends requests
``i ≡ k (mod clients)``, sleeping until each due time.  All recorded
latencies are kept (a few thousand floats) so the quantiles are exact,
not estimates.  After the run the driver scrapes ``/statusz`` so every
report carries the server's own rolling-window view (rps, error rate,
plane hit ratio) next to the client-side measurements — the two
must tell the same story, and the CI replay job asserts they do.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterable, Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import NOOP_TRACER, NoopTracer, Tracer
from urllib.parse import urlsplit

__all__ = ["ReplayConfig", "ReplayReport", "replay"]

#: Lead time between computing the schedule epoch and the first due
#: request — covers worker-thread startup and connection establishment.
_STARTUP_S = 0.25


@dataclass(frozen=True, slots=True)
class ReplayConfig:
    """One replay run: offered rate, duration, concurrency."""

    rate: float = 500.0
    duration_s: float = 5.0
    clients: int = 4
    timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive: {self.rate!r}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive: {self.duration_s!r}")
        if self.clients <= 0:
            raise ValueError(f"clients must be positive: {self.clients!r}")
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive: {self.timeout_s!r}")

    @property
    def total_requests(self) -> int:
        return max(1, round(self.rate * self.duration_s))


@dataclass(frozen=True, slots=True)
class ReplayReport:
    """What one replay run measured, client side and server side."""

    offered_rps: float
    achieved_rps: float
    requests: int
    completed: int
    errors: int
    error_rate: float
    duration_s: float
    clients: int
    #: Coordinated-omission-safe quantiles: measured from each request's
    #: *scheduled* time (keys p50/p90/p99/p999/max/mean).
    latency_ms: dict[str, float]
    #: On-wire quantiles: measured from the actual send — the server's
    #: view, useful to separate service time from scheduling lag.
    service_ms: dict[str, float]
    #: The server's ``/statusz`` rolling-window rates scraped right
    #: after the run (``None`` when scraping was disabled or failed).
    server: dict[str, Any] | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "offered_rps": self.offered_rps,
            "achieved_rps": round(self.achieved_rps, 3),
            "requests": self.requests,
            "completed": self.completed,
            "errors": self.errors,
            "error_rate": round(self.error_rate, 6),
            "duration_s": self.duration_s,
            "clients": self.clients,
            "latency_ms": self.latency_ms,
            "service_ms": self.service_ms,
            "server": self.server,
        }

    def render(self) -> str:
        """A compact human-readable summary (the CLI's default output)."""
        lat = self.latency_ms
        lines = [
            f"replay: offered {self.offered_rps:g} rps × {self.duration_s:g}s"
            f" over {self.clients} clients → achieved {self.achieved_rps:.1f} rps",
            f"  requests {self.requests}  completed {self.completed}"
            f"  errors {self.errors} (rate {self.error_rate:.4f})",
            f"  latency ms (from schedule): p50 {lat['p50']:.3f}"
            f"  p90 {lat['p90']:.3f}  p99 {lat['p99']:.3f}"
            f"  p999 {lat['p999']:.3f}  max {lat['max']:.3f}",
            f"  service ms (on the wire):   p50 {self.service_ms['p50']:.3f}"
            f"  p99 {self.service_ms['p99']:.3f}",
        ]
        if self.server is not None:
            rates = self.server.get("rates", {}).get("10s", {})
            lines.append(
                f"  server 10s window: rps {rates.get('rps', 0.0):.1f}"
                f"  error_rate {rates.get('error_rate', 0.0):.4f}"
                f"  plane_hit {rates.get('plane_hit_ratio', 0.0):.3f}"
            )
        return "\n".join(lines)


def _quantiles(values: list[float]) -> dict[str, float]:
    """Exact quantiles over all recorded values, in milliseconds."""
    if not values:
        return {k: 0.0 for k in ("p50", "p90", "p99", "p999", "max", "mean")}
    ordered = sorted(values)
    last = len(ordered) - 1

    def at(q: float) -> float:
        return ordered[min(last, int(q * len(ordered)))] * 1000.0

    return {
        "p50": round(at(0.50), 3),
        "p90": round(at(0.90), 3),
        "p99": round(at(0.99), 3),
        "p999": round(at(0.999), 3),
        "max": round(ordered[-1] * 1000.0, 3),
        "mean": round(sum(ordered) / len(ordered) * 1000.0, 3),
    }


class _Worker:
    """One keep-alive connection sending its residue class of requests."""

    __slots__ = ("host", "port", "timeout_s", "latencies", "services", "errors", "last_done")

    def __init__(self, host: str, port: int, timeout_s: float):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.latencies: list[float] = []
        self.services: list[float] = []
        self.errors = 0
        self.last_done = 0.0

    def run(
        self, schedule: list[tuple[float, str]], epoch: float
    ) -> None:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        perf = time.perf_counter
        try:
            for due, address in schedule:
                due_at = epoch + due
                now = perf()
                if due_at > now:
                    time.sleep(due_at - now)
                sent = perf()
                try:
                    connection.request("GET", f"/lookup?ip={address}")
                    response = connection.getresponse()
                    response.read()
                    done = perf()
                    if response.status != 200:
                        self.errors += 1
                except (OSError, http.client.HTTPException):
                    # The slot still happened: a failed request keeps its
                    # schedule-relative latency, and the connection is
                    # rebuilt so one refusal can't sink the whole worker.
                    done = perf()
                    self.errors += 1
                    connection.close()
                    connection = http.client.HTTPConnection(
                        self.host, self.port, timeout=self.timeout_s
                    )
                self.latencies.append(done - due_at)
                self.services.append(done - sent)
                self.last_done = done
        finally:
            connection.close()


def _scrape_statusz(host: str, port: int, timeout_s: float) -> dict[str, Any] | None:
    try:
        connection = http.client.HTTPConnection(host, port, timeout=timeout_s)
        try:
            connection.request("GET", "/statusz")
            response = connection.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()
    except (OSError, http.client.HTTPException, ValueError):
        return None
    windows = payload.get("windows", {})
    return {
        "rates": windows.get("rates", {}),
        "plane": payload.get("plane"),
        "generation": payload.get("generation", {}).get("generation"),
    }


def replay(
    url: str,
    addresses: Iterable[str] | Iterator[str],
    config: ReplayConfig | None = None,
    *,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | NoopTracer | None = None,
    scrape: bool = True,
) -> ReplayReport:
    """Replay ``addresses`` against a live server at the offered rate.

    ``addresses`` is typically :meth:`ZipfWorkload.addresses`; a finite
    iterable is cycled if shorter than the run.  The driver consumes
    exactly ``config.total_requests`` addresses up front, so the request
    *content* is deterministic even though timing is not.
    """
    config = config if config is not None else ReplayConfig()
    tracer = tracer if tracer is not None else NOOP_TRACER
    split = urlsplit(url if "//" in url else f"http://{url}")
    if split.hostname is None or split.port is None:
        raise ValueError(f"replay needs an explicit host:port URL: {url!r}")
    host, port = split.hostname, split.port

    total = config.total_requests
    stream = list(islice(iter(addresses), total))
    if not stream:
        raise ValueError("replay needs a non-empty address stream")
    while len(stream) < total:  # cycle a short finite pool
        stream.extend(stream[: total - len(stream)])

    # Fixed open-loop schedule: request i is due at epoch + i/rate,
    # worker k owns residue class i ≡ k (mod clients).
    workers = [_Worker(host, port, config.timeout_s) for _ in range(config.clients)]
    schedules: list[list[tuple[float, str]]] = [[] for _ in range(config.clients)]
    for i, address in enumerate(stream):
        schedules[i % config.clients].append((i / config.rate, address))

    with tracer.span(
        "loadgen.replay",
        rate=config.rate,
        duration_s=config.duration_s,
        clients=config.clients,
        requests=total,
    ) as span:
        epoch = time.perf_counter() + _STARTUP_S
        threads = [
            threading.Thread(
                target=worker.run, args=(schedule, epoch), daemon=True
            )
            for worker, schedule in zip(workers, schedules)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        span.count(total)

    latencies = [value for worker in workers for value in worker.latencies]
    services = [value for worker in workers for value in worker.services]
    errors = sum(worker.errors for worker in workers)
    completed = len(latencies) - errors
    end = max((worker.last_done for worker in workers), default=epoch)
    wall = max(end - epoch, 1e-9)
    achieved = len(latencies) / wall

    if metrics is not None:
        metrics.inc("loadgen.requests", len(latencies))
        metrics.inc("loadgen.errors", errors)
        for value in latencies:
            metrics.observe("loadgen.latency_ms", value * 1000.0)

    server = _scrape_statusz(host, port, config.timeout_s) if scrape else None
    return ReplayReport(
        offered_rps=config.rate,
        achieved_rps=achieved,
        requests=total,
        completed=completed,
        errors=errors,
        error_rate=errors / len(latencies) if latencies else 0.0,
        duration_s=config.duration_s,
        clients=config.clients,
        latency_ms=_quantiles(latencies),
        service_ms=_quantiles(services),
        server=server,
    )
