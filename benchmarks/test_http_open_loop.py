"""Open-loop HTTP load against a live server, plus the HTTP hot-path win.

The serving numbers elsewhere in this suite time Python callables; this
benchmark measures the only thing a user ever sees — HTTP round trips —
by sending seeded Zipf traffic at a fixed offered rate to a real
:class:`GeoServer` through ``perfbench/httpload.py`` (the repo's one
open-loop, coordinated-omission-safe driver: requests go out on a fixed
schedule over two pipelined keep-alive connections, and every latency
is measured from its due time).  Latency quantiles, achieved throughput
and the server's own ``/statusz`` view of the same window land in the
``http_open_loop`` block of ``BENCH_pipeline.json``.

It also pins a measured hot-path fix: the old response path re-encoded
the status line, ``Server`` and ``Date`` headers per request and flushed
headers and body as two socket writes (the second of which could stall
~40 ms behind Nagle + delayed ACK on keep-alive connections).  The new
path assembles the head from precomputed fragments — ``Date``
re-rendered at most once a second — and sends one write.  A faithful
replica of the old per-request encoding is timed against the new
``_response_head`` so the before/after nanoseconds land in the bench
block next to the load profile they improved.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
import urllib.request
from email.utils import formatdate
from http import HTTPStatus

from repro.loadgen import WorkloadConfig, ZipfWorkload, covered_pool
from repro.serve import CompiledIndex, ServingEngine, compile_plane
from repro.serve.http import GeoServer, _response_head

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import httpload  # noqa: E402

#: Offered load for the profile run — modest enough for CI boxes, high
#: enough that scheduling and keep-alive behaviour actually matter.
RATE_RPS = 400.0
DURATION_S = 4.0

#: Hot-path microbench iterations (one iteration = one response head).
HEAD_ITERATIONS = 20_000


def _legacy_response_head(
    status: int,
    content_type: str,
    body_length: int,
    trace_id: str | None = None,
) -> bytes:
    """What the pre-fix path did per response: the stdlib
    ``send_response``/``send_header`` encoding sequence, every line a
    fresh %-format + ``encode`` and the ``Date`` header re-rendered from
    the clock each call."""
    buffer = [
        ("HTTP/1.1 %d %s\r\n" % (status, HTTPStatus(status).phrase)).encode(
            "latin-1", "strict"
        ),
        ("%s: %s\r\n" % ("Server", "repro-serve/1")).encode("latin-1", "strict"),
        ("%s: %s\r\n" % ("Date", formatdate(time.time(), usegmt=True))).encode(
            "latin-1", "strict"
        ),
        ("%s: %s\r\n" % ("Content-Type", content_type)).encode("latin-1", "strict"),
        ("%s: %s\r\n" % ("Content-Length", body_length)).encode("latin-1", "strict"),
    ]
    if trace_id is not None:
        buffer.append(
            ("%s: %s\r\n" % ("X-Request-Id", trace_id)).encode("latin-1", "strict")
        )
    buffer.append(b"\r\n")
    return b"".join(buffer)


def _time_heads(build) -> float:
    started = time.perf_counter()
    for i in range(HEAD_ITERATIONS):
        build(200, "application/json", 512 + (i & 63), "bench-trace-id")
    return time.perf_counter() - started


def _quantiles(values: list[float]) -> dict[str, float]:
    """Exact quantiles (ms) over every recorded latency; percentile *q*
    is ``sorted[min(n - 1, int(q * n))]``."""
    ordered = sorted(values)
    last = len(ordered) - 1

    def at(q: float) -> float:
        return round(ordered[min(last, int(q * len(ordered)))], 3)

    return {
        "p50": at(0.50),
        "p90": at(0.90),
        "p99": at(0.99),
        "p999": at(0.999),
        "max": round(ordered[-1], 3),
        "mean": round(sum(ordered) / len(ordered), 3),
    }


def test_http_open_loop_profile(scenario, record_perf):
    indexes = {
        name: CompiledIndex.compile(database)
        for name, database in sorted(scenario.databases.items())
    }
    plane = compile_plane(indexes)
    engine = ServingEngine(indexes, plane=plane)
    server = GeoServer(engine)
    server.start_background()
    try:
        workload = ZipfWorkload(
            covered_pool(indexes),
            WorkloadConfig(seed=2016, zipf_s=1.1, miss_fraction=0.02),
        )
        requests = round(RATE_RPS * DURATION_S)
        payloads = [
            f"GET /lookup?ip={address} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
            for address in workload.take(requests)
        ]
        result = httpload.run_open_loop(
            "127.0.0.1",
            server.port,
            payloads,
            [i / RATE_RPS for i in range(requests)],
        )
        with urllib.request.urlopen(server.url + "/statusz", timeout=10) as response:
            statusz = json.load(response)
    finally:
        server.stop()
    completed = result.attempted - result.failed
    achieved_rps = completed / result.wall_s
    latency_ms = _quantiles(result.latencies_ms)

    # The head microbench: identical output shape, then speed.  The new
    # head differs from the legacy bytes only when the cached Date line
    # is from an earlier second, so compare on a fresh second boundary.
    new_head = _response_head(200, "application/json", 512, "bench-trace-id")
    legacy_head = _legacy_response_head(200, "application/json", 512, "bench-trace-id")
    if new_head != legacy_head:  # date rolled between the two renders
        new_head = _response_head(200, "application/json", 512, "bench-trace-id")
        legacy_head = _legacy_response_head(
            200, "application/json", 512, "bench-trace-id"
        )
    assert new_head == legacy_head
    legacy_s = min(_time_heads(_legacy_response_head) for _ in range(3))
    new_s = min(_time_heads(_response_head) for _ in range(3))
    head_speedup = legacy_s / new_s

    rates = statusz["windows"]["rates"]
    record_perf(
        "http_open_loop",
        {
            "offered_rps": RATE_RPS,
            "achieved_rps": round(achieved_rps, 3),
            "requests": result.attempted,
            "completed": completed,
            "errors": result.failed,
            "duration_s": DURATION_S,
            "connections": httpload.CONNECTIONS,
            "latency_ms": latency_ms,
            "service_ms": _quantiles(result.service_ms),
            "server": {"rates": rates, "plane": statusz.get("plane")},
            "zipf_s": 1.1,
            "miss_fraction": 0.02,
            "pool": len(workload.pool),
            "http_head_hot_path": {
                "iterations": HEAD_ITERATIONS,
                "legacy_ns_per_head": round(legacy_s / HEAD_ITERATIONS * 1e9, 1),
                "precomputed_ns_per_head": round(new_s / HEAD_ITERATIONS * 1e9, 1),
                "speedup": round(head_speedup, 2),
            },
        },
    )

    # Regression gates.  A driver that cannot keep up, any failed
    # request, or a p99 in coordinated-omission territory all mean the
    # serving stack (or the driver) regressed.
    assert result.failed == 0, result.failed
    assert achieved_rps >= 0.7 * RATE_RPS, achieved_rps
    assert latency_ms["p99"] <= 250.0, latency_ms
    # The healthy path must stay on the plane, and the server's own
    # window must agree with what the client sent: the whole run fits
    # inside the 10s window, so rps × 10 is the window's request total.
    window = rates["10s"]
    assert window["error_rate"] == 0.0, window
    assert window["plane_hit_ratio"] >= 0.9, window
    server_requests = window["rps"] * 10.0
    assert abs(server_requests - result.attempted) / result.attempted < 0.25, (
        server_requests,
        result.attempted,
    )
    # The header fix must stay a measured win, not a refactor.
    assert head_speedup >= 1.2, (legacy_s, new_s)
