"""The two HTTP workloads: ``lookup-zipf`` and ``batch-uniform``.

The server is its own process (``python -m repro serve --snapshots``,
or :mod:`server` for the traced run); the load comes from this process
through :func:`httpload.run_open_loop` on one thread and two keep-alive
connections.  A run boots the server several times (``setup_s`` is the
median time from launch to the first ``/healthz`` 200), warms it up,
holds the fixed rate for :data:`stats.FIXED_SHARE` of ``--seconds`` in
a few back-to-back segments, then spends the rest on the max-rate
search.  Sampled response bodies are checked against the
longest-prefix-match oracle.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import world
from httpload import LoadResult, run_open_loop
from oracle import LpmOracle, check_batch_body, check_lookup_body
from spans import SpanSummary, load_rows
from stats import (
    FIXED_SHARE,
    STEP_S,
    StepResult,
    mean,
    median,
    proc_cpu_s,
    proc_peak_rss_mib,
    search_max_rate,
    tail,
    tail_percentile,
)

BOOTS = 5
WARMUP_S = 0.5
#: The fixed-rate phase runs as this many segments; ``cpu_us_per_op``
#: leaves out the fastest and the slowest, so a burst of slowdown from
#: other tenants of a shared machine does not move the run.
SEGMENTS = 5
BOOT_TIMEOUT_S = 60.0
#: Response bodies checked against the oracle per fixed-rate phase.
CHECKED_BODIES = 120
#: The generator counts as saturated above this share of one CPU.
SATURATED_CPU_SHARE = 0.9
#: Slack for the traced run's ledger checks (ms per request): the handler
#: histogram and the client clock are read by different processes.
LEDGER_SLACK_MS = 0.005


def _split_cpus() -> tuple[set[int], set[int]] | None:
    """One CPU for the server, another for the generator, when there are
    two: neither then runs on the other's core or migrates mid-phase."""
    cpus = sorted(os.sched_getaffinity(0))
    return ({cpus[0]}, {cpus[1]}) if len(cpus) >= 2 else None


CPUS = _split_cpus()


@dataclass(frozen=True)
class ServingSpec:
    name: str
    endpoint: str
    #: Requests per second at the fixed rate.
    rate: float
    #: Addresses per request: the unit of ``max_rate`` and ``cpu_us_per_op``.
    batch: int
    zipf_s: float
    miss: float
    limit_ms: float


LOOKUP = ServingSpec("lookup-zipf", "lookup", 1000.0, 1, 1.1, 0.02, 20.0)
BATCH = ServingSpec("batch-uniform", "batch", 100.0, 64, 0.0, 0.0, 50.0)


class Server:
    """One server process, from launch to a clean SIGINT shutdown."""

    def __init__(self, snapshots: Path, spans_out: Path | None = None):
        serve = ["serve", "--snapshots", str(snapshots), "--port", "0"]
        if spans_out is None:
            self.cmd = [sys.executable, "-m", "repro", *serve]
        else:
            launcher = Path(__file__).resolve().parent / "server.py"
            self.cmd = [sys.executable, str(launcher), str(spans_out), *serve]
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Launch and wait for ``/healthz``; returns the set-up seconds."""
        env = dict(os.environ, PYTHONPATH=str(world.SRC))
        world.CACHE.mkdir(exist_ok=True)
        started = time.perf_counter()
        with open(world.CACHE / "server.stderr", "w") as stderr:
            self.proc = subprocess.Popen(
                self.cmd, cwd=world.ROOT, env=env, stdout=subprocess.PIPE,
                stderr=stderr, text=True,
            )
        if CPUS is not None:
            os.sched_setaffinity(self.proc.pid, CPUS[0])
        deadline = started + BOOT_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(deadline - time.perf_counter()):
                self.stop()
                raise RuntimeError("server printed no banner")
        banner = self.proc.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", banner)
        if match is None:
            self.stop()
            stderr = (world.CACHE / "server.stderr").read_text()[-2000:]
            raise RuntimeError(f"server failed to start: {banner!r} {stderr}")
        self.port = int(match.group(1))
        while time.perf_counter() < deadline:
            try:
                if self.get("/healthz")[0] == 200:
                    return time.perf_counter() - started
            except OSError:
                pass
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("server never became healthy")

    def get(self, path: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def statusz(self) -> dict:
        return json.loads(self.get("/statusz")[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        proc = self.proc
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        finally:
            proc.stdout.close()


class _Traffic:
    """Seeded request streams for one workload."""

    def __init__(self, spec: ServingSpec, indexes, seed: int):
        import random

        self.spec = spec
        pool = world.covered_pool(indexes, random.Random(seed))
        self.stream = world.ZipfStream(pool, seed + 1, spec.zipf_s, spec.miss)
        self.counter = 0

    def payloads(self, count: int, tag: str) -> tuple[list[bytes], list]:
        spec = self.spec
        payloads, inputs = [], []
        for _ in range(count):
            self.counter += 1
            rid = f"{tag}{self.counter}"
            if spec.endpoint == "lookup":
                (ip,) = self.stream.take(1)
                inputs.append(ip)
                payloads.append(
                    f"GET /lookup?ip={ip} HTTP/1.1\r\nHost: bench\r\n"
                    f"X-Request-Id: {rid}\r\n\r\n".encode()
                )
            else:
                ips = self.stream.take(spec.batch)
                inputs.append(ips)
                body = json.dumps({"ips": ips}).encode()
                payloads.append(
                    f"POST /batch HTTP/1.1\r\nHost: bench\r\n"
                    f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
                    f"X-Request-Id: {rid}\r\n\r\n".encode() + body
                )
        return payloads, inputs


def _phase(server: Server, traffic: _Traffic, rate: float, seconds: float,
           tag: str, checked: int = 0):
    count = max(1, round(rate * seconds))
    payloads, inputs = traffic.payloads(count, tag)
    keep = frozenset(range(0, count, max(1, count // checked))) if checked else frozenset()
    cpu_before = proc_cpu_s(server.pid)
    result = run_open_loop(
        "127.0.0.1", server.port, payloads, [i / rate for i in range(count)], keep
    )
    return result, inputs, proc_cpu_s(server.pid) - cpu_before


def _check_bodies(oracle: LpmOracle, spec: ServingSpec, result: LoadResult,
                  inputs: list) -> list[str]:
    check = check_lookup_body if spec.endpoint == "lookup" else check_batch_body
    problems = [
        problem
        for index, body in sorted(result.bodies.items())
        if (problem := check(oracle, inputs[index], body)) is not None
    ]
    if not result.bodies:
        problems.append("no response bodies were captured for checking")
    return problems


def _generator_report(results: list[LoadResult], server_cpu_s: float,
                      spec: ServingSpec) -> dict:
    wall_s = sum(result.wall_s for result in results)
    gen_share = sum(result.client_cpu_s for result in results) / wall_s
    server_share = server_cpu_s / wall_s
    _, lateness = tail([ms for result in results for ms in result.lateness_ms])
    saturated = gen_share > SATURATED_CPU_SHARE or (
        lateness > spec.limit_ms and server_share < SATURATED_CPU_SHARE
    )
    return {"cpu_share": gen_share, "server_cpu_share": server_share,
            "lateness_ms": lateness, "saturated": saturated}


def run(spec: ServingSpec, seed: int, seconds: float, trace: bool) -> dict:
    from repro.serve.snapshot import load_index_set

    snapshots = world.snapshot_dir()
    indexes = load_index_set(snapshots)
    oracle = LpmOracle(indexes)
    traffic = _Traffic(spec, indexes, seed)
    # The oracle and pool stay alive for the whole run: keep the
    # collector from rescanning them between phases.
    gc.collect()
    gc.freeze()
    if CPUS is not None:
        os.sched_setaffinity(0, CPUS[1])
    if trace:
        return _run_traced(spec, snapshots, traffic, oracle, seconds)

    fixed_s = seconds * FIXED_SHARE
    setups = []
    for _ in range(BOOTS - 1):
        server = Server(snapshots)
        setups.append(server.start())
        server.stop()
    server = Server(snapshots)
    setups.append(server.start())
    segments = []
    problems: list[str] = []
    try:
        _phase(server, traffic, spec.rate, WARMUP_S, "w")
        for _ in range(SEGMENTS):
            result, inputs, server_cpu = _phase(
                server, traffic, spec.rate, fixed_s / SEGMENTS, "pb",
                CHECKED_BODIES // SEGMENTS,
            )
            problems += _check_bodies(oracle, spec, result, inputs)
            segments.append((result, server_cpu))
        fixed = [result for result, _cpu in segments]
        # Mean of the middle segments: robust to one slow segment, and
        # finer than one segment's CPU reading (10 ms clock ticks).
        per_segment = sorted(
            cpu / max(1, result.attempted - result.failed) * 1e6
            for result, cpu in segments
        )
        cpu_per_request_us = mean(per_segment[1:-1])
        generator = _generator_report(fixed, sum(cpu for _r, cpu in segments), spec)

        step_notes: list[str] = []

        def step(rate: float) -> StepResult:
            result, _inputs, cpu = _phase(server, traffic, rate, STEP_S, "s")
            report = _generator_report([result], cpu, spec)
            step_notes.append(
                f"{rate:.0f} req/s: tail {tail(result.latencies_ms)[1]:.2f} ms,"
                f" failed {result.failed}, generator cpu {report['cpu_share']:.2f},"
                f" server cpu {report['server_cpu_share']:.2f}"
            )
            return StepResult(rate, result.failed, result.latencies_ms,
                              result.due_s, result.drain_ms)

        steps = max(3, int((seconds - fixed_s) / (STEP_S + 0.2)))
        # One server CPU's worth of requests at the fixed rate's cost.
        capacity = 1e6 / cpu_per_request_us
        best, _history = search_max_rate(
            step, spec.limit_ms, start=max(spec.rate, capacity), steps=steps
        )
        peak_rss = proc_peak_rss_mib(server.pid)
    finally:
        server.stop()

    attempted = sum(result.attempted for result in fixed)
    failed = sum(result.failed for result in fixed)
    latencies = [ms for result in fixed for ms in result.latencies_ms]
    pct, tail_ms = tail(latencies)
    lines = [
        f"fixed {spec.rate:g} req/s x {fixed_s:g} s: {attempted} requests,"
        f" {failed} failed (error_rate {failed / attempted:.6f}),"
        f" p50 {median(latencies):.3f} ms, p{pct:g} {tail_ms:.3f} ms"
        f" (n={len(latencies)}; tail not gated, see README)",
        "server cpu per request by segment (us): "
        + " ".join(f"{us:.1f}" for us in per_segment),
        f"generator: cpu share {generator['cpu_share']:.3f}, lateness"
        f" p{tail_percentile(attempted):g} {generator['lateness_ms']:.3f} ms,"
        f" server cpu share {generator['server_cpu_share']:.3f}",
        *(f"search step {note}" for note in step_notes),
        f"max_rate {best * spec.batch:.1f} {'req' if spec.batch == 1 else 'addr'}/s"
        " (not gated, see README)",
    ]
    if generator["saturated"]:
        lines.append("WARNING: the load generator saturated before the server")
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "lines": lines,
        "metrics": {
            "setup_s": median(setups),
            "p50_ms": median(latencies),
            "cpu_us_per_op": cpu_per_request_us / spec.batch,
            "peak_rss_mib": peak_rss,
            "snapshot_mib": world.snapshot_mib(snapshots),
        },
    }


def _histogram(statusz: dict, name: str, endpoint: str) -> tuple[int, float]:
    for key, summary in statusz["histograms"].items():
        if key.startswith(name + "{") and f"endpoint={endpoint}," in key + ",":
            return summary.get("count", 0), summary.get("sum", 0.0)
    return 0, 0.0


def _counter(statusz: dict, name: str) -> int:
    return sum(
        value for key, value in statusz["counters"].items()
        if key == name or key.startswith(name + "{")
    )


def _run_traced(spec: ServingSpec, snapshots: Path, traffic: _Traffic,
                oracle: LpmOracle, seconds: float) -> dict:
    phase_s = seconds / 2
    server = Server(snapshots)
    server.start()
    try:
        _phase(server, traffic, spec.rate, WARMUP_S, "w")
        plain, _inputs, plain_cpu = _phase(server, traffic, spec.rate, phase_s, "u")
    finally:
        server.stop()
    plain_cpu_us = plain_cpu / max(1, plain.attempted - plain.failed) * 1e6 / spec.batch

    spans_out = world.CACHE / f"spans-{spec.name}.json"
    server = Server(snapshots, spans_out)
    server.start()
    try:
        _phase(server, traffic, spec.rate, WARMUP_S, "w")
        before = server.statusz()
        traced, inputs, traced_cpu = _phase(
            server, traffic, spec.rate, phase_s, "pb", CHECKED_BODIES
        )
        after = server.statusz()
    finally:
        server.stop()
    problems = _check_bodies(oracle, spec, traced, inputs)
    completed = max(1, traced.attempted - traced.failed)
    rows = load_rows(str(spans_out))
    spans_out.unlink()
    boot = SpanSummary(rows, keep=lambda row: row[4] is None)
    summary = SpanSummary(
        rows, keep=lambda row: isinstance(row[4], str) and row[4].startswith("pb")
    )
    requests = max(1, summary.count.get("serve.http.parse_request", 0))
    count_b, sum_b = _histogram(before, "serve.latency_ms", spec.endpoint)
    count_a, sum_a = _histogram(after, "serve.latency_ms", spec.endpoint)
    handler_ms = (sum_a - sum_b) / max(1, count_a - count_b)
    service_ms = mean(traced.service_ms)
    parse_ms = summary.total_ns["serve.http.parse_request"] / requests / 1e6
    # Every other root span is a call the handler made into a layer.
    engine_ms = summary.root_ns / requests / 1e6 - parse_ms
    edge_ms = service_ms - handler_ms
    render_ms = handler_ms - engine_ms
    unattributed_ms = edge_ms - parse_ms
    lookups = _counter(after, "serve.lookups") - _counter(before, "serve.lookups")
    hits = _counter(after, "plane.hits") - _counter(before, "plane.hits")
    generator = _generator_report([traced], traced_cpu, spec)

    layer_self_ms = {
        name: summary.self_ns[name] / requests / 1e6
        for name in summary.count
        if name != "serve.http.parse_request"
    }
    lines = [
        f"ledger per request (ms): service {service_ms:.4f} = header parse"
        f" {parse_ms:.4f} + unattributed edge {unattributed_ms:.4f} + render"
        f" {render_ms:.4f} + "
        + " + ".join(f"{name} {value:.4f}" for name, value in sorted(layer_self_ms.items())),
        f"tracing overhead: {traced_cpu / completed * 1e6 / spec.batch:.2f}"
        f" us/op traced vs {plain_cpu_us:.2f} untraced",
    ]
    # The parts are differences of independent measurements; a negative
    # one means the layers were attributed inconsistently.
    for what, ms in (("render", render_ms), ("unattributed edge", unattributed_ms),
                     ("service - handler", edge_ms)):
        if ms < -LEDGER_SLACK_MS:
            problems.append(f"traced ledger: {what} is {ms:.4f} ms per request")
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": traced.attempted,
        "failed": traced.failed,
        "lines": lines,
        "metrics": {
            "serve.http.service_ms": service_ms,
            "serve.http.handler_ms": handler_ms,
            "serve.http.edge_ms": edge_ms,
            "serve.http.parse_us": parse_ms * 1000.0,
            "serve.http.render_us": render_ms * 1000.0,
            "serve.http.unattributed_share": unattributed_ms / service_ms,
            "net.ip.parse_address_us": summary.mean_self_us("net.ip.parse_address"),
            "serve.engine.lookup_outcome_us": summary.mean_self_us(
                "serve.engine.lookup_outcome"),
            "serve.engine.outcome_batch_us": summary.mean_self_us(
                "serve.engine.outcome_batch") / spec.batch,
            "serve.engine.consensus_of_us": summary.mean_self_us(
                "serve.engine.consensus_of"),
            "serve.engine.plane_hit_ratio": hits / lookups if lookups else 0.0,
            "serve.plane.probe_ns": summary.mean_self_us("serve.plane.probe") * 1000.0,
            "serve.plane.cells": after["plane"]["cells"],
            "serve.plane.intervals": after["plane"]["intervals"],
            "serve.snapshot.load_s": (
                boot.total_ns["serve.snapshot.load_index_set"]
                + boot.total_ns["serve.snapshot.load_plane"]
            ) / 1e9,
            "obs.tracing_overhead": traced_cpu / completed * 1e6 / spec.batch - plain_cpu_us,
            "loadgen.cpu_share": generator["cpu_share"],
            "loadgen.lateness_ms": generator["lateness_ms"],
            "loadgen.saturated": float(generator["saturated"]),
        },
    }
