"""Self-tests for the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

from httpload import run_open_loop  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from oracle import LpmOracle, check_batch_body, check_lookup_body  # noqa: E402
from spans import SpanRecorder, SpanSummary  # noqa: E402
from stats import (  # noqa: E402
    StepResult,
    parse_stat_cpu_s,
    parse_status_kib,
    proc_cpu_s,
    search_max_rate,
    tail,
    tail_percentile,
    windowed_tail,
)


# -- the percentile rule ------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0  # 10 beyond p99
    assert tail_percentile(999) == 90.0  # only 9 beyond p99
    assert tail_percentile(100) == 90.0  # 10 beyond p90
    assert tail_percentile(99) == 50.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) == 50.0  # too few for any tail: the median


def test_tail_value_is_nearest_rank():
    values = list(range(1, 1001))  # 1..1000
    assert tail(values) == (99.0, 990)
    assert tail(values[:100]) == (90.0, 90)
    assert tail([5.0, 1.0, 3.0]) == (50.0, 3.0)


def test_windowed_tail_is_the_median_window():
    # Three half-second windows of 1000 samples; one of them stalls.
    latencies, dues = [], []
    for window, scale in enumerate((1.0, 50.0, 2.0)):
        for i in range(1000):
            latencies.append((i + 1) / 1000.0 * scale)
            dues.append(0.5 * window + i / 2000.0)
    assert windowed_tail(latencies, dues) == (99.0, pytest.approx(0.99 * 2.0))


# -- the max-rate search ------------------------------------------------------


def _step(rate: float, latency: float, failed: int = 0, drain: float = 0.0):
    return StepResult(rate, failed, [latency] * 1000,
                      [i / 1000.0 for i in range(1000)], drain)


@pytest.mark.parametrize("capacity", [700.0, 1000.0, 1500.0])
def test_search_converges_on_capacity(capacity):
    def synthetic(rate: float) -> StepResult:
        return _step(rate, 1.0 if rate <= capacity else 100.0)

    best, history = search_max_rate(synthetic, 20.0, 1000.0, 12)
    assert capacity / 1.03 <= best <= capacity
    assert len(history) == 12


def test_search_counts_failures_and_backlog_as_misses():
    assert search_max_rate(lambda r: _step(r, 1.0, failed=1), 20.0, 100.0, 5)[0] == 0.0
    assert search_max_rate(lambda r: _step(r, 1.0, drain=500.0), 20.0, 100.0, 5)[0] == 0.0


class _Slow(BaseHTTPRequestHandler):
    """4 ms per request: one connection serves at most ~250 req/s."""

    protocol_version = "HTTP/1.1"
    #: Headers and body go out as two writes; without this they stall
    #: behind Nagle and the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    def do_GET(self):  # noqa: N802 - stdlib naming
        time.sleep(0.004)
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, *args):
        pass


def test_search_against_a_slow_http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Slow)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    payload = b"GET / HTTP/1.1\r\nHost: t\r\n\r\n"

    def step(rate: float) -> StepResult:
        count = max(1, round(rate * 0.6))
        result = run_open_loop(
            "127.0.0.1", server.server_address[1], [payload] * count,
            [i / rate for i in range(count)],
        )
        return StepResult(rate, result.failed, result.latencies_ms,
                          result.due_s, result.drain_ms)

    try:
        best, _ = search_max_rate(step, 20.0, 300.0, 8)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    # Two connections at <= 250 req/s each: the search must stop below that.
    assert 100.0 <= best <= 520.0


# -- /proc CPU accounting -----------------------------------------------------


def test_stat_parser_counts_fields_after_the_last_paren():
    fields = ["S"] + ["0"] * 10 + ["250", "50"] + ["0"] * 30
    line = "4242 (odd) name (x)) " + " ".join(fields)
    assert parse_stat_cpu_s(line) == pytest.approx(300 / os.sysconf("SC_CLK_TCK"))


def test_status_parser_reads_kib_fields():
    text = "Name:\tpython3\nVmHWM:\t  123456 kB\nVmRSS:\t  1000 kB\n"
    assert parse_status_kib(text, "VmHWM") == 123456
    with pytest.raises(ValueError):
        parse_status_kib(text, "VmSwap")


def test_proc_cpu_grows_with_work():
    before = proc_cpu_s()
    deadline = time.process_time() + 0.2
    while time.process_time() < deadline:
        pass
    assert proc_cpu_s() - before >= 0.1


# -- the correctness oracle ---------------------------------------------------


def _record(country: str):
    return SimpleNamespace(
        country=country, region=None, city=None, latitude=1.5, longitude=-2.25,
        resolution=SimpleNamespace(value="country"),
    )


class _Index:
    def __init__(self, entries, records):
        self._entries, self._records = entries, records

    def parts(self):
        return [], [], self._entries, self._records


@pytest.fixture()
def oracle():
    records = (_record("DE"), _record("FR"))
    return LpmOracle({
        "A": _Index((("10.0.0.0/8", 0), ("10.1.0.0/16", 1)), records),
        "B": _Index((("10.1.2.0/24", 0),), records),
    })


def _lookup_body(oracle, ip):
    return json.dumps({"ip": ip, "answers": oracle.answers(ip),
                       "consensus": {}, "degraded": False}).encode()


def test_oracle_takes_the_longest_prefix(oracle):
    answers = oracle.answers("10.1.2.3")
    assert answers["A"]["prefix"] == "10.1.0.0/16"
    assert answers["A"]["country"] == "FR"
    assert answers["B"]["prefix"] == "10.1.2.0/24"
    assert oracle.answers("11.0.0.1") == {"A": None, "B": None}


def test_check_accepts_a_correct_body(oracle):
    assert check_lookup_body(oracle, "10.1.2.3", _lookup_body(oracle, "10.1.2.3")) is None


def test_check_rejects_a_tampered_lookup_body(oracle):
    payload = json.loads(_lookup_body(oracle, "10.1.2.3"))
    payload["answers"]["A"]["country"] = "DE"
    assert "differ" in check_lookup_body(oracle, "10.1.2.3", json.dumps(payload).encode())
    assert check_lookup_body(oracle, "10.1.2.3", b"{not json") is not None
    wrong_ip = _lookup_body(oracle, "10.1.2.4")
    assert check_lookup_body(oracle, "10.1.2.3", wrong_ip) is not None


def test_check_rejects_a_tampered_batch_body(oracle):
    ips = ["10.1.2.3", "10.9.9.9"]
    results = [{"ip": ip, "answers": oracle.answers(ip)} for ip in ips]
    good = json.dumps({"count": 2, "results": results}).encode()
    assert check_batch_body(oracle, ips, good) is None
    results[1]["answers"]["B"] = {"prefix": "10.0.0.0/8"}
    bad = json.dumps({"count": 2, "results": results}).encode()
    assert check_batch_body(oracle, ips, bad) is not None


# -- spans and the metric catalogue -------------------------------------------


def test_self_time_subtracts_child_spans():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.01))

    def outer_body():
        inner()
        inner()

    recorder.wrap("outer", outer_body)()
    summary = SpanSummary(recorder.export())
    assert summary.count == {"inner": 2, "outer": 1}
    outer_total = summary.total_ns["outer"]
    assert summary.self_ns["outer"] == outer_total - summary.total_ns["inner"]
    assert summary.root_ns == outer_total


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
