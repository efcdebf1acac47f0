"""Replaying seeded Zipf streams against a tiny live server."""

from __future__ import annotations

import http.client
import ipaddress
import json

import pytest

from repro.loadgen import MISS_PREFIX, WorkloadConfig, ZipfWorkload, covered_pool
from repro.obs import MetricsRegistry
from repro.serve import CompiledIndex, ServingEngine, compile_plane
from repro.serve.http import GeoServer


@pytest.fixture(scope="module")
def live(small_scenario):
    indexes = {
        name: CompiledIndex.compile(database)
        for name, database in sorted(small_scenario.databases.items())
    }
    server = GeoServer(
        ServingEngine(indexes, plane=compile_plane(indexes)),
        metrics=MetricsRegistry(),
    )
    server.start_background()
    yield server, covered_pool(indexes, per_vendor=64)
    server.stop()


def get(conn, path):
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def replay(server, addresses):
    """GET ``/lookup`` for each address over one keep-alive connection;
    return the ``(status, body)`` of every response, in order."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        return [get(conn, f"/lookup?ip={address}") for address in addresses]
    finally:
        conn.close()


def statusz(server):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        status, body = get(conn, "/statusz")
    finally:
        conn.close()
    assert status == 200
    return body


class TestReplay:
    def test_statusz_scrape_agrees_with_client(self, live):
        server, pool = live
        workload = ZipfWorkload(pool, WorkloadConfig(seed=6))
        outcomes = replay(server, workload.take(120))
        assert [status for status, _ in outcomes] == [200] * len(outcomes)
        rates = statusz(server)["windows"]["rates"]["10s"]
        assert rates["error_rate"] == 0.0
        # The whole run fits inside the 10s window, so the server's
        # request total (rps × 10) must cover this run's requests.  The
        # module server is shared across tests, so earlier traffic can
        # only push the window total higher, never lower.
        assert rates["rps"] * 10.0 >= len(outcomes) * 0.8

    def test_uncovered_traffic_is_not_an_error(self, live):
        server, pool = live
        errors = server.metrics.counter_total("serve.errors")
        workload = ZipfWorkload(pool, WorkloadConfig(seed=8, miss_fraction=1.0))
        addresses = workload.take(30)
        miss = ipaddress.ip_network(MISS_PREFIX)
        assert all(ipaddress.ip_address(address) in miss for address in addresses)
        outcomes = replay(server, addresses)
        # Every lookup missed every vendor — that is a valid 200 answer
        # (all-null), not a serving error.
        for status, body in outcomes:
            assert status == 200
            assert set(body["answers"].values()) == {None}
        assert server.metrics.counter_total("serve.errors") == errors
