"""The HTTP API's documented error contract, hostile-client edition.

Status codes are part of the serving contract: 400 malformed input, 404
unknown route, 405 wrong verb (with ``Allow``), 411 missing
Content-Length, 413 oversized batch, 503 total outage, and the stdlib's
400/414/431/505/501 for requests refused before routing — and every
4xx/5xx increments ``serve.errors``.  These tests speak raw
``http.client`` so nothing in a client library papers over a wrong
code, and they assert the counters moved.
"""

import http.client
import json
import socket
import time

import pytest

from repro.faults import FaultInjector, FaultKind, FaultSpec
from repro.obs import MetricsRegistry
from repro.serve import GeoServer, ServingEngine
from repro.serve.http import MAX_BATCH_SIZE

from tests.faults.conftest import CHAOS_SEED


@pytest.fixture(scope="module")
def server(compiled_indexes):
    server = GeoServer(
        ServingEngine(compiled_indexes), port=0, metrics=MetricsRegistry()
    )
    server.start_background()
    yield server
    server.stop()


def raw_request(server, method, path, body=None, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, dict(response.getheaders()), payload
    finally:
        connection.close()


def errors_counted(server, endpoint, at_least=0, timeout=2.0):
    """The ``serve.errors`` count for ``endpoint``.

    The handler increments *after* writing the response, so a client
    that just read the body can race the counter by a hair; poll until
    it reaches ``at_least`` (or the timeout proves it never will).
    """
    endpoint_class = (
        "introspection"
        if endpoint in {"healthz", "statusz", "metricsz", "tracez"}
        else "serving"
    )
    deadline = time.monotonic() + timeout
    while True:
        count = server.metrics.counter(
            "serve.errors", endpoint=endpoint, endpoint_class=endpoint_class
        )
        if count >= at_least or time.monotonic() >= deadline:
            return count
        time.sleep(0.005)


class TestMalformedInput:
    def test_batch_with_non_json_body_is_400(self, server):
        before = errors_counted(server, "batch")
        status, _, body = raw_request(server, "POST", "/batch", body=b"{not json!")
        assert status == 400
        assert "invalid JSON" in body["error"]
        assert errors_counted(server, "batch", at_least=before + 1) == before + 1

    def test_batch_with_json_non_object_is_400(self, server):
        status, _, body = raw_request(server, "POST", "/batch", body=b'[1, 2, 3]')
        assert status == 400
        assert '"ips"' in body["error"]

    def test_batch_without_content_length_is_411(self, server):
        before = errors_counted(server, "batch")
        # http.client's request() always adds Content-Length to a POST,
        # so speak the wire protocol directly to really omit the header.
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        try:
            connection.putrequest("POST", "/batch")
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read().decode("utf-8"))
            assert response.status == 411
        finally:
            connection.close()
        assert "Content-Length" in body["error"]
        assert errors_counted(server, "batch", at_least=before + 1) == before + 1

    def test_lookup_with_repeated_ip_parameter_is_400(self, server):
        status, _, body = raw_request(server, "GET", "/lookup?ip=1.1.1.1&ip=2.2.2.2")
        assert status == 400
        assert "exactly one" in body["error"]

    def test_lookup_with_unparseable_ip_is_400(self, server):
        status, _, body = raw_request(server, "GET", "/lookup?ip=999.0.0.1")
        assert status == 400
        assert "not an IPv4 address" in body["error"]


class TestContentLength:
    """Hostile Content-Length values, validated before any body read.

    The original handler passed the parsed header straight to
    ``rfile.read``: a negative value reads to EOF, which on a keep-alive
    connection blocks the worker thread until the client goes away.
    Both hostile shapes must now be refused up front, on a connection
    the server then closes.
    """

    def test_negative_content_length_is_411_not_a_hang(self, server):
        before = errors_counted(server, "batch")
        # http.client would refuse to send a bogus header via request(),
        # so build the request by hand; the short timeout is the real
        # assertion — the unfixed server never responds.
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=5
        )
        try:
            connection.putrequest("POST", "/batch")
            connection.putheader("Content-Length", "-5")
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read().decode("utf-8"))
            assert response.status == 411
            assert "invalid Content-Length" in body["error"]
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()
        assert errors_counted(server, "batch", at_least=before + 1) == before + 1

    def test_oversized_declared_length_is_413_without_reading(self, server):
        from repro.serve.http import MAX_BODY_BYTES

        before = errors_counted(server, "batch")
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=5
        )
        try:
            # Declare a huge body but never send a byte: the server must
            # answer from the header alone instead of waiting for data.
            connection.putrequest("POST", "/batch")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read().decode("utf-8"))
            assert response.status == 413
            assert "request body too large" in body["error"]
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()
        assert errors_counted(server, "batch", at_least=before + 1) == before + 1

    def test_zero_content_length_is_an_ordinary_400(self, server):
        """Zero is a *valid* length — the empty body then fails JSON
        parsing, not the length gate."""
        status, _, body = raw_request(
            server, "POST", "/batch", body=b"", headers={"Content-Length": "0"}
        )
        assert status == 400
        assert "invalid JSON" in body["error"]


class TestRouting:
    def test_unknown_route_is_404_and_counted(self, server):
        before = errors_counted(server, "unknown")
        status, _, body = raw_request(server, "GET", "/admin")
        assert status == 404
        assert "no such endpoint" in body["error"]
        assert errors_counted(server, "unknown", at_least=before + 1) == before + 1

    def test_wrong_method_on_lookup_is_405_with_allow(self, server):
        status, headers, body = raw_request(server, "POST", "/lookup?ip=1.1.1.1")
        assert status == 405
        assert headers.get("Allow") == "GET"
        assert "not allowed" in body["error"]

    def test_wrong_method_on_batch_is_405_with_allow(self, server):
        status, headers, _ = raw_request(server, "GET", "/batch")
        assert status == 405
        assert headers.get("Allow") == "POST"

    def test_405_is_counted_against_the_route(self, server):
        before = errors_counted(server, "healthz")
        status, _, _ = raw_request(server, "POST", "/healthz")
        assert status == 405
        assert errors_counted(server, "healthz", at_least=before + 1) == before + 1


def raw_exchange(server, data: bytes) -> tuple[list[bytes], bytes]:
    """Send raw bytes on a fresh socket; return the reply's head lines and
    body.  Every rejection closes the connection; bytes the server never
    read may turn that close into a reset, after the reply arrived.

    A request refused before its version was accepted gets the stdlib's
    HTTP/0.9-style reply: a body with no head at all (``[]``)."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    reply = b"".join(chunks)
    if not reply.startswith(b"HTTP/"):
        return [], reply
    head, _, body = reply.partition(b"\r\n\r\n")
    return head.split(b"\r\n"), body


class TestHeadRejections:
    """Requests refused before routing keep the stdlib's status line and
    HTML body, and are counted under ``endpoint="unknown"``."""

    @staticmethod
    def rejected(server, data: bytes, status: int, *, head: bool = True) -> bytes:
        requests = dict(endpoint="unknown", endpoint_class="serving", status=status)
        before_requests = server.metrics.counter("serve.requests", **requests)
        before_errors = errors_counted(server, "unknown")
        lines, body = raw_exchange(server, data)
        if head:
            assert lines[0].split(b" ", 2)[1] == str(status).encode()
            assert b"Content-Type: text/html;charset=utf-8" in lines
            assert b"Connection: close" in lines
        else:
            assert lines == []
        assert body.startswith(b"<!DOCTYPE HTML>")
        assert b"<p>Error code: %d</p>" % status in body
        assert (
            server.metrics.counter("serve.requests", **requests)
            == before_requests + 1
        )
        assert errors_counted(server, "unknown") == before_errors + 1
        return body

    def test_malformed_request_line_is_400(self, server):
        body = self.rejected(server, b"GET /lookup x HTTP/1.1\r\n\r\n", 400)
        assert b"Bad request syntax" in body

    def test_malformed_version_is_400(self, server):
        body = self.rejected(
            server, b"GET /lookup HTTP/x.y\r\n\r\n", 400, head=False
        )
        assert b"Bad request version" in body

    def test_oversized_request_line_is_414(self, server):
        line = b"GET /lookup?ip=" + b"1" * 70_000 + b" HTTP/1.1\r\n\r\n"
        self.rejected(server, line, 414)

    @pytest.mark.parametrize(
        "head, reason",
        [
            (b"X-Pad: 1\r\n" * 101, b"Too many headers"),
            (b"X-Long: " + b"v" * 70_000 + b"\r\n\r\n", b"Line too long"),
        ],
        ids=["101-lines", "70kb-line"],
    )
    def test_oversized_head_is_431(self, server, head, reason):
        body = self.rejected(server, b"GET /lookup HTTP/1.1\r\n" + head, 431)
        assert reason in body

    def test_http2_request_line_is_505(self, server):
        body = self.rejected(
            server, b"GET /lookup HTTP/2.0\r\n\r\n", 505, head=False
        )
        assert b"Invalid HTTP version (2.0)" in body

    def test_method_without_a_route_is_501(self, server):
        body = self.rejected(
            server, b"PUT /lookup HTTP/1.1\r\nHost: x\r\n\r\n", 501
        )
        assert b"Unsupported method" in body


class TestLimits:
    def test_oversized_batch_is_413_and_counted(self, server):
        before = errors_counted(server, "batch")
        body = json.dumps({"ips": ["1.1.1.1"] * (MAX_BATCH_SIZE + 1)}).encode()
        status, _, payload = raw_request(server, "POST", "/batch", body=body)
        assert status == 413
        assert "batch too large" in payload["error"]
        assert errors_counted(server, "batch", at_least=before + 1) == before + 1

    def test_batch_at_the_limit_is_accepted(self, server):
        body = json.dumps({"ips": ["1.1.1.1"] * 10}).encode()
        status, _, payload = raw_request(server, "POST", "/batch", body=body)
        assert status == 200
        assert payload["count"] == 10


class TestOutage:
    def test_total_outage_is_503_and_healthz_degrades(self, compiled_indexes):
        """With every vendor raising, /lookup is a typed 503 — never a
        200 full of fabricated answers — and /healthz says degraded."""
        injector = FaultInjector(CHAOS_SEED, [FaultSpec(FaultKind.LOOKUP_RAISE)])
        engine = ServingEngine(compiled_indexes, injector=injector)
        server = GeoServer(engine, port=0, metrics=MetricsRegistry())
        server.start_background()
        try:
            status, _, body = raw_request(server, "GET", "/lookup?ip=8.8.8.8")
            assert status == 503
            assert "no healthy vendor" in body["error"]
            assert errors_counted(server, "lookup", at_least=1) == 1

            # Two more strikes trip every vendor's breaker (threshold 3),
            # flipping liveness from ok to degraded.
            raw_request(server, "GET", "/lookup?ip=8.8.8.8")
            raw_request(server, "GET", "/lookup?ip=8.8.8.8")
            status, _, health = raw_request(server, "GET", "/healthz")
            assert status == 200
            assert health["status"] == "degraded" and health["degraded"]

            status, _, statusz = raw_request(server, "GET", "/statusz")
            assert status == 200
            assert all(
                vendor["state"] == "quarantined"
                for vendor in statusz["vendors"].values()
            )
            assert "faults" in statusz["families"] or any(
                name.startswith("serve.vendor_errors")
                for name in statusz["counters"]
            )
        finally:
            server.stop()

    def test_batch_inlines_outage_per_item(self, compiled_indexes):
        injector = FaultInjector(CHAOS_SEED, [FaultSpec(FaultKind.LOOKUP_RAISE)])
        engine = ServingEngine(compiled_indexes, injector=injector)
        server = GeoServer(engine, port=0, metrics=MetricsRegistry())
        server.start_background()
        try:
            body = json.dumps({"ips": ["8.8.8.8", "garbage", "9.9.9.9"]}).encode()
            status, _, payload = raw_request(server, "POST", "/batch", body=body)
            assert status == 200  # the batch survives; each item is honest
            assert [sorted(item) for item in payload["results"]] == [
                ["error", "ip"]
            ] * 3
            assert "no healthy vendor" in payload["results"][0]["error"]
            assert "not an IPv4 address" in payload["results"][1]["error"]
        finally:
            server.stop()
