"""A stdlib HTTP JSON front end for the serving engine.

Endpoints (all JSON):

* ``GET /lookup?ip=A.B.C.D`` — every database's answer (matched prefix +
  record) plus the consensus block; a degraded answer (vendor failed,
  quarantined, or deadline-skipped) says so explicitly via ``degraded``
  and ``degraded_vendors``;
* ``POST /batch`` — body ``{"ips": [...]}``; per-address results in
  input order, with per-address errors inlined rather than failing the
  whole batch;
* ``GET /healthz`` — liveness: served databases, and ``degraded`` once
  any vendor is quarantined or missing;
* ``GET /statusz`` — the full ``serve.*``/``faults.*`` metrics snapshot
  (request and error counters, per-endpoint latency histograms with
  p50/p99 estimates, rolling-window rates over the last 10s/60s) plus
  the answer-plane block, the per-vendor quarantine state and the live
  snapshot generation (id, source, age, swap/rollback counters);
* ``GET /metricsz`` — the same registry in Prometheus text exposition
  format (0.0.4), ready for a real scraper;
* ``GET /tracez`` — span trees for the slowest recent requests, each
  attributed to the path that produced its answer (``plane``/``live``/
  ``degraded``, ``mixed`` for heterogeneous batches).

Serving requests (``/lookup``, ``/batch``) are traced: the handler
honours a client-sent ``X-Request-Id`` (sanitised) or mints one, threads
the :class:`~repro.obs.reqtrace.RequestTrace` through the engine so
plane probes and per-vendor live probes land as span rows (a ``/batch``
answers its healthy addresses from their plane cells under one
``plane.batch`` span carrying ``size``), echoes the
id in the ``X-Request-Id`` response header and the JSON body, and —
with ``serve --slow-ms`` — logs a one-line slow-request record to
stderr.  Introspection endpoints carry the
``endpoint_class="introspection"`` label on their request/latency
series, keeping monitoring traffic out of the rolling windows and the
serving p99.

Documented status codes: 200 on success; 400 malformed input; 404
unknown route; 405 wrong method on a known route (with ``Allow``); 411
missing, unparseable, or negative Content-Length; 413 oversized batch
or request body; 500 unexpected handler error; 503 when no vendor can
answer (the engine's typed
:class:`~repro.serve.errors.NoHealthyVendors`).  A request rejected
before routing gets the stdlib's status line and HTML body: 400 for a
malformed request line, 414 for one over 65 536 bytes, 431 for a
header line over 65 536 bytes or a head over 100 lines, 505 for
HTTP/2 and later, 501 for a method with no route at all.  Every
4xx/5xx increments ``serve.errors`` (head-level rejections and 404s
under ``endpoint="unknown"``).  The declared body length is validated as
``0 <= length <= MAX_BODY_BYTES`` *before* any read: a negative length
must never reach ``rfile.read`` (``read(-n)`` reads to EOF, which hangs
the worker forever on a keep-alive connection), and a huge one must be
refused without buffering it.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
request, which the engine tolerates because compiled indexes are
immutable and the vendor health table locks internally.
:meth:`GeoServer.run` installs a graceful shutdown path:
``SIGINT``/``KeyboardInterrupt`` drains the listener and closes the
socket instead of dying mid-response.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from http.client import HTTPException, LineTooLong
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.net.ip import IPv4Address, address_int
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.prom import render_prometheus
from repro.obs.reqtrace import RequestTrace, TraceRing
from repro.serve.engine import ConsensusAnswer, ServingEngine
from repro.serve.errors import NoHealthyVendors, ServeError
from repro.serve.index import IndexAnswer

__all__ = ["GeoServer", "MAX_BATCH_SIZE", "MAX_BODY_BYTES"]

#: Refuse batches larger than this — a serving endpoint must bound the
#: work one request can demand.
MAX_BATCH_SIZE = 10_000

#: Refuse request bodies larger than this before reading a single byte
#: (a full MAX_BATCH_SIZE batch of dotted quads is well under 256 KiB).
MAX_BODY_BYTES = 1 << 20

#: Known routes per method — the contract behind 404 vs 405.
_ROUTES = {
    "GET": ("/lookup", "/healthz", "/statusz", "/metricsz", "/tracez"),
    "POST": ("/batch",),
}

#: Endpoints that observe the server rather than serve geolocation — their
#: request/error/latency series carry ``endpoint_class="introspection"``
#: so scrape traffic cannot distort the serving windows or p99.
_INTROSPECTION = frozenset({"healthz", "statusz", "metricsz", "tracez"})

#: A client-sent ``X-Request-Id`` is honoured only in this shape — anything
#: else (header injection, unbounded length) gets a freshly minted id.
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def _endpoint_class(endpoint: str) -> str:
    return "introspection" if endpoint in _INTROSPECTION else "serving"


# -- request heads -------------------------------------------------------------
#
# The stdlib reads the header block with http.client.parse_headers, which
# runs the whole email.parser over it to build an email.message.Message —
# the largest attributed layer of a /lookup in the traced ledger.  The
# server only ever calls .get() on the result, so _read_head keeps exactly
# the stdlib's reading limits and the answers Message.get gives:
#
# * raw lines are read as http.client reads them: each at most 65 536
#   bytes, at most 100 of them counting the line that ends the block
#   (a blank line or EOF); past either limit the request gets a 431;
# * the block is decoded latin-1 and split at CRLF, CR or LF, the line
#   breaks the email parser splits at;
# * a line starting with a space or tab continues the open field (and is
#   dropped when none is open); a ``From `` line or one with an empty
#   name (``:v``) closes the open field and is dropped; any other line
#   that is not ``token:`` ends the head — ``Name : v`` included;
# * a value is its first line after the colon ``lstrip(" \t")``-ed, plus
#   its continuation lines verbatim, the whole ``rstrip("\r\n")``-ed;
# * names compare case-insensitively and the first field of a name wins.

_MAX_HEAD_LINE = 65536
_MAX_HEAD_LINES = 100
_HEAD_END = (b"\r\n", b"\n", b"")
_HEAD_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")
#: The email parser's field-line pattern: printable ASCII bar the colon.
_FIELD_NAME = re.compile(r"[\041-\071\073-\176]*:")


class _Head(dict):
    """Header values keyed by lower-cased name; :meth:`get` takes any
    case, like ``email.message.Message.get``."""

    __slots__ = ()

    def get(self, name: str, default: Any = None) -> Any:
        return dict.get(self, name.lower(), default)


def _read_head(rfile) -> _Head:
    """Read and parse one request's header block from ``rfile``.

    Raises ``http.client.LineTooLong`` / ``HTTPException`` exactly where
    ``http.client.parse_headers`` would.
    """
    lines = []
    while True:
        line = rfile.readline(_MAX_HEAD_LINE + 1)
        if len(line) > _MAX_HEAD_LINE:
            raise LineTooLong("header line")
        lines.append(line)
        if len(lines) > _MAX_HEAD_LINES:
            raise HTTPException("got more than %d headers" % _MAX_HEAD_LINES)
        if line in _HEAD_END:
            break
    head = _Head()
    name = None
    value: list[str] = []
    for line in _HEAD_LINE.findall(b"".join(lines).decode("latin-1")):
        if line[0] in " \t":
            if name is not None:
                value.append(line)
            continue
        if name is not None:
            if name not in head:
                head[name] = "".join(value).rstrip("\r\n")
            name = None
        if line.startswith("From "):
            continue
        match = _FIELD_NAME.match(line)
        if match is None:
            break
        colon = match.end() - 1
        if colon:
            name = line[:colon].lower()
            value = [line[colon + 1 :].lstrip(" \t")]
    if name is not None and name not in head:
        head[name] = "".join(value).rstrip("\r\n")
    return head


# -- precomputed response heads ---------------------------------------------
#
# The stdlib send_response/send_header path re-encodes the status line,
# Server header, Date header, and every per-request header with a fresh
# %-format + .encode() each — and, worse, flushes the header block and the
# body as *two* socket writes.  Under keep-alive the second small write
# can sit behind Nagle waiting on the peer's delayed ACK (~40 ms observed
# under open-loop load), turning sub-ms service into tens of ms on the wire.  The
# serving path therefore assembles the whole response head from
# precomputed byte fragments — status+Server lines cached per status
# code, the Date line re-rendered at most once per second — and sends
# head+body as one write.

_STATUS_HEADS: dict[int, bytes] = {}
_JSON_TYPE_LINE = b"Content-Type: application/json\r\n"
#: (whole-second timestamp, rendered ``Date:`` line) — replaced
#: atomically; a race re-renders the same second's bytes, harmlessly.
_DATE_LINE: tuple[int, bytes] = (0, b"")


def _status_head(status: int) -> bytes:
    head = _STATUS_HEADS.get(status)
    if head is None:
        try:
            phrase = HTTPStatus(status).phrase
        except ValueError:
            phrase = ""
        head = _STATUS_HEADS[status] = (
            f"HTTP/1.1 {status} {phrase}\r\nServer: {_Handler.server_version}\r\n"
        ).encode("latin-1")
    return head


def _date_line() -> bytes:
    global _DATE_LINE
    now = int(time.time())
    second, line = _DATE_LINE
    if second != now:
        line = f"Date: {formatdate(now, usegmt=True)}\r\n".encode("latin-1")
        _DATE_LINE = (now, line)
    return line


def _response_head(
    status: int,
    content_type: str,
    body_length: int,
    trace_id: str | None = None,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """The full header block for one response, as a single bytes object.

    Emits exactly what the old send_response/send_header sequence did —
    status line, ``Server``, ``Date``, ``Content-Type``,
    ``Content-Length``, optional ``X-Request-Id``, any extras, blank
    line — so clients observe an identical response shape.
    """
    parts = [
        _status_head(status),
        _date_line(),
        _JSON_TYPE_LINE
        if content_type == "application/json"
        else f"Content-Type: {content_type}\r\n".encode("latin-1"),
        b"Content-Length: %d\r\n" % body_length,
    ]
    if trace_id is not None:
        parts.append(f"X-Request-Id: {trace_id}\r\n".encode("latin-1"))
    if extra_headers:
        for name, value in extra_headers.items():
            parts.append(f"{name}: {value}\r\n".encode("latin-1"))
    parts.append(b"\r\n")
    return b"".join(parts)


# -- JSON bodies ----------------------------------------------------------------
#
# Every body is exactly ``json.dumps(payload, sort_keys=True)``.  The one
# shared encoder below is what ``json.dumps`` would build per call with
# those arguments (its ``encode`` keeps no state between calls, so it is
# thread-safe).  ``/lookup`` and ``/batch`` splice their bodies from
# pieces in that same sorted key order instead of building and dumping
# a payload dict: a vendor answer is ``pre + "<prefix>" + post``, where
# ``pre``/``post`` are the record's JSON around its ``"prefix"`` key
# (which sorts between ``"longitude"`` and ``"region"``).  The pair is
# memoized per record — not per plane cell: thousands of cells share a
# few thousand records — in the served generation's memo, so a hot swap
# drops the table together with the generation.  The same memo holds the
# encoded consensus of every plane cell a request touched (fixed per
# cell: the plane tallied it at compile time) and the sorted vendor keys.

_ENCODER = json.JSONEncoder(sort_keys=True)
_encode = _ENCODER.encode
#: What ``_encode`` itself calls for a ``str``, minus its dispatch.
_encode_str = json.encoder.encode_basestring_ascii
_PREFIX_KEY = '"prefix": '


def _record_fragments(record, memo: dict) -> tuple[str, str, Any]:
    """``(pre, post, record)``: the record's answer JSON split around the
    prefix value.  Keyed by identity — a dataclass hash re-hashes every
    field per call — with the record kept in the value so its id cannot
    be reused while the entry exists."""
    entry = memo.get(id(record))
    if entry is None:
        text = _encode(IndexAnswer("", record).to_dict())
        # Only the key itself can hold this text: any quote inside a
        # string value is escaped.
        cut = text.index(_PREFIX_KEY + '""') + len(_PREFIX_KEY)
        entry = memo[id(record)] = (text[:cut], text[cut + 2 :], record)
    return entry


#: The memo key of the generation's sorted vendor keys; every other key
#: is the ``id`` of a record or a plane cell.
_ANSWER_KEYS = "answer-keys"


def _answer_keys(engine: ServingEngine, memo: dict) -> list[tuple[str, str]]:
    """``(vendor, key)`` pairs in JSON key order — not the order of
    ``vendor_names()``, which lists missing vendors last.  ``key`` is the
    vendor's JSON key led by its separator: ``'{"A": '`` for the first
    (an engine always has one), ``', "B": '`` after that."""
    keys = memo.get(_ANSWER_KEYS)
    if keys is None:
        keys = [
            (name, (", " if i else "{") + _encode_str(name) + ": ")
            for i, name in enumerate(sorted(engine.vendor_names()))
        ]
        # The vendor set is per generation: keep the keys only if no
        # swap landed since ``memo`` was fetched.
        if engine.generation_memo() is memo:
            memo[_ANSWER_KEYS] = keys
    return keys


def _answers_into(
    out: list[str], keys: list[tuple[str, str]], source, memo: dict
) -> None:
    """Append the ``answers`` object of a ``LookupOutcome`` or a plane
    cell to ``out`` as pieces: every vendor, ``null`` where it has none."""
    answers = source.answers
    for name, key in keys:
        answer = answers.get(name)
        if answer is None:
            out += (key, "null")
        else:
            record = answer.record
            entry = memo.get(id(record))
            if entry is None:
                entry = _record_fragments(record, memo)
            out += (key, entry[0], _encode_str(answer.prefix), entry[1])
    out.append("}")


def _consensus_body(consensus: ConsensusAnswer, cell, memo: dict) -> str:
    """The ``consensus`` object, memoized per plane cell (``cell`` is
    ``None`` off the plane, where every consensus is encoded afresh)."""
    if cell is None:
        return _encode(consensus.to_dict())
    entry = memo.get(id(cell))
    if entry is None:
        entry = memo[id(cell)] = (_encode(consensus.to_dict()), cell)
    return entry[0]


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    #: Responses go out as one write, so Nagle has nothing to batch —
    #: but disable it anyway: any stray small write (an error path, a
    #: future streaming endpoint) must not stall behind a delayed ACK.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Per-request stderr chatter is replaced by ``serve.*`` metrics."""

    def parse_request(self) -> bool:
        """The stdlib request-line and Connection/Expect logic verbatim;
        only the header block is read by :func:`_read_head` instead of
        ``http.client.parse_headers``."""
        self.command = None  # set in case of error on the first line
        self.request_version = version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1")
        requestline = requestline.rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if len(words) == 0:
            return False

        if len(words) >= 3:  # Enough to determine protocol version
            version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError
                base_version_number = version.split("/", 1)[1]
                version_number = base_version_number.split(".")
                # RFC 2145 section 3.1 says there can be only one "." and
                #   - major and minor numbers MUST be treated as
                #      separate integers;
                #   - HTTP/2.4 is a lower version than HTTP/2.13, which in
                #      turn is lower than HTTP/12.3;
                #   - Leading zeros MUST be ignored by recipients.
                if len(version_number) != 2:
                    raise ValueError
                if any(not component.isdigit() for component in version_number):
                    raise ValueError("non digit in http version")
                if any(len(component) > 10 for component in version_number):
                    raise ValueError("unreasonable length http version")
                version_number = int(version_number[0]), int(version_number[1])
            except (ValueError, IndexError):
                self.send_error(
                    HTTPStatus.BAD_REQUEST, "Bad request version (%r)" % version
                )
                return False
            if version_number >= (1, 1) and self.protocol_version >= "HTTP/1.1":
                self.close_connection = False
            if version_number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    "Invalid HTTP version (%s)" % base_version_number,
                )
                return False
            self.request_version = version

        if not 2 <= len(words) <= 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST, "Bad request syntax (%r)" % requestline
            )
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST, "Bad HTTP/0.9 request type (%r)" % command
                )
                return False
        self.command, self.path = command, path

        # gh-87389: The purpose of replacing '//' with '/' is to protect
        # against open redirect attacks possibly triggered if the path starts
        # with '//' because http clients treat //path as an absolute URI
        # without scheme (similar to http://path) rather than a path.
        if self.path.startswith("//"):
            self.path = "/" + self.path.lstrip("/")  # Reduce to a single /

        # Examine the headers and look for a Connection directive.
        try:
            self.headers = _read_head(self.rfile)
        except LineTooLong as err:
            self.send_error(
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Line too long", str(err)
            )
            return False
        except HTTPException as err:
            self.send_error(
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Too many headers", str(err)
            )
            return False

        conntype = self.headers.get("Connection", "")
        if conntype.lower() == "close":
            self.close_connection = True
        elif conntype.lower() == "keep-alive" and self.protocol_version >= "HTTP/1.1":
            self.close_connection = False
        # Examine the headers and look for an Expect directive
        expect = self.headers.get("Expect", "")
        if (
            expect.lower() == "100-continue"
            and self.protocol_version >= "HTTP/1.1"
            and self.request_version >= "HTTP/1.1"
        ):
            if not self.handle_expect_100():
                return False
        return True

    def send_error(self, code, message=None, explain=None):
        """Count a rejection made before routing, then send the stdlib
        error response.

        The stdlib calls this for a malformed or oversized request line
        or head (400/414/431/505) and a method with no ``do_*`` (501);
        every response the handlers send goes through :meth:`_send_body`.
        """
        self.server.edge.response("unknown", int(code))  # type: ignore[attr-defined]
        super().send_error(code, message, explain)

    @property
    def engine(self) -> ServingEngine:
        return self.server.engine  # type: ignore[attr-defined]

    @property
    def metrics(self) -> MetricsRegistry:
        return self.server.metrics  # type: ignore[attr-defined]

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        endpoint: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        trace = getattr(self, "_trace", None)
        head = _response_head(
            status,
            content_type,
            len(body),
            trace.trace_id if trace is not None else None,
            headers,
        )
        if headers and headers.get("Connection") == "close":
            # send_header("Connection", "close") used to flip this flag;
            # writing the raw head must keep the same keep-alive teardown.
            self.close_connection = True
        # All bookkeeping lands BEFORE the response bytes hit the wire:
        # once a client holds its response it must be able to see its own
        # request on /statusz and /tracez.  (The old order was masked by
        # Nagle's delay; the single-write path made the race observable.)
        self._status = status
        server = self.server
        server.edge.response(endpoint, status)  # type: ignore[attr-defined]
        started = self._started
        if started is not None:
            # A routed request's latency: handler work up to the write.
            server.edge.latency(  # type: ignore[attr-defined]
                endpoint, (time.perf_counter() - started) * 1000.0
            )
            self._started = None
        if trace is not None:
            trace.finish(status=status)
            # Path attribution is counted once per request, here at the
            # edge — never per lookup on the plane hot path.
            server.edge.path(trace.path, endpoint)  # type: ignore[attr-defined]
            server.traces.record(trace)  # type: ignore[attr-defined]
            self._trace = None
        self.wfile.write(head + body)

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        endpoint: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = _encode(payload).encode("utf-8")
        self._send_body(status, body, "application/json", endpoint, headers)

    def _timed(self, endpoint: str, handler) -> None:
        server = self.server
        trace = None
        if endpoint not in _INTROSPECTION:
            requested = self.headers.get("X-Request-Id")
            trace = RequestTrace(
                endpoint,
                trace_id=(
                    requested
                    if requested and _TRACE_ID_RE.match(requested)
                    else None
                ),
            )
        self._trace = trace
        self._started = started = time.perf_counter()
        try:
            handler(endpoint)
        except NoHealthyVendors as exc:
            # The engine refused to fabricate an answer: fail closed with
            # the service-unavailable code, not a fake empty 200.
            self._send_json(503, {"error": str(exc)}, endpoint)
        except Exception as exc:  # the server must outlive any one request
            self._send_json(500, {"error": f"internal error: {exc}"}, endpoint)
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            if self._started is not None:
                # No response went out: _send_body never observed it.
                server.edge.latency(endpoint, elapsed_ms)
            if trace is not None:
                if self._trace is trace:
                    # No response ever went out (the socket died before
                    # _send_body ran): retain the trace here so the
                    # request is still visible to /tracez.
                    trace.finish(status=self._status)
                    server.edge.path(trace.path, endpoint)
                    server.traces.record(trace)
                slow_ms = server.slow_ms
                if slow_ms is not None and elapsed_ms >= slow_ms:
                    print(
                        f"slow request: endpoint={endpoint}"
                        f" trace={trace.trace_id} ms={elapsed_ms:.1f}"
                        f" status={trace.status} path={trace.path or 'none'}"
                        f" spans={trace.span_count()}",
                        file=sys.stderr,
                        flush=True,
                    )
                self._trace = None

    def _route(self, method: str) -> None:
        self._trace = None
        self._status = None
        self._started = None
        url = urlsplit(self.path)
        path = url.path
        if path not in _ROUTES[method]:
            allowed = [m for m, paths in _ROUTES.items() if path in paths]
            if allowed:
                # Known route, wrong verb: 405 with the Allow header the
                # RFC requires, so clients can self-correct.
                self._send_json(
                    405,
                    {"error": f"{method} not allowed on {path}"},
                    path.lstrip("/"),
                    headers={"Allow": ", ".join(allowed)},
                )
            else:
                self._send_json(
                    404, {"error": f"no such endpoint: {path}"}, "unknown"
                )
            return
        if path == "/lookup":
            self._timed("lookup", lambda ep: self._handle_lookup(url, ep))
        elif path == "/healthz":
            self._timed("healthz", self._handle_healthz)
        elif path == "/statusz":
            self._timed("statusz", self._handle_statusz)
        elif path == "/metricsz":
            self._timed("metricsz", self._handle_metricsz)
        elif path == "/tracez":
            self._timed("tracez", self._handle_tracez)
        elif path == "/batch":
            self._timed("batch", self._handle_batch)

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._route("POST")

    def _handle_lookup(self, url, endpoint: str) -> None:
        query = url.query
        if (
            query.startswith("ip=")
            and "&" not in query
            and "%" not in query
            and "+" not in query
        ):
            # The overwhelmingly common shape — a single plain dotted
            # quad — skips parse_qs (dict + list + decode machinery per
            # request).  Anything percent-encoded, plus-encoded, or
            # multi-parameter falls through to the general parser, which
            # keeps behaviour identical on every non-trivial query.
            ip = query[3:]
            if not ip:
                self._send_json(
                    400,
                    {"error": "exactly one ip=… query parameter required"},
                    endpoint,
                )
                return
        else:
            values = parse_qs(url.query).get("ip", [])
            if len(values) != 1:
                self._send_json(
                    400,
                    {"error": "exactly one ip=… query parameter required"},
                    endpoint,
                )
                return
            ip = values[0]
        engine = self.engine
        trace = self._trace
        try:
            outcome = engine.lookup_outcome(ip, trace=trace)
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)}, endpoint)
            return
        consensus = engine.consensus_of(outcome)
        degraded = outcome.degraded
        memo = engine.generation_memo()
        parts = ['{"answers": ']
        _answers_into(parts, _answer_keys(engine, memo), outcome, memo)
        parts += (
            ', "consensus": ',
            _consensus_body(consensus, outcome.cell, memo),
            ', "degraded": ',
            "true" if degraded else "false",
            ', "degraded_vendors": ',
            _encode(list(outcome.unavailable())) if degraded else "[]",
            ', "ip": ',
            _encode_str(ip),
        )
        if trace is not None:
            parts += (', "trace_id": ', _encode_str(trace.trace_id))
        parts.append("}")
        self._send_body(
            200, "".join(parts).encode("utf-8"), "application/json", endpoint
        )

    def _handle_batch(self, endpoint: str) -> None:
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._send_json(411, {"error": "Content-Length required"}, endpoint)
            return
        if length < 0:
            # int() happily parses "-17"; rfile.read(-17) would read to
            # EOF and hang this worker forever on a keep-alive socket.
            self._send_json(
                411,
                {"error": f"invalid Content-Length: {length}"},
                endpoint,
                headers={"Connection": "close"},
            )
            return
        if length > MAX_BODY_BYTES:
            # Refuse before reading: the body stays unread on the socket,
            # so drop the connection rather than let it poison keep-alive.
            self._send_json(
                413,
                {"error": f"request body too large: {length} > {MAX_BODY_BYTES}"},
                endpoint,
                headers={"Connection": "close"},
            )
            return
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"invalid JSON body: {exc}"}, endpoint)
            return
        ips = payload.get("ips") if isinstance(payload, dict) else None
        if not isinstance(ips, list):
            self._send_json(
                400, {"error": 'body must be {"ips": [address, ...]}'}, endpoint
            )
            return
        if len(ips) > MAX_BATCH_SIZE:
            self._send_json(
                413,
                {"error": f"batch too large: {len(ips)} > {MAX_BATCH_SIZE}"},
                endpoint,
            )
            return

        # Pass 1 parses every entry once, to an int, and answers each
        # healthy address straight from its plane cell: no address
        # object, no LookupOutcome, no span row per address.  Invalid
        # entries become per-item errors; the rest (no plane, a vendor
        # degraded, an injector armed — health is read per address)
        # resolve live in one outcome_batch, spliced back by index.
        engine = self.engine
        trace = self._trace
        memo = engine.generation_memo()
        keys = _answer_keys(engine, memo)
        lookup_plane = engine.lookup_plane
        # Per item: the address text and its plane cell or outcome, or
        # ``None`` and the item's finished error JSON.
        texts: list[str | None] = []
        sources: list[Any] = []
        live_at: list[int] = []
        live: list[int] = []
        hits = 0
        started = time.perf_counter()
        for ip in ips:
            try:
                addr = address_int(ip)
            except ValueError as exc:
                texts.append(None)
                sources.append(_encode({"ip": str(ip), "error": str(exc)}))
                continue
            # An accepted string is already the canonical dotted quad.
            texts.append(ip if isinstance(ip, str) else str(IPv4Address(addr)))
            cell = lookup_plane(addr)
            if cell is None:
                live_at.append(len(sources))
                live.append(addr)
            else:
                hits += 1
            sources.append(cell)
        if trace is not None and hits:
            trace.add(
                "plane.batch", (time.perf_counter() - started) * 1000.0, size=hits
            )
            trace.note_path("plane")
        degraded: dict[int, str] = {}
        outcomes = engine.outcome_batch(live, trace=trace, plane_hits=hits)
        for i, outcome in zip(live_at, outcomes):
            if isinstance(outcome, ServeError):
                # A typed serving error is a per-item result too: the
                # batch survives, the item is honestly unanswerable.
                sources[i] = _encode({"ip": texts[i], "error": str(outcome)})
                texts[i] = None
                continue
            sources[i] = outcome
            if outcome.degraded:
                degraded[i] = ', "degraded": true, "degraded_vendors": ' + _encode(
                    list(outcome.unavailable())
                )

        # Pass 2 renders every item, in input order, into one list of
        # pieces joined once.  A dotted quad needs no JSON escaping.
        out = ['{"count": %d, "results": [' % len(texts)]
        for i, text in enumerate(texts):
            if i:
                out.append(", ")
            if text is None:
                out.append(sources[i])
                continue
            out.append('{"answers": ')
            _answers_into(out, keys, sources[i], memo)
            if i in degraded:
                out.append(degraded[i])
            out += (', "ip": "', text, '"}')
        out.append("]")
        if trace is not None:
            out += (', "trace_id": ', _encode_str(trace.trace_id))
        out.append("}")
        self._send_body(
            200, "".join(out).encode("utf-8"), "application/json", endpoint
        )

    def _handle_healthz(self, endpoint: str) -> None:
        engine = self.engine
        degraded = engine.degraded
        self._send_json(
            200,
            {
                "status": "degraded" if degraded else "ok",
                "degraded": degraded,
                "databases": list(engine.database_names()),
            },
            endpoint,
        )

    def _handle_statusz(self, endpoint: str) -> None:
        metrics = self.metrics
        self._send_json(
            200,
            {
                "counters": metrics.counters_snapshot(),
                "histograms": metrics.histograms_snapshot(quantiles=True),
                "families": list(metrics.families()),
                "windows": self.server.windows_block(),  # type: ignore[attr-defined]
                "plane": self.engine.plane_stats(),
                "generation": self.engine.generation_info(),
                "vendors": self.engine.health_snapshot(),
                "traces": {
                    "capacity": self.server.traces.capacity,  # type: ignore[attr-defined]
                    "retained": len(self.server.traces),  # type: ignore[attr-defined]
                },
            },
            endpoint,
        )

    def _handle_metricsz(self, endpoint: str) -> None:
        text = render_prometheus(self.metrics)
        self._send_body(
            200, text.encode("utf-8"), _PROM_CONTENT_TYPE, endpoint
        )

    def _handle_tracez(self, endpoint: str) -> None:
        ring: TraceRing = self.server.traces  # type: ignore[attr-defined]
        slowest = ring.slowest()
        self._send_json(
            200,
            {
                "capacity": ring.capacity,
                "count": len(slowest),
                "slowest": slowest,
            },
            endpoint,
        )


class _EdgeMetrics:
    """The handler's per-request series, each resolved once per label set.

    ``serve.requests``/``serve.errors``/``serve.path`` are counter cells
    (which feed their matching rolling windows themselves) and
    ``serve.latency_ms`` a bound histogram observer, so a request pays
    no label sorting and no window matching.  Resolution is locked so
    every label set gets exactly one series object.
    """

    def __init__(self, metrics: MetricsRegistry):
        self._metrics = metrics
        self._series: dict[tuple, Any] = {}
        self._lock = threading.Lock()

    def _resolve(self, key: tuple, make, name: str, **labels: Any) -> Any:
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = make(name, **labels)
        return series

    def response(self, endpoint: str, status: int) -> None:
        """One response: ``serve.requests``, plus ``serve.errors`` on a
        4xx/5xx."""
        key = ("requests", endpoint, status)
        cell = self._series.get(key)
        if cell is None:
            cell = self._resolve(
                key,
                self._metrics.cell,
                "serve.requests",
                endpoint=endpoint,
                endpoint_class=_endpoint_class(endpoint),
                status=status,
            )
        cell.add()
        if status >= 400:
            key = ("errors", endpoint)
            cell = self._series.get(key)
            if cell is None:
                cell = self._resolve(
                    key,
                    self._metrics.cell,
                    "serve.errors",
                    endpoint=endpoint,
                    endpoint_class=_endpoint_class(endpoint),
                )
            cell.add()

    def path(self, path: str | None, endpoint: str) -> None:
        """One traced request's serving-path attribution."""
        key = ("path", path, endpoint)
        cell = self._series.get(key)
        if cell is None:
            cell = self._resolve(
                key,
                self._metrics.cell,
                "serve.path",
                path=path or "none",
                endpoint=endpoint,
            )
        cell.add()

    def latency(self, endpoint: str, elapsed_ms: float) -> None:
        """One handler latency observation."""
        key = ("latency", endpoint)
        observe = self._series.get(key)
        if observe is None:
            observe = self._resolve(
                key,
                self._metrics.observer,
                "serve.latency_ms",
                endpoint=endpoint,
                endpoint_class=_endpoint_class(endpoint),
            )
        observe(elapsed_ms)


class GeoServer(ThreadingHTTPServer):
    """The serving engine bound to a listening socket.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction.  Use :meth:`run` for a foreground server with graceful
    ``SIGINT`` shutdown (the CLI), or :meth:`start_background` /
    :meth:`stop` from tests.
    """

    daemon_threads = True

    def __init__(
        self,
        engine: ServingEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        metrics: MetricsRegistry | None = None,
        slow_ms: float | None = None,
        trace_capacity: int = 32,
    ):
        super().__init__((host, port), _Handler)
        self.engine = engine
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Requests at least this slow get a one-line stderr record
        #: (``serve --slow-ms``); ``None`` disables the log.
        self.slow_ms = slow_ms
        #: The N slowest recent request traces, served on ``/tracez``.
        self.traces = TraceRing(trace_capacity)
        #: The handler's request/error/path/latency series.
        self.edge = _EdgeMetrics(self.metrics)
        engine.attach_metrics(self.metrics)
        # Rolling windows behind the registry: serving traffic only
        # (endpoint_class filters keep /statusz scrapes out of their own
        # numbers), fed by the edge's request-level counter cells.
        register = self.metrics.track_window
        register("requests", "serve.requests", endpoint_class="serving")
        register("errors", "serve.errors", endpoint_class="serving")
        for path in ("plane", "live", "degraded"):
            register(f"path_{path}", "serve.path", path=path)
        # Staleness gauges: which snapshot generation is live and how old
        # it is, read from the engine at scrape time (a swap mid-scrape
        # just reads whichever generation is live at that instant).
        self.metrics.register_gauge(
            "serve.generation_id", lambda: float(engine.generation_id)
        )
        self.metrics.register_gauge(
            "serve.generation_age_s", lambda: engine.generation_age_s
        )

    def windows_block(self) -> dict[str, Any]:
        """The ``/statusz`` rolling-window view: raw per-alias windows
        plus derived rates (RPS, error rate, plane hit ratio) per horizon."""
        windows = self.metrics.windows_snapshot()

        def total(alias: str, span: str) -> float:
            return windows.get(alias, {}).get(span, {}).get("total", 0.0)

        rates: dict[str, dict[str, float]] = {}
        for span in ("10s", "60s"):
            requests = total("requests", span)
            rates[span] = {
                "rps": round(requests / int(span[:-1]), 6),
                "error_rate": round(
                    total("errors", span) / requests if requests else 0.0, 6
                ),
                "plane_hit_ratio": round(
                    total("path_plane", span) / requests if requests else 0.0, 6
                ),
            }
        return {"aliases": windows, "rates": rates}

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.port}"

    def server_close(self) -> None:
        """Release the socket, then close the engine.

        Part of every shutdown path (:meth:`run` and :meth:`stop` both
        end here), so no store watcher outlives the server it was
        feeding.  Engine ``close`` is idempotent.
        """
        super().server_close()
        self.engine.close()

    def run(self) -> None:
        """Serve until ``KeyboardInterrupt``, then drain and close."""
        try:
            self.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.server_close()

    def start_background(self) -> threading.Thread:
        """Serve from a daemon thread; pair with :meth:`stop`."""
        thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        return thread

    def stop(self) -> None:
        """Stop the background listener and release the socket."""
        self.shutdown()
        self.server_close()
