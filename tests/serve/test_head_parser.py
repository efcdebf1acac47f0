"""The request-head parser, differentially against ``http.client``.

The handler reads the header block itself instead of going through
``http.client.parse_headers`` and its ``email`` parser.  These tests
pin it to that definition: for generated heads — mixed-case and
duplicate names, obs-fold continuation lines, ``Name : v`` with a space
before the colon, lines without a colon, latin-1 bytes, bare carriage
returns, trailing whitespace, and heads at and just past the 100-line
and 65 536-byte limits — the handler must answer with the same status
(431 or parsed) and, when parsed, ``get()`` every header the server
reads to the same value as ``email.message.Message.get``.
"""

import http.client
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.serve import GeoServer, ServingEngine
from repro.serve.http import _Handler

#: Every header the server (and the stdlib request-line code) reads.
READ = ("X-Request-Id", "Content-Length", "Connection", "Expect")

_MAX_LINE = 65536
_MAX_LINES = 100

SETTINGS = settings(max_examples=300, deadline=None)


@pytest.fixture(scope="module")
def server(compiled_indexes):
    # Never started: the handler only needs it for its counters.
    server = GeoServer(
        ServingEngine(compiled_indexes), port=0, metrics=MetricsRegistry()
    )
    yield server
    server.server_close()


def served_parse(server, block: bytes):
    """``(status, headers)`` from the server's own ``parse_request``:
    status ``None`` when the head parsed, else the error it sent."""
    handler = _Handler.__new__(_Handler)
    handler.server = server
    handler.client_address = ("127.0.0.1", 0)
    handler.raw_requestline = b"GET /lookup?ip=1.2.3.4 HTTP/1.1\r\n"
    handler.rfile = io.BytesIO(block)
    handler.wfile = io.BytesIO()
    if handler.parse_request():
        return None, handler.headers
    return int(handler.wfile.getvalue().split(b" ", 2)[1]), None


def reference_parse(block: bytes):
    """The same pair from ``http.client.parse_headers``."""
    try:
        return None, http.client.parse_headers(io.BytesIO(block))
    except http.client.LineTooLong:
        return 431, None
    except http.client.HTTPException:
        return 431, None


def assert_same(server, block: bytes) -> int | None:
    status, headers = served_parse(server, block)
    expected_status, expected = reference_parse(block)
    assert status == expected_status
    if status is None:
        for name in READ:
            for spelling in (name, name.lower(), name.upper()):
                assert headers.get(spelling) == expected.get(spelling), spelling
            assert headers.get(name, "dflt") == expected.get(name, "dflt")
    return status


# -- generated heads ------------------------------------------------------------

_NAMES = (*READ, "Host", "Accept", "From", "X-Pad")


def _mixed_case(name: str):
    return st.tuples(*(st.sampled_from((c.lower(), c.upper())) for c in name)).map(
        "".join
    )


_name = st.sampled_from(_NAMES).flatmap(_mixed_case)
#: Latin-1 text without line feeds; bare CR, VT, FF and NEL are in the
#: alphabet because ``str.splitlines`` would break on them and the
#: email parser (apart from CR) does not.
_text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0x20, max_codepoint=0xFF),
        st.sampled_from(["\t", "\r", "\x0b", "\x0c", "\x85", "\x00"]),
    ),
    max_size=12,
)
_eol = st.sampled_from(["\r\n", "\n"])
_space = st.sampled_from(["", " ", "  ", "\t", " \t"])

_field = st.builds(
    lambda name, before, lead, value, trail, eol: (
        f"{name}{before}:{lead}{value}{trail}{eol}"
    ),
    _name,
    st.sampled_from(["", "", "", " "]),  # "Name : v" ends the head
    _space,
    _text,
    _space,
    _eol,
)
_fold = st.builds(
    lambda lead, value, eol: f"{lead}{value}{eol}",
    st.sampled_from([" ", "\t", "  "]),
    _text,
    _eol,
)
_no_colon = st.builds(lambda word, eol: f"{word}{eol}", _name, _eol)
_empty_name = st.builds(lambda value, eol: f":{value}{eol}", _text, _eol)
_envelope = st.builds(lambda value, eol: f"From {value}{eol}", _text, _eol)

_line = st.one_of(
    _field, _field, _field, _fold, _no_colon, _empty_name, _envelope
)


def _long_line(length: int) -> str:
    """One ``X-Long`` field exactly ``length`` bytes long with its CRLF."""
    prefix = "X-Long: "
    return prefix + "v" * (length - len(prefix) - 2) + "\r\n"


@st.composite
def heads(draw) -> bytes:
    lines = draw(st.lists(_line, max_size=8))
    total = draw(st.sampled_from([None, None, None, 98, 99, 100, 101]))
    if total is not None:
        pad = ["X-Pad: %d\r\n" % i for i in range(max(0, total - len(lines)))]
        lines = lines + pad
    long_at = draw(st.sampled_from([None, None, None, 65535, _MAX_LINE, _MAX_LINE + 1]))
    if long_at is not None:
        lines.insert(draw(st.integers(0, len(lines))), _long_line(long_at))
    terminator = draw(st.sampled_from(["\r\n", "\n", ""]))
    # Bytes after the blank line belong to the body: never read as head.
    body = draw(st.sampled_from(["", "X-Request-Id: body\r\n\r\n"]))
    if not terminator:
        body = ""
    return ("".join(lines) + terminator + body).encode("latin-1")


@SETTINGS
@given(block=heads())
def test_generated_heads_match_the_stdlib_parse(server, block):
    assert_same(server, block)


# -- the limits, pinned -------------------------------------------------------


@pytest.mark.parametrize(
    "fields, status",
    [(98, None), (99, None), (100, 431), (101, 431)],
)
def test_header_line_limit(server, fields, status):
    """At most 100 raw lines, the terminating blank line included."""
    block = "".join("X-Pad: %d\r\n" % i for i in range(fields)) + "\r\n"
    assert assert_same(server, block.encode("latin-1")) == status


@pytest.mark.parametrize(
    "length, status", [(65535, None), (_MAX_LINE, None), (_MAX_LINE + 1, 431)]
)
def test_header_line_length_limit(server, length, status):
    block = ("Host: x\r\n" + _long_line(length) + "\r\n").encode("latin-1")
    assert assert_same(server, block) == status


@pytest.mark.parametrize(
    "block, expected",
    [
        # First occurrence wins, names are case-insensitive.
        (b"x-request-id: a\r\nX-Request-Id: b\r\n\r\n", "a"),
        # Leading blanks stripped, trailing blanks kept.
        (b"X-Request-Id: \t a \t\r\n\r\n", "a \t"),
        # An obs-fold line continues the value, line break included.
        (b"X-Request-Id: a\r\n  b\r\n\r\n", "a\r\n  b"),
        # A space before the colon is not a field: the head ends there.
        (b"Host: h\r\nX-Request-Id : a\r\nX-Request-Id: b\r\n\r\n", None),
        # So does a line without a colon.
        (b"Bogus\r\nX-Request-Id: b\r\n\r\n", None),
        # A bare CR ends a line for the email parser.
        (b"X-Request-Id: a\rjunk\r\n\r\n", "a"),
        # Latin-1 bytes decode one byte per character.
        (b"X-Request-Id: caf\xe9\r\n\r\n", "caf\xe9"),
    ],
)
def test_field_semantics(server, block, expected):
    assert assert_same(server, block) is None
    _, headers = served_parse(server, block)
    assert headers.get("X-Request-Id") == expected
