"""Tracing: flat span rows, the one span model, and the slow-trace ring.

A :class:`RequestTrace` holds flat :class:`SpanRecord` rows — name,
parent index, start offset, duration, attributes — capped per trace (a
10K batch must not materialise 10K span objects; overflow is counted,
not stored).  :meth:`RequestTrace.to_dict` rebuilds the parent links
into nested ``{name, start_ms, duration_ms, attrs, children}`` nodes,
the one span shape ``/tracez`` and the run manifest both carry.

The server builds a trace per *request* at the HTTP edge (honouring a
client-sent ``X-Request-Id`` or minting one) and the engine writes it
with ``begin``/``end``; its ``path`` field attributes *how* the answer
was made — ``plane``, ``live``, ``degraded``, or ``mixed`` for a batch
that rode several ("Overconfident Coordinates" argues a geolocation
system must be able to say).  The study, scenario build and compile
write a trace per *run* through the nesting :meth:`RequestTrace.span`,
whose optional listener (the CLI's ``--verbose``) sees each row close;
:func:`render_span_tree` prints that tree, and :data:`NOOP_TRACE` is the
inert default when tracing is off.

A :class:`TraceRing` keeps the N slowest *recent* finished traces: a
fixed-size min-heap keyed on duration, with entries past ``max_age_s``
evicted lazily — one pathological request from an hour ago must not
squat the ring forever.  The ring keeps a lower bound on its residents'
start times, so admitting a trace is O(1) and the retained set is only
scanned once some resident may have aged out.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "DEFAULT_MAX_SPANS",
    "DEFAULT_RING_CAPACITY",
    "NOOP_TRACE",
    "RequestTrace",
    "SpanRecord",
    "TraceRing",
    "new_trace_id",
    "render_span_tree",
]

#: Span rows kept per trace; further spans are counted as dropped.
DEFAULT_MAX_SPANS = 128

#: Slow traces retained by the ring — enough to page through, bounded.
DEFAULT_RING_CAPACITY = 32

#: Traces older than this fall out of the ring regardless of duration.
DEFAULT_MAX_AGE_S = 600.0


def new_trace_id() -> str:
    """A fresh 16-hex-char request id (collision-safe at ring scale)."""
    return uuid.uuid4().hex[:16]


class SpanRecord:
    """One flat span row inside a request trace."""

    __slots__ = ("name", "parent", "start_ms", "duration_ms", "attrs")

    def __init__(
        self,
        name: str,
        parent: int,
        start_ms: float,
        duration_ms: float | None,
        attrs: dict[str, Any] | None,
    ):
        self.name = name
        self.parent = parent
        self.start_ms = start_ms
        self.duration_ms = duration_ms
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes — ``items=n`` for a stage
        that knows how much it processed."""
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)

    def to_dict(self) -> dict[str, Any]:
        """The row as a JSON-ready node (durations rounded to µs)."""
        node: dict[str, Any] = {
            "name": self.name,
            "start_ms": round(self.start_ms, 3),
            "duration_ms": round(self.duration_ms or 0.0, 3),
        }
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        return node


class RequestTrace:
    """One request's id, path attribution, and bounded span rows.

    A trace has a single writer — the thread serving its request, or
    the run's thread — and is only read (``/tracez``, the slow-request
    log, the run manifest) once finished, so recording takes no lock.
    ``listener(row, depth)``, if given, is called as each
    :meth:`span` row closes.
    """

    __slots__ = (
        "trace_id",
        "endpoint",
        "started_unix",
        "path",
        "status",
        "duration_ms",
        "dropped_spans",
        "max_spans",
        "listener",
        "_spans",
        "_t0",
        "_mono",
        "_open",
    )

    def __init__(
        self,
        endpoint: str,
        *,
        trace_id: str | None = None,
        max_spans: int = DEFAULT_MAX_SPANS,
        listener: Callable[[SpanRecord, int], None] | None = None,
    ):
        self.trace_id = trace_id if trace_id else new_trace_id()
        self.endpoint = endpoint
        self.started_unix = time.time()
        self.path: str | None = None
        self.status: int | None = None
        self.duration_ms: float | None = None
        self.dropped_spans = 0
        self.max_spans = max_spans
        self.listener = listener
        # ``_open`` (the innermost open ``span()`` row) is set by the
        # first ``span()``: a request trace never pays for it.
        self._spans: list[SpanRecord] = []
        self._t0 = time.perf_counter()
        self._mono = time.monotonic()

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, *, parent: int = -1, **attrs: Any) -> int:
        """Open a span row; returns its index (or -2 when over the cap)."""
        offset_ms = (time.perf_counter() - self._t0) * 1000.0
        spans = self._spans
        if len(spans) >= self.max_spans:
            self.dropped_spans += 1
            return -2
        spans.append(SpanRecord(name, parent, offset_ms, None, attrs or None))
        return len(spans) - 1

    def end(self, index: int, **attrs: Any) -> None:
        """Close the span opened by :meth:`begin` (no-op when dropped)."""
        if index < 0:
            return
        span = self._spans[index]
        span.duration_ms = (
            (time.perf_counter() - self._t0) * 1000.0 - span.start_ms
        )
        if attrs:
            span.attrs = {**(span.attrs or {}), **attrs}

    def add(
        self, name: str, duration_ms: float, *, parent: int = -1, **attrs: Any
    ) -> int:
        """Record an already-measured span in one call."""
        index = self.begin(name, parent=parent, **attrs)
        if index >= 0:
            span = self._spans[index]
            span.start_ms = max(0.0, span.start_ms - duration_ms)
            span.duration_ms = duration_ms
        return index

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanRecord]:
        """Record the ``with`` body as one row nested under the innermost
        open ``span()``; yields the row, so the body can
        :meth:`~SpanRecord.set` attributes on it."""
        try:
            parent = self._open
        except AttributeError:
            parent = -1
        index = self.begin(name, parent=parent, **attrs)
        if index < 0:
            # Over the cap: counted as dropped, the row is kept nowhere.
            yield SpanRecord(name, parent, 0.0, None, None)
            return
        row = self._spans[index]
        self._open = index
        try:
            yield row
        finally:
            self._open = parent
            self.end(index)
            if self.listener is not None:
                depth = 0
                while parent >= 0:
                    depth += 1
                    parent = self._spans[parent].parent
                self.listener(row, depth)

    def note_path(self, path: str) -> None:
        """Attribute this request to a serving path.

        Single lookups set one of ``plane``/``live``/``degraded``; a
        batch whose addresses rode different paths is honestly
        ``mixed``.
        """
        if self.path is None or self.path == path:
            self.path = path
        else:
            self.path = "mixed"

    def finish(self, *, status: int | None = None) -> None:
        """Freeze the trace's total duration and response status."""
        if self.duration_ms is None:
            self.duration_ms = (time.perf_counter() - self._t0) * 1000.0
        if status is not None:
            self.status = status

    # -- inspection ----------------------------------------------------------

    def span_count(self) -> int:
        """Span rows actually retained (dropped rows are not counted)."""
        return len(self._spans)

    def to_dict(self) -> dict[str, Any]:
        """The span tree ``/tracez`` serves: root + nested children."""
        rows = self._spans
        nodes = [row.to_dict() for row in rows]
        children: list[list[dict[str, Any]]] = [[] for _ in rows]
        roots: list[dict[str, Any]] = []
        for row, node in zip(rows, nodes):
            if 0 <= row.parent < len(rows):
                children[row.parent].append(node)
            else:
                roots.append(node)
        for node, kids in zip(nodes, children):
            if kids:
                node["children"] = kids
        tree: dict[str, Any] = {
            "trace_id": self.trace_id,
            "endpoint": self.endpoint,
            "path": self.path,
            "status": self.status,
            "started_unix": round(self.started_unix, 3),
            "duration_ms": round(self.duration_ms or 0.0, 3),
            "spans": roots,
        }
        if self.dropped_spans:
            tree["dropped_spans"] = self.dropped_spans
        return tree


class _InertTrace:
    """The no-op trace: ``span()`` returns this same object, whose
    ``with`` body and :meth:`set` record nothing."""

    __slots__ = ()

    def span(self, name: str, **attrs: Any) -> "_InertTrace":
        return self

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_InertTrace":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


#: The shared no-op trace — the default for every optional ``tracer=``.
NOOP_TRACE = _InertTrace()


def render_span_tree(root: Mapping[str, Any]) -> str:
    """One span node of :meth:`RequestTrace.to_dict` as aligned text:
    each span's duration, its share of the root's, and its attributes
    (what ``repro trace`` prints per stage)."""
    total = root["duration_ms"] or 1e-9
    rows: list[tuple[str, float, str]] = []

    def visit(node: Mapping[str, Any], depth: int) -> None:
        attrs = node.get("attrs", {})
        extras = "  ".join(f"{key}={value}" for key, value in attrs.items())
        rows.append(("  " * depth + node["name"], node["duration_ms"], extras))
        for child in node.get("children", ()):
            visit(child, depth + 1)

    visit(root, 0)
    name_width = max(len(name) for name, _, _ in rows)
    lines = []
    for name, duration_ms, extras in rows:
        share = duration_ms / total
        line = f"{name.ljust(name_width)}  {duration_ms:10.1f} ms  {share:6.1%}"
        if extras:
            line += f"  {extras}"
        lines.append(line)
    return "\n".join(lines)


class TraceRing:
    """The N slowest recent finished traces, bounded and thread-safe."""

    __slots__ = ("capacity", "max_age_s", "_heap", "_seq", "_oldest", "_lock")

    def __init__(
        self,
        capacity: int = DEFAULT_RING_CAPACITY,
        *,
        max_age_s: float = DEFAULT_MAX_AGE_S,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity!r}")
        self.capacity = capacity
        self.max_age_s = max_age_s
        #: Min-heap of (duration_ms, seq, trace): the fastest retained
        #: trace sits at the root, ready to be displaced.
        self._heap: list[tuple[float, int, RequestTrace]] = []
        self._seq = 0
        #: No retained trace started (monotonic) before this.  Exact
        #: after a scan; a displaced trace can leave it low, which costs
        #: one scan that may evict nothing.
        self._oldest = math.inf
        self._lock = threading.Lock()

    def _evict_stale(self) -> None:
        # Called under the lock.  Nothing is stale unless the oldest
        # possible start is; then filter the (tiny) ring and re-tighten.
        now = time.monotonic()
        if now - self._oldest > self.max_age_s:
            self._heap = [
                entry
                for entry in self._heap
                if now - entry[2]._mono <= self.max_age_s
            ]
            heapq.heapify(self._heap)
            self._oldest = min(
                (entry[2]._mono for entry in self._heap), default=math.inf
            )

    def record(self, trace: RequestTrace) -> None:
        """Offer a finished trace; kept only if it is among the slowest."""
        duration = trace.duration_ms or 0.0
        with self._lock:
            self._evict_stale()
            self._seq += 1
            entry = (duration, self._seq, trace)
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, entry)
            elif duration > self._heap[0][0]:
                heapq.heapreplace(self._heap, entry)
            else:
                return
            self._oldest = min(self._oldest, trace._mono)

    def slowest(self) -> list[dict[str, Any]]:
        """Retained traces as span trees, slowest first."""
        with self._lock:
            self._evict_stale()
            entries = sorted(self._heap, key=lambda e: (-e[0], -e[1]))
        return [trace.to_dict() for _, _, trace in entries]

    def clear(self) -> None:
        """Drop every retained trace."""
        with self._lock:
            self._heap.clear()
            self._oldest = math.inf

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)
