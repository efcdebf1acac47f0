"""In-memory spans around calls into the program's public functions.

The traced runs install wrappers with :meth:`SpanRecorder.patch` before
the program starts; nothing inside ``src/`` is edited.  Each span is a
row ``[name, start_ns, end_ns, parent_row, ident]``: ``parent_row`` is
the enclosing span on the same thread, ``ident`` a request id (the
client's ``X-Request-Id``), an event sequence number, or a vendor name.
Rows stay in memory and are written out once, at exit, by :meth:`dump`.

A layer's *self time* is its span's duration minus the time its child
spans cover; children on one thread nest strictly inside their parent,
so that is the duration minus the children's summed durations.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable


class SpanRecorder:
    def __init__(self) -> None:
        self.rows: list[list[Any]] = []
        self._local = threading.local()

    def set_ident(self, ident: Any) -> None:
        """The id later spans on this thread carry (e.g. the request)."""
        self._local.ident = ident

    def wrap(
        self,
        name: str,
        fn: Callable,
        ident: Callable[[tuple], Any] | None = None,
    ) -> Callable:
        rows = self.rows
        local = self._local
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            row = [name, clock(), 0, stack[-1] if stack else None, None]
            stack.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                # Read at the end: a header-parse span learns its
                # request id only once the headers are parsed.
                row[4] = (
                    ident(args) if ident is not None else getattr(local, "ident", None)
                )
                stack.pop()
                rows.append(row)

        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        ident: Callable[[tuple], Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (module function, method, classmethod,
        or a per-instance callable) with a span-recording wrapper."""
        raw = owner.__dict__.get(attr) if hasattr(owner, "__dict__") else None
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, ident)))
        else:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), ident))

    def export(self) -> list[list[Any]]:
        """The rows with each parent replaced by its row number (or -1)."""
        index = {id(row): i for i, row in enumerate(self.rows)}
        return [
            [name, start, end, index.get(id(parent), -1), ident]
            for name, start, end, parent, ident in self.rows
        ]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.export(), handle)


class SpanSummary:
    """Per-name aggregates over exported span rows, optionally only the
    rows that pass ``keep`` (e.g. those of the measured requests)."""

    def __init__(
        self,
        rows: list[list[Any]],
        keep: Callable[[list[Any]], bool] | None = None,
    ):
        child_ns = [0] * len(rows)
        for _name, start, end, parent, _ident in rows:
            if parent >= 0:
                child_ns[parent] += end - start
        self.rows = []
        self.count: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        #: Summed duration of spans with no parent span.
        self.root_ns = 0
        self.by_ident_ns: dict[tuple[str, Any], int] = defaultdict(int)
        for i, (name, start, end, parent, ident) in enumerate(rows):
            if keep is not None and not keep(rows[i]):
                continue
            self.rows.append(rows[i])
            self.count[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += end - start - child_ns[i]
            self.by_ident_ns[(name, ident)] += end - start
            if parent < 0:
                self.root_ns += end - start

    def mean_self_us(self, name: str) -> float:
        count = self.count.get(name, 0)
        return self.self_ns[name] / count / 1000.0 if count else 0.0

    def mean_total_us(self, name: str) -> float:
        count = self.count.get(name, 0)
        return self.total_ns[name] / count / 1000.0 if count else 0.0


def load_rows(path: str) -> list[list[Any]]:
    with open(path) as handle:
        return json.load(handle)


# -- installers: one per traced process ---------------------------------------


def install_engine_spans(recorder: SpanRecorder) -> None:
    """Spans on the serving engine, address parsing and snapshot loads."""
    import repro.net.ip as ip_mod
    import repro.serve.engine as engine_mod
    import repro.serve.plane as plane_mod
    import repro.serve.snapshot as snapshot_mod

    parse = recorder.wrap("net.ip.parse_address", ip_mod.parse_address)
    for module in (ip_mod, engine_mod):
        module.parse_address = parse
    engine = engine_mod.ServingEngine
    recorder.patch(engine, "lookup_outcome", "serve.engine.lookup_outcome")
    recorder.patch(engine, "outcome_batch", "serve.engine.outcome_batch")
    recorder.patch(engine, "consensus_of", "serve.engine.consensus_of")

    load_index_set = recorder.wrap(
        "serve.snapshot.load_index_set", snapshot_mod.load_index_set
    )
    snapshot_mod.load_index_set = engine_mod.load_index_set = load_index_set
    original_load_plane = plane_mod.load_plane

    def load_plane(*args, **kwargs):
        plane = original_load_plane(*args, **kwargs)
        # AnswerPlane.probe is a per-instance closure: wrap it on the
        # plane the engine will actually serve from.
        plane.probe = recorder.wrap("serve.plane.probe", plane.probe)
        return plane

    # A lookup that carries a request trace (every HTTP lookup) reaches
    # the plane through locate(), the traced twin of probe().
    recorder.patch(plane_mod.AnswerPlane, "locate", "serve.plane.probe")

    plane_mod.load_plane = recorder.wrap("serve.snapshot.load_plane", load_plane)


def install_http_spans(recorder: SpanRecorder) -> None:
    """Header parse span; it also tags the thread with the request id."""
    import http.server

    import repro.net.ip as ip_mod
    import repro.serve.http as http_mod

    install_engine_spans(recorder)
    http_mod.parse_address = ip_mod.parse_address  # the wrapped one
    handler = http.server.BaseHTTPRequestHandler
    original = handler.parse_request

    def parse_request(self):
        recorder.set_ident(None)
        ok = original(self)
        if ok:
            recorder.set_ident(self.headers.get("X-Request-Id"))
        return ok

    handler.parse_request = recorder.wrap("serve.http.parse_request", parse_request)


def install_enrich_spans(recorder: SpanRecorder) -> None:
    """Engine spans plus whois and drift, keyed by event seq where known."""
    import repro.enrich.drift as drift_mod
    import repro.net.registry as registry_mod

    install_engine_spans(recorder)
    recorder.patch(registry_mod.TeamCymruWhois, "lookup", "net.registry.whois")
    recorder.patch(
        drift_mod.DriftDetector, "inspect", "enrich.drift.inspect",
        ident=lambda args: args[1],
    )


def install_compile_spans(recorder: SpanRecorder) -> None:
    """Spans on each compile phase and the snapshot save/load functions."""
    import repro.serve.index as index_mod
    import repro.serve.plane as plane_mod
    import repro.serve.snapshot as snapshot_mod
    import repro.topology.stream as stream_mod

    recorder.patch(stream_mod.StreamedWorld, "build", "topology.stream.world")
    recorder.patch(
        index_mod.CompiledIndex, "compile_entries", "serve.index.compile_entries",
        ident=lambda args: args[1],
    )
    recorder.patch(plane_mod, "compile_plane", "serve.plane.compile_plane")
    recorder.patch(snapshot_mod, "save_index_set", "serve.snapshot.save_index_set")
    recorder.patch(plane_mod, "save_plane", "serve.snapshot.save_plane")
    recorder.patch(snapshot_mod, "load_index_set", "serve.snapshot.load_index_set")
    recorder.patch(plane_mod, "load_plane", "serve.snapshot.load_plane")
