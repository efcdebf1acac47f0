"""An open-loop HTTP/1.1 load generator: one thread, a few keep-alive
connections, requests sent on a fixed schedule.

Request *i* is due at ``epoch + due[i]`` and is written to connection
``i % CONNECTIONS`` at that time whether or not earlier responses have
arrived (HTTP/1.1 pipelining), so a slow server faces the full offered
load.  Every latency is measured from the *due* time, which charges a
stall to every request queued behind it; the on-wire service time is
measured from ``max(sent, previous response on the same connection)``,
the moment the server could start on the request.

The client parses responses itself (status line plus
``Content-Length``), which keeps its own cost per request far below the
server's, and records how late each send was, so a run where the
generator rather than the server fell behind can be flagged.  The
generator's own garbage collector is paused for the run: a collection
over the oracle tables this process holds takes tens of milliseconds,
which would otherwise read as server latency.
"""

from __future__ import annotations

import gc
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field

from stats import proc_cpu_s

#: Lead time between fixing the schedule epoch and the first due request.
LEAD_S = 0.05
#: Keep-alive connections; request *i* goes out on connection ``i % CONNECTIONS``.
CONNECTIONS = 2
#: A response this many seconds overdue fails its request and reconnects.
TIMEOUT_S = 5.0


@dataclass
class LoadResult:
    """Per-request outcomes of one open-loop run (times in ms)."""

    attempted: int
    failed: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    #: Due time (s after the epoch) of each entry of ``latencies_ms``.
    due_s: list[float] = field(default_factory=list)
    service_ms: list[float] = field(default_factory=list)
    lateness_ms: list[float] = field(default_factory=list)
    #: Bodies of the requests listed in ``keep`` (index -> bytes).
    bodies: dict[int, bytes] = field(default_factory=dict)
    drain_ms: float = 0.0
    wall_s: float = 0.0
    client_cpu_s: float = 0.0


class _Connection:
    __slots__ = ("sock", "buffer", "inflight", "last_done")

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()
        #: (request index, absolute due time, sent time), oldest first.
        self.inflight: deque[tuple[int, float, float]] = deque()
        self.last_done = 0.0

    def close(self) -> None:
        self.sock.close()


def _parse_responses(conn: _Connection):
    """Yield ``(status, body)`` for each complete response buffered."""
    buffer = conn.buffer
    while True:
        head_end = buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return
        head = bytes(buffer[:head_end]).lower()
        marker = head.find(b"content-length:")
        if marker < 0:
            raise ValueError("response without Content-Length")
        line_end = head.find(b"\r\n", marker)
        length = int(head[marker + 15 : line_end if line_end >= 0 else None])
        total = head_end + 4 + length
        if len(buffer) < total:
            return
        status = int(head[9:12])
        body = bytes(buffer[head_end + 4 : total])
        del buffer[:total]
        yield status, body


def run_open_loop(
    host: str,
    port: int,
    payloads: list[bytes],
    dues: list[float],
    keep: frozenset[int] = frozenset(),
) -> LoadResult:
    """Send ``payloads[i]`` at ``epoch + dues[i]`` and collect outcomes."""
    total = len(payloads)
    if total != len(dues) or not total:
        raise ValueError("need one due time per payload, at least one")
    result = LoadResult(attempted=total)
    selector = selectors.DefaultSelector()
    conns = [_Connection(host, port) for _ in range(CONNECTIONS)]
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    perf = time.perf_counter
    completed = 0
    last_done = 0.0
    cpu_before = proc_cpu_s()
    epoch = perf() + LEAD_S

    def fail_inflight(conn: _Connection) -> _Connection:
        nonlocal completed
        now = perf()
        for _index, due_at, _sent in conn.inflight:
            result.failed += 1
            result.latencies_ms.append((now - due_at) * 1000.0)
            result.due_s.append(due_at - epoch)
            completed += 1
        selector.unregister(conn.sock)
        conn.close()
        fresh = _Connection(host, port)
        selector.register(fresh.sock, selectors.EVENT_READ, fresh)
        return fresh

    collecting = gc.isenabled()
    gc.disable()
    try:
        sent_count = 0
        while completed < total:
            now = perf()
            while sent_count < total and epoch + dues[sent_count] <= now:
                slot = sent_count % CONNECTIONS
                conn = conns[slot]
                due_at = epoch + dues[sent_count]
                try:
                    conn.sock.sendall(payloads[sent_count])
                except OSError:
                    conn = conns[slot] = fail_inflight(conn)
                    conn.sock.sendall(payloads[sent_count])
                sent = perf()
                result.lateness_ms.append((sent - due_at) * 1000.0)
                conn.inflight.append((sent_count, due_at, sent))
                sent_count += 1
                now = sent
            if sent_count < total:
                wait = max(0.0, epoch + dues[sent_count] - now)
            else:
                wait = 0.05

            for key, _mask in selector.select(wait):
                conn = key.data
                try:
                    data = conn.sock.recv(262144)
                except OSError:
                    data = b""
                if not data:
                    conns[conns.index(conn)] = fail_inflight(conn)
                    continue
                conn.buffer += data
                done = perf()
                for status, body in _parse_responses(conn):
                    index, due_at, sent = conn.inflight.popleft()
                    result.latencies_ms.append((done - due_at) * 1000.0)
                    result.due_s.append(due_at - epoch)
                    result.service_ms.append(
                        (done - max(sent, conn.last_done)) * 1000.0
                    )
                    conn.last_done = done
                    last_done = max(last_done, done)
                    if status != 200:
                        result.failed += 1
                    if index in keep:
                        result.bodies[index] = body
                    completed += 1
            now = perf()
            for slot, conn in enumerate(conns):
                if conn.inflight and now - conn.inflight[0][2] > TIMEOUT_S:
                    conns[slot] = fail_inflight(conn)
    finally:
        if collecting:
            gc.enable()
        for conn in conns:
            conn.close()
        selector.close()
    end = perf()
    result.wall_s = end - epoch
    result.client_cpu_s = proc_cpu_s() - cpu_before
    result.drain_ms = max(0.0, (last_done - (epoch + dues[-1])) * 1000.0)
    return result
