"""Human-readable stage logging for ``--verbose`` runs.

:class:`StageLogger` is a :class:`~repro.obs.reqtrace.RequestTrace`
listener: the trace calls it as each ``span()`` row closes, and it
prints one aligned line per stage to stderr (stdout stays reserved for
the report itself, so ``repro --verbose run > report.txt`` still
captures a clean report).
"""

from __future__ import annotations

import sys
from typing import IO

from repro.obs.reqtrace import SpanRecord

__all__ = ["StageLogger"]


class StageLogger:
    """Prints ``[repro] <stage>: <ms> ms (attrs)`` per closed span row."""

    def __init__(self, stream: IO[str] | None = None, prefix: str = "[repro]"):
        self._stream = stream if stream is not None else sys.stderr
        self._prefix = prefix

    def __call__(self, row: SpanRecord, depth: int) -> None:
        detail = [f"{key}={value}" for key, value in (row.attrs or {}).items()]
        suffix = f"  ({', '.join(detail)})" if detail else ""
        indent = "  " * depth
        print(
            f"{self._prefix} {indent}{row.name}: {row.duration_ms:.1f} ms{suffix}",
            file=self._stream,
        )
