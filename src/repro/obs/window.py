"""Rolling-window rates: a ring buffer of per-second buckets.

Lifetime counters answer "how much, ever"; an operator watching a live
server needs "how much, *lately*" — requests per second over the last
10s, the error rate over the last minute, whether the plane hit ratio
just fell off a cliff.  Gouel et al.'s longitudinal study (PAPERS.md) is
the same observation at database scale: behaviour is a function of time,
so the telemetry plane must be able to window it.

A :class:`RollingWindow` keeps one bucket per second over a fixed
horizon.  Slot ``t % horizon`` belongs to second ``t``; writing a new
second reclaims the slot lazily, so there is no background thread and no
per-second housekeeping — memory is exactly ``horizon`` floats plus
``horizon`` stamps, forever.  Queries sum the slots whose stamp falls in
``(now - last_s, now]``; the current (partial) second is included, so a
rate read mid-second slightly underestimates — live dashboards prefer
fresh-and-approximate over stale-and-exact.

Instances lock internally: the HTTP handler threads and the batch pool
add concurrently while ``/statusz`` reads.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence

__all__ = ["DEFAULT_HORIZON_S", "RollingWindow"]

#: Default window horizon — long enough for the 60s rates ``/statusz``
#: reports, small enough that every window is trivially bounded.
DEFAULT_HORIZON_S = 60


class RollingWindow:
    """Per-second event buckets over the last ``horizon_s`` seconds."""

    __slots__ = ("horizon_s", "_clock", "_counts", "_stamps", "_lock")

    def __init__(
        self,
        horizon_s: int = DEFAULT_HORIZON_S,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        if horizon_s < 1:
            raise ValueError(f"horizon_s must be positive: {horizon_s!r}")
        self.horizon_s = int(horizon_s)
        self._clock = clock
        self._counts = [0.0] * self.horizon_s
        #: The absolute second each slot last recorded; -1 = never used.
        self._stamps = [-1] * self.horizon_s
        self._lock = threading.Lock()

    def add(self, value: float = 1.0, *, now: float | None = None) -> None:
        """Record ``value`` against the current second."""
        second = int(self._clock() if now is None else now)
        index = second % self.horizon_s
        with self._lock:
            if self._stamps[index] != second:
                # The slot still holds data from `second - horizon_s`
                # (or nothing): that second just left the window.
                self._stamps[index] = second
                self._counts[index] = value
            else:
                self._counts[index] += value

    def total(self, last_s: int | None = None) -> float:
        """Sum of values recorded over the last ``last_s`` seconds.

        ``last_s`` is clamped to the horizon — a window cannot answer
        further back than it remembers.
        """
        span = self.horizon_s if last_s is None else min(int(last_s), self.horizon_s)
        if span < 1:
            return 0.0
        now = int(self._clock())
        cutoff = now - span
        with self._lock:
            return sum(
                count
                for count, stamp in zip(self._counts, self._stamps)
                if cutoff < stamp <= now
            )

    def rate(self, last_s: int | None = None) -> float:
        """Events per second over the last ``last_s`` seconds."""
        span = self.horizon_s if last_s is None else min(int(last_s), self.horizon_s)
        if span < 1:
            return 0.0
        return self.total(span) / span

    def snapshot(self, horizons: Sequence[int] = (10, 60)) -> dict[str, dict[str, float]]:
        """JSON-ready totals and rates for each requested horizon."""
        result: dict[str, dict[str, float]] = {}
        for span in horizons:
            span = min(int(span), self.horizon_s)
            total = self.total(span)
            result[f"{span}s"] = {
                "total": round(total, 6),
                "per_s": round(total / span, 6) if span else 0.0,
            }
        return result

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RollingWindow({self.horizon_s}s, total={self.total():g})"
