"""A bounded, thread-safe LRU cache for lookup answers.

Router-interface traffic is heavily skewed — the same interfaces come
up over and over — so a small address-keyed cache absorbs most of the
repeat volume of a slow backend (the Team Cymru whois client in
:mod:`repro.net.registry` fronts its registry queries with one).  The
cache is deliberately minimal: a bounded
:class:`~collections.OrderedDict` behind a lock (callers query it from
several worker threads concurrently), with hit/miss counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["LruCache"]

_MISSING = object()


class LruCache:
    """Bounded least-recently-used mapping with hit/miss accounting.

    ``None`` is a legitimate cached value (an address with no coverage is
    still a final answer), so :meth:`get` distinguishes "cached None" from
    "absent" by raising :class:`KeyError` on a miss.
    """

    def __init__(self, capacity: int):
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError(f"cache capacity must be a positive integer: {capacity!r}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any:
        """The cached value for ``key``; raises ``KeyError`` on a miss."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                raise KeyError(key)
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting the oldest entry if full."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._data[key] = value
                return
            if len(self._data) >= self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1
            self._data[key] = value

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        with self._lock:
            self._data.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """JSON-ready counter snapshot."""
        return {
            "capacity": self.capacity,
            "size": len(self._data),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 6),
        }

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"LruCache({len(self._data)}/{self.capacity}, hit_rate={self.hit_rate:.2f})"
