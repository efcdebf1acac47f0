"""Named counters and histograms for the study's hot paths.

One :class:`MetricsRegistry` is shared by everything a run instruments —
databases, the whois service, the scenario builder, the serving stack —
so a single snapshot answers "how many lookups, how many misses, what
resolutions came back".  Metric names are dotted, ``family.event``
(``geodb.lookups``, ``whois.queries``, ``serve.requests``); the part
before the first dot is the metric's *family*, the unit the run manifest
groups by.  Optional labels (``database="NetAcuity"``,
``endpoint="lookup"``) split a name into a family of series.

Three recording surfaces, ordered by hot-path cost:

* :meth:`MetricsRegistry.inc` / :meth:`~MetricsRegistry.observe` — the
  general path: key construction + one registry-lock acquisition per
  call.  Histograms are log-bucketed (:class:`~repro.obs.quantiles.\
BucketHistogram`), so every series can answer p50/p99 without changing
  the manifest's summary shape.
* :meth:`MetricsRegistry.cell` / :meth:`~MetricsRegistry.observer` —
  series resolved once for hot paths (the serving engine's plane path,
  the HTTP edge's per-request series): a :class:`CounterCell` is one
  locked integer add with no key construction, and one cell may feed
  *several* counters at once (``serve.lookups`` + ``plane.hits`` cost a
  single add); an observer is one locked histogram update.  Cell values
  merge into every read path and feed the same rolling windows, so
  callers cannot tell how a counter was fed.
* :meth:`MetricsRegistry.track_window` — attach a
  :class:`~repro.obs.window.RollingWindow` to a counter name (optionally
  filtered by labels); matching :meth:`inc` calls and cells also land in
  the window, giving ``/statusz`` rates over the last 10s/60s instead of
  lifetime totals only.

Instrumented objects hold ``metrics = None`` by default and skip all of
this with one ``is not None`` test, keeping the uninstrumented hot path
identical to the pre-observability code.

Thread-safety: every write and every read path takes (or copies under)
``_lock`` — the serving layer increments from HTTP handler threads and
batch-executor threads while ``/statusz`` and ``/metricsz`` scrape, and
a snapshot taken mid-insert must never see the dicts resize under it.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Mapping, Sequence

from repro.obs.quantiles import BucketHistogram, Histogram
from repro.obs.window import RollingWindow

__all__ = ["CounterCell", "Histogram", "MetricsRegistry"]

_LabelKey = tuple[tuple[str, str], ...]


def _series_name(name: str, labels: _LabelKey) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{rendered}}}"


class CounterCell:
    """A pre-resolved counter slot: one locked add, no key building.

    The serving engine's plane path answers in ~1 µs; going through
    :meth:`MetricsRegistry.inc` twice per lookup (key tuple + registry
    lock each time) costs more than the lookup itself.  A cell is
    resolved once at attach time and registered under every counter name
    it feeds, so the hot path pays exactly one uncontended lock and one
    integer add — and the counts stay *exact* (the fault-injection
    hammer tests reconcile them to the request totals).  ``windows`` are
    the rolling windows tracking any of those counters, kept current by
    the registry whichever of the cell and the window came first.
    """

    __slots__ = ("value", "windows", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self.windows: tuple[RollingWindow, ...] = ()
        self._lock = threading.Lock()

    def add(self, value: int = 1) -> None:
        """Add ``value`` to every counter this cell was registered under
        and to every window tracking one of them."""
        # acquire/release rather than ``with``: on the ~1 µs plane path
        # the context-manager protocol costs more than the add itself.
        lock = self._lock
        lock.acquire()
        try:
            self.value += value
        finally:
            lock.release()
        for window in self.windows:
            window.add(value)


class _WindowTracker:
    """One rolling window bound to a counter name + label filter."""

    __slots__ = ("alias", "name", "label_filter", "window")

    def __init__(
        self, alias: str, name: str, label_filter: _LabelKey, window: RollingWindow
    ):
        self.alias = alias
        self.name = name
        self.label_filter = frozenset(label_filter)
        self.window = window

    def matches(self, labels: _LabelKey) -> bool:
        return not self.label_filter or self.label_filter <= set(labels)


class MetricsRegistry:
    """Process-wide named counters and histograms.

    Typical use: the CLI (or a test) creates one registry per run and
    attaches it to every instrumented object; the registry outlives them
    all and is snapshotted into the run manifest.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, _LabelKey], int] = {}
        self._histograms: dict[tuple[str, _LabelKey], BucketHistogram] = {}
        self._cells: dict[tuple[str, _LabelKey], list[CounterCell]] = {}
        self._gauges: dict[tuple[str, _LabelKey], Callable[[], float]] = {}
        self._window_index: dict[str, list[_WindowTracker]] = {}
        self._window_aliases: dict[str, _WindowTracker] = {}
        # The serving layer increments from HTTP handler threads and
        # batch-executor threads concurrently; a read-modify-write on a
        # plain dict would drop counts under that load (the cache-hammer
        # test reconciles hits+misses against request totals exactly).
        self._lock = threading.Lock()

    @staticmethod
    def _key(name: str, labels: Mapping[str, Any]) -> tuple[str, _LabelKey]:
        if not labels:
            return name, ()
        return name, tuple(sorted((key, str(value)) for key, value in labels.items()))

    # -- recording -----------------------------------------------------------

    def inc(self, name: str, value: int = 1, **labels: Any) -> None:
        """Add ``value`` to the counter series ``name`` + ``labels``."""
        key = self._key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value
        trackers = self._window_index.get(name)
        if trackers:
            for tracker in trackers:
                if tracker.matches(key[1]):
                    tracker.window.add(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one observation into the histogram ``name`` + ``labels``."""
        key = self._key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = BucketHistogram()
            histogram.observe(value)

    def observe_many(self, name: str, value: float, count: int, **labels: Any) -> None:
        """Record ``count`` identical observations in one O(1) update."""
        if count <= 0:
            return
        key = self._key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = BucketHistogram()
            histogram.observe_many(value, count)

    def cell(self, *names: str, **labels: Any) -> CounterCell:
        """A new :class:`CounterCell` feeding every counter in ``names``.

        Each ``cell.add()`` contributes to all of them at once — the
        hot-path pattern is one cell for ``("serve.lookups",
        "plane.hits")`` so a plane hit costs a single locked add.  The
        windows tracking any of those series are matched here, once, and
        fed by every add exactly as the matching :meth:`inc` would.
        """
        if not names:
            raise ValueError("a counter cell needs at least one counter name")
        cell = CounterCell()
        windows: list[RollingWindow] = []
        with self._lock:
            for name in names:
                key = self._key(name, labels)
                self._cells.setdefault(key, []).append(cell)
                for tracker in self._window_index.get(name, ()):
                    if tracker.matches(key[1]):
                        windows.append(tracker.window)
            cell.windows = tuple(windows)
        return cell

    def observer(self, name: str, **labels: Any) -> Callable[[float], None]:
        """:meth:`observe` for one histogram series, resolved once: the
        returned callable records a value with one locked update (the
        series exists, empty, from this call on)."""
        key = self._key(name, labels)
        lock = self._lock
        with lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = BucketHistogram()

        def observe(value: float) -> None:
            with lock:
                histogram.observe(value)

        return observe

    # -- gauges --------------------------------------------------------------

    def register_gauge(
        self, name: str, callback: Callable[[], float], **labels: Any
    ) -> None:
        """Register a *callback* gauge: the current value is read at
        scrape time, never stored.

        The natural fit for point-in-time state someone else owns — the
        serving generation id, its age in seconds — where a counter-style
        write per change would either miss updates or duplicate the
        owner's bookkeeping.  Re-registering a (name, labels) series
        replaces the callback (the latest owner wins, e.g. after an
        engine restart behind the same registry).
        """
        key = self._key(name, labels)
        with self._lock:
            self._gauges[key] = callback

    def gauge_series(self) -> list[tuple[str, _LabelKey, float]]:
        """Every gauge as ``(name, label_pairs, current_value)`` rows.

        Callbacks run *outside* the registry lock — a gauge that reads
        another locked object (the engine) must not be able to deadlock a
        scrape — and a callback that raises is skipped rather than
        failing the whole exposition.
        """
        with self._lock:
            gauges = sorted(self._gauges.items())
        rows: list[tuple[str, _LabelKey, float]] = []
        for (name, labels), callback in gauges:
            try:
                value = float(callback())
            except Exception:
                continue
            rows.append((name, labels, value))
        return rows

    def gauges_snapshot(self) -> dict[str, float]:
        """All gauge series as ``name{label=value,...} -> current value``."""
        return {
            _series_name(name, labels): value
            for name, labels, value in self.gauge_series()
        }

    # -- rolling windows -----------------------------------------------------

    def track_window(
        self,
        alias: str,
        name: str,
        *,
        horizon_s: int = 60,
        clock: Callable[[], float] = time.monotonic,
        **labels: Any,
    ) -> RollingWindow:
        """Attach a rolling window to counter ``name`` (idempotent per
        ``alias``; re-registering an alias returns the existing window).

        Only :meth:`inc` calls and cells whose labels are a superset of
        ``labels`` feed the window — the serving layer uses this to keep
        ``endpoint_class="introspection"`` scrape traffic out of the
        request-rate windows.  Cells created before the window are
        attached to it here.
        """
        with self._lock:
            tracker = self._window_aliases.get(alias)
            if tracker is not None:
                return tracker.window
            _, label_filter = self._key(name, labels)
            tracker = _WindowTracker(
                alias, name, label_filter, RollingWindow(horizon_s, clock=clock)
            )
            self._window_aliases[alias] = tracker
            self._window_index.setdefault(name, []).append(tracker)
            for (cell_name, cell_labels), cells in self._cells.items():
                if cell_name == name and tracker.matches(cell_labels):
                    for cell in cells:
                        # A fresh tuple: a concurrent add() iterates the
                        # old one undisturbed.
                        cell.windows = (*cell.windows, tracker.window)
        return tracker.window

    def window(self, alias: str) -> RollingWindow | None:
        """The window registered under ``alias`` (``None`` if absent)."""
        with self._lock:
            tracker = self._window_aliases.get(alias)
        return tracker.window if tracker is not None else None

    def windows_snapshot(
        self, horizons: Sequence[int] = (10, 60)
    ) -> dict[str, dict[str, dict[str, float]]]:
        """Every tracked window's totals/rates per horizon, by alias."""
        with self._lock:
            trackers = sorted(self._window_aliases.values(), key=lambda t: t.alias)
        return {tracker.alias: tracker.window.snapshot(horizons) for tracker in trackers}

    # -- inspection ----------------------------------------------------------
    #
    # Every read path locks (or copies under the lock): a /statusz or
    # /metricsz scrape races concurrent handler-thread inserts, and
    # iterating a dict that resizes mid-walk raises RuntimeError.

    def _counter_value(self, key: tuple[str, _LabelKey]) -> int:
        # Called under self._lock.  A cell's .value read is a plain int
        # load — at worst one in-flight add is missed, never torn.
        value = self._counters.get(key, 0)
        cells = self._cells.get(key)
        if cells:
            value += sum(cell.value for cell in cells)
        return value

    def counter(self, name: str, **labels: Any) -> int:
        """Current value of one counter series (0 if never incremented)."""
        key = self._key(name, labels)
        with self._lock:
            return self._counter_value(key)

    def counter_total(self, name: str) -> int:
        """Sum of a counter across all of its label series."""
        with self._lock:
            keys = {
                key
                for key in [*self._counters, *self._cells]
                if key[0] == name
            }
            return sum(self._counter_value(key) for key in keys)

    def families(self) -> tuple[str, ...]:
        """Distinct metric families (name prefix before the first dot)."""
        with self._lock:
            names = (
                {name for name, _ in self._counters}
                | {name for name, _ in self._histograms}
                | {name for name, _ in self._cells}
                | {name for name, _ in self._gauges}
            )
        return tuple(sorted({name.split(".", 1)[0] for name in names}))

    def counters_snapshot(self) -> dict[str, int]:
        """All counter series as ``name{label=value,...} -> count``."""
        with self._lock:
            keys = sorted({*self._counters, *self._cells})
            return {
                _series_name(name, labels): self._counter_value((name, labels))
                for name, labels in keys
            }

    def counter_series(self) -> list[tuple[str, _LabelKey, int]]:
        """All counter series as ``(name, label_pairs, value)`` rows —
        the structured form the Prometheus renderer consumes."""
        with self._lock:
            keys = sorted({*self._counters, *self._cells})
            return [
                (name, labels, self._counter_value((name, labels)))
                for name, labels in keys
            ]

    def histograms_snapshot(
        self, *, quantiles: bool = False
    ) -> dict[str, dict[str, float]]:
        """All histogram series as ``name{...} -> summary dict``.

        The default shape is byte-compatible with the pre-quantile
        manifest format; ``quantiles=True`` (the ``/statusz`` view) adds
        ``p50``/``p90``/``p99``/``p999`` to every non-empty series.
        """
        with self._lock:
            snapshot = {}
            for (name, labels), histogram in sorted(self._histograms.items()):
                summary = histogram.to_dict()
                if quantiles and histogram.count:
                    summary.update(histogram.quantiles())
                snapshot[_series_name(name, labels)] = summary
            return snapshot

    def histogram_series(self) -> list[tuple[str, _LabelKey, dict[str, Any]]]:
        """All histogram series as ``(name, label_pairs, exposition)``
        rows, where exposition holds count/sum/cumulative buckets and
        quantiles — copied under the lock so buckets and count agree."""
        with self._lock:
            return [
                (
                    name,
                    labels,
                    {**histogram.exposition(), "quantiles": histogram.quantiles()},
                )
                for (name, labels), histogram in sorted(self._histograms.items())
            ]

    def render(self) -> str:
        """Counters then histograms, one aligned line per series."""
        counters = self.counters_snapshot()
        histograms = self.histograms_snapshot()
        if not counters and not histograms:
            return "(no metrics recorded)"
        width = max(len(name) for name in [*counters, *histograms])
        lines = [f"{name.ljust(width)}  {value}" for name, value in counters.items()]
        for name, summary in histograms.items():
            rendered = " ".join(f"{key}={value:g}" for key, value in summary.items())
            lines.append(f"{name.ljust(width)}  {rendered}")
        return "\n".join(lines)

    def __len__(self) -> int:
        with self._lock:
            counter_keys = {*self._counters, *self._cells}
            return len(counter_keys) + len(self._histograms) + len(self._gauges)
