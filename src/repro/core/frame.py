"""Columnar lookup frame: resolve every address once, share it everywhere.

The study pipeline asks the same question — "what does database D say
about address A?" — from ten different analysis stages, and before this
module each stage re-ran the longest-prefix match for every address it
touched.  At the paper's 1.64 M-address Ark scale that redundancy *is*
the wall time of the study.

:class:`LookupFrame` removes it structurally.  A frame resolves a
deduplicated address pool against every database **exactly once**,
through the compiled interval form
(:func:`~repro.geodb.intervals.sweep_sorted_entries` — one C-level
bisect per address instead of a 33-table hash walk), and stores the
answers as parallel columns keyed by address *position*:

* ``flags`` — one byte per address: coverage bitmask (covered /
  has-country / has-city / has-coordinates / block-level entry);
* ``country_ids`` / ``city_ids`` — ``array('i')`` of ids into a shared
  interned :class:`StringTable` (−1 = absent), so cross-database
  agreement checks compare machine integers, not strings;
* ``lats`` / ``lons`` — ``array('d')`` coordinates (NaN when absent);
* ``record_ids`` — ids into the database's deduplicated
  :class:`~repro.geodb.record.GeoRecord` table, for the few callers that
  need the full record object back.

The frame is the only way an analysis stage (coverage, consistency,
accuracy, majority vote, defaults, router-level, the ARIN case study)
reads a database answer.  Table-level stages take a frame or a
``Mapping[str, GeoDatabase]`` and go through :func:`as_frame`;
per-database stages take a column name plus ``frame=``, or a single
:class:`~repro.geodb.database.GeoDatabase`, and go through
:func:`column_frame`.  Either way the columnar body runs.

Construction is one serial pass per database and reports ``frame.*``
metrics plus a ``frame_build`` tracing span when instrumented.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.geo.coordinates import GeoPoint
from repro.geodb.database import GeoDatabase
from repro.geodb.intervals import number_entries, sweep_sorted_entries
from repro.geodb.record import GeoRecord
from repro.net.ip import IPv4Address, parse_address
from repro.obs.reqtrace import NOOP_TRACE

__all__ = [
    "BLOCK_LEVEL",
    "CITY_LEVEL",
    "COVERED",
    "HAS_CITY",
    "HAS_COORDS",
    "HAS_COUNTRY",
    "FrameColumn",
    "LookupFrame",
    "StringTable",
    "as_frame",
    "column_frame",
]

#: Flag bits of :attr:`FrameColumn.flags` (one byte per address).
COVERED = 1  #: some entry longest-prefix-matched the address
HAS_COUNTRY = 2  #: the answer carries an ISO country code
HAS_CITY = 4  #: the answer carries a city name
HAS_COORDS = 8  #: the answer carries coordinates
BLOCK_LEVEL = 16  #: the matched entry covers a whole /24 or more (§5.2.3)
#: City-resolution answer: city name *and* coordinates present (§4).
CITY_LEVEL = HAS_CITY | HAS_COORDS

_NAN = float("nan")


class StringTable:
    """Interned strings with dense integer ids (``-1`` means "absent").

    One table is shared by every column of a frame, so "same id" means
    "same string" *across databases* — country agreement over millions of
    addresses becomes integer comparison.
    """

    __slots__ = ("_ids", "_values")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._values: list[str] = []

    def intern(self, value: str | None) -> int:
        """The id for ``value``, allocating one on first sight (None → −1)."""
        if value is None:
            return -1
        existing = self._ids.get(value)
        if existing is None:
            existing = self._ids[value] = len(self._values)
            self._values.append(value)
        return existing

    def id_of(self, value: str | None, default: int = -2) -> int:
        """The id for ``value`` without allocating; ``default`` if unseen.

        The default sentinel (−2) never equals a stored id *or* the
        "absent" id (−1), so ``column_id == table.id_of(x)`` is exactly
        the comparison ``answer == x`` on the strings.
        """
        if value is None:
            return -1
        return self._ids.get(value, default)

    def value_of(self, identifier: int) -> str | None:
        """The string behind ``identifier`` (negative ids → ``None``)."""
        if identifier < 0:
            return None
        return self._values[identifier]

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: str) -> bool:
        return value in self._ids


@dataclass(frozen=True, slots=True)
class FrameColumn:
    """One database's lookup answers as parallel arrays.

    Every array has one slot per frame address, indexed by the address's
    frame *position*.  ``records`` is the database's deduplicated record
    table; ``record_ids`` maps positions into it (−1 = no coverage).
    """

    database: str
    flags: bytes
    country_ids: array
    city_ids: array
    lats: array
    lons: array
    record_ids: array
    records: tuple[GeoRecord, ...]

    def record_at(self, position: int) -> GeoRecord | None:
        """The full answer record at ``position`` (``None`` = no coverage)."""
        record_id = self.record_ids[position]
        return self.records[record_id] if record_id >= 0 else None

    def location_at(self, position: int) -> GeoPoint | None:
        """The answer coordinates at ``position`` as a :class:`GeoPoint`."""
        if not self.flags[position] & HAS_COORDS:
            return None
        return GeoPoint(self.lats[position], self.lons[position])

    def __len__(self) -> int:
        return len(self.flags)


def _entry_tables(rows, countries: StringTable, cities: StringTable):
    """Per-entry derived columns, indexed by *slot* (entry id + 1; slot 0
    is the shared miss row), so resolving an address is one bisect plus
    O(1) table reads.  ``rows`` holds one ``(prefixlen, record,
    record_id)`` triple per entry id."""
    size = len(rows) + 1
    t_flags = bytearray(size)
    t_country = array("i", [-1]) * size
    t_city = array("i", [-1]) * size
    t_lat = array("d", [_NAN]) * size
    t_lon = array("d", [_NAN]) * size
    t_record = array("i", [-1]) * size
    for entry_id, (prefixlen, record, record_id) in enumerate(rows):
        flags = COVERED
        if record.country is not None:
            flags |= HAS_COUNTRY
        if record.city is not None:
            flags |= HAS_CITY
        if record.latitude is not None:
            flags |= HAS_COORDS
        if prefixlen <= 24:
            flags |= BLOCK_LEVEL
        slot = entry_id + 1
        t_flags[slot] = flags
        t_country[slot] = countries.intern(record.country)
        t_city[slot] = cities.intern(record.city)
        if record.latitude is not None:
            t_lat[slot] = record.latitude
            t_lon[slot] = record.longitude
        t_record[slot] = record_id
    return bytes(t_flags), t_country, t_city, t_lat, t_lon, t_record


def _prepare_database(database) -> tuple[list[int], list[int], list, tuple]:
    """One database's resolution state: ``(starts, interval_slots, rows,
    records)``.

    ``interval_slots`` maps a ``bisect_right(starts, addr)`` result to an
    entry slot (0 = miss); ``rows`` holds ``(prefixlen, record,
    record_id)`` per entry id.  Entry and record ids come from
    :func:`~repro.geodb.intervals.number_entries`, the numbering
    :meth:`CompiledIndex.compile` stores — without its prefix-string
    rendering or serving-side probe closures.
    """
    starts, interval_entries = sweep_sorted_entries(database.entries())
    answers, entries, record_ids, records = number_entries(interval_entries)
    interval_slots = [0]
    interval_slots += [answer + 1 for answer in answers]
    rows = [
        (entry.prefix.prefixlen, entry.record, record_id)
        for entry, record_id in zip(entries, record_ids)
    ]
    return starts, interval_slots, rows, tuple(records)


def _resolve_slots(starts, interval_slots, ints: Sequence[int]) -> list[int]:
    """Entry slots (entry id + 1; 0 = miss) for ``ints``: one C-level
    bisect per address."""
    _bisect = bisect_right
    return [interval_slots[_bisect(starts, value)] for value in ints]


def _derive_columns(tables, slots: list[int]):
    """Map resolved entry slots through the per-entry tables → the
    ``(flags, country_ids, city_ids, lats, lons, record_ids)`` columns."""
    t_flags, t_country, t_city, t_lat, t_lon, t_record = tables
    return (
        bytes(map(t_flags.__getitem__, slots)),
        array("i", map(t_country.__getitem__, slots)),
        array("i", map(t_city.__getitem__, slots)),
        array("d", map(t_lat.__getitem__, slots)),
        array("d", map(t_lon.__getitem__, slots)),
        array("i", map(t_record.__getitem__, slots)),
    )


class LookupFrame:
    """The deduplicated address pool resolved once against every database.

    Build with :meth:`build`; read with :meth:`column` (parallel arrays),
    :meth:`position`/:meth:`positions` (address → row), or the
    per-address conveniences :meth:`lookup`/:meth:`record_at`.  Frames
    are immutable after construction and safe to share across threads.
    """

    __slots__ = (
        "_addresses",
        "_positions",
        "_columns",
        "_countries",
        "_cities",
        "_metrics",
        "_stage_cache",
        "position",
    )

    def __init__(
        self,
        addresses: tuple[IPv4Address, ...],
        positions: Mapping[int, int],
        columns: Mapping[str, FrameColumn],
        countries: StringTable,
        cities: StringTable,
        metrics=None,
    ):
        self._addresses = addresses
        # Keyed by the address *integer*: hashing an int is trivial where
        # hashing an IPv4Address renders a hex string first — at frame
        # scale that difference is visible in every stage.
        self._positions = dict(positions)
        self._columns = dict(columns)
        self._countries = countries
        self._cities = cities
        self._metrics = metrics
        self._stage_cache: dict = {}
        #: Fast position lookup: ``frame.position(address) -> int`` for a
        #: parsed address (KeyError with the address text when the frame
        #: does not contain it is provided by :meth:`positions`; this fast
        #: path raises the raw KeyError and is what hot loops should call).
        self.position = lambda address, _get=self._positions.__getitem__: _get(
            int(address)
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        databases: Mapping[str, GeoDatabase],
        addresses: Iterable[IPv4Address | str | int],
        *,
        tracer=None,
        metrics=None,
    ) -> "LookupFrame":
        """Resolve ``addresses`` (deduplicated, first occurrence wins)
        against every database, exactly once each.

        ``databases`` maps names to :class:`~repro.geodb.database.GeoDatabase`
        snapshots, each swept into interval form here and resolved in one
        serial pass.  ``tracer`` wraps construction in a ``frame_build``
        span; ``metrics`` receives ``frame.*`` counters plus the same
        ``geodb.*`` counter family a direct lookup pass would have
        emitted, so instrumented runs keep their telemetry.
        When ``metrics`` is ``None``, each database's own attached
        registry (``attach_metrics``) is used instead, if any.
        """
        if tracer is None:
            tracer = NOOP_TRACE
        started = time.perf_counter()
        with tracer.span("frame_build") as span:
            positions: dict[int, int] = {}
            pool_list: list[IPv4Address] = []
            for raw in addresses:
                address = parse_address(raw)
                key = int(address)
                if key not in positions:
                    positions[key] = len(pool_list)
                    pool_list.append(address)
            pool = tuple(pool_list)
            ints = list(positions)  # keys in insertion = position order

            countries = StringTable()
            cities = StringTable()
            columns: dict[str, FrameColumn] = {}
            for name, database in databases.items():
                starts, interval_slots, rows, records = _prepare_database(database)
                tables = _entry_tables(rows, countries, cities)
                slots = _resolve_slots(starts, interval_slots, ints)
                columns[name] = FrameColumn(name, *_derive_columns(tables, slots), records)
                registry = (
                    metrics if metrics is not None else getattr(database, "_metrics", None)
                )
                if registry is not None:
                    # The per-slot mirror tables exist only to replay the
                    # geodb.* counters; skip them on uninstrumented runs.
                    _mirror_lookup_metrics(
                        registry,
                        name,
                        Counter(slots),
                        ["none"] + [record.resolution.value for _, record, _ in rows],
                        [0] + [prefixlen for prefixlen, _, _ in rows],
                    )

            span.set(items=len(pool), databases=len(columns))

        if metrics is not None:
            metrics.inc("frame.builds")
            metrics.inc("frame.addresses", len(pool))
            metrics.inc("frame.columns", len(columns))
            metrics.observe("frame.build_seconds", time.perf_counter() - started)
        return cls(pool, positions, columns, countries, cities, metrics=metrics)

    # -- access --------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Database names, in the order the source mapping listed them."""
        return tuple(self._columns)

    @property
    def addresses(self) -> tuple[IPv4Address, ...]:
        """The deduplicated address pool, in frame-position order."""
        return self._addresses

    @property
    def countries(self) -> StringTable:
        """The shared interned country-code table."""
        return self._countries

    @property
    def cities(self) -> StringTable:
        """The shared interned city-name table."""
        return self._cities

    def column(self, name: str) -> FrameColumn:
        """The parallel answer arrays for one database."""
        column = self._columns.get(name)
        if column is None:
            raise KeyError(f"no such database in frame: {name!r} (have {sorted(self._columns)})")
        if self._metrics is not None:
            self._metrics.inc("frame.column_reads", database=name)
        return column

    @property
    def stage_cache(self) -> dict:
        """Scratch memo space for analysis stages.

        Keyed by stage-chosen tuples (convention: lead with the stage
        name); lives exactly as long as the frame.  Lets the accuracy
        breakdowns share one per-record scoring pass across overall /
        by-RIR / by-country / by-source without re-deriving it.
        """
        return self._stage_cache

    def positions(self, addresses: Iterable[IPv4Address | str | int]) -> list[int]:
        """Frame positions for ``addresses`` (order and duplicates kept).

        Accepts anything :func:`~repro.net.ip.parse_address` accepts;
        already-parsed addresses skip the parse.
        """
        position = self._positions.__getitem__
        result: list[int] = []
        for address in addresses:
            try:
                result.append(position(int(address)))
            except (KeyError, TypeError, ValueError):
                try:
                    result.append(position(int(parse_address(address))))
                except KeyError:
                    raise KeyError(f"address not in frame: {address!r}") from None
        return result

    def lookup(self, name: str, address: IPv4Address | str | int) -> GeoRecord | None:
        """The answer record for one address — signature-compatible with
        ``GeoDatabase.lookup`` (convenience/equivalence path, not the hot
        loop; analyses should read columns)."""
        return self.column(name).record_at(self._positions[int(parse_address(address))])

    def __len__(self) -> int:
        return len(self._addresses)

    def __contains__(self, address: IPv4Address | str | int) -> bool:
        try:
            return int(address) in self._positions
        except (TypeError, ValueError):
            try:
                return int(parse_address(address)) in self._positions
            except (ValueError, TypeError):
                return False

    def __iter__(self) -> Iterator[IPv4Address]:
        return iter(self._addresses)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"LookupFrame({len(self._addresses)} addresses × "
            f"{len(self._columns)} databases)"
        )


def _mirror_lookup_metrics(metrics, name, counts, resolutions, prefix_lengths) -> None:
    """Emit the ``geodb.*`` counters a direct lookup pass would have.

    The frame replaces per-address ``GeoDatabase.lookup`` calls, so an
    instrumented run would otherwise lose its lookup telemetry; this
    replays the same counter family from the aggregated slot counts.
    """
    if metrics is None:
        return
    total = sum(counts.values())
    metrics.inc("geodb.lookups", total, database=name)
    misses = counts.get(0, 0)
    if misses:
        metrics.inc("geodb.misses", misses, database=name)
    by_resolution: dict[str, int] = {}
    for slot, count in counts.items():
        if slot == 0:
            continue
        resolution = resolutions[slot]
        by_resolution[resolution] = by_resolution.get(resolution, 0) + count
        metrics.observe_many("geodb.prefix_length", prefix_lengths[slot], count, database=name)
    for resolution, count in sorted(by_resolution.items()):
        metrics.inc("geodb.resolution", count, database=name, resolution=resolution)


def as_frame(
    source,
    addresses: Iterable[IPv4Address | str | int],
    *,
    tracer=None,
    metrics=None,
) -> LookupFrame:
    """``source`` itself when it already is a :class:`LookupFrame`, else a
    frame built from the database mapping over ``addresses``.

    Table-level stages call it on their first argument, so a database
    mapping and a frame run the same columnar body.
    """
    if isinstance(source, LookupFrame):
        return source
    return LookupFrame.build(source, addresses, tracer=tracer, metrics=metrics)


def column_frame(
    database, addresses: Iterable[IPv4Address | str | int], frame: LookupFrame | None
) -> tuple[str, LookupFrame]:
    """The ``(column name, frame)`` a per-database stage reads.

    With ``frame``, ``database`` is a column name or a database named
    like one.  Without it, ``database`` must be a
    :class:`~repro.geodb.database.GeoDatabase`, and a one-column frame is
    built over ``addresses``.  An instrumented database then gets its
    ``geodb.*`` counters from the frame's mirror, counted over the
    deduplicated pool rather than once per address occurrence.
    """
    if frame is not None:
        return (database if isinstance(database, str) else database.name), frame
    if isinstance(database, str):
        raise TypeError("a column name needs frame=…")
    return database.name, LookupFrame.build({database.name: database}, addresses)
