"""The answer plane: cross-vendor consensus resolved at compile time.

``BENCH_pipeline.json`` showed the raw compiled-index bisect at ~200 ns
per lookup while the full :class:`~repro.serve.engine.ServingEngine`
path cost ~5 µs — per-request Python orchestration (outcome objects,
per-vendor dict plumbing, consensus re-derivation) ate a ~20x gap.  The
paper's observation makes that work removable: each vendor's answers
*and* their majority/disagreement structure (§5.1) are static properties
of the database snapshots, so they can be resolved once per snapshot set
instead of once per request — the same move the columnar
:class:`~repro.core.frame.LookupFrame` makes for the analysis pipeline,
applied to serving.

:func:`compile_plane` merges every vendor's
:class:`~repro.serve.index.CompiledIndex` partition into one sorted
cross-vendor boundary array (:func:`repro.geodb.intervals.merge_starts`:
inside a merged interval no vendor's answer can change) and precomputes,
per merged interval, the answer *cell*: which entry of each vendor's
index answers it, and the §5.1 consensus — majority country/location
with vote counts, disagreement flags, and the quorum verdict, built by
the live path's own :func:`~repro.serve.engine.consensus_of_records`,
never a reimplemented tally.  Adjacent intervals with identical cells
merge, and identical cells share one row of a packed cell table.

Cells point into the indexes instead of restating them, and decode
lazily: a cell becomes a :class:`PlaneAnswer` (the vendors' shared
:class:`~repro.serve.index.IndexAnswer` objects and one
:class:`~repro.serve.engine.ConsensusAnswer` that every request landing
in the cell is handed) the first time a lookup lands in it, is memoized
per cell id, and is then cached in the probed interval's slot — so a
server boots without building tens of thousands of cells it may never
serve, and a warm healthy-path lookup is still one C-level ``bisect``
plus one list read (and one ``is None`` test).

The plane only ever encodes the *healthy* answer: the serving engine
consults it exclusively while every vendor is healthy and no fault
injector is armed, and falls back to the live per-vendor resolve path
the moment anything is degraded — so the fail-closed contract
(flags, quarantine, typed errors) is untouched, which the chaos matrix
re-proves with the plane attached.  A plane is bound to the exact index
content it was compiled over: the very index objects, or indexes whose
``.rgix`` payload checksums match (:meth:`AnswerPlane.serves`).

Planes persist as ``.rgpl`` files next to the ``.rgix`` snapshots they
were compiled from, with the same two-digest integrity scheme (header
SHA-256 + payload SHA-256) plus a range check of every packed id at
load: every corrupt byte raises
:class:`~repro.serve.snapshot.SnapshotError` at load, never a silently
wrong precomputed answer and never a failure at a later probe.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import struct
import sys
import threading
from array import array
from bisect import bisect_right
from typing import Mapping, NamedTuple, Sequence

from repro.core.majority import DEFAULT_CITY_RANGE_KM
from repro.geo.coordinates import GeoPoint
from repro.geodb.database import GeoDatabase
from repro.geodb.intervals import merge_starts
from repro.net.ip import IPv4Address, parse_address
from repro.serve.engine import ConsensusAnswer, LookupOutcome, consensus_of_records
from repro.serve.index import CompiledIndex, IndexAnswer
from repro.serve.snapshot import (
    SnapshotError,
    _label_generation,
    index_checksum,
    load_index_set,
)

__all__ = [
    "AnswerPlane",
    "DEFAULT_QUORUM_MIN",
    "PLANE_SUFFIX",
    "PlaneAnswer",
    "compile_plane",
    "compile_serving_set",
    "load_plane",
    "save_plane",
]

#: File extension for persisted answer planes (``plane.rgpl``).
PLANE_SUFFIX = ".rgpl"

#: Matches :class:`~repro.serve.engine.ResiliencePolicy.quorum_min`'s
#: default — the engine refuses a plane compiled under a different rule.
DEFAULT_QUORUM_MIN = 2

_MAGIC = b"RGPL"
_FORMAT_VERSION = 2
_HEADER_DIGEST_BYTES = 32
_PAYLOAD_OFFSET = 8 + _HEADER_DIGEST_BYTES  # magic + header length + digest

# The cell table's flags byte.
_COUNTRY_DISAGREEMENT = 1
_CITY_DISAGREEMENT = 2
_QUORUM = 4
_HAS_LOCATION = 8


class PlaneAnswer(NamedTuple):
    """One merged interval's fully precomputed cross-vendor answer.

    ``answers`` is the exact mapping a healthy
    :class:`~repro.serve.engine.LookupOutcome` would carry (one key per
    vendor, ``None`` = healthy-but-no-coverage); ``consensus`` is the
    §5.1 consensus the live path would build per request, one object
    that every request landing in the cell is handed.  Cells are shared
    across every request that lands in their intervals — treat all
    containers as read-only.  A named tuple rather than a frozen
    dataclass: a cell is built on the first probe that lands in it, so
    its construction cost (a quarter of a frozen dataclass's) is paid by
    a live request.
    """

    answers: Mapping[str, IndexAnswer | None]
    consensus: ConsensusAnswer

    def outcome_at(self, address: IPv4Address) -> LookupOutcome:
        """This cell as a healthy :class:`LookupOutcome` for ``address``,
        carrying the cell so its precomputed consensus is reused."""
        return LookupOutcome(address=address, answers=self.answers, cell=self)


class _CellTable:
    """The plane's deduplicated cells, packed column by column.

    Row *c* is cell *c*: per vendor, the entry id of the answering entry
    in that vendor's bound :class:`~repro.serve.index.CompiledIndex`
    (−1 = no coverage); the consensus country as an id into
    ``countries`` (−1 = none); the three vote counts; a flags byte (both
    disagreements, quorum, has-location); and the consensus location.
    Columns are :mod:`array` arrays — a few bytes per cell instead of a
    dict and a dataclass.  :meth:`append` packs a cell's
    :class:`~repro.serve.engine.ConsensusAnswer` into its row and
    :meth:`decode` rebuilds one :class:`PlaneAnswer` from a row.
    """

    __slots__ = (
        "names",
        "indexes",
        "countries",
        "lats",
        "lons",
        "entry_ids",
        "country_ids",
        "country_votes",
        "location_votes",
        "voters",
        "flags",
        "_country_ids",
    )

    def __init__(
        self,
        names: Sequence[str],
        indexes: Sequence[CompiledIndex],
        countries: Sequence[str],
        columns: Sequence[array],
    ):
        self.names = tuple(names)
        self.indexes = tuple(indexes)
        self.countries = list(countries)
        self._country_ids = {country: i for i, country in enumerate(self.countries)}
        vendors = len(self.names)
        (self.lats, self.lons, *self.entry_ids) = columns[: 2 + vendors]
        (
            self.country_ids,
            self.country_votes,
            self.location_votes,
            self.voters,
            self.flags,
        ) = columns[2 + vendors :]

    @staticmethod
    def typecodes(vendors: int) -> str:
        """Column types in storage order: float64 lat/lon, an int32
        entry id per vendor, int16 country id, four uint8 columns."""
        return "dd" + "i" * vendors + "hBBBB"

    @classmethod
    def empty(
        cls, names: Sequence[str], indexes: Sequence[CompiledIndex]
    ) -> "_CellTable":
        """A table with no rows, ready for :meth:`append`."""
        return cls(
            names, indexes, [], [array(code) for code in cls.typecodes(len(names))]
        )

    def append(self, entry_ids: Sequence[int], consensus: ConsensusAnswer) -> None:
        """Add one cell row (compile time)."""
        for column, entry_id in zip(self.entry_ids, entry_ids):
            column.append(entry_id)
        country, location = consensus.country, consensus.location
        if country is None:
            self.country_ids.append(-1)
        else:
            country_id = self._country_ids.get(country)
            if country_id is None:
                country_id = self._country_ids[country] = len(self.countries)
                self.countries.append(country)
            self.country_ids.append(country_id)
        self.lats.append(location.lat if location is not None else 0.0)
        self.lons.append(location.lon if location is not None else 0.0)
        self.country_votes.append(consensus.country_votes)
        self.location_votes.append(consensus.location_votes)
        self.voters.append(consensus.voters)
        self.flags.append(
            (_COUNTRY_DISAGREEMENT if consensus.country_disagreement else 0)
            | (_CITY_DISAGREEMENT if consensus.city_disagreement else 0)
            | (_QUORUM if consensus.quorum else 0)
            | (_HAS_LOCATION if location is not None else 0)
        )

    def columns(self) -> list[array]:
        """Every column, in :meth:`typecodes` order."""
        return [
            self.lats,
            self.lons,
            *self.entry_ids,
            self.country_ids,
            self.country_votes,
            self.location_votes,
            self.voters,
            self.flags,
        ]

    def __len__(self) -> int:
        return len(self.flags)

    def validate(self) -> None:
        """Range-check every packed id and value (``ValueError``).

        Run once at load over whole columns (C-level ``min``/``max``), so
        that :meth:`decode` can never fail at a later probe.
        """
        count = len(self)
        if any(len(column) != count for column in self.columns()):
            raise ValueError("cell table columns differ in length")
        if not count:
            return
        for name, index, column in zip(self.names, self.indexes, self.entry_ids):
            if min(column) < -1 or max(column) >= index.entry_count:
                raise ValueError(
                    f"cell table references {name} entries outside its index"
                    f" ({index.entry_count} entries)"
                )
        if min(self.country_ids) < -1 or max(self.country_ids) >= len(self.countries):
            raise ValueError("cell table references countries outside the table")
        vendors = len(self.names)
        if max(self.voters) > vendors or max(self.country_votes) > vendors:
            raise ValueError("cell table has more votes than vendors")
        if max(self.location_votes) > vendors or max(self.flags) >= 16:
            raise ValueError("cell table has an invalid vote count or flags byte")
        if not all(-90.0 <= lat <= 90.0 for lat in self.lats) or not all(
            -180.0 <= lon <= 180.0 for lon in self.lons
        ):
            raise ValueError("cell table holds an out-of-range location")

    def decode(self, cell_id: int) -> PlaneAnswer:
        """Cell ``cell_id`` as a :class:`PlaneAnswer` over the bound
        indexes' shared per-entry answers."""
        answers: dict[str, IndexAnswer | None] = {}
        for name, index, column in zip(self.names, self.indexes, self.entry_ids):
            entry_id = column[cell_id]
            answers[name] = index.entry_answer(entry_id) if entry_id >= 0 else None
        flags = self.flags[cell_id]
        country_id = self.country_ids[cell_id]
        consensus = ConsensusAnswer(  # positional: the cheapest construction
            self.countries[country_id] if country_id >= 0 else None,
            self.country_votes[cell_id],
            (
                GeoPoint(self.lats[cell_id], self.lons[cell_id])
                if flags & _HAS_LOCATION
                else None
            ),
            self.location_votes[cell_id],
            self.voters[cell_id],
            bool(flags & _COUNTRY_DISAGREEMENT),
            bool(flags & _CITY_DISAGREEMENT),
            False,  # degraded: the plane only encodes the healthy answer
            bool(flags & _QUORUM),
        )
        return PlaneAnswer(answers, consensus)


class AnswerPlane:
    """Every vendor's answer and the consensus, precomputed per interval.

    Internals: ``_starts`` — the merged cross-vendor interval
    boundaries, strictly increasing from 0; ``_cell_ids`` — per-interval
    cell id; ``_table`` — the packed :class:`_CellTable` the cells decode
    from; ``_cells`` — the per-cell-id decode memo; ``_slots`` — the
    per-interval cell list the hot probe reads, shifted one slot so the
    bisect result indexes it directly and filled on first touch.  The
    hot probe is a closure with state bound in positional defaults,
    exactly the :class:`~repro.serve.index.CompiledIndex` trick.

    Construct via :func:`compile_plane` (from compiled indexes) or
    :func:`load_plane` (from a ``.rgpl`` file).
    """

    __slots__ = (
        "names",
        "vendor_intervals",
        "city_range_km",
        "quorum_min",
        "_starts",
        "_cell_ids",
        "_table",
        "_cells",
        "_slots",
        "_lock",
        "probe",
    )

    def __init__(
        self,
        names: Sequence[str],
        vendor_intervals: Mapping[str, int],
        starts: Sequence[int],
        cell_ids: Sequence[int],
        cells: _CellTable,
        *,
        city_range_km: float = DEFAULT_CITY_RANGE_KM,
        quorum_min: int = DEFAULT_QUORUM_MIN,
    ):
        if len(starts) != len(cell_ids):
            raise ValueError("starts and cell_ids must be parallel arrays")
        if not starts or starts[0] != 0:
            raise ValueError("plane interval table must start at address 0")
        if min(cell_ids) < 0 or max(cell_ids) >= len(cells):
            raise ValueError("cell_ids reference cells outside the table")
        self.names = tuple(names)
        self.vendor_intervals = dict(vendor_intervals)
        self.city_range_km = city_range_km
        self.quorum_min = quorum_min
        self._starts = list(starts)
        self._cell_ids = list(cell_ids)
        self._table = cells
        self._cells: list[PlaneAnswer | None] = [None] * len(cells)
        self._lock = threading.Lock()
        # One slot of leading padding so the bisect result indexes the
        # slot list directly (bisect_right over starts beginning at 0
        # returns at least 1 for any valid address).
        self._slots: list[PlaneAnswer | None] = [None] * (len(self._starts) + 1)

        def probe(
            addr: int,
            _bisect=bisect_right,
            _starts=self._starts,
            _slots=self._slots,
            _fill=self._fill,
        ) -> PlaneAnswer:
            """The precomputed cell for a pre-validated address integer."""
            slot = _bisect(_starts, addr)
            cell = _slots[slot]
            if cell is None:  # first touch of this interval
                cell = _fill(slot)
            return cell

        self.probe = probe

    def _cell(self, cell_id: int) -> PlaneAnswer:
        """Cell ``cell_id``, decoded once and memoized.  Decoding takes
        the lock so threads first-probing one cell share one object."""
        cell = self._cells[cell_id]
        if cell is None:
            with self._lock:
                cell = self._cells[cell_id]
                if cell is None:
                    cell = self._cells[cell_id] = self._table.decode(cell_id)
        return cell

    def _fill(self, slot: int) -> PlaneAnswer:
        """The cell for probe slot ``slot`` (interval ``slot - 1``),
        cached in the slot for every later probe."""
        cell = self._slots[slot] = self._cell(self._cell_ids[slot - 1])
        return cell

    # -- lookup --------------------------------------------------------------

    def lookup(self, address: IPv4Address | str | int) -> PlaneAnswer:
        """The precomputed cross-vendor answer cell for ``address``."""
        return self.probe(int(parse_address(address)))

    def locate(self, addr: int) -> tuple[PlaneAnswer, int]:
        """The answer cell *and* the merged-interval ordinal for a
        pre-validated address integer.

        The traced serving path uses the ordinal as span attribution —
        "which precomputed interval answered this request" — without
        paying for it on the untraced hot path, which stays on
        :attr:`probe`.
        """
        slot = bisect_right(self._starts, addr)
        cell = self._slots[slot]
        if cell is None:
            cell = self._fill(slot)
        return cell, slot - 1

    # -- binding -------------------------------------------------------------

    def serves(self, name: str, index) -> bool:
        """True when this plane's ``name`` cells were compiled over
        exactly ``index``'s content.

        The plane's own bound index object counts; so does any index
        whose ``.rgix`` payload checksum matches the bound one's.
        """
        if not isinstance(index, CompiledIndex):
            return False
        bound = self._table.indexes[self.names.index(name)]
        return bound is index or index_checksum(bound) == index_checksum(index)

    # -- inspection ----------------------------------------------------------

    @property
    def interval_count(self) -> int:
        """Merged cross-vendor intervals covering the address space."""
        return len(self._starts)

    @property
    def cell_count(self) -> int:
        """Distinct precomputed answer cells (shared across intervals)."""
        return len(self._cells)

    def parts(self) -> tuple[list[int], list[int], tuple[PlaneAnswer, ...]]:
        """The interval boundaries, per-interval cell ids, and every
        cell (decoding all of them: for inspection and tests, not for
        the serving path).  Treat as read-only."""
        cells = tuple(self._cell(i) for i in range(self.cell_count))
        return self._starts, self._cell_ids, cells

    def stats(self) -> dict[str, object]:
        """A JSON-ready summary for ``/statusz`` and CLI banners."""
        return {
            "vendors": list(self.names),
            "intervals": self.interval_count,
            "cells": self.cell_count,
            "city_range_km": self.city_range_km,
            "quorum_min": self.quorum_min,
        }

    def __len__(self) -> int:
        return self.interval_count

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"AnswerPlane({', '.join(self.names)};"
            f" {self.interval_count} intervals, {self.cell_count} cells)"
        )


def compile_plane(
    indexes: Mapping[str, CompiledIndex],
    *,
    city_range_km: float = DEFAULT_CITY_RANGE_KM,
    quorum_min: int = DEFAULT_QUORUM_MIN,
) -> AnswerPlane:
    """Merge compiled vendor indexes into one precomputed answer plane.

    The boundary array is the union of every vendor's interval starts
    (:func:`~repro.geodb.intervals.merge_starts`): inside each merged
    interval no vendor's answer can change, so probing each vendor once
    at the interval start answers the whole interval.  Cells repeat
    heavily across the address space — identical per-vendor entry tuples
    share one cell (prefixes are unique within an index, so equal entry
    ids mean equal answers), and equal-cell neighbours merge into one
    interval.  The plane is bound to these index objects.
    """
    if not indexes:
        raise ValueError("an answer plane needs at least one compiled index")
    names = tuple(sorted(indexes))
    bound = [indexes[name] for name in names]
    entry_records = []
    vendor_starts = []
    for index in bound:
        index_starts, _, entries, records = index.parts()
        vendor_starts.append(index_starts)
        entry_records.append([records[record_id] for _, record_id in entries])
    merged = merge_starts(vendor_starts)

    table = _CellTable.empty(names, bound)
    starts: list[int] = []
    cell_ids: list[int] = []
    seen: dict[tuple[int, ...], int] = {}
    for start in merged:
        entry_ids = tuple(index.entry_at(start) for index in bound)
        cell_id = seen.get(entry_ids)
        if cell_id is None:
            cell_id = seen[entry_ids] = len(seen)
            records = [
                vendor_records[entry_id]
                for vendor_records, entry_id in zip(entry_records, entry_ids)
                if entry_id >= 0
            ]
            table.append(
                entry_ids,
                consensus_of_records(
                    records, city_range_km=city_range_km, quorum_min=quorum_min
                ),
            )
        if cell_ids and cell_ids[-1] == cell_id:
            continue  # same answer as the previous interval: merge
        starts.append(start)
        cell_ids.append(cell_id)

    return AnswerPlane(
        names=names,
        vendor_intervals={
            name: indexes[name].interval_count for name in names
        },
        starts=starts,
        cell_ids=cell_ids,
        cells=table,
        city_range_km=city_range_km,
        quorum_min=quorum_min,
    )


def compile_serving_set(
    databases: Mapping[str, GeoDatabase],
    *,
    city_range_km: float = DEFAULT_CITY_RANGE_KM,
) -> tuple[dict[str, CompiledIndex], AnswerPlane]:
    """Compile a snapshot set: one :class:`CompiledIndex` per database,
    in name order, and the answer plane bound to exactly those indexes
    — what ``compile``, ``serve``, ``enrich`` and ``snapshot publish``
    serve or write."""
    indexes = {
        name: CompiledIndex.compile(database)
        for name, database in sorted(databases.items())
    }
    return indexes, compile_plane(indexes, city_range_km=city_range_km)


# -- persistence (.rgpl) -----------------------------------------------------
#
# Same container discipline as .rgix format v2: RGPL magic, header
# length, SHA-256 of the header, JSON header (version, vendors with
# their source interval counts and .rgix payload checksums, the country
# string table, consensus parameters, counts, payload length and
# checksum), then the payload — starts and cell ids as uint32, then the
# cell table column by column in _CellTable.typecodes order, all
# little-endian.  Version 1 stored the cells as a JSON tail restating
# the vendor records; it is refused with a "recompile" message.

_BIG_ENDIAN = sys.byteorder == "big"


def _le_bytes(column: array) -> bytes:
    if _BIG_ENDIAN:
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def _le_array(typecode: str, data: memoryview) -> array:
    column = array(typecode)
    column.frombytes(data)
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def save_plane(plane: AnswerPlane, path: str | pathlib.Path) -> pathlib.Path:
    """Write ``plane`` as one ``.rgpl`` file and return its path.

    The header records each vendor's ``.rgix`` payload checksum, so the
    file only ever loads over the exact index content it was compiled
    from.
    """
    path = pathlib.Path(path)
    table = plane._table
    count = plane.interval_count
    payload = b"".join(
        (
            struct.pack(f"<{count}I", *plane._starts),
            struct.pack(f"<{count}I", *plane._cell_ids),
            *(_le_bytes(column) for column in table.columns()),
        )
    )
    header = json.dumps(
        {
            "format": "repro-answer-plane",
            "version": _FORMAT_VERSION,
            "vendors": list(plane.names),
            "vendor_intervals": plane.vendor_intervals,
            "vendor_checksums": {
                name: index_checksum(index)
                for name, index in zip(table.names, table.indexes)
            },
            "countries": list(table.countries),
            "city_range_km": plane.city_range_km,
            "quorum_min": plane.quorum_min,
            "intervals": count,
            "cells": plane.cell_count,
            "payload_bytes": len(payload),
            "checksum_sha256": hashlib.sha256(payload).hexdigest(),
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    try:
        with open(path, "wb") as handle:
            handle.write(_MAGIC)
            handle.write(struct.pack("<I", len(header)))
            handle.write(hashlib.sha256(header).digest())
            handle.write(header)
            handle.write(payload)
    except OSError as exc:
        raise SnapshotError(f"cannot write answer plane {path}: {exc}") from exc
    return path


def load_plane(
    path: str | pathlib.Path,
    *,
    indexes: Mapping[str, CompiledIndex] | None = None,
    generation: int | None = None,
) -> AnswerPlane:
    """Load and verify one ``.rgpl`` answer-plane file.

    The same trust ladder as ``.rgix``: magic, header digest, format
    version, payload length, payload checksum — then every vendor's
    ``.rgix`` checksum against the one the plane was compiled over, and
    a range check of every packed id.  Every mismatch is a
    :class:`~repro.serve.snapshot.SnapshotError` naming the file, never
    a half-loaded plane serving silently wrong precomputed answers.  No
    cell is decoded here: cells decode on first probe.

    ``indexes`` are the loaded vendor indexes the plane will point into
    (a server already holds them, so each file is read once); without
    them the ``.rgix`` set beside ``path`` is loaded and verified.
    ``generation`` labels failures with the snapshot-store generation
    being loaded, as in :func:`~repro.serve.snapshot.load_index`.
    """
    try:
        return _load_plane(pathlib.Path(path), indexes)
    except SnapshotError as exc:
        _label_generation(exc, generation)


def _load_plane(
    path: pathlib.Path, indexes: Mapping[str, CompiledIndex] | None
) -> AnswerPlane:
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read answer plane {path}: {exc}") from exc

    if len(blob) < 8 or blob[:4] != _MAGIC:
        raise SnapshotError(f"{path} is not an answer plane (bad magic)")
    (header_len,) = struct.unpack_from("<I", blob, 4)
    if len(blob) < _PAYLOAD_OFFSET + header_len:
        raise SnapshotError(f"{path} is truncated (header cut short)")
    stored_digest = blob[8:_PAYLOAD_OFFSET]
    header_bytes = blob[_PAYLOAD_OFFSET : _PAYLOAD_OFFSET + header_len]
    if hashlib.sha256(header_bytes).digest() != stored_digest:
        raise SnapshotError(f"{path} failed header checksum verification")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path} has an unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise SnapshotError(f"{path} has an unreadable header: not an object")

    version = header.get("version")
    if version != _FORMAT_VERSION:
        raise SnapshotError(
            f"{path} uses answer-plane format version {version!r};"
            f" this build reads version {_FORMAT_VERSION} — recompile the"
            f" plane with its snapshots (`repro compile`)"
        )
    payload = memoryview(blob)[_PAYLOAD_OFFSET + header_len :]
    if len(payload) != header.get("payload_bytes"):
        raise SnapshotError(
            f"{path} is truncated: payload is {len(payload)} bytes,"
            f" header promises {header.get('payload_bytes')}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("checksum_sha256"):
        raise SnapshotError(
            f"{path} failed checksum verification"
            f" (stored {header.get('checksum_sha256')}, computed {digest})"
        )

    # Verified bytes from here on: any failure is a malformed-at-write
    # plane, surfaced as the typed error rather than a bare internal one.
    try:
        names = tuple(str(name) for name in header["vendors"])
        checksums = {str(k): str(v) for k, v in header["vendor_checksums"].items()}
        if indexes is None:
            indexes = load_index_set(path.parent)
        _check_binding(path, names, checksums, indexes)
        count = int(header["intervals"])
        cells = int(header["cells"])
        typecodes = _CellTable.typecodes(len(names))
        row_bytes = sum(array(code).itemsize for code in typecodes)
        if count < 1 or cells < 0 or 8 * count + row_bytes * cells != len(payload):
            raise ValueError(
                f"{count} intervals and {cells} cells do not fill a"
                f" {len(payload)}-byte payload"
            )
        starts = struct.unpack_from(f"<{count}I", payload, 0)
        cell_ids = struct.unpack_from(f"<{count}I", payload, 4 * count)
        columns = []
        offset = 8 * count
        for code in typecodes:
            size = array(code).itemsize * cells
            columns.append(_le_array(code, payload[offset : offset + size]))
            offset += size
        countries = header["countries"]
        if not isinstance(countries, list) or not all(
            isinstance(country, str) for country in countries
        ):
            raise ValueError("country table holds a non-string")
        table = _CellTable(names, [indexes[n] for n in names], countries, columns)
        table.validate()
        return AnswerPlane(
            names=names,
            vendor_intervals={
                str(name): int(value)
                for name, value in header["vendor_intervals"].items()
            },
            starts=starts,
            cell_ids=cell_ids,
            cells=table,
            city_range_km=float(header["city_range_km"]),
            quorum_min=int(header["quorum_min"]),
        )
    except (
        struct.error,
        KeyError,
        IndexError,
        TypeError,
        ValueError,
        AttributeError,
    ) as exc:
        raise SnapshotError(f"{path} holds an invalid answer plane: {exc}") from exc


def _check_binding(
    path: pathlib.Path,
    names: Sequence[str],
    checksums: Mapping[str, str],
    indexes: Mapping[str, CompiledIndex],
) -> None:
    """Refuse a plane over index content other than what it was compiled
    from — matching interval counts are not enough; content must be."""
    missing = [name for name in names if name not in indexes]
    if missing:
        raise SnapshotError(
            f"{path} covers {missing} but no such index was loaded —"
            f" recompile the plane with its snapshots"
        )
    for name in names:
        expected = checksums.get(name)
        actual = index_checksum(indexes[name])
        if actual != expected:
            raise SnapshotError(
                f"{path} was compiled over a different {name} index"
                f" (.rgix payload {str(expected)[:12]}, loaded {actual[:12]})"
                f" — recompile the plane with its snapshots"
            )
