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
per merged interval, the full answer *cell*: every vendor's
:class:`~repro.serve.index.IndexAnswer`, and the §5.1 consensus —
majority country/location with vote counts (via
:func:`repro.core.majority.majority_of_records`, never a reimplemented
tally), disagreement flags, and the quorum verdict.  Adjacent intervals
with identical cells merge, and identical cells share one
:class:`PlaneAnswer` object, so a healthy-path lookup is one C-level
``bisect`` plus one list read — no per-request vote, no per-vendor
plumbing.

The plane only ever encodes the *healthy* answer: the serving engine
consults it exclusively while every vendor is healthy and no fault
injector is armed, and falls back to the live per-vendor resolve path
the moment anything is degraded — so the PR 5 fail-closed contract
(flags, quarantine, typed errors) is untouched, which the chaos matrix
re-proves with the plane attached.

Planes persist as ``.rgpl`` files next to the ``.rgix`` snapshots they
were compiled from, with the same two-digest integrity scheme (header
SHA-256 + payload SHA-256): every corrupt byte raises
:class:`~repro.serve.snapshot.SnapshotError`, never a silently wrong
precomputed answer.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.majority import DEFAULT_CITY_RANGE_KM, majority_of_records
from repro.geo.coordinates import GeoPoint
from repro.geodb.intervals import merge_starts
from repro.geodb.record import GeoRecord
from repro.net.ip import IPv4Address, parse_address
from repro.serve.engine import ConsensusAnswer, LookupOutcome
from repro.serve.index import CompiledIndex, IndexAnswer
from repro.serve.snapshot import (
    SnapshotError,
    _label_generation,
    _record_from_row,
    _record_to_row,
)

__all__ = [
    "AnswerPlane",
    "DEFAULT_QUORUM_MIN",
    "PLANE_SUFFIX",
    "PlaneAnswer",
    "compile_plane",
    "load_plane",
    "save_plane",
]

#: File extension for persisted answer planes (``plane.rgpl``).
PLANE_SUFFIX = ".rgpl"

#: Matches :class:`~repro.serve.engine.ResiliencePolicy.quorum_min`'s
#: default — the engine refuses a plane compiled under a different rule.
DEFAULT_QUORUM_MIN = 2

_MAGIC = b"RGPL"
_FORMAT_VERSION = 1
_HEADER_DIGEST_BYTES = 32
_PAYLOAD_OFFSET = 8 + _HEADER_DIGEST_BYTES  # magic + header length + digest


@dataclass(frozen=True, slots=True)
class PlaneAnswer:
    """One merged interval's fully precomputed cross-vendor answer.

    ``answers`` is the exact mapping a healthy
    :class:`~repro.serve.engine.LookupOutcome` would carry (one key per
    vendor, ``None`` = healthy-but-no-coverage); the remaining fields are
    the §5.1 consensus the live path would re-derive per request.  Cells
    are shared across every request that lands in their intervals —
    treat all containers as read-only.
    """

    answers: Mapping[str, IndexAnswer | None]
    country: str | None
    country_votes: int
    location: GeoPoint | None
    location_votes: int
    voters: int
    country_disagreement: bool
    city_disagreement: bool
    quorum: bool

    def outcome_at(self, address: IPv4Address) -> LookupOutcome:
        """This cell as a healthy :class:`LookupOutcome` for ``address``,
        carrying the cell so its precomputed consensus is reused."""
        return LookupOutcome(address=address, answers=self.answers, cell=self)

    def consensus_at(self, address: IPv4Address) -> ConsensusAnswer:
        """This cell as a healthy :class:`ConsensusAnswer` for ``address``."""
        return ConsensusAnswer(
            address=address,
            country=self.country,
            country_votes=self.country_votes,
            location=self.location,
            location_votes=self.location_votes,
            voters=self.voters,
            country_disagreement=self.country_disagreement,
            city_disagreement=self.city_disagreement,
            degraded=False,
            quorum=self.quorum,
        )


class AnswerPlane:
    """Every vendor's answer and the consensus, precomputed per interval.

    Internals (immutable after construction): ``_starts`` — the merged
    cross-vendor interval boundaries, strictly increasing from 0;
    ``_cell_ids`` — per-interval index into ``_cells``; ``_cells`` — the
    deduplicated :class:`PlaneAnswer` table.  The hot probe is a closure
    with state bound in positional defaults over a one-slot-shifted cell
    list, exactly the :class:`~repro.serve.index.CompiledIndex` trick —
    one ``bisect_right`` plus one list read per lookup.

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
        "_cells",
        "probe",
    )

    def __init__(
        self,
        names: Sequence[str],
        vendor_intervals: Mapping[str, int],
        starts: Sequence[int],
        cell_ids: Sequence[int],
        cells: Sequence[PlaneAnswer],
        *,
        city_range_km: float = DEFAULT_CITY_RANGE_KM,
        quorum_min: int = DEFAULT_QUORUM_MIN,
    ):
        if len(starts) != len(cell_ids):
            raise ValueError("starts and cell_ids must be parallel arrays")
        if not starts or starts[0] != 0:
            raise ValueError("plane interval table must start at address 0")
        if cells and not all(0 <= i < len(cells) for i in cell_ids):
            raise ValueError("cell_ids reference cells outside the table")
        self.names = tuple(names)
        self.vendor_intervals = dict(vendor_intervals)
        self.city_range_km = city_range_km
        self.quorum_min = quorum_min
        self._starts = list(starts)
        self._cell_ids = list(cell_ids)
        self._cells = tuple(cells)

        # One slot of leading padding so the bisect result indexes the
        # cell list directly (bisect_right over starts beginning at 0
        # returns at least 1 for any valid address).
        shifted = [None, *(self._cells[i] for i in self._cell_ids)]

        def probe(
            addr: int,
            _bisect=bisect_right,
            _starts=self._starts,
            _cells=shifted,
        ) -> PlaneAnswer:
            """The precomputed cell for a pre-validated address integer."""
            return _cells[_bisect(_starts, addr)]

        self.probe = probe

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
        interval = bisect_right(self._starts, addr) - 1
        return self._cells[self._cell_ids[interval]], interval

    # -- inspection ----------------------------------------------------------

    @property
    def interval_count(self) -> int:
        """Merged cross-vendor intervals covering the address space."""
        return len(self._starts)

    @property
    def cell_count(self) -> int:
        """Distinct precomputed answer cells (shared across intervals)."""
        return len(self._cells)

    def parts(
        self,
    ) -> tuple[list[int], list[int], tuple[PlaneAnswer, ...]]:
        """The persistence-serialisable components (treat as read-only)."""
        return self._starts, self._cell_ids, self._cells

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


def _build_cell(
    names: Sequence[str],
    answers: Sequence[IndexAnswer | None],
    start: int,
    city_range_km: float,
    quorum_min: int,
) -> PlaneAnswer:
    """Precompute one cell: the outcome mapping plus the §5.1 consensus."""
    records = [answer.record for answer in answers if answer is not None]
    vote = majority_of_records(
        parse_address(start), records, city_range_km=city_range_km
    )
    countries = {r.country for r in records if r.country is not None}
    coordinates = [
        r.location for r in records if r.has_city and r.has_coordinates
    ]
    city_disagreement = any(
        a.distance_km(b) > city_range_km
        for i, a in enumerate(coordinates)
        for b in coordinates[i + 1 :]
    )
    return PlaneAnswer(
        answers=dict(zip(names, answers)),
        country=vote.country,
        country_votes=vote.country_votes,
        location=vote.location,
        location_votes=vote.location_votes,
        voters=vote.voters,
        country_disagreement=len(countries) > 1,
        city_disagreement=city_disagreement,
        quorum=vote.voters >= quorum_min,
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
    heavily across the address space — identical per-vendor answer
    tuples share one :class:`PlaneAnswer`, and equal-cell neighbours
    merge into one interval.
    """
    if not indexes:
        raise ValueError("an answer plane needs at least one compiled index")
    names = tuple(sorted(indexes))
    probes = [indexes[name].probe_answer for name in names]
    merged = merge_starts([indexes[name].parts()[0] for name in names])

    starts: list[int] = []
    cell_ids: list[int] = []
    cells: list[PlaneAnswer] = []
    seen: dict[tuple[IndexAnswer | None, ...], int] = {}
    for start in merged:
        answers = tuple(probe(start) for probe in probes)
        cell_id = seen.get(answers)
        if cell_id is None:
            cell_id = seen[answers] = len(cells)
            cells.append(
                _build_cell(names, answers, start, city_range_km, quorum_min)
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
        cells=cells,
        city_range_km=city_range_km,
        quorum_min=quorum_min,
    )


# -- persistence (.rgpl) -----------------------------------------------------
#
# Same container discipline as .rgix format v2: RGPL magic, header
# length, SHA-256 of the header, JSON header (version, vendors + their
# source interval counts, consensus parameters, counts, payload length
# and checksum), then the payload — starts and cell ids packed to
# fixed-width integers, and a JSON tail holding the deduplicated
# record/answer/cell tables.


def _pack_payload(plane: AnswerPlane) -> bytes:
    starts, cell_ids, cells = plane.parts()
    record_ids: dict[GeoRecord, int] = {}
    record_rows: list[list] = []
    answer_ids: dict[IndexAnswer, int] = {}
    answer_rows: list[list] = []
    cell_rows: list[list] = []
    for cell in cells:
        vendor_answers: list[int] = []
        for name in plane.names:
            answer = cell.answers[name]
            if answer is None:
                vendor_answers.append(-1)
                continue
            answer_id = answer_ids.get(answer)
            if answer_id is None:
                record_id = record_ids.get(answer.record)
                if record_id is None:
                    record_id = record_ids[answer.record] = len(record_rows)
                    record_rows.append(_record_to_row(answer.record))
                answer_id = answer_ids[answer] = len(answer_rows)
                answer_rows.append([answer.prefix, record_id])
            vendor_answers.append(answer_id)
        location = (
            [cell.location.lat, cell.location.lon]
            if cell.location is not None
            else None
        )
        cell_rows.append(
            [
                vendor_answers,
                cell.country,
                cell.country_votes,
                location,
                cell.location_votes,
                cell.voters,
                int(cell.country_disagreement),
                int(cell.city_disagreement),
                int(cell.quorum),
            ]
        )
    count = len(starts)
    tail = json.dumps(
        {"records": record_rows, "answers": answer_rows, "cells": cell_rows},
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    return b"".join(
        (
            struct.pack(f"<{count}I", *starts),
            struct.pack(f"<{count}I", *cell_ids),
            tail,
        )
    )


def save_plane(plane: AnswerPlane, path: str | pathlib.Path) -> pathlib.Path:
    """Write ``plane`` as one ``.rgpl`` file and return its path."""
    path = pathlib.Path(path)
    payload = _pack_payload(plane)
    header = json.dumps(
        {
            "format": "repro-answer-plane",
            "version": _FORMAT_VERSION,
            "vendors": list(plane.names),
            "vendor_intervals": plane.vendor_intervals,
            "city_range_km": plane.city_range_km,
            "quorum_min": plane.quorum_min,
            "intervals": plane.interval_count,
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


def _cell_from_row(
    row: list, names: Sequence[str], answers: Sequence[IndexAnswer]
) -> PlaneAnswer:
    (
        vendor_answers,
        country,
        country_votes,
        location,
        location_votes,
        voters,
        country_disagreement,
        city_disagreement,
        quorum,
    ) = row
    return PlaneAnswer(
        answers={
            name: answers[answer_id] if answer_id >= 0 else None
            for name, answer_id in zip(names, vendor_answers)
        },
        country=country,
        country_votes=int(country_votes),
        location=GeoPoint(location[0], location[1]) if location else None,
        location_votes=int(location_votes),
        voters=int(voters),
        country_disagreement=bool(country_disagreement),
        city_disagreement=bool(city_disagreement),
        quorum=bool(quorum),
    )


def load_plane(
    path: str | pathlib.Path, *, generation: int | None = None
) -> AnswerPlane:
    """Load and verify one ``.rgpl`` answer-plane file.

    The same trust ladder as ``.rgix``: magic, header digest, format
    version, payload length, payload checksum — every mismatch is a
    :class:`~repro.serve.snapshot.SnapshotError` naming the file, never
    a half-loaded plane serving silently wrong precomputed answers.
    ``generation`` labels failures with the snapshot-store generation
    being loaded, as in :func:`~repro.serve.snapshot.load_index`.
    """
    try:
        return _load_plane(path)
    except SnapshotError as exc:
        _label_generation(exc, generation)


def _load_plane(path: str | pathlib.Path) -> AnswerPlane:
    path = pathlib.Path(path)
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

    version = header.get("version")
    if version != _FORMAT_VERSION:
        raise SnapshotError(
            f"{path} uses answer-plane format version {version!r};"
            f" this build reads version {_FORMAT_VERSION}"
        )
    payload = blob[_PAYLOAD_OFFSET + header_len :]
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
        count = int(header["intervals"])
        if count < 0 or 8 * count > len(payload):
            raise ValueError(
                f"interval count {count} does not fit a {len(payload)}-byte payload"
            )
        starts = struct.unpack_from(f"<{count}I", payload, 0)
        cell_ids = struct.unpack_from(f"<{count}I", payload, 4 * count)
        tail = json.loads(payload[8 * count :].decode("utf-8"))
        records = [_record_from_row(row) for row in tail["records"]]
        answers = [
            IndexAnswer(prefix=str(prefix), record=records[record_id])
            for prefix, record_id in tail["answers"]
        ]
        cells = [
            _cell_from_row(row, names, answers) for row in tail["cells"]
        ]
        return AnswerPlane(
            names=names,
            vendor_intervals={
                str(name): int(value)
                for name, value in header["vendor_intervals"].items()
            },
            starts=starts,
            cell_ids=cell_ids,
            cells=cells,
            city_range_km=float(header["city_range_km"]),
            quorum_min=int(header["quorum_min"]),
        )
    except (
        struct.error,
        UnicodeDecodeError,
        json.JSONDecodeError,
        KeyError,
        IndexError,
        TypeError,
        ValueError,
    ) as exc:
        raise SnapshotError(f"{path} holds an invalid answer plane: {exc}") from exc
