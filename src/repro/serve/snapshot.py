"""Versioned, checksummed persistence for compiled indexes.

A production geolocation service does not rebuild its database on every
boot — it loads a versioned snapshot compiled offline (Gouel et al.'s
longitudinal study works entirely in terms of such daily snapshots).
This module gives :class:`~repro.serve.index.CompiledIndex` that shape
with a stdlib-only container:

``RGIX`` file layout, format version 2 (all integers little-endian)::

    bytes 0..3      magic  b"RGIX"
    bytes 4..7      header length H (uint32)
    bytes 8..39     SHA-256 digest of the header (raw 32 bytes)
    bytes 40..40+H  JSON header: format version, database name, counts,
                    payload byte length, SHA-256 checksum of the payload
    payload         starts  (intervals × uint32, packed)
                    answers (intervals × int32, packed)
                    JSON tail: entries [[prefix, record_id], …] and
                    records [[country, region, city, lat, lon, source], …]

Loading verifies the magic, the header digest, the format version, the
payload checksum, and (when the caller names one) the database — with
the digest covering the header, *every* corrupt byte in the file is
caught, including flips inside the counts or the database name that
version 1 would have trusted.  Every mismatch raises
:class:`SnapshotError` (a :class:`~repro.serve.errors.ServeError`) with
a message that says which file failed and why — never a bare
``struct.error`` and never a half-loaded index — because a serving
fleet loading a corrupt or mislabeled snapshot must refuse loudly, not
serve wrong answers quietly.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import struct
import sys
from array import array
from typing import Mapping

from repro.geodb.record import GeoRecord, LocationSource
from repro.serve.errors import ServeError
from repro.serve.index import INT32, UINT32, CompiledIndex

__all__ = [
    "SNAPSHOT_SUFFIX",
    "SnapshotError",
    "index_checksum",
    "load_index",
    "load_index_set",
    "save_index",
    "save_index_set",
]

_MAGIC = b"RGIX"
_FORMAT_VERSION = 2
_HEADER_DIGEST_BYTES = 32
_PAYLOAD_OFFSET = 8 + _HEADER_DIGEST_BYTES  # magic + header length + digest

#: File extension for compiled-index snapshots (``NetAcuity.rgix``).
SNAPSHOT_SUFFIX = ".rgix"


class SnapshotError(ServeError):
    """A snapshot file could not be written, read, or trusted."""


_BIG_ENDIAN = sys.byteorder == "big"


def _le_bytes(column: array) -> bytes:
    """``column``'s items as little-endian bytes (the on-disk order)."""
    if _BIG_ENDIAN:
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def _le_array(typecode: str, data: memoryview) -> array:
    """A ``typecode`` array read from little-endian ``data``."""
    column = array(typecode)
    column.frombytes(data)
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def _label_generation(exc: SnapshotError, generation: int | None):
    """Re-raise ``exc`` prefixed with the generation being loaded.

    The store's rollback log must say *which* published generation a
    corrupt file belonged to — "generation 7: NetAcuity.rgix failed
    checksum verification" is actionable; the bare filename of a staging
    directory is not.
    """
    if generation is None:
        raise exc
    raise SnapshotError(f"generation {generation}: {exc}") from exc


def _record_to_row(record: GeoRecord) -> list:
    source = record.source.value if record.source is not None else None
    return [
        record.country,
        record.region,
        record.city,
        record.latitude,
        record.longitude,
        source,
    ]


def _record_from_row(row: list) -> GeoRecord:
    country, region, city, latitude, longitude, source = row
    return GeoRecord(
        country=country,
        region=region,
        city=city,
        latitude=latitude,
        longitude=longitude,
        source=LocationSource(source) if source is not None else None,
    )


def _pack_payload(index: CompiledIndex) -> bytes:
    starts, answers, entries, records = index.parts()
    tail = json.dumps(
        {
            "entries": [[prefix, record_id] for prefix, record_id in entries],
            "records": [_record_to_row(record) for record in records],
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    return b"".join((_le_bytes(starts), _le_bytes(answers), tail))


def index_checksum(index: CompiledIndex) -> str:
    """The SHA-256 (hex) of ``index``'s ``.rgix`` payload.

    This is the content identity an answer plane binds to.  A loaded or
    saved index already knows it; an index compiled in memory packs its
    payload once to find out (the packing is deterministic, so the
    digest equals the one :func:`save_index` would write).
    """
    if index.checksum is None:
        index.checksum = hashlib.sha256(_pack_payload(index)).hexdigest()
    return index.checksum


def save_index(index: CompiledIndex, path: str | pathlib.Path) -> pathlib.Path:
    """Write ``index`` as one snapshot file and return its path."""
    path = pathlib.Path(path)
    payload = _pack_payload(index)
    index.checksum = hashlib.sha256(payload).hexdigest()
    header = json.dumps(
        {
            "format": "repro-compiled-index",
            "version": _FORMAT_VERSION,
            "database": index.name,
            "source_entries": index.source_entries,
            "intervals": index.interval_count,
            "payload_bytes": len(payload),
            "checksum_sha256": index.checksum,
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
        raise SnapshotError(f"cannot write snapshot {path}: {exc}") from exc
    return path


def load_index(
    path: str | pathlib.Path,
    *,
    expect_name: str | None = None,
    generation: int | None = None,
) -> CompiledIndex:
    """Load and verify one snapshot file.

    ``expect_name`` pins the database the caller intends to serve; a
    snapshot for any other database is rejected even if internally valid.
    ``generation`` labels every failure with the snapshot-store
    generation being loaded (``generation 7: <file> failed …``), so a
    rollback log is actionable on its own.
    """
    try:
        return _load_index(path, expect_name=expect_name)
    except SnapshotError as exc:
        _label_generation(exc, generation)


def _load_index(
    path: str | pathlib.Path, *, expect_name: str | None = None
) -> CompiledIndex:
    path = pathlib.Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc

    if len(blob) < 8 or blob[:4] != _MAGIC:
        raise SnapshotError(f"{path} is not a compiled-index snapshot (bad magic)")
    (header_len,) = struct.unpack_from("<I", blob, 4)
    if len(blob) < _PAYLOAD_OFFSET + header_len:
        raise SnapshotError(f"{path} is truncated (header cut short)")
    stored_digest = blob[8:_PAYLOAD_OFFSET]
    header_bytes = blob[_PAYLOAD_OFFSET : _PAYLOAD_OFFSET + header_len]
    if hashlib.sha256(header_bytes).digest() != stored_digest:
        raise SnapshotError(
            f"{path} failed header checksum verification (corrupt header,"
            f" corrupt digest, or a pre-v{_FORMAT_VERSION} snapshot —"
            f" recompile with `repro compile`)"
        )
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path} has an unreadable header: {exc}") from exc

    version = header.get("version")
    if version != _FORMAT_VERSION:
        raise SnapshotError(
            f"{path} uses snapshot format version {version!r};"
            f" this build reads version {_FORMAT_VERSION}"
        )
    name = header.get("database")
    if expect_name is not None and name != expect_name:
        raise SnapshotError(
            f"{path} holds database {name!r}, expected {expect_name!r}"
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

    # Everything below parses *verified* bytes, so a failure here is a
    # malformed-at-write-time snapshot rather than bit rot — but it must
    # still surface as the typed error, never a bare struct/Key/Value
    # error from the internals.
    try:
        count = int(header["intervals"])
        if count < 0 or 8 * count > len(payload):
            raise ValueError(
                f"interval count {count} does not fit a {len(payload)}-byte payload"
            )
        starts = _le_array(UINT32, payload[: 4 * count])
        answers = _le_array(INT32, payload[4 * count : 8 * count])
        tail = json.loads(str(payload[8 * count :], "utf-8"))
        records = [_record_from_row(row) for row in tail["records"]]
        index = CompiledIndex(
            name=name,
            source_entries=int(header["source_entries"]),
            starts=starts,
            answers=answers,
            entries=tail["entries"],
            records=records,
        )
        index.checksum = digest
        return index
    except (
        UnicodeDecodeError,
        json.JSONDecodeError,
        KeyError,
        IndexError,
        TypeError,
        ValueError,
    ) as exc:
        raise SnapshotError(f"{path} holds an invalid index: {exc}") from exc


def save_index_set(
    indexes: Mapping[str, CompiledIndex], directory: str | pathlib.Path
) -> pathlib.Path:
    """Write one snapshot per index into ``directory`` (created if needed)."""
    directory = pathlib.Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SnapshotError(f"cannot create snapshot directory {directory}: {exc}") from exc
    for name, index in sorted(indexes.items()):
        save_index(index, directory / f"{name}{SNAPSHOT_SUFFIX}")
    return directory


def load_index_set(
    directory: str | pathlib.Path, *, generation: int | None = None
) -> dict[str, CompiledIndex]:
    """Load every ``*.rgix`` snapshot in ``directory``, keyed by database.

    Each file's database name must match its file stem — the on-disk
    layout is part of the format.  ``generation`` labels failures with
    the store generation, as in :func:`load_index`.
    """
    directory = pathlib.Path(directory)
    paths = sorted(directory.glob(f"*{SNAPSHOT_SUFFIX}"))
    if not paths:
        _label_generation(
            SnapshotError(
                f"no {SNAPSHOT_SUFFIX} snapshots found in {directory}"
            ),
            generation,
        )
    return {
        path.stem: load_index(
            path, expect_name=path.stem, generation=generation
        )
        for path in paths
    }
