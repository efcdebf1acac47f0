"""The compiled lookup index: longest-prefix match as one bisect probe.

:class:`GeoDatabase` answers a lookup by walking per-prefix-length hash
tables — up to 33 dictionary probes, each with a Python-level shift and
mask.  That is fine for an analysis pipeline but it *is* the hot path of
a serving system, executed once per request.  :class:`CompiledIndex`
flattens a database into the serving-friendly shape: the 2^32 address
space is partitioned into disjoint, sorted integer intervals, each
answered by the entry that longest-prefix-matches every address inside
it.  A lookup is then a single :func:`bisect.bisect_right` (binary
search in C) plus one list indexing — no per-length walk at all.

Compilation runs once per database — a single sweep over the sorted
entry list with a stack of enclosing prefixes, O(N) after the sort the
database already maintains — and the result is immutable, making it
safe to share across serving threads and to persist as a snapshot
(:mod:`repro.serve.snapshot`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.geodb.database import DatabaseEntry, GeoDatabase
from repro.geodb.intervals import ADDRESS_SPACE_END as _ADDRESS_SPACE_END
from repro.geodb.intervals import number_entries, sweep_sorted_entries
from repro.geodb.record import GeoRecord
from repro.net.ip import IPv4Address, parse_address

__all__ = ["CompiledIndex", "IndexAnswer"]


@dataclass(frozen=True, slots=True)
class IndexAnswer:
    """One resolved lookup: the matched prefix and its record.

    The prefix is kept in CIDR text form — *Lost in the Prefix* argues
    consumers need the per-prefix answer surface, and the HTTP layer
    reports it verbatim.
    """

    prefix: str
    record: GeoRecord

    def to_dict(self) -> dict[str, Any]:
        """The answer's JSON object, as ``/lookup``, ``/batch`` and
        enriched events all render it."""
        record = self.record
        return {
            "prefix": self.prefix,
            "country": record.country,
            "region": record.region,
            "city": record.city,
            "latitude": record.latitude,
            "longitude": record.longitude,
            "resolution": record.resolution.value,
        }


class CompiledIndex:
    """A :class:`GeoDatabase` flattened into disjoint sorted intervals.

    Internals (immutable after construction, apart from the memo):

    * ``_starts`` — interval start addresses, strictly increasing,
      beginning at 0; interval *i* covers ``[_starts[i], _starts[i+1])``
      (the last interval ends at 2^32);
    * ``_answers`` — per-interval entry id (−1 = no coverage); adjacent
      intervals never share an answer (merged at compile time);
    * ``_prefixes`` / ``_record_ids`` — per entry id, its CIDR text and
      its id into ``_records``, one entry per original database entry
      that actually answers some interval (two flat columns, not a
      tuple of pairs: a pair costs a tuple object per entry);
    * ``_records`` — deduplicated :class:`GeoRecord` objects;
    * ``_entry_answers`` — the per-entry :class:`IndexAnswer` memo behind
      :meth:`entry_answer` (filled on first use, never changed after).

    The hot path deliberately avoids :mod:`array` storage: ``bisect`` over
    an ``array`` boxes a fresh ``int`` per comparison, which measurably
    loses to the hash-table walk — plain lists keep the probe in C all the
    way.  (Snapshots still pack to fixed-width integers on disk.)  Only
    the record-id column, read once per entry, is an ``array``.

    Construct via :meth:`compile` (from a database),
    :meth:`compile_entries` (from a sorted entry stream), or the
    constructor (from a loaded snapshot's components, validating shape).
    """

    __slots__ = (
        "name",
        "source_entries",
        "checksum",
        "_starts",
        "_answers",
        "_prefixes",
        "_record_ids",
        "_records",
        "_entry_answers",
        "probe",
        "probe_answer",
    )

    def __init__(
        self,
        name: str,
        source_entries: int,
        starts: Sequence[int],
        answers: Sequence[int],
        entries: Sequence[tuple[str, int]],
        records: Sequence[GeoRecord],
    ):
        if len(starts) != len(answers):
            raise ValueError("starts and answers must be parallel arrays")
        if not starts or starts[0] != 0:
            raise ValueError("interval table must start at address 0")
        self.name = name
        self.source_entries = source_entries
        #: SHA-256 of this index's ``.rgix`` payload, set when the index
        #: is saved or loaded (see :func:`repro.serve.snapshot.index_checksum`).
        self.checksum: str | None = None
        self._starts = list(starts)
        self._answers = list(answers)
        self._prefixes = [prefix for prefix, _ in entries]
        record_ids = [record_id for _, record_id in entries]
        self._records = tuple(records)
        if self._answers and (
            min(self._answers) < -1 or max(self._answers) >= len(self._prefixes)
        ):
            raise ValueError("answers reference entries outside the table")
        if record_ids and (
            min(record_ids) < 0 or max(record_ids) >= len(self._records)
        ):
            raise ValueError("entries reference records outside the table")
        self._record_ids = array("i", record_ids)
        # Per-entry answers, built on first use: an index answers far
        # fewer distinct entries per process lifetime than it loads, and
        # boot should not pay for the rest (see entry_answer).
        self._entry_answers: list[IndexAnswer | None] = [None] * len(self._prefixes)

        # The probes are bound as closures tuned for per-request cost:
        #
        # * state rides in *positional* defaults — filled from the cheap
        #   ``__defaults__`` fast path, where keyword-only defaults cost a
        #   dict lookup each per call, and ``self.`` attribute loads cost
        #   even more;
        # * the per-interval lists are shifted one slot so the bisect
        #   result indexes directly — ``bisect_right`` always returns at
        #   least 1 here because ``_starts[0] == 0`` never exceeds a
        #   valid address.
        #
        # Don't pass the defaults; they exist only to pre-bind the state.
        # Entry -1 (no coverage) indexes the trailing None.
        entry_records = [self._records[rid] for rid in record_ids]
        entry_records.append(None)
        shifted_records = [None]
        shifted_records += map(entry_records.__getitem__, self._answers)
        shifted_answers = [-1, *self._answers]

        def probe(
            addr: int,
            _bisect=bisect_right,
            _starts=self._starts,
            _records=shifted_records,
        ) -> GeoRecord | None:
            """Raw record lookup on a pre-validated address integer."""
            return _records[_bisect(_starts, addr)]

        def probe_answer(
            addr: int,
            _bisect=bisect_right,
            _starts=self._starts,
            _answers=shifted_answers,
            _entry_answer=self.entry_answer,
        ) -> IndexAnswer | None:
            """Raw prefix+record lookup on a pre-validated address integer."""
            entry_id = _answers[_bisect(_starts, addr)]
            return _entry_answer(entry_id) if entry_id >= 0 else None

        self.probe = probe
        self.probe_answer = probe_answer

    def entry_answer(self, entry_id: int) -> IndexAnswer:
        """The :class:`IndexAnswer` for entry ``entry_id`` (``0 <=
        entry_id < entry_count``), built on first use and then shared —
        every probe of the entry, live or through an answer plane cell,
        returns the same object."""
        answer = self._entry_answers[entry_id]
        if answer is None:
            answer = IndexAnswer(
                prefix=self._prefixes[entry_id],
                record=self._records[self._record_ids[entry_id]],
            )
            self._entry_answers[entry_id] = answer
        return answer

    # -- construction --------------------------------------------------------

    @classmethod
    def compile(cls, database: GeoDatabase) -> "CompiledIndex":
        """Flatten ``database`` into the interval form (see
        :meth:`compile_entries`), so the output is identical to probing
        the original engine at every prefix boundary."""
        return cls.compile_entries(database.name, database.entries())

    @classmethod
    def compile_entries(
        cls, name: str, entries_in_order: Iterable[DatabaseEntry]
    ) -> "CompiledIndex":
        """Flatten a *stream* of sorted entries into the interval form.

        Every compile runs here: :meth:`compile` passes a database's
        entries, and the scale tier streams them from a generator, so
        they never become a :class:`GeoDatabase` (no per-length hash
        tables, no entry tuple) and only the compiled interval arrays
        materialize.  The entries go through
        :func:`~repro.geodb.intervals.sweep_sorted_entries` and
        :func:`~repro.geodb.intervals.number_entries` — the same sweep
        and numbering the study's frame uses.  They must arrive in the
        ``(network_address, prefixlen)`` order :meth:`GeoDatabase.entries`
        maintains; out-of-order input is detected and refused (a silent
        mis-sweep would mis-answer the whole space).
        """
        count = 0

        def ordered() -> Iterator[DatabaseEntry]:
            nonlocal count
            previous = (-1, -1)
            for entry in entries_in_order:
                key = (int(entry.prefix.network_address), entry.prefix.prefixlen)
                if key < previous:
                    raise ValueError(
                        f"entry stream out of order at {entry.prefix}"
                        f" (start {key[0]:#x} after {previous[0]:#x})"
                    )
                previous = key
                count += 1
                yield entry

        starts, interval_entries = sweep_sorted_entries(ordered())
        answers, entries, record_ids, records = number_entries(interval_entries)
        return cls(
            name=name,
            source_entries=count,
            starts=starts,
            answers=answers,
            entries=[
                (str(entry.prefix), record_id)
                for entry, record_id in zip(entries, record_ids)
            ],
            records=records,
        )

    # -- lookup --------------------------------------------------------------

    def lookup(self, address: IPv4Address | str | int) -> GeoRecord | None:
        """The location record for ``address``, or ``None`` (no coverage).

        Signature- and answer-compatible with :meth:`GeoDatabase.lookup`,
        so index mappings drop into code written against databases.
        """
        return self.probe(int(parse_address(address)))

    def lookup_answer(self, address: IPv4Address | str | int) -> IndexAnswer | None:
        """The matched prefix *and* record, or ``None`` (no coverage)."""
        return self.probe_answer(int(parse_address(address)))

    # -- inspection ----------------------------------------------------------

    @property
    def interval_count(self) -> int:
        return len(self._starts)

    @property
    def entry_count(self) -> int:
        """Distinct answering entries (valid ids for :meth:`entry_answer`)."""
        return len(self._prefixes)

    def entry_at(self, addr: int) -> int:
        """The entry id answering a pre-validated address integer (−1 =
        no coverage) — the answer plane's compile-time probe."""
        return self._answers[bisect_right(self._starts, addr) - 1]

    def intervals(self) -> Iterator[tuple[int, int, int]]:
        """``(start, end, answer_id)`` triples covering the address space."""
        for i, start in enumerate(self._starts):
            end = self._starts[i + 1] if i + 1 < len(self._starts) else _ADDRESS_SPACE_END
            yield start, end, self._answers[i]

    def parts(
        self,
    ) -> tuple[list[int], list[int], tuple[tuple[str, int], ...], tuple[GeoRecord, ...]]:
        """The snapshot-serialisable components (treat as read-only):
        interval starts, interval answers, ``(prefix_cidr, record_id)``
        entry pairs (built on each call) and records."""
        return (
            self._starts,
            self._answers,
            tuple(zip(self._prefixes, self._record_ids)),
            self._records,
        )

    def __len__(self) -> int:
        return self.interval_count

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CompiledIndex({self.name!r}, {self.interval_count} intervals"
            f" from {self.source_entries} entries)"
        )
