"""Flatten a database into disjoint longest-prefix-match intervals.

:func:`sweep_sorted_entries` partitions the IPv4 space by
longest-prefix-match answer in one pass over a database's sorted entry
list, and :func:`number_entries` numbers the answering entries and
their records.  Two consumers build on the numbered partition:

* the serving layer's :class:`~repro.serve.index.CompiledIndex`, which
  keeps it as a snapshot-friendly immutable index;
* the analysis layer's :class:`~repro.core.frame.LookupFrame`, which
  derives per-entry answer tables and resolves whole address pools with
  one C-level bisect per address.

Both therefore agree on every entry and record id.  It lives here —
beside :class:`~repro.geodb.database.GeoDatabase` — because both
consumers need it and neither should import the other.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.geodb.database import DatabaseEntry
from repro.geodb.record import GeoRecord

__all__ = [
    "ADDRESS_SPACE_END",
    "merge_starts",
    "number_entries",
    "sweep_sorted_entries",
]

ADDRESS_SPACE_END = 1 << 32


def merge_starts(starts_lists: Iterable[Sequence[int]]) -> list[int]:
    """The union of several interval-start arrays, sorted ascending.

    Every input array is a per-database partition of the address space
    (``starts[0] == 0``, strictly increasing); the union is the boundary
    set of the *cross-database* partition: inside each merged interval no
    database's answer can change, so a per-interval answer precomputed
    there (the serving layer's :class:`~repro.serve.plane.AnswerPlane`)
    is exact everywhere.
    """
    merged: set[int] = set()
    for starts in starts_lists:
        merged.update(starts)
    if not merged:
        raise ValueError("merge_starts needs at least one interval array")
    return sorted(merged)


def sweep_sorted_entries(
    entries_in_order: Iterable[DatabaseEntry],
) -> tuple[list[int], list[DatabaseEntry | None]]:
    """Partition the address space by longest-prefix-match answer.

    Returns parallel lists ``(starts, entries)``: interval *i* covers
    ``[starts[i], starts[i+1])`` (the last runs to 2^32) and is answered
    by ``entries[i]`` (``None`` = no coverage); adjacent intervals never
    share an answer and ``starts[0] == 0``.

    CIDR prefixes can only nest or be disjoint, so one sweep over the
    entries in (start, length) order — the order
    :meth:`GeoDatabase.entries` maintains, and the order a streaming
    snapshot generator emits — with a stack of enclosing prefixes visits
    every point where the answer can change, without probing the lookup
    engine.  At each boundary the innermost active prefix answers.

    ``entries_in_order`` may be any iterable (including a generator that
    never materializes the full entry list — the scale tier's compile
    path); it is consumed exactly once and **must** be sorted by
    ``(network_address, prefixlen)``, which callers that stream should
    verify themselves (see :meth:`CompiledIndex.compile_entries`).
    """
    # Parallel output rows: interval i is [starts[i], starts[i+1]) with
    # answer entries[i].  Closing a prefix re-announces the enclosing
    # answer at the closed end; that point overwrites a just-emitted row
    # at the same address (a child starting or ending where its parent
    # does) and merges away a row that repeats its neighbour's answer
    # (prefixes are unique, so identity comparison is answer comparison).
    # The emit logic is inlined — it runs twice per database entry and
    # the call overhead is measurable at database scale.
    starts: list[int] = [0]
    entries: list[DatabaseEntry | None] = [None]
    stack_ends: list[int] = []  # innermost (smallest end) last
    stack_entries: list[DatabaseEntry] = []
    push_start = starts.append
    push_entry = entries.append
    for entry in entries_in_order:
        prefix = entry.prefix
        start = int(prefix.network_address)
        while stack_ends and stack_ends[-1] <= start:
            closed_end = stack_ends.pop()
            stack_entries.pop()
            outer = stack_entries[-1] if stack_entries else None
            if starts[-1] == closed_end:
                if len(starts) > 1 and entries[-2] is outer:
                    starts.pop()
                    entries.pop()
                else:
                    entries[-1] = outer
            elif entries[-1] is not outer:
                push_start(closed_end)
                push_entry(outer)
        # First visit of a unique prefix: it can never repeat the current
        # answer, so only the same-point overwrite case needs handling.
        if starts[-1] == start:
            entries[-1] = entry
        else:
            push_start(start)
            push_entry(entry)
        stack_ends.append(start + (1 << (32 - prefix.prefixlen)))
        stack_entries.append(entry)
    while stack_ends:
        closed_end = stack_ends.pop()
        stack_entries.pop()
        if closed_end >= ADDRESS_SPACE_END:
            continue
        outer = stack_entries[-1] if stack_entries else None
        if starts[-1] == closed_end:
            if len(starts) > 1 and entries[-2] is outer:
                starts.pop()
                entries.pop()
            else:
                entries[-1] = outer
        elif entries[-1] is not outer:
            push_start(closed_end)
            push_entry(outer)
    return starts, entries


def number_entries(
    interval_entries: Iterable[DatabaseEntry | None],
) -> tuple[list[int], list[DatabaseEntry], list[int], list[GeoRecord]]:
    """Number a sweep's answering entries and their records.

    Returns ``(answers, entries, record_ids, records)``: ``answers[i]``
    is the id of the entry answering interval *i* (−1 = no coverage);
    ``entries`` lists each answering :class:`DatabaseEntry` once, by
    first appearance in address order; ``record_ids[e]`` is entry *e*'s
    id into ``records``, which holds each distinct record once (records
    are deduplicated by value, entries by identity).
    """
    record_ids: dict[GeoRecord, int] = {}
    records: list[GeoRecord] = []
    entry_ids: dict[int, int] = {}  # id(entry) → entry number
    entries: list[DatabaseEntry] = []
    entry_record_ids: list[int] = []

    answers: list[int] = []
    for entry in interval_entries:
        if entry is None:
            answer = -1
        else:
            answer = entry_ids.get(id(entry))
            if answer is None:
                record_id = record_ids.get(entry.record)
                if record_id is None:
                    record_id = record_ids[entry.record] = len(records)
                    records.append(entry.record)
                answer = entry_ids[id(entry)] = len(entries)
                entries.append(entry)
                entry_record_ids.append(record_id)
        answers.append(answer)
    return answers, entries, entry_record_ids, records
