"""The snapshot store: versioned generations, hot reload, and rollback.

The paper's tables are one snapshot in time, but the databases it
studies refresh continuously — Gouel et al.'s longitudinal study (see
PAPERS.md) shows answers churn meaningfully between releases, so a
serving deployment must *replace* its snapshot set under live traffic,
not restart for every vendor drop.  This module is that lifecycle plane:
an out-of-process compiler publishes generations into a
:class:`SnapshotStore` directory, and a :class:`StoreWatcher` inside the
server validates each candidate and swaps it into the running
:class:`~repro.serve.engine.ServingEngine` atomically — or rejects it
and keeps serving the previous generation.

On-disk layout (everything under one store root)::

    store/
      CURRENT                    text: the live generation id ("000007")
      generations/
        000006/
          MANIFEST.json          generation id, build metadata, and the
                                 SHA-256 digest of every payload file
          NetAcuity.rgix …       one compiled snapshot per vendor
          plane.rgpl             the precomputed answer plane (optional)
        000007/
          …

Three rules make the store crash-safe with nothing but POSIX rename:

* a generation directory is **staged** under a temporary name and
  renamed into ``generations/`` only after every payload file and the
  manifest are fully written — a reader can never see a half-published
  generation under its final name;
* the manifest is written *last* inside the staging directory (itself
  via temp-file + ``os.replace``), so a directory without a readable
  manifest is by definition an aborted publish, skipped by every reader;
* ``CURRENT`` is a one-line file updated via temp-file + ``os.replace``
  — the pointer flip is the publish commit point, and a torn ``CURRENT``
  is impossible.

Trust: :meth:`SnapshotStore.load` re-hashes every payload file against
the manifest digests *before* handing bytes to the ``.rgix``/``.rgpl``
parsers, and every failure is a :class:`StoreError` (or a
generation-labelled :class:`~repro.serve.snapshot.SnapshotError`)
naming the generation and file — a rollback log must be actionable on
its own.  A rejected candidate gets a ``REJECTED`` marker (with the
reason) so operators can audit what was refused and why, and so the
watcher never retries a known-bad generation.

Validation in :meth:`StoreWatcher.poll_once` is three gates, in cost
order: digest verification + parse (the load itself), the engine's
plane handshake (vendors / city range / quorum / index checksums —
re-checked by :meth:`~repro.serve.engine.ServingEngine.swap`), and a
**canary regression probe**: the candidate must keep per-vendor answer
coverage over a fixed probe set within ``canary_max_drop`` of the
serving generation's baseline.  A vendor file that parses perfectly but
lost half its address space (the classic truncated-export incident) is
caught here, before any request sees it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.serve.engine import ServingEngine
from repro.serve.errors import ServeError
from repro.serve.index import CompiledIndex
from repro.serve.plane import PLANE_SUFFIX, load_plane, save_plane
from repro.serve.snapshot import (
    SNAPSHOT_SUFFIX,
    SnapshotError,
    load_index,
    save_index,
)

__all__ = [
    "GenerationRecord",
    "SnapshotStore",
    "StoreError",
    "StoreWatcher",
]

_MANIFEST = "MANIFEST.json"
_REJECTED = "REJECTED"
_CURRENT = "CURRENT"
_GENERATIONS = "generations"
_MANIFEST_FORMAT = "repro-snapshot-generation"
_MANIFEST_VERSION = 1
_PLANE_FILE = f"plane{PLANE_SUFFIX}"

#: Default watcher poll interval — fast enough for the publish→serve
#: latency to feel immediate, slow enough to cost nothing.
DEFAULT_POLL_INTERVAL_S = 2.0

#: A candidate vendor may lose at most this fraction of the canary
#: probe set's coverage relative to the serving generation.
DEFAULT_CANARY_MAX_DROP = 0.25


class StoreError(ServeError):
    """The snapshot store is missing, malformed, or refused an operation."""


def _sha256_file(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_atomic(path: pathlib.Path, data: str) -> None:
    """Write ``data`` to ``path`` via temp file + ``os.replace``.

    The replace is the commit point: a crash mid-write leaves either the
    old content or a stray ``.tmp`` file, never a torn ``path``.
    """
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data, encoding="utf-8")
    os.replace(tmp, path)


@dataclass(frozen=True, slots=True)
class GenerationRecord:
    """One generation as the manifest describes it."""

    generation: int
    path: pathlib.Path
    created_unix: float
    metadata: Mapping[str, object] = field(default_factory=dict)
    vendors: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    plane: Mapping[str, object] | None = None
    rejected: bool = False
    reason: str | None = None

    def to_dict(self) -> dict[str, object]:
        """A JSON-ready row for ``snapshot list`` and reports."""
        row: dict[str, object] = {
            "generation": self.generation,
            "created_unix": round(self.created_unix, 3),
            "vendors": sorted(self.vendors),
            "plane": self.plane is not None,
            "metadata": dict(self.metadata),
        }
        if self.rejected:
            row["rejected"] = True
            row["reason"] = self.reason
        return row


class SnapshotStore:
    """Versioned snapshot generations under one directory.

    The store itself is a pure disk protocol — it holds no locks a
    server thread could contend on and keeps no state beyond its root
    path, so the publisher (the CLI, a cron job) and the consumer (the
    watcher inside the server) can live in different processes.
    """

    def __init__(self, root: str | pathlib.Path, *, create: bool = True):
        self.root = pathlib.Path(root)
        self.generations_dir = self.root / _GENERATIONS
        if create:
            self.generations_dir.mkdir(parents=True, exist_ok=True)
        elif not self.generations_dir.is_dir():
            raise StoreError(
                f"{self.root} is not a snapshot store"
                f" (no {_GENERATIONS}/ directory)"
            )

    # -- layout helpers ------------------------------------------------------

    def generation_path(self, generation: int) -> pathlib.Path:
        return self.generations_dir / f"{generation:06d}"

    def _manifest_path(self, generation: int) -> pathlib.Path:
        return self.generation_path(generation) / _MANIFEST

    def _read_manifest(self, generation: int) -> GenerationRecord:
        path = self._manifest_path(generation)
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise StoreError(
                f"generation {generation}: cannot read manifest: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise StoreError(
                f"generation {generation}: manifest is not valid JSON"
                f" ({exc}) — aborted publish or corrupt store"
            ) from exc
        if manifest.get("format") != _MANIFEST_FORMAT:
            raise StoreError(
                f"generation {generation}: manifest format"
                f" {manifest.get('format')!r} is not {_MANIFEST_FORMAT!r}"
            )
        if manifest.get("generation") != generation:
            raise StoreError(
                f"generation {generation}: manifest claims generation"
                f" {manifest.get('generation')!r} — directory was moved or"
                f" hand-edited"
            )
        rejected_path = self.generation_path(generation) / _REJECTED
        rejected = rejected_path.exists()
        reason = None
        if rejected:
            try:
                reason = rejected_path.read_text(encoding="utf-8").strip() or None
            except OSError:
                reason = None
        return GenerationRecord(
            generation=generation,
            path=self.generation_path(generation),
            created_unix=float(manifest.get("created_unix", 0.0)),
            metadata=dict(manifest.get("metadata") or {}),
            vendors=dict(manifest.get("vendors") or {}),
            plane=manifest.get("plane"),
            rejected=rejected,
            reason=reason,
        )

    def _generation_ids(self) -> list[int]:
        ids = []
        for entry in self.generations_dir.iterdir():
            if entry.is_dir() and entry.name.isdigit():
                ids.append(int(entry.name))
        return sorted(ids)

    # -- publish -------------------------------------------------------------

    def publish(
        self,
        indexes: Mapping[str, CompiledIndex],
        plane=None,
        *,
        metadata: Mapping[str, object] | None = None,
    ) -> GenerationRecord:
        """Write a new generation and commit ``CURRENT`` to it.

        The generation id is the successor of the newest id on disk
        (rejected generations included — ids are never reused, so logs
        stay unambiguous).  Files are staged under a temporary directory
        name, the manifest is written last, and the rename into
        ``generations/`` plus the ``CURRENT`` flip are each atomic.
        """
        if not indexes:
            raise StoreError("refusing to publish a generation with no vendors")
        generation = (self._generation_ids() or [0])[-1] + 1
        final = self.generation_path(generation)
        staging = self.generations_dir / f".staging-{generation:06d}"
        if staging.exists():
            for leftover in staging.iterdir():
                leftover.unlink()
            staging.rmdir()
        staging.mkdir()
        try:
            vendors: dict[str, dict[str, object]] = {}
            for name, index in sorted(indexes.items()):
                filename = f"{name}{SNAPSHOT_SUFFIX}"
                path = save_index(index, staging / filename)
                vendors[name] = {
                    "file": filename,
                    "sha256": _sha256_file(path),
                    "bytes": path.stat().st_size,
                }
            plane_entry = None
            if plane is not None:
                path = save_plane(plane, staging / _PLANE_FILE)
                plane_entry = {
                    "file": _PLANE_FILE,
                    "sha256": _sha256_file(path),
                    "bytes": path.stat().st_size,
                }
            created_unix = time.time()
            manifest = {
                "format": _MANIFEST_FORMAT,
                "version": _MANIFEST_VERSION,
                "generation": generation,
                "created_unix": round(created_unix, 3),
                "metadata": dict(metadata or {}),
                "vendors": vendors,
                "plane": plane_entry,
            }
            # The manifest is the staging directory's commit marker: it
            # goes down last, atomically, so no reader ever trusts a
            # directory whose payload files are still streaming out.
            _write_atomic(
                staging / _MANIFEST,
                json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            )
        except BaseException:
            for leftover in staging.iterdir():
                leftover.unlink()
            staging.rmdir()
            raise
        os.replace(staging, final)
        self.set_current(generation)
        return GenerationRecord(
            generation=generation,
            path=final,
            created_unix=created_unix,
            metadata=dict(metadata or {}),
            vendors=vendors,
            plane=plane_entry,
        )

    # -- pointer -------------------------------------------------------------

    def current_id(self) -> int | None:
        """The generation ``CURRENT`` points at (``None`` when unset)."""
        try:
            text = (self.root / _CURRENT).read_text(encoding="utf-8").strip()
        except OSError:
            return None
        if not text.isdigit():
            raise StoreError(
                f"{self.root / _CURRENT} holds {text!r}, not a generation id"
            )
        return int(text)

    def latest_id(self) -> int | None:
        """The newest generation id on disk, rejected or not."""
        ids = self._generation_ids()
        return ids[-1] if ids else None

    def set_current(self, generation: int) -> None:
        """Point ``CURRENT`` at ``generation`` (which must exist on disk)."""
        if not self.generation_path(generation).is_dir():
            raise StoreError(
                f"cannot point {_CURRENT} at generation {generation}:"
                f" {self.generation_path(generation)} does not exist"
            )
        _write_atomic(self.root / _CURRENT, f"{generation:06d}\n")

    # -- inspection ----------------------------------------------------------

    def generations(self) -> list[GenerationRecord]:
        """Every readable generation, oldest first.

        Directories without a readable, self-consistent manifest are
        aborted publishes (or vandalism); they are skipped here, not
        raised — listing the store must work while one publish is broken.
        """
        records = []
        for generation in self._generation_ids():
            try:
                records.append(self._read_manifest(generation))
            except StoreError:
                continue
        return records

    # -- load ----------------------------------------------------------------

    def load(
        self, generation: int
    ) -> tuple[GenerationRecord, dict[str, CompiledIndex], object | None]:
        """Load one generation, fully verified.

        Every payload file is re-hashed against the manifest digest
        *before* it is parsed — a flipped byte is reported as this
        generation's trust failure, never as a parser internal — and the
        ``.rgix``/``.rgpl`` loaders run with ``generation=`` so their own
        checks stay labelled too.
        """
        record = self._read_manifest(generation)
        directory = record.path
        indexes: dict[str, CompiledIndex] = {}
        for name, entry in sorted(record.vendors.items()):
            path = directory / str(entry["file"])
            self._verify_digest(generation, path, entry)
            indexes[name] = load_index(
                path, expect_name=name, generation=generation
            )
        plane = None
        if record.plane is not None:
            path = directory / str(record.plane["file"])
            self._verify_digest(generation, path, record.plane)
            plane = load_plane(
                path, indexes=indexes, generation=generation
            )
        if not indexes:
            raise StoreError(
                f"generation {generation}: manifest lists no vendors"
            )
        return record, indexes, plane

    @staticmethod
    def _verify_digest(
        generation: int, path: pathlib.Path, entry: Mapping[str, object]
    ) -> None:
        if not path.is_file():
            raise StoreError(
                f"generation {generation}: {path.name} is listed in the"
                f" manifest but missing on disk"
            )
        digest = _sha256_file(path)
        if digest != entry.get("sha256"):
            raise StoreError(
                f"generation {generation}: {path.name} failed digest"
                f" verification (manifest {entry.get('sha256')},"
                f" computed {digest})"
            )

    # -- rollback ------------------------------------------------------------

    def _newest_good(self, *, below: int | None = None) -> int | None:
        for generation in reversed(self._generation_ids()):
            if below is not None and generation >= below:
                continue
            if (self.generation_path(generation) / _REJECTED).exists():
                continue
            try:
                self._read_manifest(generation)
            except StoreError:
                continue
            return generation
        return None

    def reject(self, generation: int, reason: str) -> int | None:
        """Mark ``generation`` rejected and restore ``CURRENT`` to the
        newest non-rejected generation.

        Returns the restored generation id (``None`` when nothing good
        remains — the store is then empty of servable generations and
        ``CURRENT`` is left untouched for the post-mortem).
        """
        directory = self.generation_path(generation)
        if directory.is_dir():
            _write_atomic(directory / _REJECTED, reason.rstrip() + "\n")
        restored = self._newest_good()
        if restored is not None and self.current_id() != restored:
            self.set_current(restored)
        return restored

    def rollback(self) -> int:
        """Point ``CURRENT`` one good generation back (operator command).

        Unlike :meth:`reject`, this does not mark anything bad — it is
        the manual "give me yesterday's database" lever; the abandoned
        generation stays eligible for a later roll-forward.
        """
        current = self.current_id()
        if current is None:
            raise StoreError(f"{self.root} has no {_CURRENT} to roll back")
        previous = self._newest_good(below=current)
        if previous is None:
            raise StoreError(
                f"generation {current} is the oldest good generation —"
                f" nothing to roll back to"
            )
        self.set_current(previous)
        return previous

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SnapshotStore({self.root}; current={self.current_id()})"


class StoreWatcher:
    """Polls a store's ``CURRENT`` pointer and hot-swaps the engine.

    One daemon thread (started by :meth:`start`; :meth:`poll_once` is
    also callable directly — the tests and the longitudinal scenario
    drive it synchronously).  Every poll is one ``CURRENT`` read; only a
    pointer change triggers the load → validate → swap pipeline.  The
    watcher registers itself with the engine, so
    :meth:`~repro.serve.engine.ServingEngine.close` stops the thread —
    no reload thread ever outlives the engine it feeds.
    """

    def __init__(
        self,
        store: SnapshotStore,
        engine: ServingEngine,
        *,
        interval_s: float = DEFAULT_POLL_INTERVAL_S,
        canary_addresses: Sequence[int] = (),
        canary_max_drop: float = DEFAULT_CANARY_MAX_DROP,
        metrics=None,
        trace_sink=None,
    ):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive: {interval_s!r}")
        if not 0.0 <= canary_max_drop <= 1.0:
            raise ValueError(
                f"canary_max_drop must be a fraction: {canary_max_drop!r}"
            )
        self.store = store
        self.engine = engine
        self.interval_s = interval_s
        self.canary_addresses = tuple(canary_addresses)
        self.canary_max_drop = canary_max_drop
        self._metrics = metrics
        self._trace_sink = trace_sink
        self._baseline: dict[str, int] | None = None
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self.last_error: str | None = None
        engine.register_watcher(self)

    # -- wiring --------------------------------------------------------------

    def attach_metrics(self, metrics) -> None:
        """Emit ``store.*`` counters into ``metrics`` (``None`` detaches).

        The CLI builds the watcher before the server owns a registry;
        this is how the server's registry is threaded in afterwards,
        mirroring :meth:`ServingEngine.attach_metrics`.
        """
        self._metrics = metrics

    def attach_trace_sink(self, sink) -> None:
        """Record swap traces into ``sink`` (a
        :class:`~repro.obs.reqtrace.TraceRing`); ``None`` detaches."""
        self._trace_sink = sink

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the poll thread (idempotent while running)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop_event.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-store-watcher", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Stop and join the poll thread (idempotent; engine.close calls
        this, and the watcher thread itself may land here via a swap
        failure — joining yourself is skipped)."""
        self._stop_event.set()
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            try:
                self.poll_once()
            except Exception as exc:  # the poll loop must survive anything
                self.last_error = f"{exc.__class__.__name__}: {exc}"

    # -- the reload pipeline -------------------------------------------------

    def poll_once(self) -> str:
        """One poll: ``"noop"``, ``"swapped"``, or ``"rolled_back"``.

        A candidate that fails load, digest, handshake, or the canary
        probe is rejected in the store (``REJECTED`` marker + ``CURRENT``
        restored) and counted as a rollback on the engine — the serving
        generation is untouched in every failure path.
        """
        target = self.store.current_id()
        if target is None or target == self.engine.generation_id:
            return "noop"
        trace = self._begin_trace()
        load_span = -1 if trace is None else trace.begin(
            "swap.load", generation=target
        )
        try:
            record, indexes, plane = self.store.load(target)
        except ServeError as exc:
            if trace is not None:
                trace.end(load_span, ok=False)
            return self._reject(target, str(exc), trace)
        if trace is not None:
            trace.end(load_span, ok=True, vendors=len(indexes))

        validate_span = -1 if trace is None else trace.begin(
            "swap.validate", generation=target
        )
        reason = self._validate(indexes, plane)
        if trace is not None:
            trace.end(validate_span, ok=reason is None)
        if reason is not None:
            return self._reject(target, reason, trace)

        swap_span = -1 if trace is None else trace.begin(
            "swap.activate", generation=target
        )
        try:
            self.engine.swap(
                indexes,
                plane,
                generation_id=record.generation,
                source="store",
                rollback=target < self.engine.generation_id,
            )
        except (ServeError, ValueError) as exc:
            if trace is not None:
                trace.end(swap_span, ok=False)
            return self._reject(target, str(exc), trace)
        if trace is not None:
            trace.end(swap_span, ok=True)
            self._finish_trace(trace)
        self.last_error = None
        # The new generation is the next candidate's regression baseline.
        if self.canary_addresses:
            self._baseline = self.engine.canary_coverage(self.canary_addresses)
        return "swapped"

    def _validate(self, indexes, plane) -> str | None:
        """The pre-swap gates; returns the rejection reason or ``None``.

        Vendor-set and plane-handshake mismatches are also enforced by
        :meth:`ServingEngine.swap` itself — checking here just keeps the
        rejection on the cheap path, before a generation object is built.
        """
        expected = set(self.engine.vendor_names())
        incoming = set(indexes)
        if incoming != expected:
            return (
                f"vendor set changed: candidate serves {sorted(incoming)},"
                f" engine serves {sorted(expected)}"
            )
        if self.canary_addresses:
            if self._baseline is None:
                self._baseline = self.engine.canary_coverage(
                    self.canary_addresses
                )
            for name, index in sorted(indexes.items()):
                baseline = self._baseline.get(name, 0)
                if not baseline:
                    continue
                covered = sum(
                    1
                    for addr in self.canary_addresses
                    if index.probe_answer(addr) is not None
                )
                floor = baseline * (1.0 - self.canary_max_drop)
                if covered < floor:
                    return (
                        f"canary regression: {name} answers {covered}/"
                        f"{len(self.canary_addresses)} probe addresses,"
                        f" serving generation answers {baseline}"
                        f" (allowed drop {self.canary_max_drop:.0%})"
                    )
        return None

    def _reject(self, generation: int, reason: str, trace) -> str:
        self.last_error = reason
        restored = self.store.reject(generation, reason)
        self.engine.note_rollback()
        if self._metrics is not None:
            self._metrics.inc("store.rejected_generations")
        if trace is not None:
            trace.add(
                "swap.rollback",
                0.0,
                generation=generation,
                restored=restored,
                reason=reason,
            )
            self._finish_trace(trace)
        return "rolled_back"

    # -- tracing -------------------------------------------------------------

    def _begin_trace(self):
        if self._trace_sink is None:
            return None
        from repro.obs.reqtrace import RequestTrace

        return RequestTrace("swap")

    def _finish_trace(self, trace) -> None:
        trace.finish(status=200)
        self._trace_sink.record(trace)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"StoreWatcher({self.store.root};"
            f" engine_gen={self.engine.generation_id})"
        )
