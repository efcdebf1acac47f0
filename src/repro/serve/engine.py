"""The serving engine: all vendor indexes behind one fail-closed lookup API.

A :class:`ServingEngine` is what a deployment actually runs: the four
vendor tables compiled to :class:`~repro.serve.index.CompiledIndex`
form, batch lookup with thread fan-out, and a consensus view that
reuses the study's own majority-vote machinery
(:func:`repro.core.majority.majority_of_records`) — the §5.1 warning
that databases can agree *and* be wrong is exactly why the API reports
disagreement flags next to the majority answer rather than a single
merged location.

Since vendors fail in production (see :mod:`repro.faults` for the fault
matrix this is tested against), every request resolves to a
:class:`LookupOutcome` under an explicit degradation contract:

* a vendor probe that raises is retried per :class:`ResiliencePolicy`
  and, past a consecutive-failure threshold, the vendor is
  **quarantined** — skipped entirely until an exponentially growing
  cooldown expires, when one half-open probe decides recovery;
* an optional per-request **deadline budget** bounds tail latency: once
  the budget is spent, remaining vendors are skipped rather than probed;
* any answer produced with vendors missing carries ``degraded=True``
  (and the consensus a truthful ``quorum`` flag) — *Overconfident
  Coordinates* is why degradation is flagged, never silent;
* when no vendor can answer at all, the engine raises the typed
  :class:`~repro.serve.errors.NoHealthyVendors` instead of fabricating
  an empty answer.

With an :class:`~repro.serve.plane.AnswerPlane` attached, the healthy
path skips all of that machinery: every vendor's answer and the §5.1
consensus were already resolved per merged cross-vendor interval at
compile time, so a lookup is one C-level bisect plus array reads.  The
plane is consulted only while every vendor is healthy *and* no fault
injector is armed (the injector's fault gates live in the per-vendor
probe wrappers, so a chaos engine must run the live path for faults to
fire at all); the moment anything degrades, requests fall back to the
live per-vendor resolve path above — the fail-closed contract is
untouched, it just stops being paid for when nothing is broken.  So a
healthy lookup takes one of exactly two paths: the plane when one is
loaded, the live resolve otherwise.

Every piece of state a lookup touches — indexes, plane, per-vendor
health — lives inside one :class:`_Generation` object, and the engine
holds exactly one reference to it.  A lookup captures that reference
once on entry and never re-reads it, so :meth:`ServingEngine.swap` can
atomically replace the entire served snapshot set under live traffic
(Gouel et al.'s longitudinal refresh problem) with a single
assignment: in-flight lookups finish on the generation they started
with, new lookups see the new one, and a torn or mixed-generation
answer is structurally impossible.  The
:mod:`repro.serve.store` watcher drives swaps (and rollbacks) from the
on-disk generation store.

Metrics land in the ``serve.*`` family of the attached
:class:`~repro.obs.metrics.MetricsRegistry` (lookups, batch sizes,
consensus calls, vendor errors/retries/quarantines, generation
swaps/rollbacks), with plane traffic split out as
``plane.*`` (hits vs live fallbacks), mirroring how the analysis
pipeline reports ``geodb.*``.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.core.majority import DEFAULT_CITY_RANGE_KM, majority_of_records
from repro.geo.coordinates import GeoPoint
from repro.geodb.database import GeoDatabase
from repro.net.ip import IPv4Address, parse_address
from repro.obs.metrics import MetricsRegistry
from repro.serve.errors import NoHealthyVendors, ServeError, VendorError
from repro.serve.index import CompiledIndex, IndexAnswer
from repro.serve.snapshot import load_index_set

if TYPE_CHECKING:  # plane.py imports this module
    from repro.serve.plane import PlaneAnswer

__all__ = [
    "ConsensusAnswer",
    "LookupOutcome",
    "ResiliencePolicy",
    "ServingEngine",
]

#: Batches at least this large fan out across worker threads.
DEFAULT_BATCH_THRESHOLD = 256


@dataclass(frozen=True, slots=True)
class ResiliencePolicy:
    """How the engine behaves when a vendor backend misbehaves.

    ``retries`` extra attempts (with ``retry_backoff_s`` doubling
    between them) absorb transient errors; ``quarantine_threshold``
    consecutive failures quarantine the vendor for ``cooldown_s``
    (doubling per re-quarantine up to ``cooldown_max_s``, then one
    half-open probe decides recovery).  ``deadline_ms`` is the
    per-request time budget — ``None`` disables it.  ``quorum_min`` is
    the least number of answering vendors for a consensus to claim
    quorum.
    """

    retries: int = 1
    retry_backoff_s: float = 0.0
    quarantine_threshold: int = 3
    cooldown_s: float = 0.5
    cooldown_max_s: float = 30.0
    deadline_ms: float | None = None
    quorum_min: int = 2

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative: {self.retries!r}")
        if self.quarantine_threshold < 1:
            raise ValueError(
                f"quarantine_threshold must be positive: {self.quarantine_threshold!r}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive: {self.deadline_ms!r}")


DEFAULT_POLICY = ResiliencePolicy()


class _VendorHealth:
    """Mutable per-vendor circuit state (guarded by its generation's lock).

    ``blocked_until`` doubles as the fast-path gate: 0.0 for a healthy
    vendor (one falsy check per lookup), a monotonic deadline while
    quarantined, ``inf`` for a vendor whose snapshot never loaded.
    """

    __slots__ = (
        "status",
        "blocked_until",
        "consecutive_failures",
        "cooldown_s",
        "quarantines",
        "last_error",
    )

    def __init__(self, cooldown_s: float, *, status: str = "healthy"):
        self.status = status
        self.blocked_until = math.inf if status == "missing" else 0.0
        self.consecutive_failures = 0
        self.cooldown_s = cooldown_s
        self.quarantines = 0
        self.last_error: str | None = (
            "snapshot missing at load time" if status == "missing" else None
        )

    def snapshot(self) -> dict[str, object]:
        return {
            "state": self.status,
            "consecutive_failures": self.consecutive_failures,
            "quarantines": self.quarantines,
            "cooldown_s": self.cooldown_s,
            "last_error": self.last_error,
        }


class _Generation:
    """One loaded snapshot set: everything a lookup touches, behind a
    single reference.

    A lookup captures ``engine._gen`` exactly once at entry and reads
    only this object afterwards, so a concurrent :meth:`ServingEngine.\
swap` (one reference assignment) can never hand it another
    generation's indexes, plane, or health table: in-flight lookups
    finish on the generation they started with, and every field of
    their answer comes from that one generation.
    """

    __slots__ = (
        "gen_id",
        "source",
        "indexes",
        "plane",
        "plane_live",
        "health",
        "health_lock",
        "healthy",
        "missing",
        "memo",
        "activated_monotonic",
        "activated_unix",
    )

    def __init__(
        self,
        gen_id: int,
        source: str,
        indexes: Mapping[str, CompiledIndex],
        plane,
        plane_live,
        health: dict[str, _VendorHealth],
        missing: tuple[str, ...],
        activated_monotonic: float,
    ):
        self.gen_id = gen_id
        self.source = source
        self.indexes = indexes
        self.plane = plane
        self.plane_live = plane_live
        self.health = health
        self.health_lock = threading.Lock()
        self.missing = missing
        # The plane's fast gate: True only while every vendor is fully
        # healthy (no quarantine, no missing snapshot, no failure streak
        # mid-count).  Flipped under the health lock, read without it —
        # a plain bool attribute read is atomic, and a stale False only
        # costs one live-path resolve, never correctness.
        self.healthy = not missing
        # Derived data callers cache per generation (see
        # ServingEngine.generation_memo); it dies with the generation.
        self.memo: dict = {}
        self.activated_monotonic = activated_monotonic
        self.activated_unix = time.time()

    def vendor_names(self) -> tuple[str, ...]:
        """Served plus expected-but-missing vendors, in answer order."""
        return (*self.indexes, *self.missing)


@dataclass(frozen=True, slots=True)
class LookupOutcome:
    """One request's full, honestly-labelled result.

    ``answers`` holds every vendor that answered this request (``None``
    value = the vendor is healthy and has no coverage — itself a final,
    correct answer).  Vendors absent from ``answers`` are accounted for
    exactly once across ``errors`` (failed this request, post-retries),
    ``quarantined`` (skipped: circuit open or snapshot missing), and
    ``skipped`` (not probed: the deadline budget ran out).  Treat the
    containers as read-only.

    ``cell`` is the :class:`~repro.serve.plane.PlaneAnswer` a healthy
    plane lookup came from (``None`` on the live and degraded paths), so
    :meth:`ServingEngine.consensus_of` can reuse the vote the plane
    tallied at compile time.  It takes no part in equality or
    ``repr``: a plane outcome equals the live outcome for its address.
    """

    address: IPv4Address
    answers: Mapping[str, IndexAnswer | None]
    errors: Mapping[str, str] = field(default_factory=dict)
    quarantined: tuple[str, ...] = ()
    skipped: tuple[str, ...] = ()
    deadline_exceeded: bool = False
    cell: PlaneAnswer | None = field(default=None, compare=False, repr=False)

    @property
    def degraded(self) -> bool:
        """True when any vendor's answer is missing from this result."""
        return bool(
            self.errors or self.quarantined or self.skipped or self.deadline_exceeded
        )

    def unavailable(self) -> tuple[str, ...]:
        """Every vendor that did not answer, sorted."""
        return tuple(sorted({*self.errors, *self.quarantined, *self.skipped}))


@dataclass(frozen=True, slots=True)
class ConsensusAnswer:
    """The multi-vendor view of one address.

    ``country``/``location`` are the majority vote's answers (``None``
    when no quorum forms); the disagreement flags are the §5.1
    consistency notion — ``country_disagreement`` when any two answering
    databases name different ISO codes, ``city_disagreement`` when any
    two city-level answers sit farther apart than the city range.
    ``degraded`` is True when the vote ran over fewer vendors than the
    engine serves (failures/quarantine/deadline); ``quorum`` is True
    when at least ``ResiliencePolicy.quorum_min`` vendors answered.
    """

    address: IPv4Address
    country: str | None
    country_votes: int
    location: GeoPoint | None
    location_votes: int
    voters: int
    country_disagreement: bool
    city_disagreement: bool
    degraded: bool = False
    quorum: bool = True


class ServingEngine:
    """Concurrent multi-database lookup over compiled indexes.

    Indexes are immutable and shared; the mutable state — the per-vendor
    health table — locks internally, so the engine is safe to query from
    many threads at once (the HTTP layer does exactly that).  Pass a
    :class:`repro.faults.FaultInjector` as ``injector`` to wrap the
    indexes in its deterministic fault gates; with
    ``injector=None`` (the default) the request path is untouched.

    The served snapshot set is a *generation* (``generation_id``,
    reported on ``/statusz``): :meth:`swap` atomically replaces it under
    live traffic, :meth:`close` stops any registered store watchers and
    refuses further swaps.
    """

    def __init__(
        self,
        indexes: Mapping[str, CompiledIndex],
        *,
        metrics: MetricsRegistry | None = None,
        city_range_km: float = DEFAULT_CITY_RANGE_KM,
        batch_threshold: int = DEFAULT_BATCH_THRESHOLD,
        max_workers: int = 4,
        policy: ResiliencePolicy | None = None,
        injector=None,
        plane=None,
        expected: Iterable[str] | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        generation_id: int = 0,
        generation_source: str = "boot",
    ):
        if batch_threshold < 1:
            raise ValueError(f"batch_threshold must be positive: {batch_threshold!r}")
        if max_workers < 1:
            raise ValueError(f"max_workers must be positive: {max_workers!r}")
        self._injector = injector
        self.attach_metrics(metrics)
        self.city_range_km = city_range_km
        self.batch_threshold = batch_threshold
        self.max_workers = max_workers
        self._policy = policy if policy is not None else DEFAULT_POLICY
        self._clock = clock
        self._sleep = sleep
        # Generation lifecycle state: one swap at a time, counted, and
        # fenced off after close() so a late watcher poll cannot swap a
        # generation into a dead engine.
        self._swap_lock = threading.Lock()
        self._closed = False
        self._watchers: list = []
        self._swaps = 0
        self._rollbacks = 0
        self._gen = self._build_generation(
            indexes,
            plane,
            expected=expected,
            gen_id=generation_id,
            source=generation_source,
        )
        # Batch fan-out pool: created lazily on the first large batch and
        # reused for the engine's lifetime (thread startup per request is
        # exactly the orchestration cost this layer exists to avoid).
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _build_generation(
        self,
        indexes: Mapping[str, CompiledIndex],
        plane,
        *,
        expected: Iterable[str] | None,
        gen_id: int,
        source: str,
    ) -> _Generation:
        """Assemble one fully-initialised generation, ready to swap in.

        Everything mutable a lookup needs is built fresh here — health
        table, plane gate — so activating the generation is one
        reference assignment with no shared state left behind.
        """
        if not indexes:
            raise ValueError("a serving engine needs at least one database index")
        indexes = dict(sorted(indexes.items()))
        missing = tuple(sorted(set(expected or ()) - set(indexes)))
        if plane is not None:
            self._check_plane(plane, indexes, missing)
        injector = self._injector
        if injector is not None:
            indexes = injector.wrap_indexes(indexes)
        health = {
            name: _VendorHealth(self._policy.cooldown_s) for name in indexes
        }
        for name in missing:
            health[name] = _VendorHealth(
                self._policy.cooldown_s, status="missing"
            )
        # An armed injector gates faults inside the per-vendor probe
        # wrappers; the plane would route around them, so chaos engines
        # always run the live path.
        plane_live = plane if injector is None else None
        return _Generation(
            gen_id=gen_id,
            source=source,
            indexes=indexes,
            plane=plane,
            plane_live=plane_live,
            health=health,
            missing=missing,
            activated_monotonic=self._clock(),
        )

    def _check_plane(
        self,
        plane,
        indexes: Mapping[str, CompiledIndex],
        missing: tuple[str, ...],
    ) -> None:
        """Refuse a plane whose compile-time parameters or index content
        disagree with this engine — a mismatched plane would serve subtly
        different answers.  Each served index must be the one the plane
        is bound to, or carry the same ``.rgix`` payload checksum
        (:meth:`~repro.serve.plane.AnswerPlane.serves`); equal interval
        counts are not enough."""
        vendor_names = sorted((*indexes, *missing))
        if sorted(plane.names) != vendor_names:
            raise ValueError(
                f"answer plane covers vendors {sorted(plane.names)},"
                f" engine serves {vendor_names}"
            )
        if plane.city_range_km != self.city_range_km:
            raise ValueError(
                f"answer plane compiled with city_range_km="
                f"{plane.city_range_km}, engine uses {self.city_range_km}"
            )
        if plane.quorum_min != self._policy.quorum_min:
            raise ValueError(
                f"answer plane compiled with quorum_min={plane.quorum_min},"
                f" engine policy uses {self._policy.quorum_min}"
            )
        for name, index in indexes.items():
            if not plane.serves(name, index):
                raise ValueError(
                    f"answer plane was not compiled over the served {name}"
                    f" index (its .rgix payload checksum differs) — recompile"
                    f" the plane with its snapshots"
                )

    # -- construction --------------------------------------------------------

    @classmethod
    def from_databases(
        cls, databases: Mapping[str, GeoDatabase], **kwargs
    ) -> "ServingEngine":
        """Compile every database and serve the compiled set."""
        return cls(
            {name: CompiledIndex.compile(db) for name, db in databases.items()},
            **kwargs,
        )

    @classmethod
    def from_scenario(cls, scenario, **kwargs) -> "ServingEngine":
        """Serve a built scenario's four vendor snapshots."""
        return cls.from_databases(scenario.databases, **kwargs)

    @classmethod
    def from_snapshot_dir(cls, directory, **kwargs) -> "ServingEngine":
        """Serve compiled snapshots written by ``repro compile``.

        ``expected=[names]`` pins the vendor set: vendors named there but
        absent on disk are served as statically quarantined (every
        answer flagged degraded) instead of silently dropped.
        """
        return cls(load_index_set(directory), **kwargs)

    # -- generation lifecycle ------------------------------------------------

    def swap(
        self,
        indexes: Mapping[str, CompiledIndex],
        plane=None,
        *,
        generation_id: int | None = None,
        source: str = "swap",
        rollback: bool = False,
    ) -> int:
        """Atomically replace the served snapshot set under live traffic.

        Builds a fresh :class:`_Generation` (new health table, plane
        handshake re-checked) and activates it with a
        single reference assignment: in-flight lookups finish on the old
        generation, the next lookup sees the new one, and no request can
        ever observe fields from both.  The candidate must serve exactly
        the engine's current vendor set — a generation that drops or
        renames a vendor is a publishing error, refused with
        ``ValueError`` before anything changes.

        ``rollback=True`` marks this swap as a restore (the store
        watcher re-activating a previous generation); it is counted in
        ``rollbacks`` and ``serve.generation_rollbacks`` alongside the
        swap itself.  Raises :class:`~repro.serve.errors.ServeError`
        after :meth:`close` — a dead engine must not accept a new
        generation.  Returns the new generation id.
        """
        with self._swap_lock:
            if self._closed:
                raise ServeError(
                    "engine is closed: refusing generation swap"
                )
            current = self._gen
            gen_id = (
                generation_id if generation_id is not None else current.gen_id + 1
            )
            incoming = set(indexes)
            expected = set(current.vendor_names())
            if incoming != expected:
                raise ValueError(
                    f"generation {gen_id} serves vendors {sorted(incoming)},"
                    f" engine serves {sorted(expected)} — a swap must keep"
                    f" the vendor set"
                )
            gen = self._build_generation(
                indexes, plane, expected=None, gen_id=gen_id, source=source
            )
            # The swap itself: one reference assignment.  Everything a
            # lookup reads hangs off this attribute, captured once per
            # request, so there is no torn state to observe.
            self._gen = gen
            self._swaps += 1
            if rollback:
                self._rollbacks += 1
        if self._metrics is not None:
            self._metrics.inc("serve.generation_swaps")
            if rollback:
                self._metrics.inc("serve.generation_rollbacks")
        return gen_id

    def note_rollback(self) -> None:
        """Count a rejected candidate generation (no swap happened).

        The store watcher calls this when validation refuses a published
        candidate and the serving generation stays in place — the
        rollback counter and ``serve.generation_rollbacks`` must reflect
        every restore *decision*, not only restores that re-loaded an
        older generation.
        """
        with self._swap_lock:
            self._rollbacks += 1
        if self._metrics is not None:
            self._metrics.inc("serve.generation_rollbacks")

    @property
    def generation_id(self) -> int:
        """The currently served generation's id."""
        return self._gen.gen_id

    @property
    def generation_age_s(self) -> float:
        """Seconds since the current generation was activated."""
        return max(0.0, self._clock() - self._gen.activated_monotonic)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; swaps are refused from then on."""
        return self._closed

    def generation_info(self) -> dict[str, object]:
        """The staleness block ``/statusz`` serves: which generation is
        live, how old it is, and how often the engine has swapped or
        rolled back."""
        gen = self._gen
        return {
            "id": gen.gen_id,
            "source": gen.source,
            "activated_unix": round(gen.activated_unix, 3),
            "age_s": round(max(0.0, self._clock() - gen.activated_monotonic), 3),
            "swaps": self._swaps,
            "rollbacks": self._rollbacks,
        }

    def generation_memo(self) -> dict:
        """A scratch table that lives exactly as long as the served
        generation.

        Callers cache data derived from the generation's records here
        (the HTTP layer keeps its per-record JSON fragments in it), so a
        hot swap drops the old entries together with the old generation
        and repeated swaps cannot grow the table without bound.  Entries
        must be pure functions of their key: a request that straddles a
        swap may add an entry from the previous generation.
        """
        return self._gen.memo

    def register_watcher(self, watcher) -> None:
        """Track a store watcher so :meth:`close` stops its thread.

        Anything with a ``stop()`` method qualifies; registration after
        close is refused for the same reason swaps are.
        """
        with self._swap_lock:
            if self._closed:
                raise ServeError(
                    "engine is closed: refusing to register a store watcher"
                )
            self._watchers.append(watcher)

    def canary_coverage(self, addresses: Sequence[int]) -> dict[str, int]:
        """Per-vendor count of ``addresses`` (integers) with coverage on
        the current generation.

        The store watcher's regression probe baseline: probes the raw
        indexes directly — no plane, no metrics, no outcome objects — so
        a validation pass never distorts the serving counters.
        """
        gen = self._gen
        return {
            name: sum(
                1 for addr in addresses if index.probe_answer(addr) is not None
            )
            for name, index in gen.indexes.items()
        }

    # -- observability -------------------------------------------------------

    def attach_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Emit ``serve.*`` counters into ``metrics`` (``None`` detaches).

        An attached fault injector follows along, so its ``faults.*``
        counters land in the same registry ``/statusz`` snapshots.

        The plane hot path answers in ~1 µs, so it cannot afford two
        registry ``inc`` calls per request; instead the counters it
        feeds are pre-resolved here into a multi-name
        :class:`~repro.obs.metrics.CounterCell` — one locked add per
        plane hit updates ``serve.lookups`` and ``plane.hits`` at once,
        keeping the counts exact for the hammer tests' reconciliation.
        """
        self._metrics = metrics
        self._cell_plane_hit = (
            metrics.cell("serve.lookups", "plane.hits")
            if metrics is not None
            else None
        )
        if self._injector is not None:
            self._injector.attach_metrics(metrics)

    def plane_stats(self) -> dict[str, object] | None:
        """The attached answer plane's ``/statusz`` block (``None`` when
        no plane is attached).

        ``active`` is False while the plane is configured but bypassed —
        a fault injector is armed, or some vendor is currently degraded —
        so an operator can see at a glance whether traffic is riding the
        precomputed path or the live one.
        """
        gen = self._gen
        plane = gen.plane
        if plane is None:
            return None
        return {
            "active": gen.plane_live is not None and gen.healthy,
            **plane.stats(),
        }

    def health_snapshot(self) -> dict[str, dict[str, object]]:
        """Per-vendor circuit state for ``/statusz`` (sorted by vendor)."""
        gen = self._gen
        with gen.health_lock:
            return {
                name: health.snapshot()
                for name, health in sorted(gen.health.items())
            }

    @property
    def degraded(self) -> bool:
        """True while any served vendor is quarantined or missing."""
        gen = self._gen
        with gen.health_lock:
            return any(h.status != "healthy" for h in gen.health.values())

    def degraded_vendors(self) -> tuple[str, ...]:
        """The vendors currently not healthy, sorted — the enrichment
        drift detector's suppression signal, named individually so an
        operator can tell *which* database's alerts went quiet."""
        gen = self._gen
        with gen.health_lock:
            return tuple(
                sorted(
                    name
                    for name, health in gen.health.items()
                    if health.status != "healthy"
                )
            )

    # -- health bookkeeping --------------------------------------------------

    def _record_success(self, name: str, gen: _Generation | None = None) -> None:
        gen = gen if gen is not None else self._gen
        health = gen.health[name]
        if not health.consecutive_failures and not health.blocked_until:
            return  # steady healthy state: skip the lock entirely
        with gen.health_lock:
            health.status = "healthy"
            health.blocked_until = 0.0
            health.consecutive_failures = 0
            health.cooldown_s = self._policy.cooldown_s
            health.last_error = None
            gen.healthy = not gen.missing and all(
                h.status == "healthy" and not h.consecutive_failures
                for h in gen.health.values()
            )
        if self._metrics is not None:
            self._metrics.inc("serve.vendor_recoveries", vendor=name)

    def _record_failure(
        self, name: str, error: BaseException, gen: _Generation | None = None
    ) -> None:
        policy = self._policy
        gen = gen if gen is not None else self._gen
        quarantine = False
        with gen.health_lock:
            gen.healthy = False  # any failure streak bypasses the plane
            health = gen.health[name]
            health.consecutive_failures += 1
            health.last_error = f"{error.__class__.__name__}: {error}"
            rearmed = health.status == "quarantined"  # failed half-open probe
            if rearmed or health.consecutive_failures >= policy.quarantine_threshold:
                quarantine = True
                health.status = "quarantined"
                health.blocked_until = self._clock() + health.cooldown_s
                health.quarantines += 1
                health.cooldown_s = min(
                    health.cooldown_s * 2, policy.cooldown_max_s
                )
        if self._metrics is not None:
            self._metrics.inc("serve.vendor_errors", vendor=name)
            if quarantine:
                self._metrics.inc("serve.quarantines", vendor=name)

    # -- lookup --------------------------------------------------------------

    def database_names(self) -> tuple[str, ...]:
        return tuple(self._gen.indexes)

    def vendor_names(self) -> tuple[str, ...]:
        """Served plus expected-but-missing vendors, in answer order."""
        return self._gen.vendor_names()

    def _probe_vendor(
        self,
        gen: _Generation,
        name: str,
        index,
        addr: int,
        deadline: float | None,
    ) -> tuple[bool, IndexAnswer | None | VendorError]:
        """One vendor's answer with retries: ``(ok, answer-or-error)``."""
        policy = self._policy
        # A half-open probe (quarantined vendor past its cooldown) gets
        # exactly one attempt: it either proves recovery or re-arms the
        # quarantine with a doubled cooldown.
        attempts = 1 if gen.health[name].blocked_until else 1 + policy.retries
        last_error: BaseException | None = None
        for attempt in range(attempts):
            if attempt:
                if self._metrics is not None:
                    self._metrics.inc("serve.retries", vendor=name)
                pause = policy.retry_backoff_s * (2 ** (attempt - 1))
                if pause:
                    if deadline is not None and self._clock() + pause >= deadline:
                        break  # a backoff past the deadline helps nobody
                    self._sleep(pause)
            try:
                answer = index.probe_answer(addr)
            except Exception as exc:  # any vendor failure degrades, never leaks
                last_error = exc
                if self._metrics is not None:
                    self._metrics.inc(
                        "serve.vendor_exceptions",
                        vendor=name,
                        error=exc.__class__.__name__,
                    )
                continue
            self._record_success(name, gen)
            return True, answer
        assert last_error is not None
        self._record_failure(name, last_error, gen)
        return False, VendorError(name, last_error)

    def _resolve(
        self, gen: _Generation, parsed: IPv4Address, addr: int, trace=None
    ) -> LookupOutcome:
        clock = self._clock
        policy = self._policy
        deadline = (
            clock() + policy.deadline_ms / 1000.0
            if policy.deadline_ms is not None
            else None
        )
        resolve_span = -1
        if trace is not None:
            resolve_span = trace.begin(
                "resolve", address=str(parsed), generation=gen.gen_id
            )
        answers: dict[str, IndexAnswer | None] = {}
        errors: dict[str, str] = {}
        quarantined: list[str] = list(gen.missing)
        skipped: list[str] = []
        deadline_exceeded = False
        for name, index in gen.indexes.items():
            blocked_until = gen.health[name].blocked_until
            if blocked_until and clock() < blocked_until:
                quarantined.append(name)
                continue
            if deadline is not None and clock() >= deadline:
                deadline_exceeded = True
                skipped.append(name)
                continue
            if trace is not None:
                started = time.perf_counter()
                ok, value = self._probe_vendor(gen, name, index, addr, deadline)
                trace.add(
                    f"probe:{name}",
                    (time.perf_counter() - started) * 1000.0,
                    parent=resolve_span,
                    ok=ok,
                )
            else:
                ok, value = self._probe_vendor(gen, name, index, addr, deadline)
            if ok:
                answers[name] = value
            else:
                errors[name] = str(value)
        outcome = LookupOutcome(
            address=parsed,
            answers=answers,
            errors=errors,
            quarantined=tuple(quarantined),
            skipped=tuple(skipped),
            deadline_exceeded=deadline_exceeded,
        )
        if trace is not None:
            trace.end(
                resolve_span,
                degraded=outcome.degraded,
                quarantined=list(outcome.quarantined),
                skipped=list(outcome.skipped),
            )
            trace.note_path("degraded" if outcome.degraded else "live")
        if self._metrics is not None:
            if deadline_exceeded:
                self._metrics.inc("serve.deadline_exceeded")
            if outcome.degraded:
                self._metrics.inc("serve.degraded_lookups")
        return outcome

    def lookup_outcome(
        self, address: IPv4Address | str | int, *, trace=None
    ) -> LookupOutcome:
        """Resolve one address against every vendor, fail-closed.

        Returns a :class:`LookupOutcome`; raises the typed
        :class:`~repro.serve.errors.NoHealthyVendors` when not a single
        vendor could answer.  With a healthy answer plane attached the
        outcome comes straight from the precomputed cell — one bisect,
        no vendor probes; otherwise every vendor is probed live.

        The generation reference is captured exactly once, here: every
        index probe and health check below runs against that one
        generation even if a swap lands mid-request.

        ``trace`` (a :class:`~repro.obs.reqtrace.RequestTrace`) records
        span rows and the path attribution (``plane``/``live``/
        ``degraded``) the HTTP layer surfaces on ``/tracez``;
        the default ``None`` keeps the hot path untraced.
        """
        parsed = parse_address(address)
        addr = int(parsed)
        metrics = self._metrics
        gen = self._gen
        plane = gen.plane_live
        if plane is not None and gen.healthy:
            # The precomputed path: one cell.add() feeds serve.lookups
            # *and* plane.hits — a second registry inc here would cost
            # more than the lookup itself.
            cell = self._cell_plane_hit
            if cell is not None:
                cell.add()
            if trace is not None:
                started = time.perf_counter()
                answer, interval = plane.locate(addr)
                trace.add(
                    "plane.probe",
                    (time.perf_counter() - started) * 1000.0,
                    interval=interval,
                    generation=gen.gen_id,
                )
                trace.note_path("plane")
                return answer.outcome_at(parsed)
            return plane.probe(addr).outcome_at(parsed)
        if metrics is not None:
            metrics.inc("serve.lookups")
            if plane is not None:
                metrics.inc("plane.fallbacks")
        outcome = self._resolve(gen, parsed, addr, trace)
        if not outcome.answers:
            raise NoHealthyVendors(
                f"no healthy vendor could answer {parsed}:"
                f" {', '.join(outcome.unavailable()) or 'no vendors'}"
            )
        return outcome

    def lookup_plane(self, address: IPv4Address | str | int):
        """The precomputed :class:`~repro.serve.plane.PlaneAnswer` for
        ``address``, or ``None`` when the plane cannot answer.

        This is the raw healthy hot path — one bisect plus a list read,
        with no outcome or consensus objects constructed per request.
        ``None`` means no plane is attached, a fault injector is armed,
        or some vendor is currently degraded; the caller falls back to
        :meth:`lookup_outcome` / :meth:`consensus_of`.
        """
        gen = self._gen
        plane = gen.plane_live
        if plane is None or not gen.healthy:
            return None
        return plane.probe(int(parse_address(address)))

    def outcome_batch(
        self,
        addresses: Sequence[IPv4Address | str | int] | Iterable,
        *,
        trace=None,
    ) -> list[LookupOutcome | ServeError]:
        """Outcomes for many addresses, in input order.

        Per-address serving errors come back as values (the typed error
        object), not raises — one dead address space must not fail a
        batch.  Small batches run inline; batches of at least
        ``batch_threshold`` addresses fan out in contiguous chunks over
        one persistent thread pool (created lazily on the first large
        batch and reused — paying thread startup per request was
        measurable under sustained load; the index probe releases no
        locks worth contending on, and chunking keeps per-task overhead
        negligible).
        """
        addresses = list(addresses)
        metrics = self._metrics
        if metrics is not None:
            metrics.inc("serve.batch_lookups")
            metrics.observe("serve.batch_size", len(addresses))
        batch_span = -1
        if trace is not None:
            batch_span = trace.begin("batch", size=len(addresses))

        def one(address) -> LookupOutcome | ServeError:
            try:
                return self.lookup_outcome(address, trace=trace)
            except ServeError as exc:
                return exc

        if len(addresses) < self.batch_threshold:
            results = [one(address) for address in addresses]
        else:
            chunk = -(-len(addresses) // self.max_workers)  # ceil division
            chunks = [
                addresses[i : i + chunk] for i in range(0, len(addresses), chunk)
            ]
            parts = self._executor().map(lambda part: [one(a) for a in part], chunks)
            results = [outcome for part in parts for outcome in part]
        if trace is not None:
            trace.end(batch_span)
        return results

    def _executor(self) -> ThreadPoolExecutor:
        """The lazily-created persistent batch pool (double-checked)."""
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = self._pool = ThreadPoolExecutor(
                        max_workers=self.max_workers,
                        thread_name_prefix="repro-serve-batch",
                    )
        return pool

    def close(self) -> None:
        """Stop store watchers, refuse future swaps, shut the batch pool.

        Idempotent; the HTTP server calls this from its shutdown path.
        Lookups still work afterwards (a later large batch simply
        recreates the pool) — but the *generation* is frozen: swaps and
        watcher registration raise, and every registered watcher thread
        is stopped and joined here, so no reload thread outlives the
        engine it was feeding.
        """
        with self._swap_lock:
            self._closed = True
            watchers, self._watchers = self._watchers, []
        for watcher in watchers:
            watcher.stop()
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def consensus_of(self, outcome: LookupOutcome) -> ConsensusAnswer:
        """Majority answer plus disagreement/degradation flags for an
        already-resolved outcome (no second lookup pass).

        A plane outcome carries its cell, whose vote was tallied at
        compile time: that is a field copy, not a fresh vote.
        """
        if self._metrics is not None:
            self._metrics.inc("serve.consensus")
        cell = outcome.cell
        if cell is not None:
            return cell.consensus_at(outcome.address)
        records = [
            answer.record
            for answer in outcome.answers.values()
            if answer is not None
        ]
        vote = majority_of_records(
            outcome.address, records, city_range_km=self.city_range_km
        )
        countries = {r.country for r in records if r.country is not None}
        coordinates = [
            r.location for r in records if r.has_city and r.has_coordinates
        ]
        city_disagreement = any(
            a.distance_km(b) > self.city_range_km
            for a, b in combinations(coordinates, 2)
        )
        return ConsensusAnswer(
            address=outcome.address,
            country=vote.country,
            country_votes=vote.country_votes,
            location=vote.location,
            location_votes=vote.location_votes,
            voters=vote.voters,
            country_disagreement=len(countries) > 1,
            city_disagreement=city_disagreement,
            degraded=outcome.degraded,
            quorum=vote.voters >= self._policy.quorum_min,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        gen = self._gen
        return (
            f"ServingEngine({', '.join(gen.indexes)}; gen={gen.gen_id};"
            f" plane={'off' if gen.plane is None else gen.plane.cell_count})"
        )
