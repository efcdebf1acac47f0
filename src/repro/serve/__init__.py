"""The serving layer: compiled indexes, snapshots, and HTTP.

The analysis pipeline asks "how accurate are these databases?"; this
package asks "how do you *serve* them?" — the ROADMAP's production
north star.  Six pieces:

* :mod:`repro.serve.index` — :class:`CompiledIndex`, the database
  flattened into disjoint sorted intervals answered by one ``bisect``
  probe (replacing the per-prefix-length hash-table walk on the hot
  path);
* :mod:`repro.serve.plane` — :class:`AnswerPlane`, every vendor's
  intervals merged into one cross-vendor partition with the per-vendor
  answers *and* the §5.1 consensus precomputed per interval at compile
  time (``.rgpl`` files beside the ``.rgix`` set); the engine's healthy
  path becomes one bisect plus array reads and falls back to the live
  resolve path the moment any vendor degrades;
* :mod:`repro.serve.snapshot` — versioned, checksummed persistence
  (``repro compile`` writes ``*.rgix`` files a server loads at boot;
  header and payload are both digest-protected, so corrupt bytes raise
  :class:`SnapshotError` rather than serving garbage);
* :mod:`repro.serve.cache` — a bounded, thread-safe LRU with hit/miss
  accounting (the whois client's memo);
* :mod:`repro.serve.engine` / :mod:`repro.serve.http` —
  :class:`ServingEngine` (single, batch, and consensus lookups across
  all vendors) behind a stdlib JSON HTTP API (``repro serve``) that
  reports ``serve.*`` metrics on ``/statusz``;
* :mod:`repro.serve.errors` — the typed failure surface
  (:class:`ServeError` and friends) behind the fail-closed contract:
  vendors that fail are quarantined per :class:`ResiliencePolicy`,
  every :class:`LookupOutcome` labels its own degradation, and the
  fault matrix in :mod:`repro.faults` proves it;
* :mod:`repro.serve.store` — the snapshot lifecycle plane:
  :class:`SnapshotStore` (versioned, manifest-digested generations on
  disk, atomic publish and ``CURRENT`` pointer) and :class:`StoreWatcher`
  (validate → canary-probe → hot swap into a running engine, with
  automatic rollback on any failure), so databases refresh under live
  traffic without a restart.
"""

from repro.serve.cache import LruCache
from repro.serve.engine import (
    ConsensusAnswer,
    LookupOutcome,
    ResiliencePolicy,
    ServingEngine,
)
from repro.serve.errors import NoHealthyVendors, ServeError, VendorError
from repro.serve.http import GeoServer
from repro.serve.index import CompiledIndex, IndexAnswer
from repro.serve.plane import (
    PLANE_SUFFIX,
    AnswerPlane,
    PlaneAnswer,
    compile_plane,
    load_plane,
    save_plane,
)
from repro.serve.snapshot import (
    SNAPSHOT_SUFFIX,
    SnapshotError,
    load_index,
    load_index_set,
    save_index,
    save_index_set,
)
from repro.serve.store import (
    GenerationRecord,
    SnapshotStore,
    StoreError,
    StoreWatcher,
)

__all__ = [
    "AnswerPlane",
    "CompiledIndex",
    "ConsensusAnswer",
    "GenerationRecord",
    "GeoServer",
    "IndexAnswer",
    "LookupOutcome",
    "LruCache",
    "NoHealthyVendors",
    "PLANE_SUFFIX",
    "PlaneAnswer",
    "ResiliencePolicy",
    "SNAPSHOT_SUFFIX",
    "ServeError",
    "ServingEngine",
    "SnapshotError",
    "SnapshotStore",
    "StoreError",
    "StoreWatcher",
    "VendorError",
    "compile_plane",
    "load_index",
    "load_index_set",
    "load_plane",
    "save_index",
    "save_index_set",
    "save_plane",
]
