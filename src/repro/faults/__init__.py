"""Fault injection for the serving layer: break it on purpose, on a seed.

Production geolocation serving degrades constantly — snapshots rot
(Gouel et al.), backends error and stall — and the ROADMAP's
"heavy traffic" goal requires the system to *fail closed*: a fault may
cost coverage or latency, never an unflagged wrong answer.  This
package supplies the controlled failures that contract is proved
against:

* :mod:`repro.faults.matrix` — the fault matrix
  (:class:`FaultKind` / :class:`FaultSpec`), :func:`full_matrix` for
  the exhaustive sweep and :func:`default_chaos_specs` for the
  ``repro serve --chaos-seed`` drill mix;
* :mod:`repro.faults.inject` — :class:`FaultInjector`, the seeded
  engine that wraps compiled indexes (:class:`FaultyIndex`) and
  sabotages ``.rgix`` snapshot bytes on disk; every decision derives
  from the one seed.

:class:`StoreFaultKind` extends the matrix to the snapshot-store
lifecycle plane (partial manifest, rotten payload, missing plane file)
via :meth:`FaultInjector.sabotage_generation` — kept out of
:class:`FaultKind` so the existing :func:`full_matrix` sweep is
unchanged.

Everything here is strictly additive: with no injector constructed the
serving layer executes its unmodified hot path.
"""

from repro.faults.inject import (
    FaultInjector,
    FaultyIndex,
    InjectedFault,
)
from repro.faults.matrix import (
    RUNTIME_KINDS,
    SNAPSHOT_KINDS,
    STORE_KINDS,
    FaultKind,
    FaultSpec,
    StoreFaultKind,
    default_chaos_specs,
    full_matrix,
)

__all__ = [
    "FaultInjector",
    "FaultKind",
    "FaultSpec",
    "FaultyIndex",
    "InjectedFault",
    "RUNTIME_KINDS",
    "SNAPSHOT_KINDS",
    "STORE_KINDS",
    "StoreFaultKind",
    "default_chaos_specs",
    "full_matrix",
]
