"""The fault matrix: every way this system is allowed to break.

Gouel et al.'s longitudinal study shows geolocation snapshots drift and
rot continuously in production; Klein et al.'s *Overconfident
Coordinates* argues an answer without an honest confidence signal is
worse than no answer.  Together they set the serving layer's failure
contract — *never an unflagged wrong answer* — and this module
enumerates the concrete faults that contract is proved against:

===================== =====================================================
fault kind            what it models
===================== =====================================================
``snapshot_bitflip``  silent on-disk corruption of a ``.rgix`` snapshot
``snapshot_truncate`` a partially-written / partially-copied snapshot
``snapshot_magic``    a mislabeled or foreign file in the snapshot dir
``index_missing``     a vendor whose snapshot never arrived
``lookup_raise``      a vendor backend erroring at request time
``lookup_delay``      a vendor backend stalling (latency spike)
===================== =====================================================

The first four are *load-time* faults (they corrupt bytes before the
engine boots); the last two are *runtime* faults a
:class:`~repro.faults.inject.FaultInjector` fires inside the request
path.  :func:`full_matrix` expands the kinds against a vendor list —
the sweep `tests/faults/` runs cell by cell — and
:func:`default_chaos_specs` is the moderate mixed workload behind
``repro serve --chaos-seed``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "FaultKind",
    "FaultSpec",
    "RUNTIME_KINDS",
    "SNAPSHOT_KINDS",
    "STORE_KINDS",
    "StoreFaultKind",
    "default_chaos_specs",
    "full_matrix",
]


class FaultKind(enum.Enum):
    """One row of the fault matrix."""

    SNAPSHOT_BITFLIP = "snapshot_bitflip"
    SNAPSHOT_TRUNCATE = "snapshot_truncate"
    SNAPSHOT_MAGIC = "snapshot_magic"
    INDEX_MISSING = "index_missing"
    LOOKUP_RAISE = "lookup_raise"
    LOOKUP_DELAY = "lookup_delay"


#: Faults applied to snapshot bytes on disk, before the engine boots.
SNAPSHOT_KINDS: tuple[FaultKind, ...] = (
    FaultKind.SNAPSHOT_BITFLIP,
    FaultKind.SNAPSHOT_TRUNCATE,
    FaultKind.SNAPSHOT_MAGIC,
    FaultKind.INDEX_MISSING,
)

#: Faults fired inside the request path of a running engine.
RUNTIME_KINDS: tuple[FaultKind, ...] = (
    FaultKind.LOOKUP_RAISE,
    FaultKind.LOOKUP_DELAY,
)


class StoreFaultKind(enum.Enum):
    """One way a snapshot-store *generation* breaks on disk.

    A separate enum from :class:`FaultKind` on purpose: these faults
    target the lifecycle plane (a published generation directory with a
    manifest), not a bare snapshot directory, and adding them to
    :class:`FaultKind` would silently widen :func:`full_matrix` — the
    chaos sweep the whole fail-closed contract is gated on.

    ===================== ==================================================
    ``manifest_partial``  a manifest cut short mid-write (publisher crash)
    ``payload_corrupt``   a vendor ``.rgix`` whose bytes rotted after the
                          manifest digest was taken
    ``plane_missing``     a ``plane.rgpl`` the manifest promises but the
                          filesystem lost
    ===================== ==================================================

    Applied by :meth:`~repro.faults.inject.FaultInjector.\
sabotage_generation`; the store suite proves each one is rejected with
    the serving generation untouched.
    """

    MANIFEST_PARTIAL = "manifest_partial"
    PAYLOAD_CORRUPT = "payload_corrupt"
    PLANE_MISSING = "plane_missing"


#: Faults applied to a published snapshot-store generation directory.
STORE_KINDS: tuple[StoreFaultKind, ...] = tuple(StoreFaultKind)


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One armed fault: a kind, an optional vendor, and a firing rate.

    ``vendor=None`` targets every vendor; ``rate`` is the per-call
    probability a runtime fault fires (snapshot faults always apply).
    ``delay_s`` sizes a :attr:`FaultKind.LOOKUP_DELAY` stall.
    """

    kind: FaultKind
    vendor: str | None = None
    rate: float = 1.0
    delay_s: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1]: {self.rate!r}")
        if self.delay_s < 0:
            raise ValueError(f"fault delay must be non-negative: {self.delay_s!r}")

    def targets(self, vendor: str) -> bool:
        """Whether this spec applies to ``vendor``."""
        return self.vendor is None or self.vendor == vendor

    def describe(self) -> str:
        scope = self.vendor if self.vendor is not None else "*"
        return f"{self.kind.value}[{scope}]@{self.rate:g}"


def full_matrix(vendors: Sequence[str]) -> list[FaultSpec]:
    """Every (kind, vendor) cell at rate 1.0 — the chaos sweep's axis."""
    return [
        FaultSpec(kind=kind, vendor=vendor)
        for kind in FaultKind
        for vendor in vendors
    ]


def default_chaos_specs(vendors: Sequence[str] | None = None) -> list[FaultSpec]:
    """A moderate mixed runtime workload (``repro serve --chaos-seed``).

    Rates are low enough that the service stays mostly healthy — the
    point is to watch quarantine, retry, and the ``degraded`` flag work
    under a live drill, not to take the service down.
    """
    targets: tuple[str | None, ...] = tuple(vendors) if vendors else (None,)
    specs: list[FaultSpec] = []
    for vendor in targets:
        specs.append(FaultSpec(FaultKind.LOOKUP_RAISE, vendor=vendor, rate=0.02))
        specs.append(
            FaultSpec(FaultKind.LOOKUP_DELAY, vendor=vendor, rate=0.05, delay_s=0.01)
        )
    return specs
