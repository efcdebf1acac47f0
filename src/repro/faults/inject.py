"""Deterministic, seedable fault injection around the serving layer.

A :class:`FaultInjector` owns a set of armed :class:`FaultSpec`\\ s and a
seed; everything it does — which bit of a snapshot flips, which request
a vendor error fires on, which request stalls — derives from
``random.Random`` streams keyed by ``(seed, kind, vendor)``, so a single
seed reproduces an entire chaos run exactly.

The injector never patches hot-path code.  It *wraps*:

* :meth:`FaultInjector.wrap_indexes` returns the same mapping with the
  targeted vendors behind :class:`FaultyIndex` proxies (untargeted
  vendors are passed through untouched);
* :meth:`FaultInjector.sabotage_snapshots` corrupts ``.rgix`` bytes on
  disk, modelling the load-time half of the matrix.

With no injector constructed, the serving layer runs the exact
uninstrumented code — disabled fault injection costs nothing.
"""

from __future__ import annotations

import pathlib
import random
import time
from typing import Callable, Mapping, Sequence

from repro.faults.matrix import (
    RUNTIME_KINDS,
    SNAPSHOT_KINDS,
    FaultKind,
    FaultSpec,
    StoreFaultKind,
)

__all__ = ["FaultInjector", "FaultyIndex", "InjectedFault"]


class InjectedFault(RuntimeError):
    """The error a ``lookup_raise`` fault throws inside a vendor probe.

    Deliberately a distinct type: the chaos suite asserts the serving
    layer survives it, and nothing else in the codebase raises it, so a
    leaked ``InjectedFault`` in a response always means a missing
    degradation path.
    """


class FaultyIndex:
    """A compiled index behind a deterministic fault gate.

    Delegates every probe to the wrapped index after consulting the
    armed specs: a ``lookup_delay`` stalls the call, a ``lookup_raise``
    throws :class:`InjectedFault`.  Answers that do come back are the
    wrapped index's own, untouched — the injector breaks availability
    and latency, never correctness.
    """

    def __init__(
        self,
        base,
        specs: Sequence[FaultSpec],
        rngs: Sequence[random.Random],
        *,
        sleep: Callable[[float], None],
        on_fire: Callable[[FaultSpec, str], None],
    ):
        self._base = base
        self._armed = tuple(zip(specs, rngs))
        self._sleep = sleep
        self._on_fire = on_fire

    # The serving engine reads these for health reporting and repr.
    @property
    def name(self) -> str:
        return self._base.name

    @property
    def source_entries(self) -> int:
        return self._base.source_entries

    @property
    def interval_count(self) -> int:
        return self._base.interval_count

    @property
    def wrapped(self):
        """The pristine index underneath (tests compare answers to it)."""
        return self._base

    def _gate(self) -> None:
        for spec, rng in self._armed:
            if spec.rate < 1.0 and rng.random() >= spec.rate:
                continue
            if not self._on_fire(spec, self._base.name):
                continue  # injector disarmed: probe runs fault-free
            if spec.kind is FaultKind.LOOKUP_DELAY:
                self._sleep(spec.delay_s)
            elif spec.kind is FaultKind.LOOKUP_RAISE:
                raise InjectedFault(
                    f"injected fault in {self._base.name}: {spec.describe()}"
                )

    # -- the probe surface ServingEngine and the store's canary use ----------

    def probe_answer(self, addr: int):
        self._gate()
        return self._base.probe_answer(addr)

    def __len__(self) -> int:
        return len(self._base)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        armed = ", ".join(spec.describe() for spec, _ in self._armed)
        return f"FaultyIndex({self._base!r}, {armed})"


class FaultInjector:
    """A seeded fault plan plus the machinery to apply it.

    ``enabled`` gates every runtime fault: :meth:`disarm` lets a chaos
    test (or an operator drill) switch the faults off mid-run and watch
    quarantined vendors heal, without rebuilding the engine.
    """

    def __init__(
        self,
        seed: int,
        specs: Sequence[FaultSpec],
        *,
        metrics=None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.seed = int(seed)
        self.specs = tuple(specs)
        self.enabled = True
        self._metrics = metrics
        self._sleep = sleep
        self.fired: int = 0

    # -- determinism ---------------------------------------------------------

    def _rng(self, *scope: str) -> random.Random:
        """An independent, reproducible stream for one (kind, target) cell."""
        return random.Random("|".join((str(self.seed), *scope)))

    def _on_fire(self, spec: FaultSpec, target: str) -> bool:
        """Count and record one firing; ``False`` when disarmed (no fault)."""
        if not self.enabled:
            return False
        self.fired += 1
        if self._metrics is not None:
            self._metrics.inc(
                "faults.injected", kind=spec.kind.value, target=target
            )
        return True

    def attach_metrics(self, metrics) -> None:
        """Emit ``faults.*`` counters into ``metrics`` (``None`` detaches).

        The serving engine propagates its own registry here, so an
        injector built before the server's registry exists (the CLI's
        ``--chaos-seed`` path) still lands on ``/statusz``.
        """
        self._metrics = metrics

    def disarm(self) -> None:
        """Stop firing runtime faults (wrapped objects stay in place)."""
        self.enabled = False

    def rearm(self) -> None:
        self.enabled = True

    # -- runtime faults ------------------------------------------------------

    def _runtime_specs_for(self, vendor: str) -> list[FaultSpec]:
        return [
            spec
            for spec in self.specs
            if spec.kind in RUNTIME_KINDS and spec.targets(vendor)
        ]

    def wrap_indexes(self, indexes: Mapping[str, object]) -> dict[str, object]:
        """The same mapping with targeted vendors behind fault gates."""
        wrapped: dict[str, object] = {}
        for name, index in indexes.items():
            specs = self._runtime_specs_for(name)
            if not specs:
                wrapped[name] = index
                continue
            rngs = [self._rng(spec.kind.value, name) for spec in specs]
            wrapped[name] = FaultyIndex(
                index, specs, rngs, sleep=self._sleep, on_fire=self._on_fire
            )
        return wrapped

    # -- load-time faults ----------------------------------------------------

    def sabotage_snapshots(self, directory: str | pathlib.Path) -> list[str]:
        """Apply every armed snapshot fault to ``directory``'s ``.rgix`` files.

        Returns human-readable descriptions of what was done (the chaos
        suite logs them); deterministic in file order and in every byte
        touched.
        """
        directory = pathlib.Path(directory)
        applied: list[str] = []
        for spec in self.specs:
            if spec.kind not in SNAPSHOT_KINDS:
                continue
            for path in sorted(directory.glob("*.rgix")):
                if not spec.targets(path.stem):
                    continue
                rng = self._rng(spec.kind.value, path.stem)
                description = self._corrupt(path, spec.kind, rng)
                applied.append(f"{path.name}: {description}")
                if self._metrics is not None:
                    self._metrics.inc(
                        "faults.injected", kind=spec.kind.value, target=path.stem
                    )
        return applied

    def sabotage_generation(
        self, directory: str | pathlib.Path, kind: StoreFaultKind
    ) -> str:
        """Apply one store fault to a published generation directory.

        Models the lifecycle failures a publisher/filesystem produces
        *after* :class:`~repro.serve.store.SnapshotStore` wrote a valid
        generation: a manifest cut short, a payload rotting under its
        recorded digest, a promised plane file gone.  Deterministic per
        ``(seed, kind, directory-name)`` stream, same as every other
        fault.  Returns a human-readable description for the chaos log.
        """
        directory = pathlib.Path(directory)
        rng = self._rng("store", kind.value, directory.name)
        if self._metrics is not None:
            self._metrics.inc(
                "faults.injected", kind=kind.value, target=directory.name
            )
        if kind is StoreFaultKind.MANIFEST_PARTIAL:
            path = directory / "MANIFEST.json"
            blob = path.read_bytes()
            keep = rng.randrange(1, len(blob))  # non-empty, strictly shorter
            path.write_bytes(blob[:keep])
            return f"{path.name}: truncated to {keep}/{len(blob)} bytes"
        if kind is StoreFaultKind.PAYLOAD_CORRUPT:
            targets = sorted(directory.glob("*.rgix"))
            if not targets:
                raise ValueError(f"no .rgix payloads to corrupt in {directory}")
            path = targets[rng.randrange(len(targets))]
            blob = path.read_bytes()
            bit = rng.randrange(len(blob) * 8)
            corrupted = bytearray(blob)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(corrupted))
            return f"{path.name}: flipped bit {bit}"
        if kind is StoreFaultKind.PLANE_MISSING:
            path = directory / "plane.rgpl"
            if not path.exists():
                raise ValueError(f"{directory} holds no plane.rgpl to delete")
            path.unlink()
            return f"{path.name}: deleted"
        raise ValueError(f"not a store fault: {kind}")  # pragma: no cover

    @staticmethod
    def _corrupt(
        path: pathlib.Path, kind: FaultKind, rng: random.Random
    ) -> str:
        blob = path.read_bytes()
        if kind is FaultKind.INDEX_MISSING:
            path.unlink()
            return "deleted"
        if kind is FaultKind.SNAPSHOT_MAGIC:
            path.write_bytes(b"XGIX" + blob[4:])
            return "magic overwritten"
        if kind is FaultKind.SNAPSHOT_TRUNCATE:
            keep = rng.randrange(len(blob))  # strictly shorter
            path.write_bytes(blob[:keep])
            return f"truncated to {keep}/{len(blob)} bytes"
        if kind is FaultKind.SNAPSHOT_BITFLIP:
            bit = rng.randrange(len(blob) * 8)
            corrupted = bytearray(blob)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(corrupted))
            return f"flipped bit {bit}"
        raise ValueError(f"not a snapshot fault: {kind}")  # pragma: no cover

    def __repr__(self) -> str:  # pragma: no cover - trivial
        armed = ", ".join(spec.describe() for spec in self.specs)
        state = "armed" if self.enabled else "disarmed"
        return f"FaultInjector(seed={self.seed}, {state}: {armed})"
