"""The run manifest: one JSON artifact describing one study run.

A manifest serialises everything needed to understand (and compare) runs
after the fact:

* ``config`` — the scenario knobs the run was a pure function of (seed,
  scale, city_range_km, routing);
* ``spans`` — the run trace's span forest (scenario build phases + the
  ten pipeline stages), in the node shape ``/tracez`` serves:
  ``{name, start_ms, duration_ms, attrs, children}``, with item counts
  as the ``items`` attribute;
* ``counters`` / ``histograms`` — the metrics registry snapshot
  (``geodb.*``, ``whois.*``, ``scenario.*`` families);
* ``digests`` — SHA-256 digests of the rendered reports, so two runs can
  be checked for result-identity without re-running anything.

``RunManifest.from_json(manifest.to_json())`` round-trips exactly; the
longitudinal-study angle (Gouel et al.) is then just diffing manifests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.obs.metrics import MetricsRegistry

__all__ = ["RunManifest", "sha256_digest"]

#: 2: span nodes are ``RequestTrace.to_dict`` nodes (``duration_ms``,
#: ``attrs``) instead of ``duration_s``/``items``/``attributes``.
MANIFEST_VERSION = 2


def sha256_digest(text: str) -> str:
    """Hex SHA-256 of a rendered artifact (the manifest's digest format)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True, slots=True)
class RunManifest:
    """A finished run's telemetry, ready to serialise."""

    config: Mapping[str, Any]
    spans: tuple[Mapping[str, Any], ...]
    counters: Mapping[str, int]
    histograms: Mapping[str, Mapping[str, float]]
    counter_families: tuple[str, ...]
    digests: Mapping[str, str] = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    @classmethod
    def build(
        cls,
        *,
        config: Mapping[str, Any],
        spans: Sequence[Mapping[str, Any]] = (),
        metrics: MetricsRegistry | None = None,
        digests: Mapping[str, str] | None = None,
    ) -> "RunManifest":
        """Assemble a manifest from a trace's ``to_dict()["spans"]`` and
        a live metrics registry."""
        return cls(
            config=dict(config),
            spans=tuple(dict(span) for span in spans),
            counters=metrics.counters_snapshot() if metrics is not None else {},
            histograms=metrics.histograms_snapshot() if metrics is not None else {},
            counter_families=metrics.families() if metrics is not None else (),
            digests=dict(digests) if digests is not None else {},
        )

    def to_dict(self) -> dict[str, Any]:
        """The manifest as plain JSON-ready data."""
        return {
            "version": self.version,
            "config": dict(self.config),
            "spans": [dict(span) for span in self.spans],
            "counters": dict(self.counters),
            "histograms": {name: dict(summary) for name, summary in self.histograms.items()},
            "counter_families": list(self.counter_families),
            "digests": dict(self.digests),
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialise; ``from_json`` inverts this exactly."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunManifest":
        return cls(
            config=dict(payload.get("config", {})),
            spans=tuple(dict(span) for span in payload.get("spans", ())),
            counters=dict(payload.get("counters", {})),
            histograms={
                name: dict(summary)
                for name, summary in payload.get("histograms", {}).items()
            },
            counter_families=tuple(payload.get("counter_families", ())),
            digests=dict(payload.get("digests", {})),
            version=int(payload.get("version", MANIFEST_VERSION)),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json.loads(text))

    def stage_names(self) -> tuple[str, ...]:
        """Every span name in the manifest, depth-first."""

        def visit(node: Mapping[str, Any]):
            yield str(node["name"])
            for child in node.get("children", ()):
                yield from visit(child)

        names: list[str] = []
        for root in self.spans:
            names.extend(visit(root))
        return tuple(names)
