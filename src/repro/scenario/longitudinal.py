"""Longitudinal churn: drifting generations served through the store.

The paper measures one epoch and argues (§5.2, via a ~50-day re-query)
that short-term drift would not change its conclusions; Gouel et al.'s
longitudinal study of a commercial feed shows that over *release
sequences* the answers churn substantially.  This scenario measures that
churn on our own serving stack, end to end through the lifecycle plane:

1. compile the scenario's four vendor snapshots and publish them as
   generation 1 of a :class:`~repro.serve.store.SnapshotStore`;
2. boot a :class:`~repro.serve.engine.ServingEngine` *from the store*
   (not from the in-memory databases) and attach a
   :class:`~repro.serve.store.StoreWatcher`;
3. for each subsequent generation, age every vendor snapshot by
   ``months_step`` (:func:`repro.geodb.diff.refresh_snapshot` — the
   re-measure/move model the diff-db command uses), publish, and drive
   one watcher poll: the running engine hot-swaps to the new generation;
4. against a fixed probe set, record what changed: the raw release diff
   per vendor (:func:`repro.geodb.diff.diff_snapshots`), the fraction of
   probe addresses whose *served* per-vendor answer changed, and how
   often the §5.1 consensus flipped its country or moved its city-level
   vote beyond the city range.

The separation between the last two is the point: a vendor can rewrite
10% of its prefix table (release churn) while the consensus barely moves
(the majority vote absorbs single-vendor drift) — or a small release can
flip consensus countries if it lands on split votes.  The report keeps
both so the relationship is measurable, and the benchmark suite persists
it into ``BENCH_pipeline.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.majority import DEFAULT_CITY_RANGE_KM
from repro.geodb.diff import diff_snapshots, refresh_snapshot
from repro.obs.metrics import MetricsRegistry

__all__ = ["LongitudinalReport", "run_longitudinal_churn"]

#: Probe addresses sampled from the Ark dataset when the caller gives none.
DEFAULT_PROBE_COUNT = 256


def _answer_key(answer) -> tuple | None:
    """A vendor answer reduced to comparable identity (None = no answer)."""
    if answer is None:
        return None
    record = answer.record
    return (
        answer.prefix,
        record.country,
        record.region,
        record.city,
        record.latitude,
        record.longitude,
    )


@dataclass(frozen=True, slots=True)
class GenerationChurn:
    """What changed between one served generation and the next."""

    generation: int
    months: float  # cumulative simulated age of this generation
    vendor_diffs: Mapping[str, Mapping[str, float]]  # release-level diff
    answer_churn: Mapping[str, float]  # served-answer change rate per vendor
    consensus_country_flips: int
    consensus_city_flips: int
    probe_count: int

    def to_dict(self) -> dict[str, object]:
        """JSON-ready view of this step for the benchmark artifact."""
        return {
            "generation": self.generation,
            "months": round(self.months, 3),
            "vendor_diffs": {
                name: dict(diff) for name, diff in sorted(self.vendor_diffs.items())
            },
            "answer_churn": {
                name: round(rate, 6)
                for name, rate in sorted(self.answer_churn.items())
            },
            "consensus_country_flips": self.consensus_country_flips,
            "consensus_city_flips": self.consensus_city_flips,
            "probe_count": self.probe_count,
        }


@dataclass(frozen=True, slots=True)
class LongitudinalReport:
    """Churn across a published generation sequence, served via the store."""

    seed: int
    months_step: float
    probe_count: int
    steps: Sequence[GenerationChurn] = field(default_factory=tuple)
    swaps: int = 0
    rollbacks: int = 0

    def mean_answer_churn(self) -> dict[str, float]:
        """Per-vendor mean served-answer change rate across all steps."""
        totals: dict[str, list[float]] = {}
        for step in self.steps:
            for name, rate in step.answer_churn.items():
                totals.setdefault(name, []).append(rate)
        return {
            name: sum(rates) / len(rates)
            for name, rates in sorted(totals.items())
        }

    def total_consensus_flips(self) -> dict[str, int]:
        """Country and city consensus flips summed over every step."""
        return {
            "country": sum(s.consensus_country_flips for s in self.steps),
            "city": sum(s.consensus_city_flips for s in self.steps),
        }

    def to_dict(self) -> dict[str, object]:
        """JSON-ready view of the whole run for ``BENCH_pipeline.json``."""
        return {
            "seed": self.seed,
            "months_step": self.months_step,
            "probe_count": self.probe_count,
            "generations": 1 + len(self.steps),
            "swaps": self.swaps,
            "rollbacks": self.rollbacks,
            "steps": [step.to_dict() for step in self.steps],
            "mean_answer_churn": {
                name: round(rate, 6)
                for name, rate in self.mean_answer_churn().items()
            },
            "consensus_flips": self.total_consensus_flips(),
        }

    def render(self) -> str:
        """A human-readable churn table, one line per generation step."""
        lines = [
            f"longitudinal churn: {1 + len(self.steps)} generations,"
            f" {self.months_step:g} months/step, {self.probe_count} probes,"
            f" {self.swaps} hot swaps"
        ]
        for step in self.steps:
            churn = ", ".join(
                f"{name}={rate:.1%}"
                for name, rate in sorted(step.answer_churn.items())
            )
            lines.append(
                f"  gen {step.generation} (+{self.months_step:g}mo):"
                f" answers changed {churn};"
                f" consensus flips country={step.consensus_country_flips}"
                f" city={step.consensus_city_flips}"
            )
        flips = self.total_consensus_flips()
        mean = self.mean_answer_churn()
        overall = sum(mean.values()) / len(mean) if mean else 0.0
        lines.append(
            f"  mean per-vendor answer churn {overall:.1%};"
            f" total consensus flips country={flips['country']}"
            f" city={flips['city']}"
        )
        return "\n".join(lines)


def run_longitudinal_churn(
    scenario,
    store_root,
    *,
    generations: int = 4,
    months_step: float = 6.0,
    seed: int = 2016,
    probes: Sequence[int] | None = None,
    city_range_km: float = DEFAULT_CITY_RANGE_KM,
) -> LongitudinalReport:
    """Publish ``generations`` drifting releases and measure served churn.

    Every generation flows through the real lifecycle: published to the
    store on disk, validated and hot-swapped into a live engine by a
    :class:`~repro.serve.store.StoreWatcher` (driven synchronously here
    — the HTTP server drives the identical code from its poll thread).
    Requires ``generations >= 2`` (churn needs at least one transition).
    """
    if generations < 2:
        raise ValueError(f"need at least 2 generations: {generations!r}")
    # Imported here so the scenario package keeps no hard serve dependency
    # at import time (mirrors how the CLI defers its serve imports).
    from repro.serve.engine import ServingEngine
    from repro.serve.plane import compile_serving_set
    from repro.serve.store import SnapshotStore, StoreWatcher

    if probes is None:
        addresses = scenario.ark_dataset.addresses[:DEFAULT_PROBE_COUNT]
        probes = [int(address) for address in addresses]
    else:
        probes = [int(address) for address in probes]
    if not probes:
        raise ValueError("the probe set must not be empty")

    store = SnapshotStore(store_root)
    databases = dict(scenario.databases)
    indexes, plane = compile_serving_set(databases, city_range_km=city_range_km)
    store.publish(
        indexes, plane, metadata={"seed": seed, "months": 0.0, "step": 1}
    )

    # Boot from the store — the round-trip through .rgix/.rgpl bytes and
    # manifest digests is part of what this scenario exercises.
    record, loaded_indexes, loaded_plane = store.load(store.current_id())
    metrics = MetricsRegistry()
    engine = ServingEngine(
        loaded_indexes,
        plane=loaded_plane,
        metrics=metrics,
        city_range_km=city_range_km,
        generation_id=record.generation,
        generation_source="store",
    )
    watcher = StoreWatcher(
        store,
        engine,
        interval_s=3600.0,  # driven synchronously; the thread never starts
        canary_addresses=probes,
        metrics=metrics,
    )

    def observe() -> tuple[dict[int, dict[str, tuple | None]], dict[int, tuple]]:
        answers = {}
        consensus = {}
        for addr in probes:
            outcome = engine.lookup_outcome(addr)
            answers[addr] = {
                name: _answer_key(outcome.answers.get(name))
                for name in engine.vendor_names()
            }
            vote = engine.consensus_of(outcome)
            consensus[addr] = (vote.country, vote.location)
        return answers, consensus

    try:
        previous_answers, previous_consensus = observe()
        steps: list[GenerationChurn] = []
        months = 0.0
        for step in range(2, generations + 1):
            months += months_step
            aged = {
                name: refresh_snapshot(
                    database,
                    scenario.internet.gazetteer,
                    months=months_step,
                    seed=seed + step,
                )
                for name, database in sorted(databases.items())
            }
            vendor_diffs = {}
            for name in sorted(databases):
                diff = diff_snapshots(
                    databases[name], aged[name], city_range_km=city_range_km
                )
                vendor_diffs[name] = {
                    "unchanged": diff.unchanged,
                    "nudged": diff.nudged,
                    "moved": diff.moved,
                    "resolution_changed": diff.resolution_changed,
                    "moved_rate": round(diff.moved_rate, 6),
                }
            databases = aged
            indexes, plane = compile_serving_set(databases, city_range_km=city_range_km)
            record = store.publish(
                indexes,
                plane,
                metadata={"seed": seed, "months": months, "step": step},
            )
            outcome = watcher.poll_once()
            if outcome != "swapped":
                raise RuntimeError(
                    f"generation {record.generation} failed to swap:"
                    f" {outcome} ({watcher.last_error})"
                )
            if engine.generation_id != record.generation:
                raise RuntimeError(
                    f"engine serves generation {engine.generation_id}"
                    f" after publishing {record.generation}"
                )

            answers, consensus = observe()
            answer_churn = {}
            for name in sorted(engine.vendor_names()):
                changed = sum(
                    1
                    for addr in probes
                    if answers[addr][name] != previous_answers[addr][name]
                )
                answer_churn[name] = changed / len(probes)
            country_flips = 0
            city_flips = 0
            for addr in probes:
                before_country, before_location = previous_consensus[addr]
                after_country, after_location = consensus[addr]
                if before_country != after_country:
                    country_flips += 1
                if (before_location is None) != (after_location is None):
                    city_flips += 1
                elif (
                    before_location is not None
                    and before_location.distance_km(after_location)
                    > city_range_km
                ):
                    city_flips += 1
            steps.append(
                GenerationChurn(
                    generation=record.generation,
                    months=months,
                    vendor_diffs=vendor_diffs,
                    answer_churn=answer_churn,
                    consensus_country_flips=country_flips,
                    consensus_city_flips=city_flips,
                    probe_count=len(probes),
                )
            )
            previous_answers, previous_consensus = answers, consensus

        info = engine.generation_info()
        return LongitudinalReport(
            seed=seed,
            months_step=months_step,
            probe_count=len(probes),
            steps=tuple(steps),
            swaps=int(info["swaps"]),
            rollbacks=int(info["rollbacks"]),
        )
    finally:
        engine.close()
