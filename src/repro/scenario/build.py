"""Scenario assembly: world → measurements → ground truth → databases.

:func:`build_scenario` is the reproduction's front door.  It performs, in
order, everything the paper's data section describes:

1. build the (synthetic) Internet;
2. run the Ark-style collection campaign → the Ark-topo-router dataset;
3. take an rDNS snapshot and build the DNS-based ground truth via DRoP;
4. deploy Atlas-like probes, run built-in measurements, and extract the
   RTT-proximity ground truth with both §3.2 probe filters;
5. generate the four database snapshots from the calibrated vendor
   profiles.

Every step is seeded from the scenario seed, so a scenario is a pure
function of its configuration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from repro.atlas.measurements import (
    BuiltinMeasurement,
    run_builtin_measurements,
    select_builtin_targets,
)
from repro.atlas.probes import AtlasProbe, deploy_probes
from repro.dns.drop import DropEngine
from repro.dns.hints import HintDictionary
from repro.dns.hostnames import HostnameFactory
from repro.dns.rdns import RdnsService
from repro.geodb.database import GeoDatabase
from repro.geodb.generator import SnapshotGenerator
from repro.groundtruth.dnsbased import DnsGroundTruthResult, build_dns_ground_truth
from repro.groundtruth.record import GroundTruthSet, merge_ground_truth
from repro.groundtruth.rttproximity import RttProximityResult, build_rtt_ground_truth
from repro.net.ip import IPv4Address
from repro.obs.metrics import MetricsRegistry
from repro.obs.reqtrace import NOOP_TRACE, RequestTrace
from repro.scenario.config import ScenarioConfig
from repro.topology.ark import ArkMonitor, ArkTopoDataset, collect_topology, place_monitors
from repro.topology.builder import SyntheticInternet, TopologyBuilder
from repro.topology.traceroute import TracerouteEngine


@dataclass(frozen=True, slots=True)
class Scenario:
    """A fully-assembled study input set."""

    config: ScenarioConfig
    internet: SyntheticInternet
    hints: HintDictionary
    hostname_factory: HostnameFactory
    rdns: RdnsService
    drop: DropEngine
    monitors: tuple[ArkMonitor, ...]
    ark_dataset: ArkTopoDataset
    probes: tuple[AtlasProbe, ...]
    atlas_targets: tuple[IPv4Address, ...]
    measurements: tuple[BuiltinMeasurement, ...]
    dns_ground_truth: DnsGroundTruthResult
    rtt_ground_truth: RttProximityResult
    databases: Mapping[str, GeoDatabase]

    @property
    def ground_truth(self) -> GroundTruthSet:
        """The merged 'Table 1' ground truth (DNS precedence on overlap)."""
        return merge_ground_truth(
            self.dns_ground_truth.dataset, self.rtt_ground_truth.dataset
        )

    def describe(self) -> str:
        """A multi-line inventory of the scenario's datasets."""
        return (
            f"{self.internet.describe()}\n"
            f"Ark: {len(self.monitors)} monitors, {len(self.ark_dataset)} interface"
            f" addresses from {self.ark_dataset.traces_run} traces\n"
            f"rDNS: {len(self.rdns)} PTR records\n"
            f"Atlas: {len(self.probes)} probes × {len(self.atlas_targets)} targets"
            f" → {len(self.measurements)} measurements\n"
            f"Ground truth: {len(self.dns_ground_truth.dataset)} DNS-based +"
            f" {len(self.rtt_ground_truth.dataset)} RTT-proximity"
            f" = {len(self.ground_truth)} merged\n"
            f"Databases: {', '.join(sorted(self.databases))}"
        )


def build_scenario(
    seed: int = 2016,
    scale: float = 1.0,
    config: ScenarioConfig | None = None,
    *,
    tracer: RequestTrace | None = None,
    metrics: MetricsRegistry | None = None,
) -> Scenario:
    """Assemble a scenario (see module docstring for the steps).

    Either pass a full ``config`` or the two common knobs.  ``scale=1.0``
    builds a ~35 K-interface world in under a minute; tests typically use
    ``scale≈0.05``.

    ``tracer`` wraps each build phase in a timing span and ``metrics``
    receives ``scenario.*`` dataset-size counters; both default to the
    zero-cost no-ops, leaving the build byte-identical to uninstrumented
    runs.  Resolving the study's address pool into a lookup frame is the
    study's job (:meth:`~repro.core.pipeline.RouterGeolocationStudy.lookup_frame`),
    not the scenario's.
    """
    if config is None:
        config = ScenarioConfig(seed=seed, scale=scale)
    if tracer is None:
        tracer = NOOP_TRACE

    with tracer.span("build_scenario", seed=config.seed, scale=config.scale):
        with tracer.span("topology") as span:
            internet = TopologyBuilder(config.resolved_topology()).build()
            span.set(items=internet.interface_count())
        hints = HintDictionary(internet.gazetteer)
        factory = HostnameFactory(hints)

        with tracer.span("rdns") as span:
            rng_rdns = random.Random(config.seed + 1)
            rdns = RdnsService.build(internet, factory, rng_rdns, config.rdns)
            drop = DropEngine.with_ground_truth_rules(hints)
            span.set(items=len(rdns))

        # Ark campaign (§2.1).
        with tracer.span("ark_campaign") as span:
            rng_ark = random.Random(config.seed + 2)
            monitors = place_monitors(internet, config.scaled_monitors(), rng_ark)
            ark_engine = TracerouteEngine(internet, rng_ark, routing=config.routing)
            ark_dataset = collect_topology(
                internet, monitors, config.scaled_ark_targets(), rng_ark,
                engine=ark_engine,
            )
            span.set(
                items=len(ark_dataset),
                monitors=len(monitors),
                traces=ark_dataset.traces_run,
            )

        # Atlas campaign (§2.3.2).
        with tracer.span("atlas_campaign") as span:
            rng_atlas = random.Random(config.seed + 3)
            probes = deploy_probes(
                internet,
                config.scaled_probes(),
                rng_atlas,
                model=config.probe_location_model,
            )
            atlas_targets = select_builtin_targets(
                internet, config.scaled_atlas_targets(), rng_atlas
            )
            atlas_engine = TracerouteEngine(
                internet,
                rng_atlas,
                hop_loss_rate=0.02,
                last_mile_rtt_ms=(0.06, 0.35),
                routing=config.routing,
            )
            measurements = tuple(
                run_builtin_measurements(
                    internet, probes, atlas_targets, rng_atlas, engine=atlas_engine
                )
            )
            span.set(
                items=len(measurements),
                probes=len(probes),
                targets=len(atlas_targets),
            )

        # Ground truth (§2.3).
        with tracer.span("ground_truth") as span:
            dns_result = build_dns_ground_truth(ark_dataset.addresses, rdns, drop)
            rtt_result = build_rtt_ground_truth(
                measurements, probes, config.rtt_proximity
            )
            span.set(
                items=len(dns_result.dataset) + len(rtt_result.dataset),
                dns=len(dns_result.dataset),
                rtt=len(rtt_result.dataset),
            )

        # Database snapshots.
        with tracer.span("databases") as span:
            generator = SnapshotGenerator(
                internet, config.seed + config.database_seed_offset, rdns=rdns
            )
            databases = generator.generate_paper_set()
            span.set(items=sum(len(database) for database in databases.values()))

    if metrics is not None:
        metrics.inc("scenario.interfaces", internet.interface_count())
        metrics.inc("scenario.rdns_records", len(rdns))
        metrics.inc("scenario.ark_addresses", len(ark_dataset))
        metrics.inc("scenario.probes", len(probes))
        metrics.inc("scenario.measurements", len(measurements))
        metrics.inc("scenario.ground_truth_dns", len(dns_result.dataset))
        metrics.inc("scenario.ground_truth_rtt", len(rtt_result.dataset))
        for name, database in databases.items():
            metrics.inc("scenario.database_entries", len(database), database=name)
        for database in databases.values():
            database.attach_metrics(metrics)
        internet.whois.attach_metrics(metrics)

    return Scenario(
        config=config,
        internet=internet,
        hints=hints,
        hostname_factory=factory,
        rdns=rdns,
        drop=drop,
        monitors=monitors,
        ark_dataset=ark_dataset,
        probes=probes,
        atlas_targets=atlas_targets,
        measurements=measurements,
        dns_ground_truth=dns_result,
        rtt_ground_truth=rtt_result,
        databases=databases,
    )


@dataclass(frozen=True, slots=True)
class ScaleTier:
    """A million-interface serving build: world, indexes, answer plane.

    The streaming counterpart of a :class:`Scenario` restricted to what
    the serving stack needs — no Ark/Atlas campaigns, no ground truth,
    no :class:`GeoDatabase` objects.  ``stats`` records the build's
    shape and cost (counts, per-phase seconds, peak RSS) for the
    ``scale_tier`` bench block.
    """

    world: "StreamedWorld"  # noqa: F821 - imported lazily in build_scale_tier
    indexes: Mapping[str, "CompiledIndex"]  # noqa: F821
    plane: "AnswerPlane"  # noqa: F821
    stats: Mapping[str, object]


def build_scale_tier(
    interfaces: int = 1_000_000,
    seed: int = 2016,
    *,
    config: "StreamTierConfig | None" = None,  # noqa: F821
    tracer: RequestTrace | None = None,
    metrics: MetricsRegistry | None = None,
) -> ScaleTier:
    """Compile the full serving stack for a streamed 1M+-interface world.

    The memory-bounded analogue of ``build_scenario`` → ``CompiledIndex``
    → ``compile_plane``: the world is run arrays
    (:class:`~repro.topology.stream.StreamedWorld`), database entries
    stream straight from :class:`StreamingSnapshotGenerator` into
    :meth:`CompiledIndex.compile_entries` without a materialized
    :class:`GeoDatabase` in between, and only the compiled interval
    arrays survive.  Seeding follows the scenario convention (database
    streams at ``seed + database_seed_offset``), so a tier is a pure
    function of ``(interfaces, seed)``.
    """
    import resource
    import time

    from repro.geodb.generator import StreamingSnapshotGenerator
    from repro.geodb.vendors import (
        GENERATED_PROFILES,
        MAXMIND_GEOLITE_DERIVATION,
        MAXMIND_PAID,
    )
    from repro.serve.index import CompiledIndex
    from repro.serve.plane import compile_plane
    from repro.topology.stream import StreamTierConfig, StreamedWorld

    if config is None:
        config = StreamTierConfig(seed=seed, interfaces=interfaces)
    if tracer is None:
        tracer = NOOP_TRACE

    phases: dict[str, float] = {}
    with tracer.span("build_scale_tier", interfaces=config.interfaces, seed=config.seed):
        with tracer.span("stream_world") as span:
            t0 = time.perf_counter()
            world = StreamedWorld.build(config)
            phases["world_s"] = time.perf_counter() - t0
            span.set(items=world.interface_count)

        generator = StreamingSnapshotGenerator(
            world, config.seed + ScenarioConfig().database_seed_offset
        )
        # (vendor, phase key, entry stream): the generated profiles, then
        # the GeoLite edition derived from the paid stream.  The streams
        # are lazy, so each runs only when its compile consumes it.
        derivation = MAXMIND_GEOLITE_DERIVATION
        streams = [
            (
                profile.name,
                f"compile_{profile.vendor_key}_s",
                generator.iter_entries(profile),
            )
            for profile in GENERATED_PROFILES
        ]
        streams.append(
            (
                derivation.name,
                "compile_derived_s",
                generator.iter_derived(generator.iter_entries(MAXMIND_PAID), derivation),
            )
        )
        indexes: dict[str, CompiledIndex] = {}
        vendor_stats: dict[str, dict[str, int]] = {}
        for name, phase, entries in streams:
            with tracer.span("stream_compile", vendor=name) as span:
                t0 = time.perf_counter()
                index = CompiledIndex.compile_entries(name, entries)
                phases[phase] = time.perf_counter() - t0
                span.set(items=index.interval_count)
            indexes[name] = index
            vendor_stats[name] = {
                "entries": index.source_entries,
                "intervals": index.interval_count,
            }

        with tracer.span("compile_plane") as span:
            t0 = time.perf_counter()
            plane = compile_plane(indexes)
            phases["plane_s"] = time.perf_counter() - t0
            span.set(items=plane.interval_count)

    if metrics is not None:
        metrics.inc("scale_tier.interfaces", world.interface_count)
        metrics.inc("scale_tier.plane_intervals", plane.interval_count)
        for name, stat in vendor_stats.items():
            metrics.inc("scale_tier.entries", stat["entries"], database=name)

    stats: dict[str, object] = {
        "interfaces": world.interface_count,
        "ases": len(world.ases),
        "delegations": len(world.registry),
        "runs": world.run_count,
        "blocks": world.block_count(),
        "vendors": vendor_stats,
        "plane_intervals": plane.interval_count,
        "plane_cells": plane.cell_count,
        "phases_s": phases,
        "total_s": sum(phases.values()),
        # ru_maxrss is KB on Linux: the whole-process high-water mark,
        # the number the memory-bounded claim is judged on.
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    return ScaleTier(world=world, indexes=indexes, plane=plane, stats=stats)
