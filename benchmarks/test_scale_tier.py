"""The million-interface scale tier: compile cost, memory bound, identity.

The ROADMAP's north star is production scale — millions of addresses
against the serving stack — and this benchmark is where the repo proves
it reaches that regime.  It compiles the full serving build (streamed
world → streamed vendor snapshots → compiled indexes → answer plane)
for ``REPRO_SCALE_TIER_INTERFACES`` interfaces (default 1 M) through
the memory-bounded path, records counts, per-phase seconds, and peak
RSS into the ``scale_tier`` block of ``BENCH_pipeline.json``, and
gates the two claims that matter:

* **memory-bounded** — peak RSS stays far below what materializing a
  million per-address Python objects would cost;
* **byte-identical** — at bench scale, every vendor snapshot compiled
  through the streaming path serializes to exactly the bytes the
  materialized :class:`GeoDatabase` path produces (checked again, at
  test scale, in ``tests/geodb/test_stream_equivalence.py``).
"""

from __future__ import annotations

import os

from conftest import BENCH_SEED

from repro.geodb.generator import SnapshotGenerator
from repro.geodb.vendors import GENERATED_PROFILES, MAXMIND_GEOLITE_DERIVATION
from repro.scenario.build import build_scale_tier
from repro.serve import CompiledIndex, ServingEngine
from repro.serve.snapshot import save_index

SCALE_TIER_INTERFACES = int(
    os.environ.get("REPRO_SCALE_TIER_INTERFACES", "1000000")
)

#: The memory bound: a 1M-interface materialized world measures in the
#: gigabytes; the streamed build must stay a small fraction of that.
MAX_PEAK_RSS_KB = 2 * 1024 * 1024  # 2 GB, whole-process high-water mark


def test_scale_tier_compile(record_perf):
    tier = build_scale_tier(interfaces=SCALE_TIER_INTERFACES, seed=BENCH_SEED)
    stats = dict(tier.stats)

    assert stats["interfaces"] >= SCALE_TIER_INTERFACES
    assert stats["peak_rss_kb"] <= MAX_PEAK_RSS_KB, stats["peak_rss_kb"]
    assert set(tier.indexes) == {p.name for p in GENERATED_PROFILES} | {
        MAXMIND_GEOLITE_DERIVATION.name
    }

    # The tier must actually serve: the plane's precomputed answers have
    # to agree with the live per-vendor resolve path across the plan.
    engine = ServingEngine(tier.indexes, plane=tier.plane)
    live = ServingEngine(tier.indexes)
    for address in tier.world.sample_addresses(512):
        cell = engine.lookup_plane(address)
        outcome = live.lookup_outcome(address)
        assert dict(cell.answers) == dict(outcome.answers)

    record_perf("scale_tier", stats)


def test_streaming_compile_byte_identical(scenario, record_perf, tmp_path):
    """At bench scale the streamed compile is the materialized compile.

    Same generator seeding as ``build_scenario`` (including the rDNS
    hint engine), two compile paths, and the proof is the strongest one
    available: the serialized ``.rgix`` snapshot files are equal
    byte-for-byte.
    """
    config = scenario.config
    generator = SnapshotGenerator(
        scenario.internet,
        config.seed + config.database_seed_offset,
        rdns=scenario.rdns,
    )
    checked = []
    for profile in GENERATED_PROFILES:
        materialized = CompiledIndex.compile(scenario.databases[profile.name])
        streamed = CompiledIndex.compile_entries(
            profile.name, generator.iter_entries(profile)
        )
        materialized_path = tmp_path / f"{profile.name}.materialized.rgix"
        streamed_path = tmp_path / f"{profile.name}.streamed.rgix"
        save_index(materialized, materialized_path)
        save_index(streamed, streamed_path)
        assert materialized_path.read_bytes() == streamed_path.read_bytes(), (
            profile.name
        )
        checked.append(profile.name)

    record_perf(
        "scale_tier_equivalence",
        {"byte_identical_at_bench_scale": sorted(checked), "scale": config.scale},
    )
