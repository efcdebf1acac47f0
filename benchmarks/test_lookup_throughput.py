"""Hot-path lookup throughput: hash-table walk vs compiled interval index.

The paper's core operation — and the serving layer's entire request path
— is one longest-prefix-match per address.  This benchmark times both
engines over the scenario's Ark interface addresses (the exact workload
§5.1 runs 1.64 M times per database) and records nanoseconds-per-lookup
in ``BENCH_pipeline.json``, so the perf trajectory tracks the hot path
itself rather than only stage wall-times.  The serving engine's live
request path and the precomputed cross-vendor answer plane are timed
next to the raw indexes, with the plane gated at 5x over the live path.
"""

from __future__ import annotations

import time

from repro.obs import MetricsRegistry
from repro.serve import CompiledIndex, ServingEngine, compile_plane

#: Enough probes for stable timing even at small bench scales.
MIN_PROBES = 200_000


def best_of(runs: int, probe, addresses) -> float:
    """Seconds for one full pass, best of ``runs`` (noise floor)."""
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        for address in addresses:
            probe(address)
        best = min(best, time.perf_counter() - started)
    return best


def test_lookup_throughput(scenario, record_perf):
    addresses = [int(address) for address in scenario.ark_dataset.addresses]
    repeat = -(-MIN_PROBES // len(addresses))  # ceil
    workload = addresses * repeat

    section: dict[str, object] = {"probes": len(workload)}
    speedups = []
    indexes: dict[str, CompiledIndex] = {}
    for name, database in sorted(scenario.databases.items()):
        index = indexes[name] = CompiledIndex.compile(database)

        # Answer-identity first: a fast wrong index is worthless.
        for address in addresses:
            expected = database.probe(address)
            assert index.probe(address) == (
                expected.record if expected is not None else None
            )

        hash_s = best_of(5, database.probe, workload)
        compiled_s = best_of(5, index.probe, workload)
        speedup = hash_s / compiled_s
        speedups.append(speedup)
        section[name] = {
            "entries": len(database),
            "intervals": index.interval_count,
            "hash_table_ns_per_lookup": round(hash_s / len(workload) * 1e9, 1),
            "compiled_ns_per_lookup": round(compiled_s / len(workload) * 1e9, 1),
            "speedup": round(speedup, 2),
        }

    # The serving engine's full fail-closed request path with faults
    # disabled: four vendor probes plus the resilience machinery (health
    # gate, retries scaffold, outcome construction).  Recording it next
    # to the raw index numbers pins what fault tolerance costs when
    # nothing is broken — the answer should be "a dict and a dataclass".
    sample = addresses  # one pass, deduplicated
    live_engine = ServingEngine(indexes)
    engine_s = best_of(3, live_engine.lookup_outcome, sample)
    section["engine"] = {
        "lookups": len(sample),
        "engine_ns_per_lookup": round(engine_s / len(sample) * 1e9, 1),
    }

    # The precomputed cross-vendor answer plane: the healthy path becomes
    # one bisect over the merged boundary array plus a cell read, with the
    # §5.1 consensus already tallied at compile time.  Identity first —
    # the plane must agree byte-for-byte with the live resolve path on
    # every bench address — then speed, gated at the ISSUE's 5x over the
    # live engine path.
    plane = compile_plane(indexes)
    plane_engine = ServingEngine(indexes, plane=plane)
    for address in addresses:
        live = live_engine.lookup_outcome(address)
        cell = plane_engine.lookup_plane(address)
        assert dict(cell.answers) == dict(live.answers)
        outcome = plane_engine.lookup_outcome(address)
        assert outcome == live
        assert plane_engine.consensus_of(outcome) == live_engine.consensus_of(live)
    plane_s = best_of(5, plane_engine.lookup_plane, sample)
    plane_speedup = engine_s / plane_s
    section["plane"] = {
        "intervals": plane.interval_count,
        "cells": plane.cell_count,
        "plane_ns_per_lookup": round(plane_s / len(sample) * 1e9, 1),
        "speedup_vs_engine": round(plane_speedup, 2),
    }

    # Telemetry overhead: the instrumented healthy path (plane hit with a
    # metrics registry attached) against the same path uninstrumented.
    # The contract: attaching metrics costs at most 15% on the fastest
    # path the server has — one pre-resolved CounterCell.add() per hit,
    # no window or trace work below the HTTP layer.
    instrumented = ServingEngine(indexes, plane=plane, metrics=MetricsRegistry())
    for address in addresses:  # identity holds with metrics attached
        assert instrumented.lookup_outcome(address) == live_engine.lookup_outcome(
            address
        )
    bare_s = best_of(5, plane_engine.lookup_outcome, sample)
    instrumented_s = best_of(5, instrumented.lookup_outcome, sample)
    overhead = instrumented_s / bare_s
    section["telemetry"] = {
        "plane_outcome_ns_per_lookup": round(bare_s / len(sample) * 1e9, 1),
        "instrumented_ns_per_lookup": round(
            instrumented_s / len(sample) * 1e9, 1
        ),
        "overhead_ratio": round(overhead, 3),
    }

    record_perf("lookup_throughput", section)

    # The plane exists to close the engine/index gap: anything under 5x
    # means per-request Python is back on the healthy path.
    assert plane_speedup >= 5.0, (plane_s, engine_s)

    # The observability contract: metrics on the healthy plane path cost
    # one cell increment, bounded at 15% over the uninstrumented path.
    assert overhead <= 1.15, (instrumented_s, bare_s)

    # The whole point of compiling: faster on every table, and measurably
    # faster overall.  The margin is thinnest where a table is /32-dense
    # (NetAcuity's dns-hint entries give the hash walk a one-probe fast
    # path, ~1.1x) and widest where answers resolve at coarser prefixes
    # (~1.5-1.7x), so the per-table bound stays loose for CI noise while
    # the mean pins the real win.
    assert all(speedup > 1.0 for speedup in speedups), speedups
    assert sum(speedups) / len(speedups) > 1.2, speedups
