"""The metric catalogue: names and units, as ``BENCHMARK.json`` lists them.

End-to-end metrics are reported by every workload with ``--trace 0``;
per-layer metrics by every workload with ``--trace 1``, as 0 for a
layer the workload does not run through (no HTTP on ``enrich-firehose``,
no compile on the serving workloads, and so on).
"""

END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "cpu_us_per_op": "us",
    "peak_rss_mib": "MiB",
    "snapshot_mib": "MiB",
}

PER_LAYER = {
    "serve.http.service_ms": "ms",
    "serve.http.handler_ms": "ms",
    "serve.http.edge_ms": "ms",
    "serve.http.parse_us": "us",
    "serve.http.render_us": "us",
    "serve.http.unattributed_share": "ratio",
    "net.ip.parse_address_us": "us",
    "serve.engine.lookup_outcome_us": "us",
    "serve.engine.outcome_batch_us": "us",
    "serve.engine.consensus_of_us": "us",
    "serve.engine.plane_hit_ratio": "ratio",
    "serve.plane.probe_ns": "ns",
    "enrich.queue_wait_ms": "ms",
    "enrich.batch_fill": "ratio",
    "enrich.resolve_us": "us",
    "enrich.whois_us": "us",
    "enrich.drift_us": "us",
    "net.registry.whois_cache_hit_ratio": "ratio",
    "enrich.queue_high_water.events": "count",
    "enrich.queue_high_water.work": "count",
    "enrich.queue_high_water.done": "count",
    "enrich.reorder_high_water": "count",
    "enrich.shed": "count",
    "topology.stream.world_s": "s",
    "serve.index.compile_entries_s": "s",
    "serve.index.compile_entries_s.IP2Location-Lite": "s",
    "serve.index.compile_entries_s.MaxMind-GeoLite": "s",
    "serve.index.compile_entries_s.MaxMind-Paid": "s",
    "serve.index.compile_entries_s.NetAcuity": "s",
    "serve.plane.compile_plane_s": "s",
    "serve.snapshot.save_s": "s",
    "serve.snapshot.load_s": "s",
    "serve.plane.cells": "count",
    "serve.plane.intervals": "count",
    "obs.tracing_overhead": "us",
    "loadgen.cpu_share": "ratio",
    "loadgen.lateness_ms": "ms",
    "loadgen.saturated": "count",
}
