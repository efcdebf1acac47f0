"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — build a scenario, run the full study, print (or save) the
  §4–§6 report;
* ``describe`` — build a scenario and print its inventory;
* ``export-db`` — write one database snapshot as CSV (GeoLite2-style or
  IP2Location-style);
* ``export-ground-truth`` — write the merged ground-truth dataset as the
  IMPACT-style release CSV;
* ``diff-db`` — age a snapshot by N months and print the release diff;
* ``trace`` — run the study with tracing on and print the span tree with
  per-stage share-of-total;
* ``compile`` — build a scenario and write its four databases as
  compiled-index snapshots (``*.rgix``) a server loads at boot, plus
  the precomputed cross-vendor answer plane (``plane.rgpl``);
  ``compile --stream N`` compiles a streamed N-interface scale tier
  (memory-bounded; 1M+ interfaces) instead of the materialized scenario;
* ``serve`` — run the HTTP JSON geolocation service (from compiled
  snapshots, a snapshot store's current generation via ``--store``
  [optionally hot-reloading newly published generations with
  ``--watch``], or compiling in-process when none are given); the
  answer plane is loaded or compiled alongside, and a snapshot set
  without one is served on the live path;
* ``snapshot`` — manage a snapshot store: ``publish`` compiles the
  scenario (optionally aged by ``--months`` to model a drifted vendor
  release) and commits it as a new generation, ``list`` shows every
  generation with the live one starred, ``rollback`` points ``CURRENT``
  one good generation back;
* ``enrich`` — run the streaming enrichment firehose (synthetic
  traceroute/flow/access-log events at a target rate) through an
  in-process engine with whois and drift detection, each event
  enriched as it is submitted, and report sustained events/s,
  end-to-end latency quantiles, error counts, and drift-alert totals,
  with an optional ``--max-p99-ms`` gate for CI.

The global ``--verbose`` flag logs each build phase and pipeline stage to
stderr as it completes; ``run --metrics PATH`` writes the JSON run
manifest (span tree + counters + scenario config).  Without either, the
no-op trace is used and output is identical to an uninstrumented build.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.obs import (
    NOOP_TRACE,
    MetricsRegistry,
    RequestTrace,
    StageLogger,
    render_span_tree,
)

# The study-side modules (pipeline, scenario build, database formats)
# are imported by the subcommands that use them: `serve --snapshots`
# and `serve --store` load no study code, which keeps server boot fast.


def _package_version() -> str:
    """The installed package version, falling back to the source tree's.

    Deployed servers report this (``repro --version``, and the serve
    banner) so an operator can tell what build answered a query.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from repro import __version__

        return __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Router geolocation evaluation (IMC 2017 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {_package_version()}"
    )
    parser.add_argument("--seed", type=int, default=2016, help="scenario seed")
    parser.add_argument("--scale", type=float, default=0.1, help="world scale factor")
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="log each build phase and pipeline stage to stderr",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the full study and print the report")
    run.add_argument("-o", "--output", help="write the report to a file")
    run.add_argument(
        "--markdown", action="store_true", help="render the report as Markdown"
    )
    run.add_argument(
        "--metrics", metavar="PATH",
        help="write the JSON run manifest (span tree + counters + config)",
    )

    commands.add_parser(
        "trace",
        help="run the study and print the span tree with per-stage share-of-total",
    )

    commands.add_parser("describe", help="build a scenario and print its inventory")

    export_db = commands.add_parser("export-db", help="export a database snapshot as CSV")
    export_db.add_argument(
        "database",
        choices=["IP2Location-Lite", "MaxMind-GeoLite", "MaxMind-Paid", "NetAcuity"],
    )
    export_db.add_argument(
        "--format", choices=["geolite", "ip2location"], default="geolite"
    )
    export_db.add_argument("-o", "--output", help="write the CSV to a file")

    export_gt = commands.add_parser(
        "export-ground-truth", help="export the merged ground truth as CSV"
    )
    export_gt.add_argument("-o", "--output", help="write the CSV to a file")

    verify = commands.add_parser(
        "verify-release",
        help="check a release package re-derives its published ground truth",
    )
    verify.add_argument("directory")

    export_artifacts = commands.add_parser(
        "export-artifacts",
        help="write the scenario's full release package to a directory",
    )
    export_artifacts.add_argument("directory")

    diff = commands.add_parser(
        "diff-db", help="diff a snapshot against an aged re-release"
    )
    diff.add_argument(
        "database",
        choices=["IP2Location-Lite", "MaxMind-GeoLite", "MaxMind-Paid", "NetAcuity"],
    )
    diff.add_argument("--months", type=float, default=50 / 30,
                      help="age of the second snapshot (default: the paper's ~50 days)")

    compile_cmd = commands.add_parser(
        "compile",
        help="compile the scenario's databases into servable index snapshots",
    )
    compile_cmd.add_argument("directory", help="where to write the *.rgix snapshots")
    compile_cmd.add_argument(
        "--stream", type=int, default=None, metavar="INTERFACES",
        help="compile a streamed INTERFACES-interface scale tier instead of"
             " the materialized scenario (memory-bounded; ignores --scale)",
    )

    enrich_cmd = commands.add_parser(
        "enrich",
        help="run the streaming enrichment firehose against an in-process"
             " engine (open-loop, seed-deterministic; each event is enriched"
             " as it is submitted, so a slow pipeline slows the producer)",
    )
    enrich_cmd.add_argument(
        "--rate", type=float, default=2000.0, help="offered event rate (events/s)"
    )
    enrich_cmd.add_argument(
        "--duration", type=float, default=10.0, help="run length in seconds"
    )
    enrich_cmd.add_argument(
        "--events", type=int, default=None, metavar="N",
        help="stop after N events instead of rate × duration",
    )
    enrich_cmd.add_argument(
        "--zipf-s", type=float, default=1.1, dest="zipf_s",
        help="Zipf popularity exponent (0 = uniform)",
    )
    enrich_cmd.add_argument(
        "--miss-fraction", type=float, default=0.0,
        help="fraction of events addressed from guaranteed-uncovered space",
    )
    enrich_cmd.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    enrich_cmd.add_argument(
        "--max-p99-ms", type=float, default=None, metavar="MS",
        help="exit 1 if end-to-end p99 event latency exceeds MS",
    )

    serve = commands.add_parser(
        "serve", help="run the HTTP JSON geolocation service"
    )
    serve.add_argument(
        "--snapshots", metavar="DIR",
        help="serve compiled snapshots from DIR (default: build and compile"
             " the scenario in-process)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="listening port (0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=None, metavar="N",
        help="inject the default chaos fault mix (seeded, deterministic) to"
             " exercise degraded serving; never use in production",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=None, metavar="MS",
        help="log a one-line stderr record (with the trace id) for any"
             " request at least this slow",
    )
    serve.add_argument(
        "--trace-ring", type=int, default=32, metavar="N",
        help="retain the N slowest recent request traces for /tracez",
    )
    serve.add_argument(
        "--store", metavar="DIR",
        help="serve a snapshot store's current generation"
             " (published by `repro snapshot publish`)",
    )
    serve.add_argument(
        "--watch", action="store_true",
        help="with --store: poll the store and hot-swap newly published"
             " generations into the running server (bad candidates are"
             " rejected and rolled back)",
    )
    serve.add_argument(
        "--watch-interval", type=float, default=2.0, metavar="S",
        help="store poll interval in seconds (default: 2.0)",
    )

    snapshot = commands.add_parser(
        "snapshot", help="manage a snapshot store's generations"
    )
    snapshot_cmds = snapshot.add_subparsers(dest="snapshot_command", required=True)
    publish = snapshot_cmds.add_parser(
        "publish",
        help="compile the scenario and publish it as a new generation",
    )
    publish.add_argument("store", help="store directory (created if missing)")
    publish.add_argument(
        "--months", type=float, default=0.0,
        help="age every vendor snapshot by this many months before"
             " compiling (models a drifted release; default: 0)",
    )
    snapshot_list = snapshot_cmds.add_parser(
        "list", help="list the store's generations (live one starred)"
    )
    snapshot_list.add_argument("store", help="store directory")
    snapshot_rollback = snapshot_cmds.add_parser(
        "rollback", help="point CURRENT one good generation back"
    )
    snapshot_rollback.add_argument("store", help="store directory")
    return parser


def _emit(text: str, output: str | None) -> int:
    """Print ``text`` or write it to ``output``; 1 on an unwritable path."""
    if output:
        try:
            with open(output, "w") as handle:
                handle.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            print(f"error: cannot write {output}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {output}")
    else:
        print(text)
    return 0


def _chaos_injector(seed: int | None):
    """Build the seeded default-chaos injector, or ``None`` when disabled."""
    if seed is None:
        return None
    from repro.faults import FaultInjector, default_chaos_specs

    print(f"chaos mode: injecting faults with seed {seed}", file=sys.stderr)
    return FaultInjector(seed, default_chaos_specs())


def _run_server(
    engine,
    host: str,
    port: int,
    *,
    slow_ms: float | None = None,
    trace_capacity: int = 32,
    watcher=None,
) -> int:
    """Bind, announce, and serve until interrupted (SIGINT exits 0)."""
    from repro.serve.http import GeoServer

    try:
        server = GeoServer(
            engine,
            host=host,
            port=port,
            slow_ms=slow_ms,
            trace_capacity=trace_capacity,
        )
    except OSError as exc:
        print(f"error: cannot bind {host}:{port}: {exc}", file=sys.stderr)
        return 1
    if watcher is not None:
        # The watcher predates the server's registry and trace ring;
        # thread them in now, then start polling.  Shutdown is handled
        # by the engine: server_close -> engine.close -> watcher.stop.
        watcher.attach_metrics(server.metrics)
        watcher.attach_trace_sink(server.traces)
        watcher.start()
        print(
            f"store watcher: polling every {watcher.interval_s:g}s",
            file=sys.stderr,
        )
    databases = ", ".join(engine.database_names())
    # The port is the last colon field of the URL: scripted callers (the
    # CI smoke) parse this line, so keep it stable and flushed.
    print(
        f"repro {_package_version()} serving [{databases}] on {server.url}",
        flush=True,
    )
    server.run()
    print("shut down cleanly")
    return 0


def _canary_sample(indexes, per_vendor: int = 64) -> list[int]:
    """Probe addresses for the store watcher's regression canary.

    A spread of interval-start addresses from every vendor's own index:
    by construction they cover the served address space, so a candidate
    generation that lost a chunk of coverage shows up without needing
    the scenario (or any traffic) in memory.
    """
    addresses: set[int] = set()
    for index in indexes.values():
        starts = index.parts()[0]
        step = max(1, len(starts) // per_vendor)
        addresses.update(starts[::step])
    return sorted(addresses)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "serve" and args.store:
        # Serving from a store: load CURRENT, optionally keep watching it.
        from repro.serve.engine import ServingEngine
        from repro.serve.errors import ServeError
        from repro.serve.store import SnapshotStore, StoreWatcher

        if args.snapshots:
            print(
                "error: --store and --snapshots are mutually exclusive",
                file=sys.stderr,
            )
            return 1
        try:
            store = SnapshotStore(args.store, create=False)
            current = store.current_id()
            if current is None:
                print(
                    f"error: {args.store} has no published generation —"
                    f" run `repro snapshot publish {args.store}` first",
                    file=sys.stderr,
                )
                return 1
            record, indexes, plane = store.load(current)
            engine = ServingEngine(
                indexes,
                injector=_chaos_injector(args.chaos_seed),
                plane=plane,
                generation_id=record.generation,
                generation_source="store",
            )
        except (ServeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(
            f"snapshot store: {args.store} (generation {record.generation})",
            file=sys.stderr,
        )
        watcher = None
        if args.watch:
            watcher = StoreWatcher(
                store,
                engine,
                interval_s=args.watch_interval,
                canary_addresses=_canary_sample(indexes),
            )
        return _run_server(
            engine,
            args.host,
            args.port,
            slow_ms=args.slow_ms,
            trace_capacity=args.trace_ring,
            watcher=watcher,
        )

    if args.command == "snapshot" and args.snapshot_command in ("list", "rollback"):
        # Pure store inspection — no scenario build.
        from repro.serve.store import SnapshotStore, StoreError

        try:
            store = SnapshotStore(args.store, create=False)
            if args.snapshot_command == "rollback":
                restored = store.rollback()
                print(f"rolled back: CURRENT -> generation {restored}")
                return 0
            records = store.generations()
            if not records:
                print(f"{args.store}: no generations published")
                return 0
            current = store.current_id()
            for record in records:
                marker = "*" if record.generation == current else " "
                vendors = ",".join(sorted(record.vendors))
                plane = "plane" if record.plane else "no-plane"
                line = f"{marker} {record.generation:6d}  {vendors}  {plane}"
                if record.rejected:
                    line += f"  REJECTED: {record.reason or 'unknown reason'}"
                print(line)
            return 0
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if args.command == "serve" and args.snapshots:
        # Serving precompiled snapshots skips the scenario build entirely —
        # that is the point of compiling.
        from pathlib import Path

        from repro.serve.engine import ServingEngine
        from repro.serve.plane import PLANE_SUFFIX, load_plane
        from repro.serve.snapshot import SnapshotError, load_index_set

        plane = None
        plane_path = Path(args.snapshots) / f"plane{PLANE_SUFFIX}"
        try:
            # Each file is read once: the plane points into the loaded
            # indexes rather than loading its own copy.
            indexes = load_index_set(args.snapshots)
            if plane_path.is_file():
                plane = load_plane(plane_path, indexes=indexes)
            engine = ServingEngine(
                indexes,
                injector=_chaos_injector(args.chaos_seed),
                plane=plane,
            )
        except (SnapshotError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if plane is not None:
            print(
                f"answer plane: {plane.interval_count} intervals,"
                f" {plane.cell_count} cells",
                file=sys.stderr,
            )
        else:
            print(
                f"answer plane: none in {args.snapshots} — every lookup"
                f" resolves live",
                file=sys.stderr,
            )
        return _run_server(
            engine,
            args.host,
            args.port,
            slow_ms=args.slow_ms,
            trace_capacity=args.trace_ring,
        )

    if args.command == "verify-release":
        # Verification works on released files alone: no scenario build.
        from repro.scenario.artifacts import ArtifactError, verify_release

        try:
            verify_release(args.directory)
        except ArtifactError as exc:
            print(f"FAILED: {exc}")
            return 1
        print("release verified: ground truth re-derives from raw measurements")
        return 0

    if args.command == "compile" and args.stream:
        # Scale-tier compile: streamed world, no materialized scenario.
        from repro.scenario.build import build_scale_tier
        from repro.serve.plane import PLANE_SUFFIX, save_plane
        from repro.serve.snapshot import SnapshotError, save_index_set

        tracer = (
            RequestTrace("compile", listener=StageLogger())
            if args.verbose
            else NOOP_TRACE
        )
        tier = build_scale_tier(interfaces=args.stream, seed=args.seed, tracer=tracer)
        try:
            root = save_index_set(tier.indexes, args.directory)
            save_plane(tier.plane, root / f"plane{PLANE_SUFFIX}")
        except SnapshotError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        stats = tier.stats
        for name, vendor in sorted(stats["vendors"].items()):  # type: ignore[union-attr]
            print(
                f"compiled {name}: {vendor['entries']} entries ->"
                f" {vendor['intervals']} intervals"
            )
        print(
            f"scale tier: {stats['interfaces']} interfaces, {stats['ases']} ASes,"
            f" {stats['blocks']} blocks; plane {stats['plane_intervals']} intervals;"
            f" built in {stats['total_s']:.1f}s, peak RSS"
            f" {int(stats['peak_rss_kb']) // 1024} MB"
        )
        print(f"wrote {len(tier.indexes)} snapshots to {root}")
        return 0

    # Instrumentation is opt-in: --verbose, run --metrics, and trace all
    # need a recording trace; everything else keeps the zero-cost no-op.
    instrumented = (
        args.verbose
        or args.command == "trace"
        or bool(getattr(args, "metrics", None))
    )
    if instrumented:
        tracer = RequestTrace(
            args.command, listener=StageLogger() if args.verbose else None
        )
        metrics = MetricsRegistry()
    else:
        tracer = NOOP_TRACE
        metrics = None

    from repro.scenario.build import build_scenario

    scenario = build_scenario(
        seed=args.seed, scale=args.scale, tracer=tracer, metrics=metrics
    )

    if args.command == "describe":
        print(scenario.describe())
        return 0

    if args.command == "enrich":
        from repro.enrich import EnrichmentPipeline, EventConfig, EventSource
        from repro.loadgen import covered_pool
        from repro.serve.engine import ServingEngine
        from repro.serve.plane import compile_serving_set

        indexes, plane = compile_serving_set(scenario.databases)
        engine = ServingEngine(indexes, plane=plane, metrics=MetricsRegistry())
        source = EventSource(
            covered_pool(indexes),
            EventConfig(
                seed=args.seed,
                rate=args.rate,
                zipf_s=args.zipf_s,
                miss_fraction=args.miss_fraction,
            ),
        )
        pipeline = EnrichmentPipeline(
            engine,
            whois=scenario.internet.whois,
            metrics=MetricsRegistry(),
        )
        try:
            report = pipeline.run(
                source.events(),
                rate=args.rate,
                duration_s=args.duration,
                max_events=args.events,
            )
        except (RuntimeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

        if args.json:
            import json as _json

            print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.render())
        if (
            args.max_p99_ms is not None
            and report.latency_ms.get("p99", 0.0) > args.max_p99_ms
        ):
            print(
                f"GATE FAILED: event p99 {report.latency_ms.get('p99', 0.0):.3f} ms"
                f" > {args.max_p99_ms} ms",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.command == "run":
        from repro.core.pipeline import RouterGeolocationStudy

        study = RouterGeolocationStudy.from_scenario(
            scenario, tracer=tracer, metrics=metrics
        )
        result = study.run()
        report = result.render_markdown() if args.markdown else result.render_summary()
        status = _emit(report, args.output)
        if args.metrics:
            status = max(status, _emit(result.manifest.to_json(), args.metrics))
        return status

    if args.command == "trace":
        from repro.core.pipeline import RouterGeolocationStudy

        RouterGeolocationStudy.from_scenario(
            scenario, tracer=tracer, metrics=metrics
        ).run()
        for root in tracer.to_dict()["spans"]:
            print(render_span_tree(root))
            print()
        print(metrics.render())
        return 0

    if args.command == "export-db":
        from repro.geodb.formats import export_geolite_csv, export_ip2location_csv

        database = scenario.databases[args.database]
        if args.format == "geolite":
            text = export_geolite_csv(database)
        else:
            text = export_ip2location_csv(database)
        return _emit(text, args.output)

    if args.command == "export-ground-truth":
        from repro.groundtruth.io import export_ground_truth_csv

        return _emit(export_ground_truth_csv(scenario.ground_truth), args.output)

    if args.command == "export-artifacts":
        from repro.scenario.artifacts import export_scenario_artifacts

        root = export_scenario_artifacts(scenario, args.directory)
        print(f"wrote release package to {root}")
        return 0

    if args.command == "compile":
        from repro.serve.plane import PLANE_SUFFIX, compile_serving_set, save_plane
        from repro.serve.snapshot import SnapshotError, save_index_set

        indexes, plane = compile_serving_set(scenario.databases)
        try:
            root = save_index_set(indexes, args.directory)
            save_plane(plane, root / f"plane{PLANE_SUFFIX}")
        except SnapshotError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for name, index in sorted(indexes.items()):
            print(
                f"compiled {name}: {index.source_entries} entries ->"
                f" {index.interval_count} intervals"
            )
        print(
            f"compiled answer plane: {plane.interval_count} intervals,"
            f" {plane.cell_count} cells"
        )
        print(f"wrote {len(indexes)} snapshots to {root}")
        return 0

    if args.command == "serve":
        from repro.serve.engine import ServingEngine
        from repro.serve.plane import compile_serving_set

        indexes, plane = compile_serving_set(scenario.databases)
        engine = ServingEngine(
            indexes, injector=_chaos_injector(args.chaos_seed), plane=plane
        )
        return _run_server(
            engine,
            args.host,
            args.port,
            slow_ms=args.slow_ms,
            trace_capacity=args.trace_ring,
        )

    if args.command == "snapshot":  # publish (list/rollback exit earlier)
        from repro.geodb.diff import refresh_snapshot
        from repro.serve.errors import ServeError
        from repro.serve.plane import compile_serving_set
        from repro.serve.store import SnapshotStore

        try:
            store = SnapshotStore(args.store)
            databases = scenario.databases
            if args.months:
                # Drift the vendor tables before compiling, seeded per
                # publish so successive releases diverge like real ones.
                drift_seed = args.seed + 1 + (store.latest_id() or 0)
                databases = {
                    name: refresh_snapshot(
                        database,
                        scenario.internet.gazetteer,
                        months=args.months,
                        seed=drift_seed,
                    )
                    for name, database in sorted(databases.items())
                }
            indexes, plane = compile_serving_set(databases)
            record = store.publish(
                indexes,
                plane,
                metadata={
                    "seed": args.seed,
                    "scale": args.scale,
                    "months": args.months,
                },
            )
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(
            f"published generation {record.generation} to {args.store}"
            f" ({len(indexes)} vendors, with answer plane)"
        )
        return 0

    if args.command == "diff-db":
        from repro.geodb.diff import diff_snapshots, refresh_snapshot

        base = scenario.databases[args.database]
        later = refresh_snapshot(
            base,
            scenario.internet.gazetteer,
            months=args.months,
            seed=args.seed + 1,
        )
        print(diff_snapshots(base, later).render())
        return 0

    raise AssertionError(f"unhandled command: {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
