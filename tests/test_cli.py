"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import main

ARGS = ["--seed", "3", "--scale", "0.02"]


class TestCli:
    def test_describe(self, capsys):
        assert main(ARGS + ["describe"]) == 0
        out = capsys.readouterr().out
        assert "SyntheticInternet" in out
        assert "Ground truth" in out

    def test_run_prints_report(self, capsys):
        assert main(ARGS + ["run"]) == 0
        out = capsys.readouterr().out
        assert "Coverage over Ark-topo-router" in out
        assert "Recommendations" in out

    def test_run_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(ARGS + ["run", "-o", str(target)]) == 0
        assert "Figure 2" in target.read_text()
        assert "wrote" in capsys.readouterr().out

    def test_run_markdown(self, capsys):
        assert main(ARGS + ["run", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Router geolocation study report")
        assert "| database |" in out

    def test_run_has_no_workers_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(ARGS + ["run", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_export_db_geolite(self, capsys):
        assert main(ARGS + ["export-db", "NetAcuity"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("network,country_iso_code")

    def test_export_db_ip2location_to_file(self, tmp_path, capsys):
        target = tmp_path / "db.csv"
        assert (
            main(ARGS + ["export-db", "IP2Location-Lite", "--format", "ip2location",
                         "-o", str(target)])
            == 0
        )
        first_line = target.read_text().splitlines()[0]
        assert first_line.startswith('"')  # quoted integer ranges

    def test_export_ground_truth(self, capsys):
        assert main(ARGS + ["export-ground-truth"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("address,latitude,longitude")
        assert "dns-based" in out or "rtt-proximity" in out

    def test_diff_db(self, capsys):
        assert main(ARGS + ["diff-db", "MaxMind-Paid", "--months", "12"]) == 0
        out = capsys.readouterr().out
        assert "unchanged" in out and "moved" in out

    def test_export_artifacts(self, tmp_path, capsys):
        target = tmp_path / "release"
        assert main(ARGS + ["export-artifacts", str(target)]) == 0
        assert (target / "MANIFEST.txt").exists()
        assert (target / "databases" / "NetAcuity.csv").exists()
        assert "release package" in capsys.readouterr().out

    def test_verify_release(self, tmp_path, capsys):
        target = tmp_path / "rel"
        assert main(ARGS + ["export-artifacts", str(target)]) == 0
        capsys.readouterr()
        assert main(["verify-release", str(target)]) == 0
        assert "verified" in capsys.readouterr().out

    def test_verify_release_failure_exit_code(self, tmp_path, capsys):
        assert main(["verify-release", str(tmp_path / "missing")]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_unknown_database_rejected(self):
        with pytest.raises(SystemExit):
            main(ARGS + ["export-db", "NotADatabase"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["--seed", "1"])


class TestCliServing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_compile_writes_loadable_snapshots(self, tmp_path, capsys):
        target = tmp_path / "snapshots"
        assert main(ARGS + ["compile", str(target)]) == 0
        out = capsys.readouterr().out
        assert "wrote 4 snapshots" in out
        assert "intervals" in out

        from repro.serve import load_index_set

        indexes = load_index_set(target)
        assert set(indexes) == {
            "IP2Location-Lite", "MaxMind-GeoLite", "MaxMind-Paid", "NetAcuity",
        }

    def test_compile_writes_a_loadable_answer_plane(self, tmp_path, capsys):
        target = tmp_path / "snapshots"
        assert main(ARGS + ["compile", str(target)]) == 0
        assert "compiled answer plane" in capsys.readouterr().out

        from repro.serve import ServingEngine, load_index_set, load_plane

        plane = load_plane(target / "plane.rgpl")
        engine = ServingEngine(load_index_set(target), plane=plane)
        assert engine.plane_stats()["active"] is True
        assert engine.lookup_plane("1.2.3.4") is not None

    def test_serve_without_plane_file_announces_live_fallback(
        self, tmp_path, capsys, monkeypatch
    ):
        """A snapshot directory with no plane.rgpl still serves — every
        lookup on the live path, with the same answers — and says so."""
        import repro.cli as cli
        from repro.serve import ServingEngine, load_index_set, load_plane

        target = tmp_path / "snapshots"
        assert main(ARGS + ["compile", str(target)]) == 0
        indexes = load_index_set(target)
        plane_engine = ServingEngine(
            indexes, plane=load_plane(target / "plane.rgpl")
        )
        (target / "plane.rgpl").unlink()
        capsys.readouterr()

        served = []
        monkeypatch.setattr(
            cli, "_run_server", lambda engine, *a, **k: served.append(engine) or 0
        )
        assert main(["serve", "--snapshots", str(target), "--port", "0"]) == 0
        assert (
            f"answer plane: none in {target} — every lookup resolves live"
            in capsys.readouterr().err
        )
        (engine,) = served
        assert engine.plane_stats() is None
        starts = sorted({s for index in indexes.values() for s in index.parts()[0]})
        for addr in [*starts[:: max(1, len(starts) // 200)], 0xF0000001]:
            assert engine.lookup_outcome(addr) == plane_engine.lookup_outcome(addr)

    def test_serve_rejects_missing_snapshot_dir(self, tmp_path, capsys):
        assert main(["serve", "--snapshots", str(tmp_path / "absent")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_smoke_over_subprocess(self, tmp_path, capsys):
        """The CI smoke, in miniature: compile, start ``repro serve`` on an
        ephemeral port, hit every endpoint, shut down with SIGINT."""
        import json as jsonlib
        import os
        import signal
        import subprocess
        import sys as syslib
        import urllib.request

        target = tmp_path / "snapshots"
        assert main(ARGS + ["compile", str(target)]) == 0
        capsys.readouterr()

        env = dict(os.environ)
        root = pathlib.Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [syslib.executable, "-m", "repro", "serve",
             "--snapshots", str(target), "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline().strip()
            port = int(banner.rsplit(":", 1)[1])
            base = f"http://127.0.0.1:{port}"
            health = jsonlib.load(urllib.request.urlopen(f"{base}/healthz", timeout=10))
            assert health["status"] == "ok"
            lookup = jsonlib.load(
                urllib.request.urlopen(f"{base}/lookup?ip=1.2.3.4", timeout=10)
            )
            assert set(lookup["answers"]) == set(health["databases"])
            statusz = jsonlib.load(urllib.request.urlopen(f"{base}/statusz", timeout=10))
            assert "serve" in statusz["families"]
            # compile wrote plane.rgpl, so the server booted with it live.
            assert statusz["plane"]["active"] is True
        finally:
            proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 0
        assert "shut down cleanly" in proc.stdout.read()


class TestCliObservability:
    def test_run_metrics_writes_valid_manifest(self, tmp_path, capsys):
        target = tmp_path / "manifest.json"
        assert main(ARGS + ["run", "--metrics", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        manifest = json.loads(target.read_text())
        assert {"geodb", "scenario", "whois"} <= set(manifest["counter_families"])
        assert manifest["config"]["seed"] == 3
        span_names = {span["name"] for span in manifest["spans"]}
        assert span_names == {"build_scenario", "run"}
        assert manifest["version"] == 2
        (run,) = [span for span in manifest["spans"] if span["name"] == "run"]
        assert {child["name"] for child in run["children"]} >= {
            "frame_build", "coverage", "recommendations",
        }
        assert set(run) == {"name", "start_ms", "duration_ms", "attrs", "children"}

    def test_trace_prints_span_tree_with_shares(self, capsys):
        assert main(ARGS + ["trace"]) == 0
        out = capsys.readouterr().out
        for stage in (
            "coverage", "consistency", "city_range", "table1",
            "accuracy_overall", "accuracy_by_rir", "accuracy_by_country",
            "accuracy_by_source", "arin_case_study", "recommendations",
        ):
            assert stage in out
        assert "100.0%" in out and "ms" in out
        assert "geodb.lookups" in out

    def test_verbose_logs_stages_to_stderr(self, capsys):
        assert main(ARGS + ["--verbose", "run"]) == 0
        captured = capsys.readouterr()
        assert "[repro]" in captured.err
        assert "run:" in captured.err
        # The report itself still goes to stdout, uncontaminated.
        assert "Recommendations" in captured.out
        assert "[repro]" not in captured.out

    def test_run_bad_output_path_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "report.txt"
        assert main(ARGS + ["run", "-o", str(target)]) == 1
        assert "error: cannot write" in capsys.readouterr().err

    def test_run_bad_metrics_path_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "manifest.json"
        assert main(ARGS + ["run", "--metrics", str(target)]) == 1
        captured = capsys.readouterr()
        assert "error: cannot write" in captured.err
        # The report was still printed before the manifest write failed.
        assert "Recommendations" in captured.out

    def test_export_db_bad_output_path_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "db.csv"
        assert main(ARGS + ["export-db", "NetAcuity", "-o", str(target)]) == 1
        assert "error: cannot write" in capsys.readouterr().err


class TestSnapshotCommand:
    def test_publish_list_rollback_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(ARGS + ["snapshot", "publish", store]) == 0
        assert "published generation 1" in capsys.readouterr().out
        assert main(ARGS + ["snapshot", "publish", store, "--months", "6"]) == 0
        assert "published generation 2" in capsys.readouterr().out

        assert main(ARGS + ["snapshot", "list", store]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("*")  # generation 2 is CURRENT
        assert "plane" in lines[0]

        assert main(ARGS + ["snapshot", "rollback", store]) == 0
        assert "generation 1" in capsys.readouterr().out
        assert main(ARGS + ["snapshot", "list", store]) == 0
        assert capsys.readouterr().out.strip().splitlines()[0].startswith("*")

    def test_list_labels_a_generation_without_plane(self, tmp_path, capsys):
        """Generations published without a plane (older stores) still
        list, labelled so an operator knows they serve live."""
        from repro.serve import SnapshotStore

        store = str(tmp_path / "store")
        assert main(ARGS + ["snapshot", "publish", store]) == 0
        _, indexes, _ = SnapshotStore(store).load(1)
        SnapshotStore(store).publish(indexes, None)
        capsys.readouterr()
        assert main(ARGS + ["snapshot", "list", store]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith("  plane")
        assert lines[1].endswith("  no-plane")

    def test_rollback_without_history_exits_1(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(ARGS + ["snapshot", "publish", store]) == 0
        capsys.readouterr()
        assert main(ARGS + ["snapshot", "rollback", store]) == 1
        assert "nothing to roll back" in capsys.readouterr().err

    def test_serve_store_requires_a_published_generation(
        self, tmp_path, capsys
    ):
        store = tmp_path / "store"
        (store / "generations").mkdir(parents=True)
        assert main(ARGS + ["serve", "--store", str(store)]) == 1
        err = capsys.readouterr().err
        assert "snapshot publish" in err

    def test_serve_refuses_store_plus_snapshots(self, tmp_path, capsys):
        assert (
            main(
                ARGS
                + [
                    "serve",
                    "--store",
                    str(tmp_path / "a"),
                    "--snapshots",
                    str(tmp_path / "b"),
                ]
            )
            == 1
        )
        assert "--store" in capsys.readouterr().err

    def test_compile_stream_writes_scale_tier_snapshots(self, tmp_path, capsys):
        target = tmp_path / "tier"
        assert main(["--seed", "3", "compile", str(target), "--stream", "15000"]) == 0
        out = capsys.readouterr().out
        assert "scale tier: 15000 interfaces" in out
        assert "peak RSS" in out
        assert "wrote 4 snapshots" in out

        from repro.serve import load_index_set, load_plane

        indexes = load_index_set(target)
        assert set(indexes) == {
            "IP2Location-Lite", "MaxMind-GeoLite", "MaxMind-Paid", "NetAcuity",
        }
        assert load_plane(target / "plane.rgpl").interval_count > 0

    def test_enrich_in_process(self, capsys):
        assert (
            main(
                ARGS
                + [
                    "enrich",
                    "--rate", "400",
                    "--duration", "1",
                    "--json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["offered"] == 400
        assert report["enriched"] == 400
        assert report["errors"] == 0
        assert report["latency_ms"]["p99"] > 0.0
        assert report["drift"]["inspected"] == 400
        assert report["drift"]["suppressed"] == 0

    def test_enrich_event_count_and_render(self, capsys):
        assert (
            main(ARGS + ["enrich", "--rate", "2000", "--events", "150"]) == 0
        )
        out = capsys.readouterr().out
        assert "enrichment firehose" in out
        assert "offered 150 · enriched 150" in out

    def test_enrich_gate_failure_exits_1(self, capsys):
        assert (
            main(
                ARGS
                + [
                    "enrich",
                    "--rate", "400",
                    "--events", "100",
                    "--max-p99-ms", "0.000001",
                ]
            )
            == 1
        )
        assert "GATE FAILED" in capsys.readouterr().err

    def test_enrich_has_no_linger_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(ARGS + ["enrich", "--events", "10", "--linger-ms", "5"])
        assert excinfo.value.code == 2
        assert "--linger-ms" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--policy", "--batch-size", "--queue", "--max-shed"]
    )
    def test_enrich_has_no_queue_or_shed_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(ARGS + ["enrich", "--events", "10", flag, "1"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
