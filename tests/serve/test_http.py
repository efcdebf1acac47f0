"""The HTTP JSON API: endpoints, error handling, metrics, shutdown."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricsRegistry, RequestTrace, RunManifest
from repro.serve import GeoServer, ServingEngine
from repro.serve.engine import ResiliencePolicy
from repro.serve.http import MAX_BATCH_SIZE


@pytest.fixture(scope="module")
def server(compiled_indexes):
    server = GeoServer(
        ServingEngine(compiled_indexes), port=0, metrics=MetricsRegistry()
    )
    server.start_background()
    yield server
    server.stop()


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def post(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def post_batch(server, ips, request_id):
    """Raw ``/batch`` response bytes, sent under a fixed request id."""
    request = urllib.request.Request(
        server.url + "/batch",
        data=json.dumps({"ips": ips}).encode("utf-8"),
        headers={"Content-Type": "application/json", "X-Request-Id": request_id},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        assert response.status == 200
        return response.read()


def error_of(call):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        call()
    body = json.loads(excinfo.value.read().decode("utf-8"))
    return excinfo.value.code, body


class TestEndpoints:
    def test_healthz(self, server, small_scenario):
        status, body = get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert set(body["databases"]) == set(small_scenario.databases)

    def test_lookup_reports_answers_and_consensus(self, server, small_scenario):
        errors = server.metrics.counter_total("serve.errors")
        # An Ark interface, then addresses from MISS_PREFIX (240.0.0.0/8),
        # which no vendor covers: a miss is a 200 with every answer null.
        covered = str(small_scenario.ark_dataset.addresses[0])
        uncovered = ["240.0.0.1", "240.17.3.9", "240.255.255.254"]
        for address in [covered, *uncovered]:
            status, body = get(server, f"/lookup?ip={address}")
            assert status == 200
            assert body["ip"] == address
            assert set(body["answers"]) == set(small_scenario.databases)
            for name, database in small_scenario.databases.items():
                record = database.lookup(address)
                answer = body["answers"][name]
                if record is None:
                    assert answer is None
                else:
                    assert answer["country"] == record.country
                    assert answer["resolution"] == record.resolution.value
                    assert "prefix" in answer
            consensus = body["consensus"]
            assert {"country", "voters", "country_disagreement",
                    "city_disagreement"} <= set(consensus)
            if address in uncovered:
                assert set(body["answers"].values()) == {None}
        # Uncovered traffic is not a serving error.
        assert server.metrics.counter_total("serve.errors") == errors

    def test_batch_preserves_order_and_inlines_bad_addresses(
        self, server, small_scenario
    ):
        addresses = [str(a) for a in small_scenario.ark_dataset.addresses[:5]]
        payload = {"ips": addresses[:2] + ["garbage"] + addresses[2:]}
        status, body = post(server, "/batch", payload)
        assert status == 200
        assert body["count"] == 6
        assert [r["ip"] for r in body["results"]] == payload["ips"]
        assert "error" in body["results"][2]
        assert "not an IPv4 address" in body["results"][2]["error"]
        for result in body["results"][:2] + body["results"][3:]:
            assert set(result["answers"]) == set(small_scenario.databases)

    def test_batch_refuses_a_json_bool_per_item(self, server):
        status, body = post(server, "/batch", {"ips": [True, 1]})
        assert status == 200
        assert body["results"][0] == {
            "ip": "True",
            "error": "not an IPv4 address: True",
        }
        assert body["results"][1]["ip"] == "0.0.0.1"

    def test_statusz_exposes_serve_metrics(self, server):
        get(server, "/lookup?ip=41.0.0.2")
        status, body = get(server, "/statusz")
        assert status == 200
        assert "serve" in body["families"]
        assert any(name.startswith("serve.requests") for name in body["counters"])
        assert any(name.startswith("serve.latency_ms") for name in body["histograms"])
        assert "cache" not in body

    def test_statusz_without_plane_reports_null(self, server):
        _, body = get(server, "/statusz")
        assert body["plane"] is None

    def test_statusz_reports_plane_stats_and_hits(
        self, compiled_indexes, answer_plane
    ):
        engine = ServingEngine(compiled_indexes, plane=answer_plane)
        server = GeoServer(engine, port=0, metrics=MetricsRegistry())
        server.start_background()
        try:
            get(server, "/lookup?ip=41.0.0.2")
            _, body = get(server, "/statusz")
            plane = body["plane"]
            assert plane["active"] is True
            assert set(plane["vendors"]) == set(compiled_indexes)
            assert plane["intervals"] >= plane["cells"] > 0
            assert any(
                name.startswith("plane.hits") for name in body["counters"]
            )
        finally:
            server.stop()


class TestTelemetry:
    def test_metricsz_serves_valid_prometheus_text(self, server):
        get(server, "/lookup?ip=41.0.0.2")
        request = urllib.request.Request(server.url + "/metricsz")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            assert "version=0.0.4" in response.headers["Content-Type"]
            text = response.read().decode("utf-8")
        from repro.obs import validate_exposition

        assert validate_exposition(text) == []
        assert "repro_serve_requests_total" in text
        assert "repro_serve_latency_ms_bucket" in text
        assert "repro_serve_latency_ms_p50" in text
        assert "repro_serve_latency_ms_p99" in text

    def test_latency_is_recorded_before_the_response_is_sent(self, compiled_indexes):
        # A fresh server, so its one /lookup is the only latency sample.
        server = GeoServer(
            ServingEngine(compiled_indexes), port=0, metrics=MetricsRegistry()
        )
        server.start_background()
        try:
            get(server, "/lookup?ip=41.0.0.2")
            # No sleep or retry: the sample must exist once the client
            # holds the response.
            counts = {
                dict(labels)["endpoint"]: series["count"]
                for name, labels, series in server.metrics.histogram_series()
                if name == "serve.latency_ms"
            }
        finally:
            server.stop()
        assert counts == {"lookup": 1}

    def test_lookup_mints_and_echoes_a_trace_id(self, server):
        request = urllib.request.Request(server.url + "/lookup?ip=41.0.0.2")
        with urllib.request.urlopen(request, timeout=10) as response:
            header_id = response.headers["X-Request-Id"]
            body = json.loads(response.read().decode("utf-8"))
        assert header_id
        assert body["trace_id"] == header_id

    def test_client_request_id_is_honoured(self, server):
        request = urllib.request.Request(
            server.url + "/lookup?ip=41.0.0.2",
            headers={"X-Request-Id": "client-id-42"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["X-Request-Id"] == "client-id-42"
            body = json.loads(response.read().decode("utf-8"))
        assert body["trace_id"] == "client-id-42"

    def test_hostile_request_id_is_replaced(self, server):
        request = urllib.request.Request(
            server.url + "/lookup?ip=41.0.0.2",
            headers={"X-Request-Id": "x" * 200},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            minted = response.headers["X-Request-Id"]
        assert minted != "x" * 200
        assert len(minted) == 16

    def test_tracez_returns_span_trees_with_path_attribution(self, server):
        get(server, "/lookup?ip=41.0.0.2")
        post(server, "/batch", {"ips": ["41.0.0.2", "41.0.0.3"]})
        status, body = get(server, "/tracez")
        assert status == 200
        assert body["capacity"] >= body["count"] > 0
        trace = body["slowest"][0]
        assert {"trace_id", "endpoint", "path", "status", "duration_ms",
                "spans"} <= set(trace)
        paths = {t["path"] for t in body["slowest"]}
        # This server runs live (no plane): every lookup resolves.
        assert paths <= {"live", "degraded", "mixed", None}
        resolved = [
            t for t in body["slowest"]
            if t["spans"] and t["spans"][0]["name"] in ("resolve", "batch")
        ]
        assert resolved

    def test_tracez_span_nodes_have_the_run_manifest_shape(self, server):
        def walk(nodes):
            for node in nodes:
                yield node
                yield from walk(node.get("children", ()))

        status, _ = get(server, "/lookup?ip=41.0.0.2")
        assert status == 200
        _, body = get(server, "/tracez")
        served = [
            node
            for trace in body["slowest"]
            if trace["spans"] and trace["spans"][0]["name"] == "resolve"
            for node in walk(trace["spans"])
        ]
        study = RequestTrace("run")
        with study.span("run", databases=4):
            with study.span("coverage") as span:
                span.set(items=687)
        manifest = RunManifest.build(config={}, spans=study.to_dict()["spans"])
        recorded = list(walk(json.loads(manifest.to_json())["spans"]))
        # A resolve row with its vendor probes and a study stage with its
        # children: parents and leaves, each with attributes.
        assert served and recorded
        assert {frozenset(node) for node in served} == {
            frozenset(node) for node in recorded
        } == {
            frozenset({"name", "start_ms", "duration_ms", "attrs", "children"}),
            frozenset({"name", "start_ms", "duration_ms", "attrs"}),
        }

    def test_plane_server_attributes_requests_to_the_plane(
        self, compiled_indexes, answer_plane
    ):
        engine = ServingEngine(compiled_indexes, plane=answer_plane)
        server = GeoServer(engine, port=0, metrics=MetricsRegistry())
        server.start_background()
        try:
            get(server, "/lookup?ip=41.0.0.2")
            _, body = get(server, "/tracez")
            assert body["slowest"][0]["path"] == "plane"
            (span,) = body["slowest"][0]["spans"]
            assert span["name"] == "plane.probe"
        finally:
            server.stop()

    def test_statusz_reports_rolling_windows(self, compiled_indexes):
        # A fresh server, so the 10s window holds exactly these lookups.
        server = GeoServer(
            ServingEngine(compiled_indexes), port=0, metrics=MetricsRegistry()
        )
        server.start_background()
        try:
            sent = 40
            for i in range(sent):
                get(server, f"/lookup?ip=41.0.{i}.2")
            _, body = get(server, "/statusz")
        finally:
            server.stop()
        windows = body["windows"]
        assert {"aliases", "rates"} <= set(windows)
        assert windows["aliases"]["requests"]["10s"]["total"] >= 1
        for span in ("10s", "60s"):
            assert set(windows["rates"][span]) == {
                "rps", "error_rate", "plane_hit_ratio"}
        rates = windows["rates"]["10s"]
        assert rates["rps"] > 0
        assert rates["error_rate"] == 0.0
        # The server's window total (rps × 10) agrees with the client.
        assert abs(rates["rps"] * 10.0 - sent) <= 0.25 * sent, (rates, sent)

    def test_statusz_histograms_carry_quantiles(self, server):
        get(server, "/lookup?ip=41.0.0.2")
        _, body = get(server, "/statusz")
        latency = next(
            summary
            for name, summary in body["histograms"].items()
            if name.startswith("serve.latency_ms") and summary["count"]
        )
        assert {"p50", "p90", "p99", "p999"} <= set(latency)

    def test_introspection_traffic_is_labelled_and_windowed_out(self, server):
        before = server.metrics.window("requests").total()
        for _ in range(3):
            get(server, "/statusz")
        _, body = get(server, "/statusz")
        assert any(
            "endpoint=statusz" in name and "endpoint_class=introspection" in name
            for name in body["counters"]
            if name.startswith("serve.requests")
        )
        # Scrape traffic must not move the serving-request window.
        assert server.metrics.window("requests").total() == before

    def test_slow_request_log_names_the_trace(self, compiled_indexes, capfd):
        engine = ServingEngine(compiled_indexes)
        server = GeoServer(
            engine, port=0, metrics=MetricsRegistry(), slow_ms=0.0
        )
        server.start_background()
        try:
            request = urllib.request.Request(
                server.url + "/lookup?ip=41.0.0.2",
                headers={"X-Request-Id": "slow-probe-1"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                response.read()
            import time as timelib

            deadline = timelib.monotonic() + 5.0
            captured = ""
            while timelib.monotonic() < deadline:
                captured += capfd.readouterr().err
                if "slow request:" in captured:
                    break
                timelib.sleep(0.02)
            assert "slow request:" in captured
            assert "trace=slow-probe-1" in captured
            assert "endpoint=lookup" in captured
        finally:
            server.stop()


class TestErrors:
    def test_lookup_without_ip_is_400(self, server):
        code, body = error_of(lambda: get(server, "/lookup"))
        assert code == 400 and "ip=" in body["error"]

    def test_lookup_invalid_ip_is_400(self, server):
        code, body = error_of(lambda: get(server, "/lookup?ip=not-an-ip"))
        assert code == 400
        assert "not an IPv4 address" in body["error"]

    def test_unknown_path_is_404(self, server):
        code, body = error_of(lambda: get(server, "/nope"))
        assert code == 404 and "no such endpoint" in body["error"]

    def test_batch_requires_ips_list(self, server):
        code, body = error_of(lambda: post(server, "/batch", {"addresses": []}))
        assert code == 400 and "ips" in body["error"]

    def test_batch_rejects_invalid_json(self, server):
        request = urllib.request.Request(
            server.url + "/batch", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_oversized_batch_rejected(self, server):
        from repro.serve.http import MAX_BATCH_SIZE

        code, body = error_of(
            lambda: post(server, "/batch", {"ips": ["1.1.1.1"] * (MAX_BATCH_SIZE + 1)})
        )
        assert code == 413 and "batch too large" in body["error"]

    def test_errors_are_counted(self, server):
        error_of(lambda: get(server, "/lookup?ip=zzz"))
        _, body = get(server, "/statusz")
        assert any(
            name.startswith("serve.errors") for name in body["counters"]
        )


class TestBatchSplice:
    """``/batch`` answers each healthy address straight from its plane
    cell and resolves the rest live; either way the counts are exact."""

    @staticmethod
    def mixed_batch(small_scenario):
        """``(ips, k + m)``: k covered Ark interfaces, m class-E misses
        (answered by a plane cell whose every vendor is null) and
        j = 3 invalid entries, interleaved."""
        covered = [str(a) for a in small_scenario.ark_dataset.addresses[:7]]
        class_e = ["240.0.0.1", "240.17.3.9", "240.255.255.254"]
        invalid = ["garbage", "300.1.2.3", None]
        ips = covered[:3] + invalid[:1] + class_e[:2] + covered[3:]
        ips += invalid[1:] + class_e[2:]
        return ips, len(covered) + len(class_e)

    @staticmethod
    def served(engine, metrics):
        server = GeoServer(engine, port=0, metrics=metrics)
        server.start_background()
        return server

    @staticmethod
    def batch_size(metrics):
        histogram = metrics.histograms_snapshot().get("serve.batch_size", {})
        return histogram.get("count", 0), histogram.get("sum", 0)

    def test_plane_items_are_counted_exactly_under_one_span(
        self, compiled_indexes, answer_plane, small_scenario
    ):
        ips, valid = self.mixed_batch(small_scenario)
        metrics = MetricsRegistry()
        server = self.served(
            ServingEngine(compiled_indexes, plane=answer_plane), metrics
        )
        try:
            lookups = metrics.counter("serve.lookups")
            hits = metrics.counter("plane.hits")
            batches = metrics.counter("serve.batch_lookups")
            sizes, total = self.batch_size(metrics)
            body = json.loads(post_batch(server, ips, "splice-plane"))
            assert metrics.counter("serve.lookups") - lookups == valid
            assert metrics.counter("plane.hits") - hits == valid
            assert metrics.counter("plane.fallbacks") == 0
            assert metrics.counter("serve.batch_lookups") - batches == 1
            assert self.batch_size(metrics) == (sizes + 1, total + valid)

            results = body["results"]
            assert [item.get("error") is not None for item in results] == [
                ip in ("garbage", "300.1.2.3", None) for ip in ips
            ]
            assert all("degraded" not in item for item in results)

            _, tracez = get(server, "/tracez")
            (trace,) = [
                t for t in tracez["slowest"] if t["trace_id"] == "splice-plane"
            ]
            assert trace["path"] == "plane"
            (span,) = trace["spans"]
            assert span["name"] == "plane.batch"
            assert span["attrs"] == {"size": valid}
        finally:
            server.stop()

    def test_quarantined_vendor_answers_the_batch_live(
        self, compiled_indexes, answer_plane, small_scenario
    ):
        ips, valid = self.mixed_batch(small_scenario)
        metrics = MetricsRegistry()
        engine = ServingEngine(
            compiled_indexes,
            plane=answer_plane,
            policy=ResiliencePolicy(cooldown_s=3600.0, cooldown_max_s=3600.0),
        )
        server = self.served(engine, metrics)
        try:
            victim = sorted(compiled_indexes)[1]
            for _ in range(ResiliencePolicy().quarantine_threshold):
                engine._record_failure(victim, RuntimeError("backend down"))
            lookups = metrics.counter("serve.lookups")
            hits = metrics.counter("plane.hits")
            sizes, total = self.batch_size(metrics)
            body = json.loads(post_batch(server, ips, "splice-degraded"))
            assert metrics.counter("serve.lookups") - lookups == valid
            assert metrics.counter("plane.hits") == hits
            assert metrics.counter("plane.fallbacks") == valid
            assert self.batch_size(metrics) == (sizes + 1, total + valid)

            answered = [item for item in body["results"] if "answers" in item]
            assert len(answered) == valid
            for item in answered:
                assert item["degraded"] is True
                assert item["degraded_vendors"] == [victim]
                assert item["answers"][victim] is None

            _, tracez = get(server, "/tracez")
            (trace,) = [
                t for t in tracez["slowest"] if t["trace_id"] == "splice-degraded"
            ]
            assert trace["path"] == "degraded"
            batch, *resolves = trace["spans"]
            assert batch["name"] == "batch"
            assert batch["attrs"]["size"] == valid
            assert [span["name"] for span in resolves] == ["resolve"] * valid
        finally:
            server.stop()

    def test_full_size_batch_bodies_match_on_plane_and_live(
        self, compiled_indexes, answer_plane, small_scenario
    ):
        """The largest accepted batch renders the same bytes from plane
        cells as from the live resolve path."""
        pool = [str(a) for a in small_scenario.ark_dataset.addresses]
        pool += ["240.0.0.1", "garbage"]
        ips = [pool[i % len(pool)] for i in range(MAX_BATCH_SIZE)]
        bodies = []
        for engine in (
            ServingEngine(compiled_indexes, plane=answer_plane),
            ServingEngine(compiled_indexes),
        ):
            server = self.served(engine, MetricsRegistry())
            try:
                bodies.append(post_batch(server, ips, "full-size"))
            finally:
                server.stop()
        plane_body, live_body = bodies
        assert json.loads(plane_body)["count"] == MAX_BATCH_SIZE
        assert plane_body == live_body


class TestLifecycle:
    def test_stop_releases_the_port(self, compiled_indexes):
        server = GeoServer(ServingEngine(compiled_indexes), port=0)
        thread = server.start_background()
        port = server.port
        assert get(server, "/healthz")[0] == 200
        server.stop()
        thread.join(timeout=10)
        assert not thread.is_alive()
        # The port is free again: a new server can bind it immediately.
        rebound = GeoServer(ServingEngine(compiled_indexes), port=port)
        rebound.server_close()

    def test_stop_closes_the_engine(self, compiled_indexes):
        engine = ServingEngine(compiled_indexes)
        server = GeoServer(engine, port=0)
        server.start_background()
        post(server, "/batch", {"ips": ["41.0.0.2", "41.0.0.3", "41.0.0.4"]})
        assert not engine.closed
        server.stop()
        assert engine.closed  # server_close closed the engine too

    def test_concurrent_requests(self, server, small_scenario):
        """The threaded server answers parallel lookups without mixing
        responses up."""
        import concurrent.futures

        addresses = [str(a) for a in small_scenario.ark_dataset.addresses[:40]]

        def fetch(address):
            return address, get(server, f"/lookup?ip={address}")[1]["ip"]

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            for sent, received in pool.map(fetch, addresses):
                assert sent == received

    def test_edge_series_stay_exact_under_contention(self, compiled_indexes):
        """Handler threads racing to resolve the same fresh label sets
        get one series each, and no count or window add is lost."""
        import sys
        import threading

        metrics = MetricsRegistry()
        server = GeoServer(ServingEngine(compiled_indexes), port=0, metrics=metrics)
        edge, threads, rounds = server.edge, 8, 300
        start = threading.Barrier(threads)

        def hammer():
            start.wait(timeout=10)
            for i in range(rounds):
                edge.response("lookup", (200, 404)[i % 2])
                edge.path("plane", "lookup")
                edge.latency("lookup", 1.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
            server.server_close()
        total, labels = threads * rounds, {"endpoint": "lookup"}
        serving = {**labels, "endpoint_class": "serving"}
        assert metrics.counter("serve.requests", **serving, status=200) == total // 2
        assert metrics.counter("serve.requests", **serving, status=404) == total // 2
        assert metrics.counter("serve.errors", **serving) == total // 2
        assert metrics.counter("serve.path", path="plane", **labels) == total
        edge_cells = [
            cells
            for (name, _), cells in metrics._cells.items()
            if name in ("serve.requests", "serve.errors", "serve.path")
        ]
        assert [len(cells) for cells in edge_cells] == [1] * 4  # one per label set
        windows = metrics.windows_snapshot()
        assert windows["requests"]["60s"]["total"] == total
        assert windows["errors"]["60s"]["total"] == total // 2
        assert windows["path_plane"]["60s"]["total"] == total
        (latency,) = metrics.histograms_snapshot().values()
        assert latency["count"] == total


class TestGenerationObservability:
    def test_statusz_reports_the_serving_generation(self, server):
        _, body = get(server, "/statusz")
        generation = body["generation"]
        assert generation["id"] == 0  # booted directly, never swapped
        assert generation["source"] == "boot"
        assert generation["age_s"] >= 0.0
        assert generation["swaps"] == 0
        assert generation["rollbacks"] == 0

    def test_metricsz_exposes_generation_gauges(self, server):
        request = urllib.request.Request(server.url + "/metricsz")
        with urllib.request.urlopen(request, timeout=10) as response:
            text = response.read().decode("utf-8")
        from repro.obs import validate_exposition

        assert validate_exposition(text) == []
        assert "# TYPE repro_serve_generation_id gauge" in text
        assert "repro_serve_generation_id 0" in text
        assert "# TYPE repro_serve_generation_age_s gauge" in text

    def test_store_swap_is_visible_end_to_end(
        self, tmp_path, compiled_indexes, answer_plane
    ):
        """The lifecycle the CLI wires up: a store-backed server whose
        watcher hot-swaps a freshly published generation, visible on
        /statusz and /metricsz without a restart."""
        from repro.serve import SnapshotStore, StoreWatcher

        store = SnapshotStore(tmp_path / "store")
        store.publish(compiled_indexes, answer_plane)
        record, indexes, plane = store.load(store.current_id())
        engine = ServingEngine(
            indexes,
            plane=plane,
            generation_id=record.generation,
            generation_source="store",
        )
        watcher = StoreWatcher(store, engine, interval_s=3600.0)
        server = GeoServer(engine, port=0, metrics=MetricsRegistry())
        watcher.attach_metrics(server.metrics)
        watcher.attach_trace_sink(server.traces)
        server.start_background()
        try:
            _, body = get(server, "/statusz")
            assert body["generation"]["id"] == 1
            assert body["generation"]["source"] == "store"

            store.publish(compiled_indexes, answer_plane)
            assert watcher.poll_once() == "swapped"

            _, body = get(server, "/statusz")
            assert body["generation"]["id"] == 2
            assert body["generation"]["swaps"] == 1
            with urllib.request.urlopen(
                server.url + "/metricsz", timeout=10
            ) as response:
                text = response.read().decode("utf-8")
            assert "repro_serve_generation_id 2" in text
            assert "repro_serve_generation_swaps_total 1" in text
        finally:
            server.stop()
        # server.stop() → engine.close() → the watcher is dead too.
        assert engine.closed
        assert watcher._thread is None
