"""Tests for the metrics registry and its hot-path integrations."""

import threading

import pytest

from repro.geo.rir import RIR
from repro.geodb.database import GeoDatabase, single_prefix
from repro.geodb.record import GeoRecord
from repro.net.registry import (
    DelegationRegistry,
    TeamCymruWhois,
    UnallocatedAddressError,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.prom import render_prometheus


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        metrics = MetricsRegistry()
        metrics.inc("geodb.lookups")
        metrics.inc("geodb.lookups", 2)
        assert metrics.counter("geodb.lookups") == 3

    def test_labels_split_series_and_total_sums_them(self):
        metrics = MetricsRegistry()
        metrics.inc("geodb.lookups", database="A")
        metrics.inc("geodb.lookups", database="B")
        metrics.inc("geodb.lookups", database="B")
        assert metrics.counter("geodb.lookups", database="A") == 1
        assert metrics.counter("geodb.lookups", database="B") == 2
        assert metrics.counter_total("geodb.lookups") == 3

    def test_families_are_name_prefixes(self):
        metrics = MetricsRegistry()
        metrics.inc("geodb.lookups")
        metrics.inc("whois.queries")
        metrics.observe("scenario.latency", 1.0)
        assert metrics.families() == ("geodb", "scenario", "whois")

    def test_histogram_summary(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(2.0)
        summary = histogram.to_dict()
        assert summary["min"] == 1.0 and summary["max"] == 3.0

    def test_snapshot_label_rendering(self):
        metrics = MetricsRegistry()
        metrics.inc("geodb.lookups", database="X")
        metrics.observe("geodb.prefix_length", 24, database="X")
        assert metrics.counters_snapshot() == {"geodb.lookups{database=X}": 1}
        assert "geodb.prefix_length{database=X}" in metrics.histograms_snapshot()

    def test_render_empty(self):
        assert "no metrics" in MetricsRegistry().render()

    def test_histograms_snapshot_quantiles_opt_in(self):
        metrics = MetricsRegistry()
        metrics.observe("serve.latency_ms", 2.0)
        # Default shape stays byte-compatible with the run manifest.
        default = metrics.histograms_snapshot()["serve.latency_ms"]
        assert default == {"count": 1, "sum": 2.0, "min": 2.0, "max": 2.0, "mean": 2.0}
        enriched = metrics.histograms_snapshot(quantiles=True)["serve.latency_ms"]
        assert {"p50", "p90", "p99", "p999"} <= set(enriched)


class TestInspectionRace:
    """Regression for the snapshot-vs-insert race: every read path must
    lock (or copy under the lock), or a /statusz scrape during handler
    inserts raises ``RuntimeError: dictionary changed size``."""

    def test_snapshots_survive_concurrent_fresh_series_inserts(self):
        metrics = MetricsRegistry()
        stop = threading.Event()
        failures: list[BaseException] = []

        def writer():
            # Fresh label values every time: each inc/observe inserts a
            # new dict key, forcing resizes under the readers.
            i = 0
            while not stop.is_set():
                i += 1
                metrics.inc("race.counter", series=i)
                metrics.observe("race.histogram", float(i), series=i)
                metrics.cell("race.cells", series=i)

        def reader():
            try:
                while not stop.is_set():
                    metrics.families()
                    metrics.counters_snapshot()
                    metrics.histograms_snapshot()
                    metrics.counter_total("race.counter")
                    metrics.counter_series()
                    metrics.histogram_series()
                    len(metrics)
            except BaseException as exc:  # noqa: BLE001 - the regression
                failures.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        timer = threading.Timer(1.0, stop.set)
        timer.start()
        for thread in threads:
            thread.join(timeout=30)
        timer.cancel()
        assert not failures


class TestCounterCells:
    def test_cell_feeds_every_registered_name(self):
        metrics = MetricsRegistry()
        cell = metrics.cell("serve.lookups", "plane.hits")
        for _ in range(4):
            cell.add()
        assert metrics.counter("serve.lookups") == 4
        assert metrics.counter("plane.hits") == 4

    def test_cell_and_inc_merge_exactly(self):
        metrics = MetricsRegistry()
        cell = metrics.cell("serve.lookups")
        cell.add(3)
        metrics.inc("serve.lookups", 2)
        assert metrics.counter("serve.lookups") == 5
        assert metrics.counter_total("serve.lookups") == 5
        assert metrics.counters_snapshot()["serve.lookups"] == 5
        assert "serve" in metrics.families()

    def test_cells_with_labels_split_series(self):
        metrics = MetricsRegistry()
        metrics.cell("plane.hits", shard="a").add(2)
        metrics.cell("plane.hits", shard="b").add(1)
        assert metrics.counter("plane.hits", shard="a") == 2
        assert metrics.counter_total("plane.hits") == 3

    def test_cell_requires_a_name(self):
        with pytest.raises(ValueError):
            MetricsRegistry().cell()

    def test_concurrent_cell_adds_are_exact(self):
        metrics = MetricsRegistry()
        cell = metrics.cell("serve.lookups", "plane.hits")
        per_thread, threads = 5000, 8

        def worker():
            for _ in range(per_thread):
                cell.add()

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert metrics.counter("serve.lookups") == per_thread * threads
        assert metrics.counter("plane.hits") == per_thread * threads


class TestWindowTracking:
    def test_matching_incs_feed_the_window(self):
        metrics = MetricsRegistry()
        window = metrics.track_window("requests", "serve.requests")
        metrics.inc("serve.requests", endpoint="lookup")
        metrics.inc("serve.requests", endpoint="batch")
        assert window.total() == 2

    def test_label_filter_excludes_introspection_traffic(self):
        metrics = MetricsRegistry()
        window = metrics.track_window(
            "requests", "serve.requests", endpoint_class="serving"
        )
        metrics.inc("serve.requests", endpoint="lookup", endpoint_class="serving")
        metrics.inc(
            "serve.requests", endpoint="statusz", endpoint_class="introspection"
        )
        assert window.total() == 1

    def test_alias_registration_is_idempotent(self):
        metrics = MetricsRegistry()
        first = metrics.track_window("requests", "serve.requests")
        second = metrics.track_window("requests", "serve.requests")
        assert first is second

    def test_windows_snapshot_lists_aliases(self):
        metrics = MetricsRegistry()
        metrics.track_window("requests", "serve.requests")
        metrics.inc("serve.requests")
        snapshot = metrics.windows_snapshot((10, 60))
        assert snapshot["requests"]["10s"]["total"] == 1.0
        assert metrics.window("requests") is not None
        assert metrics.window("missing") is None


SERVING = {"endpoint": "lookup", "endpoint_class": "serving", "status": 200}
SCRAPE = {"endpoint": "statusz", "endpoint_class": "introspection", "status": 200}


class TestCellFedSeries:
    """A series fed through a cell reads exactly like one fed by ``inc``:
    counters, rolling windows and exposition — whether the windows were
    registered before or after the cell."""

    @staticmethod
    def _fed(feed: str, window_first: bool):
        metrics = MetricsRegistry()

        def track():
            clock = lambda: 500.0  # noqa: E731 - one fixed second
            metrics.track_window(
                "requests", "serve.requests", clock=clock, endpoint_class="serving"
            )
            metrics.track_window("all", "serve.requests", clock=clock)
            metrics.track_window("errors", "serve.errors", clock=clock)

        if window_first:
            track()
        if feed == "cell":
            serving = metrics.cell("serve.requests", **SERVING).add
            scrape = metrics.cell("serve.requests", **SCRAPE).add
        else:
            serving = lambda: metrics.inc("serve.requests", **SERVING)  # noqa: E731
            scrape = lambda: metrics.inc("serve.requests", **SCRAPE)  # noqa: E731
        if not window_first:
            track()
        for _ in range(3):
            serving()
        scrape()
        return (
            metrics.counters_snapshot(),
            metrics.windows_snapshot(),
            render_prometheus(metrics),
        )

    @pytest.mark.parametrize("window_first", [True, False])
    def test_cell_and_inc_read_the_same(self, window_first):
        by_inc = self._fed("inc", window_first)
        by_cell = self._fed("cell", window_first)
        assert by_cell == by_inc
        windows = by_cell[1]
        assert windows["requests"]["10s"]["total"] == 3.0
        assert windows["all"]["10s"]["total"] == 4.0
        assert windows["errors"]["10s"]["total"] == 0.0

    def test_multi_name_cell_feeds_each_matching_window_once(self):
        metrics = MetricsRegistry()
        lookups = metrics.track_window("lookups", "serve.lookups")
        cell = metrics.cell("serve.lookups", "plane.hits")
        hits = metrics.track_window("hits", "plane.hits")
        cell.add(2)
        assert (lookups.total(), hits.total()) == (2, 2)

    def test_observer_and_observe_read_the_same(self):
        labels = {"endpoint": "lookup", "endpoint_class": "serving"}
        by_observe, by_observer = MetricsRegistry(), MetricsRegistry()
        observe = by_observer.observer("serve.latency_ms", **labels)
        for value in (0.2, 1.5, 1.5, 40.0):
            by_observe.observe("serve.latency_ms", value, **labels)
            observe(value)
        assert by_observer.histograms_snapshot(
            quantiles=True
        ) == by_observe.histograms_snapshot(quantiles=True)
        assert render_prometheus(by_observer) == render_prometheus(by_observe)


@pytest.fixture()
def tiny_database() -> GeoDatabase:
    record = GeoRecord(country="US", city="Denver", latitude=39.7, longitude=-105.0)
    return GeoDatabase("Tiny", [single_prefix("10.0.0.0/24", record)])


class TestGeoDatabaseCounters:
    def test_lookups_and_misses_accumulate(self, tiny_database):
        metrics = MetricsRegistry()
        tiny_database.attach_metrics(metrics)
        assert tiny_database.lookup("10.0.0.1") is not None
        assert tiny_database.lookup("10.0.0.2") is not None
        assert tiny_database.lookup("192.168.0.1") is None
        assert metrics.counter("geodb.lookups", database="Tiny") == 3
        assert metrics.counter("geodb.misses", database="Tiny") == 1
        assert (
            metrics.counter("geodb.resolution", database="Tiny", resolution="city")
            == 2
        )

    def test_prefix_length_histogram(self, tiny_database):
        metrics = MetricsRegistry()
        tiny_database.attach_metrics(metrics)
        tiny_database.lookup("10.0.0.1")
        summary = metrics.histograms_snapshot()["geodb.prefix_length{database=Tiny}"]
        assert summary == {"count": 1, "sum": 24, "min": 24, "max": 24, "mean": 24}

    def test_unattached_database_records_nothing(self, tiny_database):
        # The default state: no registry, no counting, same answers.
        assert tiny_database.lookup("10.0.0.1") is not None
        metrics = MetricsRegistry()
        assert len(metrics) == 0

    def test_detach_restores_uninstrumented_path(self, tiny_database):
        metrics = MetricsRegistry()
        tiny_database.attach_metrics(metrics)
        tiny_database.lookup("10.0.0.1")
        tiny_database.attach_metrics(None)
        tiny_database.lookup("10.0.0.1")
        assert metrics.counter("geodb.lookups", database="Tiny") == 1


class TestWhoisCounters:
    def test_queries_and_unallocated(self):
        registry = DelegationRegistry()
        delegation = registry.allocate(
            RIR.ARIN, asn=65000, registered_country="us", organization="ExampleNet"
        )
        metrics = MetricsRegistry()
        whois = TeamCymruWhois(registry, metrics=metrics)
        whois.lookup(delegation.prefix.network_address)
        with pytest.raises(UnallocatedAddressError):
            whois.lookup("203.0.113.1")
        assert metrics.counter("whois.queries") == 2
        assert metrics.counter("whois.unallocated") == 1

    def test_bulk_lookup_counts_each_query(self):
        registry = DelegationRegistry()
        delegation = registry.allocate(
            RIR.ARIN, asn=65000, registered_country="us", organization="ExampleNet"
        )
        metrics = MetricsRegistry()
        whois = TeamCymruWhois(registry)
        whois.attach_metrics(metrics)
        base = int(delegation.prefix.network_address)
        whois.bulk_lookup([base, base + 1, base + 2])
        assert metrics.counter("whois.queries") == 3
        assert metrics.counter("whois.bulk_queries") == 1


class TestCallbackGauges:
    def test_gauges_read_live_state_at_scrape_time(self):
        metrics = MetricsRegistry()
        state = {"value": 1.0}
        metrics.register_gauge("serve.generation_id", lambda: state["value"])
        assert metrics.gauges_snapshot() == {"serve.generation_id": 1.0}
        state["value"] = 7.0
        assert metrics.gauges_snapshot() == {"serve.generation_id": 7.0}

    def test_labels_split_gauge_series(self):
        metrics = MetricsRegistry()
        metrics.register_gauge("pool.size", lambda: 3.0, pool="read")
        metrics.register_gauge("pool.size", lambda: 5.0, pool="write")
        snapshot = metrics.gauges_snapshot()
        assert snapshot["pool.size{pool=read}"] == 3.0
        assert snapshot["pool.size{pool=write}"] == 5.0

    def test_reregistering_replaces_the_callback(self):
        metrics = MetricsRegistry()
        metrics.register_gauge("serve.generation_id", lambda: 1.0)
        metrics.register_gauge("serve.generation_id", lambda: 2.0)
        assert metrics.gauges_snapshot() == {"serve.generation_id": 2.0}

    def test_a_raising_callback_is_skipped_not_fatal(self):
        metrics = MetricsRegistry()
        metrics.register_gauge("bad.gauge", lambda: 1 / 0)
        metrics.register_gauge("good.gauge", lambda: 4.0)
        assert metrics.gauges_snapshot() == {"good.gauge": 4.0}

    def test_callbacks_run_outside_the_registry_lock(self):
        """A gauge whose callback touches the registry again must not
        deadlock a scrape — the engine's gauges read locked state."""
        metrics = MetricsRegistry()
        metrics.register_gauge(
            "meta.counter_count", lambda: float(len(metrics))
        )
        assert "meta.counter_count" in metrics.gauges_snapshot()

    def test_gauges_count_toward_len_and_families(self):
        metrics = MetricsRegistry()
        metrics.register_gauge("serve.generation_age_s", lambda: 0.5)
        assert len(metrics) == 1
        assert "serve" in metrics.families()
