"""The end-to-end study: every §4/§5/§6 analysis in one run.

:class:`RouterGeolocationStudy` takes the datasets a researcher would
assemble (database snapshots, the Ark-topo-router address list, the two
ground-truth sets, a whois service, a gazetteer) and produces a
:class:`StudyResult` holding every artifact of the paper's evaluation:
coverage, consistency, the city-range calibration, Table 1, the accuracy
breakdowns behind Figures 2–5, the ARIN case study, and the
recommendations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.core.accuracy import (
    DatabaseAccuracy,
    evaluate_all,
    evaluate_by_country,
    evaluate_by_rir,
    evaluate_by_source,
    top_countries,
)
from repro.core.arincase import ArinCaseStudy, arin_case_study
from repro.core.cityrange import CityRangeCalibration, calibrate_city_range
from repro.core.consistency import ConsistencyReport, consistency_analysis
from repro.core.coverage import CoverageReport, coverage_table
from repro.core.frame import LookupFrame
from repro.core.recommendations import Recommendation, build_recommendations
from repro.core.report import (
    percent,
    render_cdf_grid,
    render_table,
    render_table_markdown,
)
from repro.geo.gazetteer import Gazetteer
from repro.geo.rir import RIR, RIR_ORDER
from repro.geodb.database import GeoDatabase
from repro.groundtruth.record import GroundTruthSet, GroundTruthSource, merge_ground_truth
from repro.groundtruth.stats import GroundTruthRow, table1
from repro.net.ip import IPv4Address
from repro.net.registry import TeamCymruWhois
from repro.obs.manifest import RunManifest, sha256_digest
from repro.obs.metrics import MetricsRegistry
from repro.obs.reqtrace import NOOP_TRACE, RequestTrace

DEFAULT_CITY_RANGE_KM = 40.0


@dataclass(frozen=True, slots=True)
class StudyResult:
    """Everything the paper's evaluation sections report."""

    coverage: Mapping[str, CoverageReport]
    consistency: ConsistencyReport
    city_range: CityRangeCalibration
    table1_rows: tuple[GroundTruthRow, GroundTruthRow]
    overall: Mapping[str, DatabaseAccuracy]
    by_rir: Mapping[RIR, Mapping[str, DatabaseAccuracy]]
    top20: tuple[tuple[str, int], ...]
    by_country: Mapping[str, Mapping[str, DatabaseAccuracy]]
    by_source: Mapping[GroundTruthSource, Mapping[str, DatabaseAccuracy]]
    arin_cases: Mapping[str, ArinCaseStudy]
    recommendations: tuple[Recommendation, ...]
    city_range_km: float
    #: Telemetry of the run that produced this result; ``None`` on
    #: uninstrumented runs (the zero-cost default).
    manifest: RunManifest | None = None

    def render_summary(self) -> str:
        """A multi-section text report mirroring the paper's evaluation."""
        sections = []

        sections.append(
            render_table(
                ["database", "country cov", "city cov"],
                [
                    [r.database, percent(r.country_rate), percent(r.city_rate)]
                    for r in sorted(self.coverage.values(), key=lambda r: r.database)
                ],
                title="== Coverage over Ark-topo-router (§5.1) ==",
            )
        )

        pair_rows = [
            [f"{p.database_a} vs {p.database_b}", p.compared, percent(p.rate)]
            for p in self.consistency.country_pairs
        ]
        pair_rows.append(
            [
                "ALL databases agree",
                self.consistency.all_agree_compared,
                percent(self.consistency.all_agree_rate),
            ]
        )
        sections.append(
            render_table(
                ["pair", "compared", "agreement"],
                pair_rows,
                title="== Country-level pairwise agreement (§5.1) ==",
            )
        )

        sections.append(
            render_cdf_grid(
                {
                    f"{p.database_a} vs {p.database_b}": p.ecdf
                    for p in self.consistency.city_pairs
                },
                title=(
                    "== Figure 1: pairwise coordinate distance over the "
                    f"{self.consistency.city_subset_size}-address all-city subset =="
                ),
            )
        )

        sections.append(
            "== Table 1: ground-truth datasets ==\n"
            + "\n".join(row.render() for row in self.table1_rows)
        )

        sections.append(
            render_table(
                ["database", "country acc", "country cov", "city acc", "city cov"],
                [
                    [
                        a.database,
                        percent(a.country_accuracy),
                        percent(a.country_coverage),
                        percent(a.city_accuracy),
                        percent(a.city_coverage),
                    ]
                    for a in sorted(self.overall.values(), key=lambda a: a.database)
                ],
                title="== Ground-truth accuracy (§5.2.1) ==",
            )
        )

        sections.append(
            render_cdf_grid(
                {name: a.city_error_ecdf for name, a in self.overall.items()},
                title="== Figure 2: geolocation error vs ground truth ==",
            )
        )

        rir_rows = []
        for rir in RIR_ORDER:
            results = self.by_rir.get(rir)
            if not results:
                continue
            for name in sorted(results):
                accuracy = results[name]
                rir_rows.append(
                    [
                        rir.value,
                        name,
                        accuracy.country_covered,
                        percent(1 - accuracy.country_accuracy),
                        percent(accuracy.city_accuracy),
                        percent(accuracy.city_coverage),
                    ]
                )
        sections.append(
            render_table(
                ["RIR", "database", "n", "country err", "city acc", "city cov"],
                rir_rows,
                title="== Figure 3 / Figure 5: regional breakdown (§5.2.2) ==",
            )
        )

        country_rows = []
        for country, count in self.top20:
            results = self.by_country.get(country, {})
            country_rows.append(
                [country, count]
                + [
                    percent(results[name].country_accuracy) if name in results else "-"
                    for name in sorted(self.overall)
                ]
            )
        sections.append(
            render_table(
                ["country", "n"] + sorted(self.overall),
                country_rows,
                title="== Figure 4: country-level accuracy, top-20 countries ==",
            )
        )

        source_rows = []
        for source, results in self.by_source.items():
            for name in sorted(results):
                accuracy = results[name]
                source_rows.append(
                    [
                        source.value,
                        name,
                        percent(accuracy.city_accuracy),
                        percent(accuracy.city_coverage),
                    ]
                )
        sections.append(
            render_table(
                ["ground truth", "database", "city acc", "city cov"],
                source_rows,
                title="== §5.2.4: accuracy by ground-truth source ==",
            )
        )

        sections.append(
            "== Recommendations (§6) ==\n"
            + "\n".join(r.render() for r in self.recommendations)
        )
        return "\n\n".join(sections)

    def render_markdown(self) -> str:
        """A publication-ready Markdown report of the key results."""
        sections = ["# Router geolocation study report", ""]

        sections.append(
            render_table_markdown(
                ["database", "country coverage", "city coverage"],
                [
                    [r.database, percent(r.country_rate), percent(r.city_rate)]
                    for r in sorted(self.coverage.values(), key=lambda r: r.database)
                ],
                title="Coverage over the router-interface population",
            )
        )

        pair_rows = [
            [f"{p.database_a} vs {p.database_b}", percent(p.rate)]
            for p in self.consistency.country_pairs
        ] + [["all databases agree", percent(self.consistency.all_agree_rate)]]
        sections.append(
            render_table_markdown(
                ["pair", "country agreement"],
                pair_rows,
                title="Cross-database consistency",
            )
        )

        sections.append(
            render_table_markdown(
                ["database", "country accuracy", "city accuracy", "city coverage",
                 "median city error"],
                [
                    [
                        a.database,
                        percent(a.country_accuracy),
                        percent(a.city_accuracy),
                        percent(a.city_coverage),
                        (
                            f"{a.city_error_ecdf.median():.0f} km"
                            if a.city_error_ecdf.n
                            else "—"
                        ),
                    ]
                    for a in sorted(self.overall.values(), key=lambda a: a.database)
                ],
                title="Accuracy against ground truth",
            )
        )

        rir_rows = []
        for rir in RIR_ORDER:
            results = self.by_rir.get(rir)
            if not results:
                continue
            for name in sorted(results):
                accuracy = results[name]
                rir_rows.append(
                    [
                        rir.value,
                        name,
                        percent(accuracy.country_accuracy),
                        percent(accuracy.city_accuracy),
                    ]
                )
        sections.append(
            render_table_markdown(
                ["RIR", "database", "country accuracy", "city accuracy"],
                rir_rows,
                title="Regional breakdown",
            )
        )

        sections.append("### Recommendations\n")
        for recommendation in self.recommendations:
            sections.append(f"- {recommendation.text}")
        return "\n\n".join(sections)


class RouterGeolocationStudy:
    """Runs the full evaluation over assembled datasets.

    ``tracer`` (a :class:`~repro.obs.reqtrace.RequestTrace`) and
    ``metrics`` opt the run into observability: every analysis stage
    gets a span row, the databases and whois service emit
    ``geodb.*``/``whois.*`` counters, and the produced
    :class:`StudyResult` carries a :class:`~repro.obs.manifest.RunManifest`.
    Both default to no-ops, so an uninstrumented run executes the exact
    pre-observability code path.
    """

    def __init__(
        self,
        *,
        databases: Mapping[str, GeoDatabase],
        ark_addresses: Sequence[IPv4Address],
        dns_ground_truth: GroundTruthSet,
        rtt_ground_truth: GroundTruthSet,
        whois: TeamCymruWhois,
        gazetteer: Gazetteer,
        city_range_km: float = DEFAULT_CITY_RANGE_KM,
        case_study_database: str = "MaxMind-Paid",
        tracer: RequestTrace | None = None,
        metrics: MetricsRegistry | None = None,
        scenario_config=None,
    ):
        if not databases:
            raise ValueError("at least one database is required")
        if city_range_km <= 0:
            raise ValueError(f"city range must be positive: {city_range_km!r}")
        if case_study_database not in databases:
            raise ValueError(
                f"case-study database {case_study_database!r} is not one of "
                f"{sorted(databases)}"
            )
        self.databases = dict(databases)
        self.ark_addresses = list(ark_addresses)
        self.dns_ground_truth = dns_ground_truth
        self.rtt_ground_truth = rtt_ground_truth
        self.ground_truth = merge_ground_truth(dns_ground_truth, rtt_ground_truth)
        self.whois = whois
        self.gazetteer = gazetteer
        self.city_range_km = city_range_km
        #: Which database §5.2.3's ARIN case study examines by default
        #: (the paper singles out MaxMind-Paid); ``run(all_databases=True)``
        #: studies every snapshot instead.
        self.case_study_database = case_study_database
        self.tracer = tracer if tracer is not None else NOOP_TRACE
        self.metrics = metrics
        self.scenario_config = scenario_config
        #: The study pool's lookup frame, built on the first run.
        self._frame: LookupFrame | None = None
        if metrics is not None:
            for database in self.databases.values():
                database.attach_metrics(metrics)
            whois.attach_metrics(metrics)

    @classmethod
    def from_scenario(
        cls,
        scenario,
        *,
        tracer: RequestTrace | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "RouterGeolocationStudy":
        """Build from a :class:`repro.scenario.build.Scenario`."""
        return cls(
            databases=scenario.databases,
            ark_addresses=scenario.ark_dataset.addresses,
            dns_ground_truth=scenario.dns_ground_truth.dataset,
            rtt_ground_truth=scenario.rtt_ground_truth.dataset,
            whois=scenario.internet.whois,
            gazetteer=scenario.internet.gazetteer,
            tracer=tracer,
            metrics=metrics,
            scenario_config=scenario.config,
        )

    def _manifest_config(self) -> dict:
        config = {"city_range_km": self.city_range_km}
        if self.scenario_config is not None:
            config["seed"] = self.scenario_config.seed
            config["scale"] = self.scenario_config.scale
            config["routing"] = self.scenario_config.routing
        config["databases"] = sorted(self.databases)
        config["case_study_database"] = self.case_study_database
        return config

    def _build_manifest(self, result: "StudyResult") -> RunManifest:
        digests = {
            "summary_sha256": sha256_digest(result.render_summary()),
            "markdown_sha256": sha256_digest(result.render_markdown()),
        }
        tracer = self.tracer
        return RunManifest.build(
            config=self._manifest_config(),
            spans=() if tracer is NOOP_TRACE else tracer.to_dict()["spans"],
            metrics=self.metrics,
            digests=digests,
        )

    def lookup_frame(self) -> LookupFrame:
        """The study's shared lookup frame, building it on first use.

        This is the one place the study pool is resolved: every address
        any stage reads, i.e. the Ark interface population plus the
        merged ground-truth addresses.
        """
        if self._frame is None:
            self._frame = LookupFrame.build(
                self.databases,
                [*self.ark_addresses, *self.ground_truth.addresses()],
                tracer=self.tracer,
                metrics=self.metrics,
            )
        return self._frame

    def run(self, *, all_databases: bool = False) -> StudyResult:
        """Execute every analysis (a few seconds at default scales).

        The ARIN case study (§5.2.3) runs only over
        ``self.case_study_database`` unless ``all_databases=True``.
        Every stage reads the shared :meth:`lookup_frame`.
        """
        tracer = self.tracer
        ground_truth = self.ground_truth
        city_range_km = self.city_range_km
        with tracer.span("run") as run_span:
            frame = self.lookup_frame()
            with tracer.span("coverage") as span:
                coverage = coverage_table(frame, self.ark_addresses)
                span.set(items=len(self.ark_addresses))
            with tracer.span("consistency") as span:
                consistency = consistency_analysis(frame, self.ark_addresses)
                span.set(items=len(self.ark_addresses))
            with tracer.span("city_range") as span:
                city_range = calibrate_city_range(
                    self.databases, self.gazetteer, city_range_km
                )
                span.set(city_range_km=city_range_km)
            with tracer.span("table1") as span:
                table1_rows = table1(
                    self.dns_ground_truth, self.rtt_ground_truth, self.whois
                )
                span.set(items=len(ground_truth))
            with tracer.span("accuracy_overall") as span:
                overall = evaluate_all(frame, ground_truth, city_range_km=city_range_km)
                span.set(items=len(ground_truth))
            with tracer.span("accuracy_by_rir") as span:
                by_rir = evaluate_by_rir(
                    frame, ground_truth, self.whois, city_range_km=city_range_km
                )
                span.set(rirs=len(by_rir))
            with tracer.span("accuracy_by_country") as span:
                top20 = top_countries(ground_truth, 20)
                by_country = evaluate_by_country(
                    frame,
                    ground_truth,
                    countries=tuple(country for country, _ in top20),
                    city_range_km=city_range_km,
                )
                span.set(items=len(by_country))
            with tracer.span("accuracy_by_source") as span:
                by_source = evaluate_by_source(
                    frame, ground_truth, city_range_km=city_range_km
                )
                span.set(sources=len(by_source))
            with tracer.span("arin_case_study") as span:
                case_names = (
                    list(self.databases)
                    if all_databases
                    else [self.case_study_database]
                )
                arin_cases = {
                    name: arin_case_study(
                        name,
                        ground_truth,
                        self.whois,
                        city_range_km=city_range_km,
                        frame=frame,
                    )
                    for name in case_names
                }
                span.set(items=len(arin_cases))
            with tracer.span("recommendations") as span:
                recommendations = build_recommendations(
                    coverage, overall, by_rir, by_source
                )
                span.set(items=len(recommendations))
            run_span.set(databases=len(self.databases))

        result = StudyResult(
            coverage=coverage,
            consistency=consistency,
            city_range=city_range,
            table1_rows=table1_rows,
            overall=overall,
            by_rir=by_rir,
            top20=top20,
            by_country=by_country,
            by_source=by_source,
            arin_cases=arin_cases,
            recommendations=recommendations,
            city_range_km=self.city_range_km,
        )
        if tracer is not NOOP_TRACE or self.metrics is not None:
            result = replace(result, manifest=self._build_manifest(result))
        return result
