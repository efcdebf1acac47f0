"""Shared benchmark fixtures: one paper-scale scenario per session.

Every benchmark regenerates one of the paper's tables or figures: it
times the analysis, asserts the qualitative *shape* the paper reports
(who wins, roughly by how much, where the crossovers are), and writes the
rendered artifact to ``benchmarks/output/`` so the reproduction can be
inspected next to the paper.

``REPRO_BENCH_SCALE`` (default 0.3) controls the world size; 1.0 builds
the full default world (~35 K interfaces) at a few minutes of setup.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
import time

import pytest

from repro.core.pipeline import RouterGeolocationStudy, StudyResult
from repro.scenario.build import Scenario, build_scenario

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.3"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2016"))

_OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: The tracked perf trajectory (repo root): what successive changes
#: compare against.  A run never writes it; a change that records new
#: numbers copies ``_BENCH_JSON`` over it.
_TRACKED_BENCH_JSON = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
)

#: Per-benchmark wall-times land here, in the ignored output directory,
#: seeded from the tracked file, so a benchmark run leaves the tree clean.
_BENCH_JSON = _OUTPUT_DIR / "BENCH_pipeline.json"

_wall_times: dict[str, float] = {}

#: Named result sections benchmarks attach via ``record_perf`` (e.g. the
#: lookup-throughput numbers) — merged into the run's BENCH_pipeline.json
#: alongside the wall-times.
_extra_sections: dict[str, object] = {}


def _environment_block() -> dict[str, object]:
    """Where this run's numbers came from — perf trajectories are only
    comparable across runs when the machine and interpreter match."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "perf_counter_resolution_s": time.get_clock_info("perf_counter").resolution,
        "gil_enabled": getattr(sys, "_is_gil_enabled", lambda: True)(),
    }


def pytest_runtest_logreport(report):
    """Collect the call-phase wall-time of every benchmark that ran."""
    if report.when == "call" and report.passed:
        _wall_times[report.nodeid.split("::", 1)[-1]] = round(report.duration, 4)


def pytest_sessionfinish(session, exitstatus):
    """Merge this run's results into the perf snapshot under
    ``benchmarks/output/``.

    Merging (rather than overwriting) lets a partial run — say, only the
    lookup-throughput benchmark — refresh its own numbers without erasing
    the rest of the trajectory.  The first run merges into a copy of the
    tracked ``BENCH_pipeline.json``; later runs into their own output.
    """
    if not _wall_times and not _extra_sections:
        return
    source = _BENCH_JSON if _BENCH_JSON.exists() else _TRACKED_BENCH_JSON
    try:
        payload = json.loads(source.read_text())
    except (OSError, json.JSONDecodeError):
        payload = {}
    payload["scale"] = BENCH_SCALE
    payload["seed"] = BENCH_SEED
    payload["environment"] = _environment_block()
    wall_times = dict(payload.get("wall_times_s", {}))
    wall_times.update(_wall_times)
    payload["wall_times_s"] = dict(sorted(wall_times.items()))
    payload.update(_extra_sections)
    _OUTPUT_DIR.mkdir(exist_ok=True)
    _BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture()
def record_perf():
    """Attach one named result section to the run's BENCH_pipeline.json."""

    def _record(key: str, value) -> None:
        _extra_sections[key] = value

    return _record


@pytest.fixture(scope="session")
def scenario() -> Scenario:
    return build_scenario(seed=BENCH_SEED, scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def study(scenario) -> RouterGeolocationStudy:
    return RouterGeolocationStudy.from_scenario(scenario)


@pytest.fixture(scope="session")
def result(study) -> StudyResult:
    return study.run(all_databases=True)


@pytest.fixture(scope="session")
def one_ms_dataset(scenario):
    """A Giotsas-et-al.-like 1 ms-RTT-proximity dataset, collected in a
    *later*, independent measurement round (§3.1/§3.2 validation data)."""
    import random

    from repro.atlas import run_builtin_measurements
    from repro.groundtruth import RttProximityConfig, build_rtt_ground_truth

    rng = random.Random(BENCH_SEED + 777)
    measurements = run_builtin_measurements(
        scenario.internet, scenario.probes, scenario.atlas_targets, rng
    )
    return build_rtt_ground_truth(
        measurements, scenario.probes, RttProximityConfig(threshold_ms=1.0)
    )


@pytest.fixture(scope="session")
def artifact_dir() -> pathlib.Path:
    _OUTPUT_DIR.mkdir(exist_ok=True)
    return _OUTPUT_DIR


@pytest.fixture()
def write_artifact(artifact_dir):
    """Write one experiment's rendered output next to the bench results."""

    def _write(name: str, text: str) -> None:
        filename = name if "." in name else f"{name}.txt"
        (artifact_dir / filename).write_text(text + "\n")

    return _write
