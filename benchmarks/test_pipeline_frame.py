"""End-to-end study wall-time over the shared columnar frame.

The columnar :class:`~repro.core.frame.LookupFrame` exists for exactly
one reason: the study asks every database the same per-address question
from ten stages, and the frame answers it once.  This benchmark first
checks the rendered study against a result assembled from the
brute-force oracle in ``tests/core/study_oracle.py``, then records the
study's wall time in ``BENCH_pipeline.json`` (section
``pipeline_frame``).

Timings are best-of-N with an explicit warm-up pass: on the 1-core CI
box a single-shot measurement is dominated by GC scheduling and
allocator noise, not by the code under test.
"""

from __future__ import annotations

import gc
import pathlib
import sys
import time

from repro.core.pipeline import RouterGeolocationStudy

# The oracle lives in the test suite; make the repo root importable when
# pytest puts only ``benchmarks/`` on the path.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests.core import study_oracle  # noqa: E402

RUNS = 5


def best_of(runs: int, run) -> float:
    """Seconds for one call, best of ``runs`` (noise floor)."""
    best = float("inf")
    for _ in range(runs):
        gc.collect()
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def test_pipeline_frame(scenario, record_perf):
    study = RouterGeolocationStudy.from_scenario(scenario)

    # Result identity first (and warm-up: whois memo, lazy ground-truth
    # ordering, interpreter caches): a fast divergent pipeline is a bug.
    result = study.run()
    expected = study_oracle.study_result(study)
    assert result.render_summary() == expected.render_summary()
    assert result.render_markdown() == expected.render_markdown()

    frame_s = best_of(RUNS, study.run)

    record_perf(
        "pipeline_frame",
        {
            "pool_addresses": len(study.lookup_frame()),
            "databases": len(scenario.databases),
            "frame_s": round(frame_s, 4),
        },
    )
