"""The compile layers, measured in the traced run of ``enrich-firehose``.

A compile repeat is a fresh process (:mod:`compile_child`): the streamed
scale tier at :data:`INTERFACES` interfaces, saved and reloaded.  One
untraced and one traced repeat must write byte-identical snapshots,
equal to the digests an earlier run of the same program (the same
:func:`world.source_digest`) recorded in this checkout.  The world is
the fixed :data:`world.WORLD_SEED` one.

A ``compile-stream`` workload with end-to-end metrics of its own was
tried and dropped: the pure-CPU compile ran up to 1.8x slower in some
runs than in others on a shared two-CPU machine (10-run spread 0.27 to
0.29 of the median), beyond any regression bound the benchmark may set.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import world
from spans import SpanSummary, load_rows

INTERFACES = 25_000
CHILD = Path(__file__).resolve().parent / "compile_child.py"
VENDORS = ("IP2Location-Lite", "MaxMind-GeoLite", "MaxMind-Paid", "NetAcuity")


def _repeat(spans_out: Path | None = None) -> dict:
    out = world.CACHE / "compile-out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(world.SRC))
    try:
        done = subprocess.run(
            [sys.executable, str(CHILD), str(world.WORLD_SEED), str(INTERFACES), str(out),
             str(spans_out) if spans_out else "-"],
            cwd=world.ROOT, env=env, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"compile repeat failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _digest_problems(repeats: list[dict]) -> list[str]:
    problems = [p for r in repeats for p in r["problems"]]
    digests = [r["sha256"] for r in repeats]
    if any(d != digests[0] for d in digests):
        problems.append("repeats wrote different snapshot bytes")
    record = world.CACHE / (
        f"compile-sha256-{world.WORLD_SEED}-{INTERFACES}-{world.source_digest()}.json"
    )
    if record.is_file():
        if json.loads(record.read_text()) != digests[0]:
            problems.append("snapshot digests differ from an earlier run")
    else:
        record.write_text(json.dumps(digests[0]))
    return problems


def traced_layers() -> dict:
    """Per-layer compile metrics from one untraced and one traced compile
    (``problems``, ``lines`` and ``metrics``, as the workloads return)."""
    world.CACHE.mkdir(exist_ok=True)
    plain = _repeat()
    spans_out = world.CACHE / "spans-compile.json"
    traced = _repeat(spans_out)
    summary = SpanSummary(load_rows(str(spans_out)))
    spans_out.unlink()
    problems = _digest_problems([plain, traced])
    metrics = {
        "topology.stream.world_s": summary.total_ns["topology.stream.world"] / 1e9,
        "serve.index.compile_entries_s":
            summary.total_ns["serve.index.compile_entries"] / 1e9,
        "serve.plane.compile_plane_s": summary.total_ns["serve.plane.compile_plane"] / 1e9,
        "serve.snapshot.save_s": (summary.total_ns["serve.snapshot.save_index_set"]
                                  + summary.total_ns["serve.snapshot.save_plane"]) / 1e9,
    }
    for vendor in VENDORS:
        metrics[f"serve.index.compile_entries_s.{vendor}"] = (
            summary.by_ident_ns[("serve.index.compile_entries", vendor)] / 1e9
        )
    return {
        "problems": problems,
        "lines": [f"compile of {INTERFACES} interfaces: run_s {traced['run_s']:.3f}"
                  f" traced vs {plain['run_s']:.3f} untraced"],
        "metrics": metrics,
    }
