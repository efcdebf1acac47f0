"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lookup-zipf --seed 1 --seconds 10 --trace 0

Workloads: ``lookup-zipf``, ``batch-uniform`` and ``enrich-firehose``
(see ``perfbench/README.md``).  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics from a
traced run.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (each ``{"value": ..., "unit": ...}``).  The exit code
is 0 when the outputs checked out correct, 1 otherwise, and 2 when the
workload could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compiling  # noqa: E402
import serving  # noqa: E402
import world  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("lookup-zipf", "batch-uniform", "enrich-firehose")


def _enrich(seed: int, seconds: float, trace: bool) -> dict:
    snapshots = world.snapshot_dir()
    out = world.CACHE / "enrich-result.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(world.SRC))
    done = subprocess.run(
        [sys.executable, str(HERE / "enrich_child.py"), str(snapshots), str(seed),
         str(seconds), "1" if trace else "0", str(out)],
        cwd=world.ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0 or not out.is_file():
        raise RuntimeError(f"enrichment workload failed: {done.stderr[-2000:]}")
    result = json.loads(out.read_text())
    out.unlink()
    if trace:
        # The compile layers ride on this workload's traced run: it has
        # no HTTP, and it builds the same streamed world in its set-up.
        layers = compiling.traced_layers()
        result["problems"] += layers["problems"]
        result["correct"] = result["correct"] and not layers["problems"]
        result["lines"] += layers["lines"]
        result["metrics"].update(layers["metrics"])
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    world.require_program()
    if name == "lookup-zipf":
        return serving.run(serving.LOOKUP, seed, seconds, trace)
    if name == "batch-uniform":
        return serving.run(serving.BATCH, seed, seconds, trace)
    return _enrich(seed, seconds, trace)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2

    catalogue = PER_LAYER if args.trace else END_TO_END
    measured = result["metrics"]
    missing = [name for name in measured if name not in catalogue]
    if missing:
        raise AssertionError(f"metrics outside the catalogue: {missing}")
    if not args.trace and set(measured) != set(END_TO_END):
        raise AssertionError(f"end-to-end metrics missing: {set(END_TO_END) - set(measured)}")
    for line in result["lines"]:
        print(line)
    for problem in result["problems"]:
        print(f"INCORRECT: {problem}")
    for name, unit in catalogue.items():
        print(f"{name} = {float(measured.get(name, 0.0)):.6g} {unit}")
    print(f"correct = {str(result['correct']).lower()}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(measured.get(name, 0.0)), "unit": unit}
            for name, unit in catalogue.items()
        },
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
