"""One compile repeat, run as its own process.

Usage: ``python perfbench/compile_child.py SEED INTERFACES OUT_DIR SPANS_JSON|-``

Compiles the streamed scale tier (world, four vendor indexes plus the
derived GeoLite, answer plane), saves it as ``.rgix``/``.rgpl``, loads
it back and checks the reload against what was compiled.  Prints one
JSON line: wall time of the compile, the plane's size and the
snapshots' SHA-256 digests.  With a spans path, the compile phases run
under span wrappers.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    seed, interfaces, out = int(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3])
    spans_out = sys.argv[4]

    import hashlib
    import json

    import world

    world.require_program()
    world.pin_to_one_cpu()
    recorder = None
    if spans_out != "-":
        from spans import SpanRecorder, install_compile_spans

        recorder = SpanRecorder()
        install_compile_spans(recorder)
    import repro.serve.plane as plane_mod
    import repro.serve.snapshot as snapshot_mod
    from repro.scenario.build import build_scale_tier

    started = time.perf_counter()
    tier = build_scale_tier(interfaces=interfaces, seed=seed)
    plane_path = out / f"plane{plane_mod.PLANE_SUFFIX}"
    snapshot_mod.save_index_set(tier.indexes, out)
    plane_mod.save_plane(tier.plane, plane_path)
    loaded = snapshot_mod.load_index_set(out)
    plane = plane_mod.load_plane(plane_path)
    run_s = time.perf_counter() - started

    problems = []
    if sorted(loaded) != sorted(tier.indexes):
        problems.append(f"reloaded vendors {sorted(loaded)} != {sorted(tier.indexes)}")
    for name, index in tier.indexes.items():
        if name in loaded and loaded[name].parts() != index.parts():
            problems.append(f"reloaded {name} index differs from the compiled one")
    if plane.parts()[:2] != tier.plane.parts()[:2]:
        problems.append("reloaded answer plane differs from the compiled one")
    files = sorted(p for p in out.iterdir() if p.suffix in (".rgix", ".rgpl"))
    print(json.dumps({
        "run_s": run_s,
        "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
        "problems": problems,
    }))
    if recorder is not None:
        recorder.dump(spans_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
