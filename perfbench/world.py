"""The served world and the seeded inputs drawn from it.

The serving workloads and the enrichment workload all run against one
fixed world: the streamed scale tier at :data:`SERVE_INTERFACES`
interfaces and :data:`WORLD_SEED`, compiled to ``.rgix``/``.rgpl``
snapshots.  The compile happens once per checkout and is cached under
``.perfbench/`` keyed by a digest of every source file, so a changed
program never reuses a stale build.  ``--seed`` only drives the request
streams drawn from the world, never the world itself.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import sys
from bisect import bisect_right
from pathlib import Path

WORLD_SEED = 2016
SERVE_INTERFACES = 100_000
#: Covered addresses sampled per vendor index for the request pool.
POOL_PER_VENDOR = 4096
#: Guaranteed-uncovered traffic comes from class E space.
MISS_BASE = 240 << 24

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench"


def pin_to_one_cpu() -> None:
    """Keep this process on one CPU: its threads share one interpreter
    lock anyway, and hopping cores mid-run was a large share of the
    run-to-run spread on a two-CPU machine."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def require_program() -> None:
    """Fail fast when the checkout has no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_digest() -> str:
    digest = hashlib.sha256(f"{WORLD_SEED}:{SERVE_INTERFACES}".encode())
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:20]


def snapshot_dir() -> Path:
    """The compiled serving snapshots, built on first use."""
    require_program()
    target = CACHE / f"snapshots-{source_digest()}"
    if (target / "READY").is_file():
        return target
    from repro.scenario.build import build_scale_tier
    from repro.serve.plane import PLANE_SUFFIX, save_plane
    from repro.serve.snapshot import save_index_set

    staging = CACHE / f"{target.name}.staging"
    shutil.rmtree(staging, ignore_errors=True)
    tier = build_scale_tier(interfaces=SERVE_INTERFACES, seed=WORLD_SEED)
    save_index_set(tier.indexes, staging)
    save_plane(tier.plane, staging / f"plane{PLANE_SUFFIX}")
    (staging / "READY").write_text("ok\n")
    shutil.rmtree(target, ignore_errors=True)
    staging.rename(target)
    return target


def snapshot_mib(directory: Path) -> float:
    return sum(
        path.stat().st_size
        for path in directory.iterdir()
        if path.suffix in (".rgix", ".rgpl")
    ) / (1 << 20)


def covered_pool(indexes, rng: random.Random) -> list[str]:
    """One seeded address inside each of an even spread of covered
    intervals from every vendor index."""
    addresses: set[int] = set()
    for _name, index in sorted(indexes.items()):
        covered = [(start, end) for start, end, answer in index.intervals() if answer >= 0]
        step = max(1, len(covered) // POOL_PER_VENDOR)
        for start, end in covered[::step]:
            addresses.add(start + rng.randrange(end - start))
    return [_dotted(a) for a in sorted(addresses)]


def _dotted(addr: int) -> str:
    return f"{addr >> 24}.{(addr >> 16) & 255}.{(addr >> 8) & 255}.{addr & 255}"


class ZipfStream:
    """Seeded draws: rank *r* with weight ``(r + 1) ** -s`` over a
    shuffled pool (``s = 0`` is uniform), plus a share of misses."""

    def __init__(self, pool: list[str], seed: int, s: float, miss: float = 0.0):
        self.rng = random.Random(seed)
        self.pool = list(pool)
        self.rng.shuffle(self.pool)
        self.miss = miss
        self.cumulative: list[float] = []
        total = 0.0
        for rank in range(len(self.pool)):
            total += (rank + 1) ** -s
            self.cumulative.append(total)

    def take(self, count: int) -> list[str]:
        rng, pool, cumulative = self.rng, self.pool, self.cumulative
        total, last = cumulative[-1], len(pool) - 1
        out = []
        for _ in range(count):
            if self.miss and rng.random() < self.miss:
                out.append(_dotted(MISS_BASE + rng.randrange(1, (1 << 24) - 1)))
            else:
                out.append(pool[min(bisect_right(cumulative, rng.random() * total), last)])
        return out
