"""Seeded Zipf workloads over a scenario's address pool.

Serving traffic is never uniform: a few prefixes dominate (resolvers,
popular eyeball networks), most are cold.  Synthetic traffic therefore
draws addresses from a Zipf popularity model — rank *r* is requested
with probability proportional to ``(r + 1) ** -s`` — over a pool taken
from the scenario (interface addresses, or covered interval starts of
the compiled indexes).  Two design points matter for benchmarking:

* **Determinism.** Everything is driven by one ``random.Random(seed)``:
  the popularity permutation *and* the draw stream.  The same pool,
  seed, and config produce the identical request sequence — load runs
  are reproducible and regression-comparable.
* **Popularity is decoupled from address order.** The pool is shuffled
  before ranks are assigned, so "hot" addresses are spread across the
  address space instead of clustering at the numerically-lowest
  prefixes (which would make every cache look artificially good).

A configurable *miss fraction* interleaves addresses from
``240.0.0.0/8`` — reserved space outside every RIR parent block, so no
generated vendor snapshot ever covers it.  Those lookups exercise the
no-coverage path (all vendors answer ``null``; the server still returns
200) without ever colliding with real pool traffic.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from repro.net.ip import IPv4Address, parse_address

__all__ = ["MISS_PREFIX", "WorkloadConfig", "ZipfWorkload", "covered_pool"]

#: Miss traffic is drawn from this reserved /8 — class E space that no
#: RIR parent block contains, hence uncovered by every generated vendor.
MISS_PREFIX = "240.0.0.0/8"
_MISS_BASE = int(IPv4Address("240.0.0.0"))
_MISS_SPAN = 1 << 24


@dataclass(frozen=True, slots=True)
class WorkloadConfig:
    """Shape of a workload (the popularity model, not the rate)."""

    seed: int = 2016
    #: Zipf exponent: 0 = uniform, ~1 = classic web-trace skew.
    zipf_s: float = 1.1
    #: Fraction of requests drawn from :data:`MISS_PREFIX` instead of
    #: the pool — guaranteed-uncovered lookups.
    miss_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.zipf_s < 0:
            raise ValueError(f"zipf_s must be >= 0: {self.zipf_s!r}")
        if not 0.0 <= self.miss_fraction <= 1.0:
            raise ValueError(
                f"miss_fraction must be in [0, 1]: {self.miss_fraction!r}"
            )


class ZipfWorkload:
    """An infinite, deterministic request stream over an address pool."""

    def __init__(
        self,
        pool: Iterable[IPv4Address | str | int],
        config: WorkloadConfig | None = None,
    ):
        self.config = config = config if config is not None else WorkloadConfig()
        addresses = [str(parse_address(address)) for address in pool]
        if not addresses:
            raise ValueError("workload pool must not be empty")
        rng = random.Random(config.seed)
        rng.shuffle(addresses)
        self.pool: tuple[str, ...] = tuple(addresses)
        # Cumulative (r+1)^-s mass: one draw is rng.random() + a bisect.
        cumulative: list[float] = []
        total = 0.0
        for rank in range(len(addresses)):
            total += (rank + 1) ** -config.zipf_s
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total
        # The shuffle and the draw stream share one seeded generator, so
        # the whole request sequence is a pure function of (pool, config).
        self._rng = rng

    def addresses(self) -> Iterator[str]:
        """The infinite request stream (dotted-quad strings)."""
        rng = self._rng
        cumulative = self._cumulative
        total = self._total
        last = len(self.pool) - 1
        miss = self.config.miss_fraction
        while True:
            if miss > 0.0 and rng.random() < miss:
                # Host part avoids .0.0.0 and the /8 broadcast, purely
                # for tidiness — anything in the /8 is equally uncovered.
                yield str(IPv4Address(_MISS_BASE + rng.randrange(1, _MISS_SPAN - 1)))
                continue
            index = bisect_right(cumulative, rng.random() * total)
            yield self.pool[index if index <= last else last]

    def take(self, count: int) -> list[str]:
        """The next ``count`` requests (advances the stream)."""
        if count < 0:
            raise ValueError(f"count must be >= 0: {count!r}")
        return list(islice(self.addresses(), count))

    def expected_share(self, rank: int) -> float:
        """The model's probability mass for popularity rank ``rank`` —
        what the determinism tests compare empirical frequencies to."""
        return (rank + 1) ** -self.config.zipf_s / self._total * (
            1.0 - self.config.miss_fraction
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ZipfWorkload({len(self.pool)} addresses, s={self.config.zipf_s},"
            f" miss={self.config.miss_fraction}, seed={self.config.seed})"
        )


def covered_pool(indexes, per_vendor: int = 4096) -> list[int]:
    """A workload address pool from compiled indexes: covered interval
    starts.

    A spread of starts from every vendor's index whose interval actually
    has an answer, so Zipf traffic exercises real coverage (misses are a
    separate, explicit workload knob).  The enrichment CLI draws its
    firehose from this pool; the open-loop HTTP checks (the CI load step,
    ``benchmarks/test_http_open_loop.py``) draw their ``/lookup`` traffic
    from it.
    """
    addresses: set[int] = set()
    for index in indexes.values():
        starts = [start for start, _end, answer in index.intervals() if answer >= 0]
        step = max(1, len(starts) // per_vendor)
        addresses.update(starts[::step])
    return sorted(addresses)
