"""A seeded synthetic event firehose: the enrichment pipeline's input.

The related NetherGaze workload (ROADMAP) enriches *live* streams —
connection logs, access logs, traceroute hops — with geolocation and
whois data.  This module synthesizes that traffic shape: a deterministic,
infinite stream of traceroute/flow/access-log events whose addresses are
drawn from a :class:`~repro.loadgen.workload.ZipfWorkload`, so the
whois cache and answer plane see the same popularity skew a real
deployment would.

Determinism is the whole design: one ``random.Random(seed)`` drives the
address draw (inside the workload) and a second, independently-seeded
generator drives the event dressing (kinds, ports, paths, RTTs).  The
same pool and config therefore produce the *identical* event sequence —
which is what lets the pipeline's determinism suite assert byte-identical
enriched output across worker counts.

Event timestamps are *stream time*, not wall time: event ``seq`` carries
``ts = seq / rate`` for the configured nominal rate.  Wall-clock pacing
is the pipeline's concern (and is never serialized into an event), so
replaying the stream faster or slower cannot change its bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterable, Iterator

from repro.loadgen.workload import WorkloadConfig, ZipfWorkload
from repro.net.ip import IPv4Address

__all__ = ["EVENT_KINDS", "Event", "EventConfig", "EventSource"]

#: The three traffic shapes the firehose interleaves.
EVENT_KINDS = ("traceroute", "flow", "access_log")

#: Seed offset separating the event-dressing RNG from the workload's
#: address RNG (same idiom as the scenario builder's per-stage offsets).
_DRESSING_SEED_OFFSET = 0x5EED

_FLOW_PORTS = (53, 80, 123, 443, 8080)
_HTTP_METHODS = ("GET", "GET", "GET", "POST", "HEAD")
_HTTP_STATUS = (200, 200, 200, 200, 204, 301, 404, 500)
_HTTP_RESOURCES = ("lookup", "batch", "report", "health", "metrics")


@dataclass(frozen=True, slots=True)
class EventConfig:
    """Shape of the synthetic firehose (popularity, mix, nominal rate)."""

    seed: int = 2016
    #: Nominal stream rate — only used to stamp synthetic ``ts`` values,
    #: never to pace anything (pacing is a pipeline/run concern).
    rate: float = 2000.0
    zipf_s: float = 1.1
    #: Fraction of events addressed from guaranteed-uncovered space.
    miss_fraction: float = 0.0
    #: Relative weight of each kind in :data:`EVENT_KINDS` order.
    mix: tuple[float, ...] = (0.1, 0.6, 0.3)

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive: {self.rate!r}")
        if len(self.mix) != len(EVENT_KINDS):
            raise ValueError(
                f"mix needs one weight per kind {EVENT_KINDS}: {self.mix!r}"
            )
        if any(weight < 0 for weight in self.mix) or not sum(self.mix):
            raise ValueError(f"mix weights must be non-negative, not all zero: {self.mix!r}")

    def workload_config(self) -> WorkloadConfig:
        return WorkloadConfig(
            seed=self.seed,
            zipf_s=self.zipf_s,
            miss_fraction=self.miss_fraction,
        )


@dataclass(frozen=True, slots=True)
class Event:
    """One firehose event: an address seen in some traffic context.

    ``attrs`` carries the kind-specific dressing (ports, paths, hops);
    treat it as read-only — events are shared across pipeline stages.
    """

    seq: int
    ts: float
    kind: str
    address: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form; deterministic for a deterministic stream."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "address": self.address,
            "attrs": dict(self.attrs),
        }


class EventSource:
    """An infinite, deterministic stream of dressed events over a pool."""

    def __init__(
        self,
        pool: Iterable[IPv4Address | str | int],
        config: EventConfig | None = None,
    ):
        self.config = config = config if config is not None else EventConfig()
        # Kept only for its validated, shuffled pool; every events() call
        # rebuilds a fresh workload from the raw pool so each iteration
        # replays the identical stream from event 0.
        self._raw_pool = tuple(pool)
        self._workload = ZipfWorkload(self._raw_pool, config.workload_config())
        # Cumulative kind weights: one rng.random() + a linear scan over
        # three entries picks the kind.
        total = float(sum(config.mix))
        cumulative: list[float] = []
        running = 0.0
        for weight in config.mix:
            running += weight / total
            cumulative.append(running)
        cumulative[-1] = 1.0  # float-sum slack must never drop a draw
        self._kind_cumulative = tuple(cumulative)

    @property
    def pool(self) -> tuple[str, ...]:
        return self._workload.pool

    def _dress(self, rng: random.Random, kind: str) -> dict[str, Any]:
        if kind == "traceroute":
            return {
                "monitor": f"mon-{rng.randrange(64):02d}",
                "hop": rng.randint(1, 24),
                "rtt_ms": round(rng.uniform(0.2, 180.0), 3),
            }
        if kind == "flow":
            return {
                "src_port": rng.randrange(1024, 65536),
                "dst_port": _FLOW_PORTS[rng.randrange(len(_FLOW_PORTS))],
                "proto": "udp" if rng.random() < 0.3 else "tcp",
                "bytes": rng.randrange(64, 1_500_000),
            }
        return {
            "method": _HTTP_METHODS[rng.randrange(len(_HTTP_METHODS))],
            "path": f"/api/{_HTTP_RESOURCES[rng.randrange(len(_HTTP_RESOURCES))]}",
            "status": _HTTP_STATUS[rng.randrange(len(_HTTP_STATUS))],
        }

    def events(self) -> Iterator[Event]:
        """The infinite event stream.

        Every call starts over from event 0 and replays the identical
        sequence — the address workload and the dressing generator are
        both rebuilt from the seed, so two iterations (or two worker
        configurations fed from separate calls) see the same bytes.
        """
        rng = random.Random(self.config.seed + _DRESSING_SEED_OFFSET)
        cumulative = self._kind_cumulative
        kinds = EVENT_KINDS
        rate = self.config.rate
        workload = ZipfWorkload(self._raw_pool, self.config.workload_config())
        addresses = workload.addresses()
        for seq, address in enumerate(addresses):
            draw = rng.random()
            kind = kinds[-1]
            for index, bound in enumerate(cumulative):
                if draw <= bound:
                    kind = kinds[index]
                    break
            yield Event(
                seq=seq,
                ts=round(seq / rate, 6),
                kind=kind,
                address=address,
                attrs=self._dress(rng, kind),
            )

    def take(self, count: int) -> list[Event]:
        """The first ``count`` events of the (replayable) stream."""
        if count < 0:
            raise ValueError(f"count must be >= 0: {count!r}")
        return list(islice(self.events(), count))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"EventSource({len(self.pool)} addresses,"
            f" rate={self.config.rate:g}/s, seed={self.config.seed})"
        )
