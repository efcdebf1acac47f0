"""Deterministic Zipf request streams over a scenario's address pool.

:mod:`repro.loadgen.workload` is a seeded Zipf popularity model over a
pool of addresses (plus a configurable miss fraction), producing the
same request stream for the same seed and config, forever.  The
streaming enrichment firehose draws its events from it; the one
open-loop HTTP load driver is ``perfbench/httpload.py``.
"""

from repro.loadgen.workload import MISS_PREFIX, WorkloadConfig, ZipfWorkload, covered_pool

__all__ = [
    "MISS_PREFIX",
    "WorkloadConfig",
    "ZipfWorkload",
    "covered_pool",
]
