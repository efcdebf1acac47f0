"""Statistics and process accounting shared by every workload.

* :func:`tail` applies the reporting rule for tail latency: the highest
  of p50/p90/p99 that still has at least ten samples beyond it;
  :func:`windowed_tail` takes that percentile in each short window of a
  max-rate search step and reports the median window, so one stall does
  not fail a whole step.
* :func:`proc_cpu_s` / :func:`proc_peak_rss_mib` read another process's
  CPU time and peak RSS from ``/proc`` (Linux).
* :func:`search_max_rate` is the max-rate search used by the open-loop
  workloads: the highest offered rate whose step meets the latency
  limit with no errors and no growing backlog.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from statistics import median  # noqa: F401 - re-exported for the workloads
from typing import Callable, Sequence

#: Percentiles considered for the tail, lowest first.  The rule stops
#: at p99: a p99.9 over one run's few thousand samples moves with a
#: handful of scheduler hiccups, too noisy to gate a change on.
TAIL_PERCENTILES = (50.0, 90.0, 99.0)

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which need not be sorted)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(count: int) -> float:
    """The highest of :data:`TAIL_PERCENTILES` with >= ten samples beyond
    it among ``count`` samples.  Below 20 samples no tail is supported and
    the median stands in: the maximum of a few samples measures the worst
    interference from other processes, not the program."""
    best = 50.0
    for pct in TAIL_PERCENTILES:
        beyond = count - math.ceil(pct / 100.0 * count)
        if beyond >= MIN_BEYOND:
            best = pct
    return best


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the reportable tail of ``values``."""
    pct = tail_percentile(len(values))
    return pct, percentile(values, pct)


#: A search step is judged on the median of its windows of this length.
STEP_WINDOW_S = 0.5


def windowed_tail(latencies: Sequence[float], dues: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)``: each :data:`STEP_WINDOW_S` window's (by due
    time) tail, at the highest percentile every window supports, then the
    median of those window tails; the whole-run :func:`tail` if no window
    has 20 samples."""
    windows: dict[int, list[float]] = {}
    for latency, due in zip(latencies, dues):
        windows.setdefault(int(due // STEP_WINDOW_S), []).append(latency)
    full = [values for values in windows.values() if len(values) >= 2 * MIN_BEYOND]
    if not full:
        return tail(latencies)
    pct = min(tail_percentile(len(values)) for values in full)
    return pct, median([percentile(values, pct) for values in full])


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- /proc accounting ---------------------------------------------------------


def parse_stat_cpu_s(stat_line: str) -> float:
    """User + system CPU seconds from one ``/proc/<pid>/stat`` line.

    The command name (field 2) is parenthesised and may itself contain
    spaces or parentheses, so fields are counted from the *last* ``)``.
    """
    rest = stat_line[stat_line.rindex(")") + 2 :].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    utime, stime = int(rest[11]), int(rest[12])
    return (utime + stime) / _CLK_TCK


def parse_status_kib(status_text: str, key: str) -> int:
    """One ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    for line in status_text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    raise ValueError(f"{key} missing from /proc status")


def proc_cpu_s(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/stat") as handle:
        return parse_stat_cpu_s(handle.read())


def proc_peak_rss_mib(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as handle:
        return parse_status_kib(handle.read(), "VmHWM") / 1024.0


# -- max-rate search ----------------------------------------------------------


@dataclass(frozen=True)
class StepResult:
    """What one fixed-rate step of the search observed."""

    rate: float
    failed: int
    latencies_ms: Sequence[float]
    #: Due time of each latency, seconds into the step.
    due_s: Sequence[float]
    #: How far behind schedule the last operation completed (ms): a
    #: backlog that grew during the step shows up here.
    drain_ms: float


#: Share of ``--seconds`` the fixed-rate phase takes; the max-rate
#: search gets the rest.
FIXED_SHARE = 2 / 3

#: Seconds one max-rate search step offers its rate for.
STEP_S = 1.5

#: Each search step before the first failure offers this factor more.
FACTOR = 1.1


def step_passes(step: StepResult, limit_ms: float) -> bool:
    """The max-rate criteria: zero failures, the (windowed) tail within
    the limit, and the backlog drained within the limit after the last
    due time."""
    if step.failed or not step.latencies_ms:
        return False
    _, tail_ms = windowed_tail(step.latencies_ms, step.due_s)
    return tail_ms <= limit_ms and step.drain_ms <= limit_ms


def search_max_rate(
    run_step: Callable[[float], StepResult],
    limit_ms: float,
    start: float,
    steps: int,
) -> tuple[float, list[StepResult]]:
    """Highest passing rate found in ``steps`` steps.

    Grows the rate by :data:`FACTOR` from ``start`` until a step fails
    (or shrinks it until one passes), then bisects geometrically between
    the best pass and the lowest failure for the remaining steps.
    Returns ``(rate, steps_run)``; the rate is 0 only if nothing passed.
    """
    if steps < 1 or start <= 0:
        raise ValueError("need steps >= 1 and start > 0")
    best_pass = 0.0
    lowest_fail = math.inf
    rate = start
    history: list[StepResult] = []
    for _ in range(steps):
        result = run_step(rate)
        history.append(result)
        if step_passes(result, limit_ms):
            best_pass = max(best_pass, rate)
        else:
            lowest_fail = min(lowest_fail, rate)
        if lowest_fail == math.inf:
            rate = best_pass * FACTOR
        elif best_pass == 0.0:
            rate = lowest_fail / FACTOR
        else:
            rate = math.sqrt(best_pass * lowest_fail)
    return best_pass, history
