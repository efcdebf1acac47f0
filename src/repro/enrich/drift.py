"""Live drift detection: per-vendor disagreement with the §5.1 consensus.

The paper's one-shot study measures how often databases disagree; Gouel
et al.'s longitudinal follow-up shows the disagreement *moves* as vendors
release.  A serving deployment therefore needs the same comparison run
continuously on live traffic: for every enriched event, each vendor's
answer is held against the cross-vendor majority vote, and a structured
:class:`DriftAlert` is emitted when a vendor has drifted — a different
country (``country_flip``), a city answer farther than the city range
from the consensus city (``city_flip``), or no coverage at all where the
consensus answers (``coverage_loss``).

Two truthfulness rules keep the alert stream honest:

* **Degradation is not drift.**  While the consensus is degraded (its
  vote ran without a vendor that is quarantined, erroring, or
  deadline-skipped), every would-be alert is *suppressed* and counted —
  a quarantined vendor missing from the vote must not read as a
  database that moved.  This is
  the serving-side version of the §5.1 caveat that agreement statistics
  are only meaningful over databases that actually answered.
* **No consensus, no drift.**  Alerts only fire when the vote reached
  quorum; a two-vendor split is disagreement (already flagged on the
  consensus), not drift *from* anything.

Alert *sequences* are a pure function of the answers/consensus stream —
the detector holds no clock-dependent state on that path — which is what
lets the determinism suite assert identical alerts across serving paths.
Rolling per-vendor alert rates (for ``stats()``/operators) are tracked in
:class:`~repro.obs.window.RollingWindow` side state that never feeds back
into the alerts themselves.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, NamedTuple

from repro.core.majority import DEFAULT_CITY_RANGE_KM
from repro.obs.window import RollingWindow

__all__ = ["ALERT_KINDS", "DriftAlert", "DriftDetector"]

#: The three drift shapes, in severity order.
ALERT_KINDS = ("country_flip", "city_flip", "coverage_loss")


class DriftAlert(NamedTuple):
    """One vendor's drift from the consensus on one event.

    ``observed`` is the vendor's answer (its country code, or its city
    name for city flips; ``None`` for coverage loss), ``expected`` the
    consensus country for every kind of alert — the consensus carries a
    location but no city name; ``distance_km`` is filled for city flips
    only.  A named tuple rather than a frozen dataclass: every alerting
    event builds its alerts on the enrichment path.
    """

    seq: int
    address: str
    vendor: str
    kind: str
    observed: str | None
    expected: str | None
    distance_km: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return self._asdict()


class DriftDetector:
    """Holds each vendor's answers against the consensus, statefully
    counting but statelessly judging.

    :meth:`inspect` is called once per enriched event, in input order,
    by the pipeline's one submitting thread — the only writer of
    ``inspected`` and ``suppressed``, so those count without a lock.
    Alert totals, per-kind counts and the rolling windows take one lock
    per alerting event, so ``stats()`` can be scraped concurrently.
    """

    def __init__(
        self,
        *,
        city_range_km: float = DEFAULT_CITY_RANGE_KM,
        metrics=None,
        horizon_s: int = 60,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.city_range_km = city_range_km
        self._metrics = metrics
        self._horizon_s = horizon_s
        self._clock = clock
        self._lock = threading.Lock()
        self.inspected = 0
        self.alerts = 0
        self.suppressed = 0
        self._counts: dict[tuple[str, str], int] = {}
        self._windows: dict[str, RollingWindow] = {}

    # -- judgement (pure per event) ------------------------------------------

    def _judge(
        self, seq: int, address: str, answers, consensus
    ) -> list[DriftAlert]:
        """The stateless core: alerts for one healthy set of answers."""
        alerts: list[DriftAlert] = []
        for vendor in sorted(answers):
            answer = answers[vendor]
            if answer is None:
                # Healthy vendor, no coverage, while the quorum answers:
                # the vendor lost (or never had) this block.
                if consensus.country is not None:
                    alerts.append(
                        DriftAlert(
                            seq=seq,
                            address=address,
                            vendor=vendor,
                            kind="coverage_loss",
                            observed=None,
                            expected=consensus.country,
                        )
                    )
                continue
            record = answer.record
            if (
                consensus.country is not None
                and record.country is not None
                and record.country != consensus.country
            ):
                alerts.append(
                    DriftAlert(
                        seq=seq,
                        address=address,
                        vendor=vendor,
                        kind="country_flip",
                        observed=record.country,
                        expected=consensus.country,
                    )
                )
                continue  # at most one alert per vendor per event
            if (
                consensus.location is not None
                and record.has_city
                and record.has_coordinates
            ):
                distance = record.location.distance_km(consensus.location)
                if distance > self.city_range_km:
                    alerts.append(
                        DriftAlert(
                            seq=seq,
                            address=address,
                            vendor=vendor,
                            kind="city_flip",
                            observed=record.city,
                            expected=consensus.country,
                            distance_km=round(distance, 3),
                        )
                    )
        return alerts

    def cell_verdicts(self, memo: dict) -> dict:
        """This detector's table of per-cell verdicts inside ``memo``,
        a :meth:`~repro.serve.engine.ServingEngine.generation_memo`.

        Living in the generation's memo bounds the table by the plane's
        cell count and drops it with the generation, so a hot swap
        leaves no entry pinning a cell of the old plane.
        """
        return memo.setdefault(("drift.cells", self.city_range_km), {})

    def inspect(
        self, seq: int, address: str, answers, consensus, cell, cells: dict
    ) -> tuple[DriftAlert, ...]:
        """Alerts for one event's ``answers`` against their
        ``consensus`` — or ``()`` with a suppression count when the
        consensus is degraded (quarantine must not read as drift).

        ``address`` is the event's address text, reported in each alert.
        ``cell`` is the answer-plane cell the answers came from, or
        ``None`` on the live and degraded paths.  ``cells`` (from
        :meth:`cell_verdicts`, or any dict) memoizes the judgement of a
        cell: every address in a cell has the same answers and the same
        consensus (``consensus`` must be the cell's), so only ``seq``
        and ``address`` differ between its alerts.  Answers without a
        cell are judged afresh.
        """
        self.inspected += 1
        if consensus.degraded:
            self.suppressed += 1
            if self._metrics is not None:
                self._metrics.inc("enrich.drift_suppressed")
            return ()
        if not consensus.quorum:
            return ()
        if cell is None:
            alerts = self._judge(seq, address, answers, consensus)
        else:
            # Keyed by identity; the entry holds the cell, so its id
            # cannot be reused while the entry exists.
            entry = cells.get(id(cell))
            if entry is None:
                templates = tuple(
                    alert[2:]
                    for alert in self._judge(seq, address, answers, consensus)
                )
                entry = cells[id(cell)] = (cell, templates)
            if not entry[1]:
                return ()
            alerts = [DriftAlert(seq, address, *fields) for fields in entry[1]]
        if alerts:
            self._record(alerts)
        return tuple(alerts)

    def _record(self, alerts: list[DriftAlert]) -> None:
        now = self._clock()
        with self._lock:
            self.alerts += len(alerts)
            for alert in alerts:
                key = (alert.vendor, alert.kind)
                self._counts[key] = self._counts.get(key, 0) + 1
                window = self._windows.get(alert.vendor)
                if window is None:
                    window = self._windows[alert.vendor] = RollingWindow(
                        self._horizon_s, clock=self._clock
                    )
                window.add(1.0, now=now)
        if self._metrics is not None:
            for alert in alerts:
                self._metrics.inc(
                    "enrich.drift_alerts", vendor=alert.vendor, kind=alert.kind
                )

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """``/statusz``-style block: totals, per-vendor kind counts, and
        rolling per-vendor alert rates over 10s/60s."""
        with self._lock:
            counts = dict(self._counts)
            windows = dict(self._windows)
            inspected, alerts, suppressed = (
                self.inspected,
                self.alerts,
                self.suppressed,
            )
        vendors: dict[str, dict[str, Any]] = {}
        for (vendor, kind), count in sorted(counts.items()):
            vendors.setdefault(vendor, {kind_: 0 for kind_ in ALERT_KINDS})[
                kind
            ] = count
        rates = {
            vendor: {
                "10s_per_s": round(window.rate(10), 6),
                "60s_per_s": round(window.rate(60), 6),
            }
            for vendor, window in sorted(windows.items())
        }
        return {
            "inspected": inspected,
            "alerts": alerts,
            "suppressed": suppressed,
            "city_range_km": self.city_range_km,
            "by_vendor": vendors,
            "rates": rates,
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DriftDetector(alerts={self.alerts},"
            f" suppressed={self.suppressed}, inspected={self.inspected})"
        )
