"""Empirical CDFs over distances.

Every figure in the paper's evaluation (Figures 1, 2, 5a, 5b) is a CDF of
great-circle distances plotted on a log-x axis with a vertical marker at
the 40 km city range.  :class:`Ecdf` is the shared representation: exact
(no binning), queryable at any threshold, and renderable as text.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class Ecdf:
    """An exact empirical CDF over non-negative values."""

    def __init__(self, values: Iterable[float]):
        array = np.sort(np.asarray(list(values), dtype=float))
        if array.size and (np.isnan(array).any() or (array < 0).any()):
            raise ValueError("ECDF values must be non-negative and finite")
        self._values = array

    def __eq__(self, other: object) -> bool:
        """Value equality: same sorted sample, same CDF.

        Makes the report dataclasses that embed an ECDF comparable, which
        is what the oracle tests assert on.
        """
        if not isinstance(other, Ecdf):
            return NotImplemented
        return self._values.shape == other._values.shape and bool(
            (self._values == other._values).all()
        )

    def __hash__(self) -> int:
        return hash(self._values.tobytes())

    @property
    def n(self) -> int:
        return int(self._values.size)

    @property
    def values(self) -> Sequence[float]:
        return tuple(self._values.tolist())

    def fraction_within(self, threshold: float) -> float:
        """P(X ≤ threshold); 0.0 for an empty CDF."""
        if self._values.size == 0:
            return 0.0
        return float(np.searchsorted(self._values, threshold, side="right")) / self.n

    def fraction_beyond(self, threshold: float) -> float:
        """P(X > threshold) — e.g. 'more than 29% disagree beyond 40 km'."""
        return 1.0 - self.fraction_within(threshold)

    def quantile(self, q: float) -> float:
        """The q-th quantile (median error = ``quantile(0.5)``)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q!r}")
        if self._values.size == 0:
            raise ValueError("quantile of an empty CDF is undefined")
        return float(np.quantile(self._values, q))

    def median(self) -> float:
        """The median value (the 0.5 quantile)."""
        return self.quantile(0.5)

    def fraction_zero(self) -> float:
        """P(X == 0) — Figure 1 truncates identical-coordinate pairs."""
        if self._values.size == 0:
            return 0.0
        return float(np.searchsorted(self._values, 0.0, side="right")) / self.n

    def series(self, thresholds: Sequence[float]) -> tuple[float, ...]:
        """CDF values at the given thresholds (for plotting/benching)."""
        return tuple(self.fraction_within(t) for t in thresholds)


#: Log-spaced distance grid used by the text renderings of the figures.
LOG_DISTANCE_GRID_KM: tuple[float, ...] = (
    0.1, 0.5, 1, 5, 10, 20, 40, 100, 200, 500, 1000, 2000, 5000, 10000,
)
