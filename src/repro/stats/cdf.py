"""Empirical cumulative distribution functions, optionally weighted.

Several figures in the paper are CDFs: Fig 4 (share of view-hours via a
protocol, across publishers), Fig 8 (view durations per platform,
weighted by view counts), Figs 14-16 (syndication prevalence and QoE).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.stats.weighted import as_weighted_arrays


class ECDF:
    """Weighted empirical CDF over a one-dimensional sample.

    ``ECDF(values, weights)`` builds the right-continuous step function
    ``F(x) = P[X <= x]`` where each sample point carries a non-negative
    weight (a weight of ``k`` is equivalent to ``k`` repeated samples).
    """

    def __init__(
        self,
        values: Iterable[float],
        weights: Optional[Iterable[float]] = None,
    ) -> None:
        vals, wts = as_weighted_arrays(values, weights)
        order = np.argsort(vals, kind="stable")
        self._x = vals[order]
        cum = np.cumsum(wts[order])
        self._total = float(cum[-1])
        self._f = cum / self._total

    @property
    def support(self) -> Tuple[float, float]:
        """Smallest and largest sample values."""
        return float(self._x[0]), float(self._x[-1])

    @property
    def total_weight(self) -> float:
        return self._total

    def __call__(self, x: float) -> float:
        """Evaluate ``F(x) = P[X <= x]``."""
        idx = np.searchsorted(self._x, x, side="right")
        if idx == 0:
            return 0.0
        return float(self._f[idx - 1])

    def evaluate(self, xs: Sequence[float]) -> np.ndarray:
        """Vectorized evaluation of the CDF at many points."""
        xs_arr = np.asarray(xs, dtype=float)
        idx = np.searchsorted(self._x, xs_arr, side="right")
        out = np.zeros(xs_arr.shape, dtype=float)
        nonzero = idx > 0
        out[nonzero] = self._f[idx[nonzero] - 1]
        return out

    def quantile(self, q: float) -> float:
        """Smallest x with ``F(x) >= q`` (inverse CDF), for q in (0, 1]."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile level must be in (0, 1], got {q}")
        idx = int(np.searchsorted(self._f, q, side="left"))
        idx = min(idx, self._x.size - 1)
        return float(self._x[idx])

    def median(self) -> float:
        return self.quantile(0.5)

    def survival(self, x: float) -> float:
        """``P[X > x]`` — used e.g. for 'views longer than 0.2 hours'."""
        return 1.0 - self(x)

    def steps(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return (x, F(x)) arrays suitable for step plotting or tables."""
        return self._x.copy(), self._f.copy()

    def as_series(self, n_points: int = 50) -> Tuple[np.ndarray, np.ndarray]:
        """Down-sample the CDF to ``n_points`` evenly spaced x positions.

        Useful for printing compact figure tables from large samples.
        """
        if n_points < 2:
            raise ValueError("need at least two points")
        lo, hi = self.support
        xs = np.linspace(lo, hi, n_points)
        return xs, self.evaluate(xs)
