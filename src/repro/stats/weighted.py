"""Weighted summary statistics.

The paper's headline methodology is to weight every finding by
view-hours (§3): e.g. the "weighted average number of protocols" in
Fig 3c weights each publisher's protocol count by the publisher's
view-hours.  These helpers implement those aggregations.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np


def as_weighted_arrays(
    values: Iterable[float], weights: Optional[Iterable[float]]
) -> tuple:
    """A sample and its checked weights as float arrays (ones if None)."""
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        raise ValueError("need at least one value")
    if weights is None:
        wts = np.ones_like(vals)
    else:
        wts = np.asarray(list(weights), dtype=float)
        if wts.shape != vals.shape:
            raise ValueError("values and weights must have equal length")
        if np.any(wts < 0):
            raise ValueError("weights must be non-negative")
        if not np.any(wts > 0):
            raise ValueError("at least one weight must be positive")
    return vals, wts


def weighted_mean(
    values: Iterable[float], weights: Optional[Iterable[float]] = None
) -> float:
    """Weighted arithmetic mean; unweighted when ``weights`` is None."""
    vals, wts = as_weighted_arrays(values, weights)
    return float(np.sum(vals * wts) / np.sum(wts))
