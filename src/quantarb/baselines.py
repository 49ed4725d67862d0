"""Static ensemble baselines: per-level median and per-level mean."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import QuantileForecast
from .errors import DimensionMismatch


def median_ensemble(values: np.ndarray) -> np.ndarray:
    """Per-level median across models, the first axis of finite ``values``;
    even counts average the middle pair. Equal to ``np.median(values,
    axis=0)`` under ``==``; at a zero median, numpy's partition may give +0.0
    where this one sort gives -0.0."""
    ordered = np.sort(values, axis=0)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def mean_ensemble(values: np.ndarray) -> np.ndarray:
    """Per-level mean across models, the first axis of (N, T, K) ``values``.

    Bit for bit the mean of each step taken on its own. With two levels or
    more, one reduction over the whole block adds up each (step, level)
    cell's models in the same order as a reduction over that step alone. On a
    one-level grid a step is a 1-D reduction, which numpy sums pairwise from
    eight models up, so each step is averaged on its own there. A mean is a
    sum and one division by the count, as in ``np.mean``.
    """
    n = len(values)
    if values.shape[-1] == 1:
        return np.array([np.add.reduce(values[:, t], axis=0) / n for t in range(values.shape[1])])
    return np.add.reduce(values, axis=0) / n


def _stack(forecasts: Sequence[QuantileForecast]) -> np.ndarray:
    """(N, 1, K) values of one step's forecasts, which must share a grid."""
    if not forecasts:
        raise ValueError("at least one forecast is required")
    levels = forecasts[0].levels.levels
    for i, fc in enumerate(forecasts):
        if fc.levels.levels != levels:
            raise DimensionMismatch(f"forecast {i} uses a different quantile grid")
    return np.array([[fc.values] for fc in forecasts], dtype=float)


def quantile_median_ensemble(forecasts: Sequence[QuantileForecast]) -> QuantileForecast:
    """Per-level median across models; even counts average the middle pair."""
    values = median_ensemble(_stack(forecasts))[0]
    return QuantileForecast(forecasts[0].levels, values)


def quantile_mean_ensemble(forecasts: Sequence[QuantileForecast]) -> QuantileForecast:
    """Per-level arithmetic mean across models."""
    values = mean_ensemble(_stack(forecasts))[0]
    return QuantileForecast(forecasts[0].levels, values)
