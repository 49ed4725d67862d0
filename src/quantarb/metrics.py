"""Scoring rules and series features.

CRPS is approximated as the mean weighted quantile loss over the K levels of a
forecast; MASE scales forecast MAE by the in-sample MAE of the seasonal naive
on the context window.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateVariance,
    LengthMismatch,
    SeriesTooShort,
    ZeroDenominator,
)

# Floor on |y| in the weighted quantile loss, keeping scores finite at y == 0.
ABS_OBS_FLOOR = 1e-8


def pinball_loss(alpha: float, q_hat: float, y: float) -> float:
    """Pinball loss of the ``alpha``-quantile prediction ``q_hat`` against ``y``.

    Returns ``alpha * (y - q_hat)`` when the observation exceeds the
    prediction, else ``(1 - alpha) * (q_hat - y)``. Zero iff ``y == q_hat``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if y > q_hat:
        return alpha * (y - q_hat)
    return (1.0 - alpha) * (q_hat - y)


def weighted_quantile_loss(alpha: float, q_hat: float, y: float) -> float:
    """Pinball loss normalized by the observation magnitude: ``2 * rho / |y|``.

    ``|y|`` is floored at ``ABS_OBS_FLOOR`` so the loss stays finite for zero
    observations.
    """
    return 2.0 * pinball_loss(alpha, q_hat, y) / max(abs(y), ABS_OBS_FLOOR)


def crps_batch(levels: Sequence[float], values, observations) -> np.ndarray:
    """CRPS approximation of every forecast in ``values``: mean wQL over the
    last axis.

    ``values`` holds forecasts on ``levels`` along its last axis;
    ``observations`` broadcasts against ``values.shape[:-1]``. Returns an
    array of that shape.
    """
    alphas = np.asarray(levels, dtype=float)
    q = np.asarray(values, dtype=float)
    y = np.asarray(observations, dtype=float)[..., None]
    rho = np.where(y > q, alphas * (y - q), (1.0 - alphas) * (q - y))
    return np.mean(2.0 * rho / np.maximum(np.abs(y), ABS_OBS_FLOOR), axis=-1)


def mase(
    point_forecasts: Sequence[float],
    actuals: Sequence[float],
    context: Sequence[float],
    seasonality: int,
) -> float:
    """Forecast MAE over the naive seasonal in-sample MAE of the context.

    The denominator is the mean of ``|context[j] - context[j - m]|`` over the
    context; an exactly m-periodic context makes it zero and raises
    :class:`ZeroDenominator`.
    """
    if len(point_forecasts) != len(actuals):
        raise LengthMismatch(
            f"{len(point_forecasts)} forecasts for {len(actuals)} actuals"
        )
    m = int(seasonality)
    if m < 1:
        raise ValueError(f"seasonality must be >= 1, got {m}")
    ctx = np.asarray(context, dtype=float)
    if len(ctx) <= m:
        raise SeriesTooShort(
            f"context length {len(ctx)} must exceed seasonality {m}"
        )
    denom = float(np.mean(np.abs(ctx[m:] - ctx[:-m])))
    if denom == 0.0:
        raise ZeroDenominator(
            f"context is {m}-periodic; seasonal-naive MAE is zero"
        )
    num = float(np.mean(np.abs(np.asarray(point_forecasts) - np.asarray(actuals))))
    return num / denom


def lumpiness(series: Sequence[float], tile_width: int | None = None) -> float:
    """Variance of the tile variances of the standardized series.

    Tiles are non-overlapping blocks of ``tile_width`` points (default
    ``max(10, len // 20)``); a trailing partial tile is dropped. Population
    variances (ddof=0) are used throughout so the feature is total.
    """
    x = np.asarray(series, dtype=float)
    if tile_width is None:
        tile_width = max(10, len(x) // 20)
    if tile_width < 1:
        raise ValueError(f"tile width must be >= 1, got {tile_width}")
    if len(x) < 2 * tile_width:
        raise SeriesTooShort(
            f"series length {len(x)} shorter than two tiles of width {tile_width}"
        )
    std = float(np.std(x))
    if std == 0.0:
        return 0.0
    z = (x - np.mean(x)) / std
    n_tiles = len(z) // tile_width
    tiles = z[: n_tiles * tile_width].reshape(n_tiles, tile_width)
    return float(np.var(np.var(tiles, axis=1)))


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Standard Pearson correlation coefficient."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) != len(y):
        raise LengthMismatch(f"{len(x)} xs for {len(y)} ys")
    if len(x) < 2:
        raise SeriesTooShort("correlation needs at least two points")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateVariance("correlation undefined for a constant sequence")
    r = float(np.dot(dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))
