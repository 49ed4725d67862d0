"""Scoring rules.

CRPS is approximated as the mean weighted quantile loss over the K levels of a
forecast; MASE scales forecast MAE by the in-sample MAE of the seasonal naive
on the context window.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import NonFinite, SeriesTooShort, ZeroDenominator

# Floor on |y| in the weighted quantile loss, keeping scores finite at y == 0.
ABS_OBS_FLOOR = 1e-8


def row_means(x: np.ndarray) -> np.ndarray:
    """Mean along the last axis: ``np.mean``'s own arithmetic (a sum, then
    one true division by the count), without its per-call dispatch."""
    return np.add.reduce(x, axis=-1) / x.shape[-1]


class PinballLoss:
    """CRPS approximation on one level grid: mean wQL over the last axis of
    ``values``, against ``observations`` that broadcast against
    ``values.shape[:-1]``, or one Python float that every row is scored
    against. The grid's -alpha and 1 - alpha are built once."""

    __slots__ = ("_below", "_above")

    def __init__(self, levels: Sequence[float]) -> None:
        alphas = np.asarray(levels, dtype=float)
        self._below, self._above = -alphas, 1.0 - alphas

    def __call__(self, values, observations) -> np.ndarray:
        q = np.asarray(values, dtype=float)
        if isinstance(observations, float):
            # One observation: its |y| floor in Python arithmetic, the same bits.
            y = observations
            scale = max(abs(y), ABS_OBS_FLOOR)
        else:
            y = np.asarray(observations, dtype=float)[..., None]
            scale = np.maximum(np.abs(y), ABS_OBS_FLOOR)
        # Pinball loss from one C-ordered d = q - y, scaled in place: d(-alpha) where
        # d < 0, else d(1 - alpha); the two-branch form's bits, in any layout.
        rho = np.subtract(q, y, order="C")
        rho *= np.where(rho < 0.0, self._below, self._above)
        # 2 * rho / scale in one pass: doubling a bounded rho and halving a
        # floored scale are exact, so both forms round one quotient once.
        rho /= scale * 0.5
        return row_means(rho)


_loss = functools.lru_cache(maxsize=64)(PinballLoss)


def crps_batch(levels: Sequence[float], values, observations) -> np.ndarray:
    """CRPS approximation of each forecast in ``values`` on ``levels``: the one
    stateless :class:`PinballLoss` kept per level grid."""
    return _loss(tuple(levels))(values, observations)


def mase_scale(context: Sequence[float], seasonality: int) -> float:
    """In-sample MAE of the seasonal naive on ``context``: the MASE denominator.

    The mean of ``|context[j] - context[j - m]|`` over the context, with
    ``m = seasonality``. It depends only on the series, so one value serves
    every forecast of it. ``m < 1`` raises ``ValueError``, a context no longer
    than ``m`` raises :class:`SeriesTooShort`, an exactly m-periodic
    context, whose scale is zero, raises :class:`ZeroDenominator`, and a
    scale that is not finite (finite values near +-1e308 whose differences
    overflow float64) raises :class:`NonFinite`, where every MASE would
    otherwise read 0.
    """
    m = int(seasonality)
    if m < 1:
        raise ValueError(f"seasonality must be >= 1, got {m}")
    ctx = np.asarray(context, dtype=float)
    if len(ctx) <= m:
        raise SeriesTooShort(
            f"context length {len(ctx)} must exceed seasonality {m}"
        )
    scale = float(row_means(np.abs(ctx[m:] - ctx[:-m])))
    if not math.isfinite(scale):
        raise NonFinite(f"seasonal-naive MAE of the context is {scale}, not finite")
    if scale == 0.0:
        raise ZeroDenominator(
            f"context is {m}-periodic; seasonal-naive MAE is zero"
        )
    return scale

