"""Scoring rules.

CRPS is approximated as the mean weighted quantile loss over the K levels of a
forecast; MASE scales forecast MAE by the in-sample MAE of the seasonal naive
on the context window.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import SeriesTooShort, ZeroDenominator

# Floor on |y| in the weighted quantile loss, keeping scores finite at y == 0.
ABS_OBS_FLOOR = 1e-8


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
    # np.mean's own arithmetic (a sum, then one true division by the count),
    # without its per-call dispatch.
    return np.add.reduce(2.0 * rho / np.maximum(np.abs(y), ABS_OBS_FLOOR), axis=-1) / q.shape[-1]


def mase_scale(context: Sequence[float], seasonality: int) -> float:
    """In-sample MAE of the seasonal naive on ``context``: the MASE denominator.

    The mean of ``|context[j] - context[j - m]|`` over the context, with
    ``m = seasonality``. It depends only on the series, so one value serves
    every forecast of it. ``m < 1`` raises ``ValueError``, a context no longer
    than ``m`` raises :class:`SeriesTooShort`, and an exactly m-periodic
    context, whose scale is zero, raises :class:`ZeroDenominator`.
    """
    m = int(seasonality)
    if m < 1:
        raise ValueError(f"seasonality must be >= 1, got {m}")
    ctx = np.asarray(context, dtype=float)
    if len(ctx) <= m:
        raise SeriesTooShort(
            f"context length {len(ctx)} must exceed seasonality {m}"
        )
    scale = float(np.mean(np.abs(ctx[m:] - ctx[:-m])))
    if scale == 0.0:
        raise ZeroDenominator(
            f"context is {m}-periodic; seasonal-naive MAE is zero"
        )
    return scale

