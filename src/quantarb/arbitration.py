"""Dynamic arbitration over a model pool via weighted predictive sampling.

Per timestep: score each model's recent accuracy over a rolling performance
window, convert scores to weights, apportion a fixed sample budget across
models, draw from each model's inverse CDF, and report empirical quantiles of
the pooled draws. The median of the pooled draws then stands in for the
unknown observation when the window is updated, so weights adapt inside the
horizon without access to actuals.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    LEVEL_TOL,
    ArbitrationStep,
    ArbitrationTrace,
    ForecastPanel,
    PerformanceRecord,
    PerformanceWindow,
    QuantileForecast,
    QuantileLevels,
    WeightVector,
)
from .errors import AlignmentMismatch, DimensionMismatch, EmptyWindow
from .metrics import crps_batch
from .quantiles import InverseCdf, RandomStreams, empirical_quantiles

# Weight-rule labels recorded in traces.
RULE_UNIFORM = "uniform"
RULE_INVERSE_ERROR = "inverse_error"
RULE_SOFTMAX = "softmax"
RULE_STATIC = "static"

#: Cap applied to the horizon-derived default window capacity.
DEFAULT_WINDOW_CAP = 16


@dataclass(frozen=True)
class ArbitratorConfig:
    """Knobs for one arbitration run.

    ``window_capacity=None`` resolves to ``min(horizon, 16)`` at run time.
    ``levels=None`` reports arbitrated quantiles on the input forecasts' own
    grid. Mode ``static-uniform`` freezes weights at 1/N for ablations.
    """

    n_total: int = 1500
    window_capacity: int | None = None
    levels: QuantileLevels | None = None
    softmax_temperature: float = 1.0
    near_zero_epsilon: float = 1e-9
    mode: str = "dynamic"

    def __post_init__(self) -> None:
        if self.n_total < 1:
            raise ValueError(f"n_total must be >= 1, got {self.n_total}")
        if self.window_capacity is not None and self.window_capacity < 1:
            raise ValueError(f"window capacity must be >= 1, got {self.window_capacity}")
        if not self.softmax_temperature > 0.0:
            raise ValueError(f"softmax temperature must be > 0, got {self.softmax_temperature}")
        if self.near_zero_epsilon < 0.0:
            raise ValueError(f"epsilon must be >= 0, got {self.near_zero_epsilon}")
        if self.mode not in ("dynamic", "static-uniform"):
            raise ValueError(f"unknown weighting mode {self.mode!r}")

    def resolve_capacity(self, horizon: int) -> int:
        if self.window_capacity is not None:
            return self.window_capacity
        return min(horizon, DEFAULT_WINDOW_CAP)


class WindowScores:
    """Per-record CRPS rows of a rolling performance window.

    Each record's N model scores are computed once, when the record enters;
    the oldest row drops out when the window is full. Averages use exact
    summation, so they match re-scoring the whole window bit for bit and do
    not depend on record order.
    """

    __slots__ = ("_rows",)

    def __init__(self, capacity: int, records: Sequence[PerformanceRecord] = ()) -> None:
        self._rows: deque[tuple[float, ...]] = deque(maxlen=capacity)
        for rec in records:
            self.push(
                rec.forecasts[0].levels.levels,
                [fc.values for fc in rec.forecasts],
                rec.observation,
            )

    def push(self, levels: Sequence[float], values, observation: float) -> None:
        """Score one record: the N models' forecasts, ``values`` of shape
        (N, K) on ``levels``, against ``observation``."""
        self._rows.append(tuple(crps_batch(levels, values, observation).tolist()))

    def __len__(self) -> int:
        return len(self._rows)

    def averages(self) -> tuple[float, ...]:
        """Each model's mean CRPS over the records in the window."""
        if not self._rows:
            raise EmptyWindow("cannot score models against an empty window")
        n = len(self._rows)
        return tuple(math.fsum(column) / n for column in zip(*self._rows))


def average_crps_scores(window: PerformanceWindow) -> tuple[float, ...]:
    """Each model's CRPS against the window's observations, averaged.

    Window order does not matter; every model is scored against the same
    observations.
    """
    return WindowScores(window.capacity, window.records).averages()


def weights_with_rule(
    scores: Sequence[float], config: ArbitratorConfig
) -> tuple[WeightVector, str]:
    """Weights from scores, plus which rule produced them.

    Inverse-error weighting when every score is safely positive; otherwise a
    temperature softmax of the negated scores, which tolerates exact zeros.
    Both paths use exact summation so the result is independent of model
    order.
    """
    if min(scores) > config.near_zero_epsilon:
        return WeightVector.normalized([1.0 / s for s in scores]), RULE_INVERSE_ERROR
    logits = [-s / config.softmax_temperature for s in scores]
    shift = max(logits)
    exps = [math.exp(z - shift) for z in logits]
    return WeightVector.normalized(exps), RULE_SOFTMAX


def allocate_samples(weights: WeightVector, n_total: int) -> tuple[int, ...]:
    """Largest-remainder apportionment of the sample budget by weights.

    Counts always sum to ``n_total`` exactly; zero counts are legal. Remainder
    units go to the largest fractional parts, lowest index first on ties.
    """
    if n_total < 1:
        raise ValueError(f"n_total must be >= 1, got {n_total}")
    scaled = [w * n_total for w in weights.weights]
    counts = [math.floor(x) for x in scaled]
    remainder = n_total - sum(counts)
    by_fraction = sorted(
        range(len(counts)), key=lambda i: (counts[i] - scaled[i], i)
    )
    for i in by_fraction[:remainder]:
        counts[i] += 1
    return tuple(counts)


def arbitrate_timestep(
    forecasts: Sequence[QuantileForecast],
    weights: WeightVector,
    config: ArbitratorConfig,
    streams: RandomStreams,
    model_names: Sequence[str] | None = None,
) -> tuple[QuantileForecast, tuple[int, ...]]:
    """Pool weighted draws from every model and summarize them as quantiles.

    Each model draws from its own substream, keyed by name when names are
    given (index otherwise); that keying is what makes the result invariant
    under model reordering. All forecasts must share one quantile grid.
    """
    if len(forecasts) != len(weights):
        raise DimensionMismatch(
            f"{len(forecasts)} forecasts for {len(weights)} weights"
        )
    levels = forecasts[0].levels
    if any(fc.levels.levels != levels.levels for fc in forecasts):
        raise DimensionMismatch("forecasts of one timestep use different quantile grids")
    keys = model_names if model_names is not None else range(len(forecasts))
    icdf = InverseCdf(np.asarray(levels.levels), [fc.values for fc in forecasts])
    pooled, counts = _pool_draws(
        icdf, np.arange(len(forecasts)), weights, config, streams, keys
    )
    out_levels = config.levels if config.levels is not None else levels
    return empirical_quantiles(pooled, out_levels), counts


def _pool_draws(
    icdf: InverseCdf,
    rows: np.ndarray,
    weights: WeightVector,
    config: ArbitratorConfig,
    streams: RandomStreams,
    keys: Sequence[str | int],
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Allocate the budget, draw every model's uniforms from its own keyed
    substream, and evaluate the pooled draws against batch ``rows`` of
    ``icdf`` in one pass."""
    counts = allocate_samples(weights, config.n_total)
    uniforms = [
        streams.child(key).generator().random(count)
        for key, count in zip(keys, counts)
        if count
    ]
    return icdf(np.concatenate(uniforms), np.repeat(rows, counts)), counts


def _requantize(pooled: np.ndarray, levels: QuantileLevels) -> tuple[QuantileForecast, float]:
    """Quantiles of the pooled draws on ``levels``, plus the pooled median.

    Both come from one ``np.quantile`` call; 0.5 joins the levels only when
    the grid lacks it, so the median never falls back to an outer level.
    """
    if any(abs(a - 0.5) <= LEVEL_TOL for a in levels):
        forecast = empirical_quantiles(pooled, levels)
        return forecast, forecast.median
    probe = QuantileLevels(sorted(levels.levels + (0.5,)))
    values = empirical_quantiles(pooled, probe).values
    k = probe.levels.index(0.5)
    return QuantileForecast(levels, values[:k] + values[k + 1:]), values[k]


def run_arbitration(
    panel: ForecastPanel,
    initial_window: PerformanceWindow | None = None,
    config: ArbitratorConfig | None = None,
    streams: RandomStreams | None = None,
    seed: int = 0,
) -> ArbitrationTrace:
    """Arbitrate one panel over its full horizon.

    The feedback loop is sequential: each step's pooled median is pushed
    into the window as a stand-in observation before the next step is scored.
    Inverse CDFs of all N x T forecasts are fitted once, before the loop, and
    each window record is scored once, when it enters.
    Pass ``streams`` shared across panels to keep per-model draws identical
    regardless of which other series are processed; plain ``seed`` builds a
    fresh stream tree.
    """
    config = config if config is not None else ArbitratorConfig()
    n = panel.n_models
    if config.n_total < n:
        raise ValueError(
            f"n_total {config.n_total} cannot cover {n} models with one sample each"
        )
    if initial_window is None:
        initial_window = PerformanceWindow(config.resolve_capacity(panel.horizon))
    elif not initial_window.is_empty and len(initial_window.records[0].forecasts) != n:
        raise DimensionMismatch(
            f"initial window records cover {len(initial_window.records[0].forecasts)} "
            f"models, panel has {n}"
        )
    dynamic = config.mode == "dynamic"
    window = WindowScores(initial_window.capacity, initial_window.records if dynamic else ())
    if streams is None:
        streams = RandomStreams(seed)
    series_streams = streams.child("series", panel.series_id)
    names = panel.model_names
    horizon = panel.horizon
    levels = panel.levels
    out_levels = config.levels if config.levels is not None else levels
    # Batch row of model i at step t is i * horizon + t.
    icdf = InverseCdf(np.asarray(levels.levels), panel.values)
    model_rows = np.arange(n) * horizon
    steps = []
    for t in range(horizon):
        if not dynamic:
            scores, weights, rule = None, WeightVector.uniform(n), RULE_STATIC
        elif not len(window):
            scores, weights, rule = None, WeightVector.uniform(n), RULE_UNIFORM
        else:
            scores = window.averages()
            weights, rule = weights_with_rule(scores, config)
        pooled, counts = _pool_draws(
            icdf, model_rows + t, weights, config, series_streams.child("t", t), names
        )
        arbitrated, simulated = _requantize(pooled, out_levels)
        # The last step's record would never be read.
        if dynamic and t + 1 < horizon:
            window.push(levels.levels, panel.values[:, t], simulated)
        steps.append(
            ArbitrationStep(
                forecast=arbitrated,
                weights=weights,
                sample_counts=counts,
                simulated_truth=simulated,
                scores=scores,
                weight_rule=rule,
            )
        )
    return ArbitrationTrace(
        series_id=panel.series_id,
        model_names=names,
        n_total=config.n_total,
        steps=tuple(steps),
    )


def seed_window_from_context(
    panel: ForecastPanel,
    backtest_forecasts: Mapping[str, Sequence[Sequence[float]]] | None = None,
    config: ArbitratorConfig | None = None,
) -> PerformanceWindow:
    """Build an initial window from backtest forecasts over the context tail.

    ``backtest_forecasts`` maps every panel model to an L x K quantile matrix
    for the last L context steps; the true context values become the window
    observations. Without backtest forecasts the window starts empty and the
    first arbitration step falls back to uniform weights.
    """
    config = config if config is not None else ArbitratorConfig()
    capacity = config.resolve_capacity(panel.horizon)
    if not backtest_forecasts:
        return PerformanceWindow(capacity)
    if set(backtest_forecasts) != set(panel.model_names):
        missing = sorted(set(panel.model_names) - set(backtest_forecasts))
        extra = sorted(set(backtest_forecasts) - set(panel.model_names))
        raise AlignmentMismatch(
            f"backtest models do not match panel models (missing {missing}, extra {extra})"
        )
    lengths = {name: len(m) for name, m in backtest_forecasts.items()}
    if len(set(lengths.values())) != 1:
        raise AlignmentMismatch(f"backtest step counts disagree: {lengths}")
    span = next(iter(lengths.values()))
    usable = min(capacity, len(panel.context))
    if span > usable:
        raise AlignmentMismatch(
            f"{span} backtest steps cannot align with the last {usable} context values"
        )
    levels = panel.levels
    observations = panel.context[-span:] if span else ()
    window = PerformanceWindow(capacity)
    for j in range(span):
        forecasts = tuple(
            QuantileForecast(levels, tuple(backtest_forecasts[name][j]))
            for name in panel.model_names
        )
        window = window.push(PerformanceRecord(observations[j], forecasts))
    return window
