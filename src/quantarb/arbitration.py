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
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .core import (
    LEVEL_TOL,
    RULE_INVERSE_ERROR,
    RULE_SOFTMAX,
    RULE_STATIC,
    RULE_UNIFORM,
    ArbitrationTrace,
    ForecastPanel,
    PerformanceWindow,
    QuantileLevels,
    normalize_weights,
    require_integer,
    stack_forecasts,
)
from .errors import AlignmentMismatch, EmptyWindow
from .metrics import crps_batch
from .quantiles import InverseCdf, KeyedPhilox, RandomStreams, empirical_quantiles

#: Cap applied to the horizon-derived default window capacity.
DEFAULT_WINDOW_CAP = 16

#: Window scores at or below this make a step fall back from inverse-error
#: weighting to the softmax.
NEAR_ZERO_EPSILON = 1e-9


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
    mode: str = "dynamic"

    def __post_init__(self) -> None:
        require_integer(self.n_total, "n_total", 1)
        if self.window_capacity is not None:
            require_integer(self.window_capacity, "window_capacity", 1)
        if not self.softmax_temperature > 0.0:
            raise ValueError(f"softmax temperature must be > 0, got {self.softmax_temperature}")
        if self.mode not in ("dynamic", "static-uniform"):
            raise ValueError(f"unknown weighting mode {self.mode!r}")

    def resolve_capacity(self, horizon: int) -> int:
        if self.window_capacity is not None:
            return self.window_capacity
        return min(horizon, DEFAULT_WINDOW_CAP)


class WindowScores:
    """Per-record CRPS rows of a rolling performance window.

    Each record's N model scores are computed once, when the record enters;
    the oldest rows drop out when the window is full. Averages use exact
    summation, so they match re-scoring the whole window bit for bit and do
    not depend on record order.
    """

    __slots__ = ("_rows",)

    def __init__(self, capacity: int) -> None:
        self._rows: deque[list[float]] = deque(maxlen=capacity)

    def push(self, levels: Sequence[float], values, observations) -> None:
        """Score records, oldest first: the N models' forecasts ``values`` of
        shape (N, L, K) on ``levels`` against ``observations`` of shape (L,),
        or one record as (N, K) against a single observation."""
        scores = crps_batch(levels, values, observations)
        self._rows.extend(scores.reshape(len(scores), -1).T.tolist())

    def __len__(self) -> int:
        return len(self._rows)

    def averages(self) -> tuple[float, ...]:
        """Each model's mean CRPS over the records in the window."""
        if not self._rows:
            raise EmptyWindow("cannot score models against an empty window")
        n = len(self._rows)
        return tuple(math.fsum(column) / n for column in zip(*self._rows))


def weights_with_rule(
    scores: Sequence[float], config: ArbitratorConfig
) -> tuple[tuple[float, ...], str]:
    """Weights from scores, plus which rule produced them.

    Inverse-error weighting when every score is safely positive; otherwise a
    temperature softmax of the negated scores, which tolerates exact zeros.
    Both paths use exact summation so the result is independent of model
    order.
    """
    if min(scores) > NEAR_ZERO_EPSILON:
        return normalize_weights([1.0 / s for s in scores]), RULE_INVERSE_ERROR
    logits = [-s / config.softmax_temperature for s in scores]
    shift = max(logits)
    return normalize_weights([math.exp(z - shift) for z in logits]), RULE_SOFTMAX


def allocate_samples(weights: Sequence[float], n_total: int) -> tuple[int, ...]:
    """Largest-remainder apportionment of the sample budget by weights.

    Counts always sum to ``n_total`` exactly; zero counts are legal. Remainder
    units go to the largest fractional parts, lowest index first on ties.
    """
    if n_total < 1:
        raise ValueError(f"n_total must be >= 1, got {n_total}")
    scaled = [w * n_total for w in weights]
    counts = [math.floor(x) for x in scaled]
    remainder = n_total - sum(counts)
    if remainder:
        by_fraction = sorted(zip([c - x for c, x in zip(counts, scaled)], range(len(counts))))
        for _, i in by_fraction[:remainder]:
            counts[i] += 1
    return tuple(counts)


def _probe_levels(levels: QuantileLevels) -> tuple[tuple[float, ...], int, np.ndarray]:
    """Levels to requantize on, where the median sits among them, and which
    of them are the output grid's.

    0.5 joins the grid only when it lacks it (to within ``LEVEL_TOL``), so
    the median never falls back to an outer level.
    """
    grid = levels.levels
    for k, a in enumerate(grid):
        if abs(a - 0.5) <= LEVEL_TOL:
            return grid, k, np.arange(len(grid))
    probe = tuple(sorted(grid + (0.5,)))
    k = probe.index(0.5)
    return probe, k, np.delete(np.arange(len(probe)), k)


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
    each window record is scored once, when it enters; each step only fills
    rows of the trace's arrays. An ``initial_window`` must hold the panel's
    model names, in the panel's order, on its levels; the run keeps the
    newest ``config`` window-capacity records of it. Pass ``streams`` shared
    across panels to keep per-model draws identical regardless of which
    other series are processed; plain ``seed`` builds a fresh stream tree.
    """
    config = config if config is not None else ArbitratorConfig()
    n = panel.n_models
    if config.n_total < n:
        raise ValueError(
            f"n_total {config.n_total} cannot cover {n} models with one sample each"
        )
    names = panel.model_names
    levels = panel.levels
    if initial_window is not None and initial_window.model_names != names:
        raise AlignmentMismatch(
            f"initial window models {list(initial_window.model_names)} differ from "
            f"panel {panel.series_id!r} models {list(names)}"
        )
    if initial_window is not None and initial_window.levels != levels:
        raise AlignmentMismatch(
            f"initial window levels {list(initial_window.levels)} differ from "
            f"panel {panel.series_id!r} levels {list(levels)}"
        )
    dynamic = config.mode == "dynamic"
    alphas = np.asarray(levels.levels)
    window = WindowScores(config.resolve_capacity(panel.horizon))
    if dynamic and initial_window is not None:
        window.push(alphas, initial_window.values, initial_window.observations)
    if streams is None:
        streams = RandomStreams(seed)
    horizon = panel.horizon
    # Model i's stream at step t is child("series", id, "t", t).child(name):
    # all N x T keys in one pass, drawn through one generator into one buffer.
    series_streams = streams.child("series", panel.series_id, "t")
    keys = series_streams.grid_keys(range(horizon), names).tolist()
    philox = KeyedPhilox()
    uniforms = np.empty(config.n_total)
    out_levels = config.levels if config.levels is not None else levels
    probe, median_at, on_grid = _probe_levels(out_levels)
    icdf = InverseCdf(alphas, panel.values)
    # Batch row of model i at step t is i * horizon + t.
    offsets = icdf.offsets(np.arange(horizon)[:, None] + np.arange(n) * horizon)
    uniform = (1.0 / n,) * n
    uniform_counts = allocate_samples(uniform, config.n_total)
    quantiles = np.empty((horizon, len(out_levels)))
    weights = np.empty((horizon, n))
    counts = np.empty((horizon, n), dtype=np.int64)
    scores = np.full((horizon, n), np.nan)
    simulated = np.empty(horizon)
    rules = [RULE_UNIFORM if dynamic else RULE_STATIC] * horizon
    for t in range(horizon):
        if not dynamic or not len(window):
            w, c = uniform, uniform_counts
        else:
            s = window.averages()
            w, rules[t] = weights_with_rule(s, config)
            c = allocate_samples(w, config.n_total)
            scores[t] = s
        weights[t], counts[t] = w, c
        # Model i draws c[i] uniforms from its own Philox stream into its
        # slice of the buffer; the pooled draws are evaluated in one pass.
        for key, k, end in zip(keys[t], c, accumulate(c)):
            if k:
                philox.uniforms(key, uniforms[end - k:end])
        pooled = icdf.evaluate(uniforms, offsets[t].repeat(counts[t]))
        values = empirical_quantiles(pooled, probe)
        quantiles[t] = values[on_grid]
        simulated[t] = values[median_at]
        # The last step's record would never be read.
        if dynamic and t + 1 < horizon:
            window.push(alphas, panel.values[:, t], simulated[t])
    return ArbitrationTrace(
        series_id=panel.series_id,
        model_names=names,
        n_total=config.n_total,
        levels=out_levels,
        quantiles=quantiles,
        weights=weights,
        counts=counts,
        scores=scores,
        rules=rules,
        simulated=simulated,
    )


def seed_window_from_context(
    panel: ForecastPanel,
    backtest_forecasts: Mapping[str, Sequence[Sequence[float]]] | None = None,
    config: ArbitratorConfig | None = None,
) -> PerformanceWindow:
    """Build an initial window from backtest forecasts over the context tail.

    ``backtest_forecasts`` maps every panel model to an L x K quantile matrix
    for the last L context steps; the true context values become the window
    observations, so L may be at most the context length. The matrices are
    stacked in ``panel.model_names`` order on the panel's levels. Without
    backtest forecasts the window is empty and the first arbitration step
    falls back to uniform weights. ``config`` is unused: a run keeps the
    newest records that fit its own window capacity.
    """
    names = panel.model_names
    if not backtest_forecasts:
        backtest_forecasts = dict.fromkeys(names, ())
    if set(backtest_forecasts) != set(names):
        missing = sorted(set(names) - set(backtest_forecasts))
        extra = sorted(set(backtest_forecasts) - set(names))
        raise AlignmentMismatch(
            f"backtest models do not match panel models (missing {missing}, extra {extra})"
        )
    lengths = {name: len(m) for name, m in backtest_forecasts.items()}
    if len(set(lengths.values())) != 1:
        raise AlignmentMismatch(f"backtest step counts disagree: {lengths}")
    span = next(iter(lengths.values()))
    if span > len(panel.context):
        raise AlignmentMismatch(
            f"{span} backtest steps cannot align with {len(panel.context)} context values"
        )
    models = [(name, backtest_forecasts[name]) for name in names]
    return PerformanceWindow(
        model_names=names,
        levels=panel.levels,
        values=stack_forecasts(models, len(panel.levels), "backtest step"),
        # Not context[-span:], which is the whole context when span is 0.
        observations=panel.context[len(panel.context) - span:],
    )
