"""Dynamic arbitration over a model pool via weighted predictive sampling.

Per timestep: score each model's recent accuracy over a rolling performance
window, convert scores to weights, apportion a fixed sample budget across
models, draw from each model's inverse CDF, and report empirical quantiles of
the pooled draws. The median of the pooled draws then stands in for the
unknown observation when the window is updated, so weights adapt inside the
horizon without access to actuals.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    LEVEL_TOL,
    RULE_INVERSE_ERROR,
    RULE_STATIC,
    RULE_UNIFORM,
    ArbitrationTrace,
    ForecastPanel,
    PerformanceWindow,
    QuantileLevels,
    normalize_weights,
    require_integer,
    require_type,
)
from .errors import AlignmentMismatch, EmptyWindow
from .metrics import PinballLoss
from .quantiles import InverseCdf, KeyedPhilox, RandomStreams, empirical_quantiles
from .quantiles import _component_key

#: Cap applied to the horizon-derived default window capacity.
DEFAULT_WINDOW_CAP = 16

#: Floor on a window score before it is inverted: a member that tracks the
#: stand-in observations exactly scores 0 and is weighted as if it scored
#: this, so weights stay finite and continuous in the scores.
NEAR_ZERO_EPSILON = 1e-9

#: Steps a static-uniform run draws and evaluates at once: the fastest of 1
#: to 32 over the desk panels; from 8 up the blocks spill the cache (README).
_STATIC_BLOCK = 4
_SERIES, _T = _component_key("series"), _component_key("t")  # constant path keys, hashed once


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
    mode: str = "dynamic"

    def __post_init__(self) -> None:
        require_integer(self.n_total, "n_total", 1)
        if self.window_capacity is not None:
            require_integer(self.window_capacity, "window_capacity", 1)
        if self.levels is not None:
            require_type(self.levels, QuantileLevels, "levels")
        if self.mode not in ("dynamic", "static-uniform"):
            raise ValueError(f"unknown weighting mode {self.mode!r}")

    def resolve_capacity(self, horizon: int) -> int:
        if self.window_capacity is not None:
            return self.window_capacity
        return min(horizon, DEFAULT_WINDOW_CAP)


class WindowScores:
    """Per-model CRPS columns of a rolling performance window on one level grid.

    Each record's N model scores are computed once, when the record enters,
    and appended to the N columns; the oldest drop out when the window is
    full. Averages use exact summation, so they match re-scoring the whole
    window bit for bit and do not depend on record order. ``loss`` scores on
    the grid; runs on one grid share it.
    """

    __slots__ = ("_columns", "_loss")

    def __init__(self, capacity: int, loss: PinballLoss, n_models: int) -> None:
        self._loss = loss
        self._columns = [deque((), capacity) for _ in range(n_models)]

    def push(self, values, observations) -> None:
        """Score records, oldest first: the N models' forecasts ``values`` of
        shape (N, L, K) against ``observations`` of shape (L,), or one record
        as (N, K) against a single observation."""
        scores = self._loss(values, observations)
        for column, row in zip(self._columns, scores.reshape(len(self._columns), -1).tolist()):
            column.extend(row)

    def append(self, record: np.ndarray, observation: float) -> None:
        """Score one (N, K) record against a Python float: one score per column."""
        for column, score in zip(self._columns, self._loss(record, observation).tolist()):
            column.append(score)

    def __len__(self) -> int:
        return len(self._columns[0])

    def averages(self) -> tuple[float, ...]:
        """Each model's mean CRPS over the records in the window."""
        n = len(self._columns[0])
        if not n:
            raise EmptyWindow("cannot score models against an empty window")
        return tuple(math.fsum(column) / n for column in self._columns)


def weights_with_rule(scores: Sequence[float]) -> tuple[float, ...]:
    """Inverse-error weights: each in proportion to ``1 / max(score,
    NEAR_ZERO_EPSILON)``.

    Above the floor this is ``1 / score`` exactly. Exact summation makes the
    result independent of model order.
    """
    floor = NEAR_ZERO_EPSILON
    return normalize_weights([1.0 / (s if s > floor else floor) for s in scores])


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
        fractions = [c - x for c, x in zip(counts, scaled)]
        for i in sorted(range(len(counts)), key=fractions.__getitem__)[:remainder]:
            counts[i] += 1
    return tuple(counts)


class _StepPlan(NamedTuple):
    """What a run's steps need that depends on its shape alone: see :func:`_step_plan`."""

    offsets: np.ndarray
    uniform_row: tuple
    probe: tuple[float, ...]
    median_at: int
    on_grid: slice | np.ndarray
    loss: PinballLoss


@functools.lru_cache(maxsize=64)
def _step_plan(
    levels: tuple[float, ...], out_levels: tuple[float, ...], n: int, horizon: int, n_total: int
) -> _StepPlan:
    """The read-only plan of every run of ``n`` models over ``horizon`` steps
    on ``levels``, reporting on ``out_levels``, from ``n_total`` samples a
    step.

    It holds each (step, model) forecast's flat offset in the fitted batch,
    where row ``i * horizon + t`` is model i at step t (see
    :meth:`InverseCdf.offsets`); the uniform step's weights, counts and NaN
    scores; the levels to requantize on, where the median sits among them
    and which of them are the output grid's; and the window's loss on
    ``levels``. 0.5 joins the output grid only when it lacks it (to within
    ``LEVEL_TOL``), so the median never falls back to an outer level.
    """
    rows = np.arange(horizon)[:, None] + np.arange(n) * horizon
    offsets = rows * (len(levels) + 1)
    offsets.setflags(write=False)
    at = [k for k, a in enumerate(out_levels) if abs(a - 0.5) <= LEVEL_TOL]
    if at:
        probe, median_at, on_grid = out_levels, at[0], slice(None)
    else:
        probe = tuple(sorted(out_levels + (0.5,)))
        median_at = probe.index(0.5)
        on_grid = np.delete(np.arange(len(probe)), median_at)
        on_grid.setflags(write=False)
    uniform = (1.0 / n,) * n
    uniform_row = (uniform, allocate_samples(uniform, n_total), (math.nan,) * n)
    return _StepPlan(offsets, uniform_row, probe, median_at, on_grid, PinballLoss(levels))


class PanelSetup:
    """The inverse-CDF fit of one panel's N x T forecasts and the Philox keys
    of its (step, model) streams under one stream tree, model i at step t in
    row ``t * N + i``: built by the first run given it, reused by the rest."""

    __slots__ = ("panel", "streams", "_built")

    def __init__(self, panel: ForecastPanel, streams: RandomStreams) -> None:
        self.panel, self.streams, self._built = panel, streams, None

    def built(self, panel: ForecastPanel, streams: RandomStreams) -> tuple[InverseCdf, list]:
        """The fit and the keys; ``ValueError`` for another panel object or tree."""
        own = self.streams
        if panel is not self.panel or (streams.seed, streams.path) != (own.seed, own.path):
            raise ValueError(f"the set-up of panel {self.panel.series_id!r} is for another run")
        if self._built is None:  # model i at step t: child("series", id, "t", t).child(name)
            keys = streams.child(_SERIES, panel.series_id, _T).grid_keys(
                range(panel.horizon), panel.model_names).reshape(-1, 2).tolist()
            self._built = InverseCdf(panel.levels.levels, panel.values), keys
        return self._built


def run_arbitration(
    panel: ForecastPanel,
    initial_window: PerformanceWindow | None = None,
    config: ArbitratorConfig = ArbitratorConfig(),
    streams: RandomStreams = RandomStreams(0),
    *,
    setup: PanelSetup | None = None,
) -> ArbitrationTrace:
    """Arbitrate one panel over its full horizon.

    The feedback loop is sequential: each step's pooled median is pushed
    into the window as a stand-in observation before the next step is scored.
    Inverse CDFs of all N x T forecasts are fitted once, before the loop, and
    each window record is scored once, when it enters; each step only
    appends its rows of the trace. The fit and the keys come from ``setup``
    (a run without one builds its own), which lives as long as its holder:
    ``eval`` and ``winloss`` keep one per panel while scoring it, so its two
    synapse runs share one fit and one key grid. A static-uniform run, whose
    counts never change, draws and evaluates ``_STATIC_BLOCK`` steps at once,
    but still runs ``empirical_quantiles`` once per step. An
    ``initial_window`` must hold the panel's model names, in the panel's
    order, on its levels; the run keeps the newest ``config``
    window-capacity records of it. Pass ``streams`` shared across panels to
    keep per-model draws identical regardless of which other series are
    processed; the default is the tree of seed 0.
    """
    n = panel.n_models
    if config.n_total < n:
        raise ValueError(
            f"n_total {config.n_total} cannot cover {n} models with one sample each"
        )
    names, levels = panel.model_names, panel.levels
    if initial_window is not None:
        for what, got, want in (("models", initial_window.model_names, names),
                                ("levels", initial_window.levels, levels)):
            if got != want:
                raise AlignmentMismatch(f"initial window {what} {list(got)} differ from "
                                        f"panel {panel.series_id!r} {what} {list(want)}")
    horizon, n_total = panel.horizon, config.n_total
    out_levels = levels if config.levels is None else config.levels
    offsets, uniform_row, probe, median_at, on_grid, loss = _step_plan(
        levels.levels, out_levels.levels, n, horizon, n_total
    )
    icdf, keys = (setup or PanelSetup(panel, streams)).built(panel, streams)
    philox = KeyedPhilox.for_thread()
    weights, counts, scores, probed = [], [], [], []
    if config.mode != "dynamic":
        w, c, s = uniform_row
        uniforms = np.empty(n_total * _STATIC_BLOCK)
        for start in range(0, horizon, _STATIC_BLOCK):
            m = min(_STATIC_BLOCK, horizon - start)
            u = philox.fill(keys[start * n:(start + m) * n], c * m, uniforms)[:m * n_total]
            pooled = icdf.evaluate(u, offsets[start:start + m].reshape(-1).repeat(c * m))
            for j in range(0, m * n_total, n_total):
                probed.append(empirical_quantiles(pooled[j:j + n_total], probe))
        rules = [RULE_STATIC] * horizon
        weights, counts, scores = w * horizon, c * horizon, s * horizon
    else:
        rules = [RULE_UNIFORM] * horizon
        window = WindowScores(config.resolve_capacity(horizon), loss, n)
        if initial_window is not None:
            window.push(initial_window.values, initial_window.observations)
        uniforms = np.empty(n_total)
        records = panel.values.transpose(1, 0, 2).copy()  # C-ordered (N, K) record per step
        for t in range(horizon):
            w, c, s = uniform_row
            if len(window):
                s = window.averages()
                w = weights_with_rule(s)
                rules[t] = RULE_INVERSE_ERROR
                c = allocate_samples(w, n_total)
            weights += w
            counts += c
            scores += s
            # Model i draws c[i] uniforms from its own stream; one pass evaluates all.
            u = philox.fill(keys[t * n:(t + 1) * n], c, uniforms)
            probed.append(empirical_quantiles(icdf.evaluate(u, offsets[t].repeat(c)), probe))
            # The last step's record would never be read.
            if t + 1 < horizon:
                window.append(records[t], probed[t].item(median_at))
    probed = np.array(probed)
    return ArbitrationTrace(
        series_id=panel.series_id,
        model_names=names,
        n_total=config.n_total,
        levels=out_levels,
        quantiles=probed[:, on_grid],
        weights=np.array(weights).reshape(horizon, n),
        counts=np.array(counts, dtype=np.int64).reshape(horizon, n),
        scores=np.array(scores).reshape(horizon, n),
        rules=rules,
        simulated=probed[:, median_at],
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
    return PerformanceWindow(
        model_names=names,
        levels=panel.levels,
        values=[backtest_forecasts[name] for name in names],
        # Not context[-span:], which is the whole context when span is 0.
        observations=panel.context[len(panel.context) - span:],
    )
