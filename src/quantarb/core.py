"""Shared domain types: quantile grids, forecasts, panels, performance windows.

All types are immutable and validated at construction; they can be shared
freely across threads.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingActuals,
    NonFinite,
    NonMonotoneQuantiles,
)

# Relative tolerance for quantile monotonicity: decreases no larger than this
# (relative to the neighbouring magnitudes) are accepted as float noise.
MONOTONE_REL_TOL = 1e-12

# Levels within this of each other count as the same level, so no grid may
# hold two of them.
LEVEL_TOL = 1e-12

# Absolute tolerance on the sum of a step's weights.
WEIGHT_SUM_TOL = 1e-9


def _require_finite(values: Iterable[float], what: str) -> None:
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise NonFinite(f"{what} contains non-finite value {v!r} at index {i}")


def require_integer(value: object, what: str, low: int) -> None:
    """Reject a bool, a non-integer (numpy integers pass) or a ``value`` below
    ``low`` with a ``ValueError`` naming ``what``."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))
    if not integer or value < low:
        raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class QuantileLevels:
    """Strictly increasing probability levels in the open interval (0, 1),
    each more than ``LEVEL_TOL`` above the one before."""

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(float(a) for a in self.levels))
        if not self.levels:
            raise ValueError("at least one quantile level is required")
        _require_finite(self.levels, "quantile levels")
        for a in self.levels:
            if not 0.0 < a < 1.0:
                raise ValueError(f"quantile level {a} outside the open interval (0, 1)")
        for lo, hi in zip(self.levels, self.levels[1:]):
            if hi <= lo:
                raise ValueError(f"quantile levels must be strictly increasing, got {lo} then {hi}")
            if hi - lo <= LEVEL_TOL:
                raise ValueError(
                    f"quantile levels {lo} and {hi} are within {LEVEL_TOL} of each other "
                    "and count as the same level"
                )

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self) -> Iterator[float]:
        return iter(self.levels)


#: The standard nine-level grid 0.1 .. 0.9.
DEFAULT_LEVELS = QuantileLevels((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9))


def _dips(values: np.ndarray) -> np.ndarray:
    """Where values[..., k] -> values[..., k + 1] decreases beyond tolerance."""
    lo, hi = values[..., :-1], values[..., 1:]
    with np.errstate(invalid="ignore"):
        return lo - hi > MONOTONE_REL_TOL * np.maximum(np.abs(lo), np.abs(hi))


def quantile_at(levels: Sequence[float], values, alpha: float = 0.5):
    """Value at probability ``alpha`` of every forecast in ``values``.

    ``values`` holds forecasts on ``levels`` along its last axis. The value is
    exact on the grid (to within ``LEVEL_TOL`` in level), linear in level between the
    neighbouring levels, and clamped to the outer level beyond them. Returns
    an array of shape ``values.shape[:-1]``.
    """
    values = np.asarray(values, dtype=float)
    for k, a in enumerate(levels):
        if abs(a - alpha) <= LEVEL_TOL:
            return values[..., k]
    if alpha <= levels[0]:
        return values[..., 0]
    if alpha >= levels[-1]:
        return values[..., -1]
    k = bisect.bisect(levels, alpha)
    frac = (alpha - levels[k - 1]) / (levels[k] - levels[k - 1])
    return values[..., k - 1] + frac * (values[..., k] - values[..., k - 1])


@dataclass(frozen=True)
class QuantileForecast:
    """One predictive distribution: values at each quantile level.

    Values must be non-decreasing across levels (exact ties are legal; they
    represent point masses) and finite.
    """

    levels: QuantileLevels
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != len(self.levels):
            raise DimensionMismatch(
                f"forecast has {len(self.values)} values for {len(self.levels)} levels"
            )
        _require_finite(self.values, "forecast values")
        bad = np.flatnonzero(_dips(np.asarray(self.values))).tolist()
        if bad:
            raise NonMonotoneQuantiles(
                f"quantile values decrease at level indices {bad}", indices=tuple(bad)
            )


def _frozen(values) -> np.ndarray:
    """A read-only float64 copy of ``values``."""
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def stack_forecasts(
    models: Sequence[tuple[str, Sequence[Sequence[float]]]], n_levels: int, step: str
) -> np.ndarray:
    """Stack per-model matrices of forecast rows into one (N, S, K) array.

    ``models`` pairs each name with S rows, S equal across models. A row
    whose length is not ``n_levels`` raises :class:`DimensionMismatch`, and a
    JSON null (which float conversion would read as NaN) raises
    ``TypeError``; both name the model and the ``step`` ("timestep",
    "backtest step").
    """
    for name, matrix in models:
        for s, row in enumerate(matrix):
            if len(row) != n_levels:
                raise DimensionMismatch(
                    f"model {name!r} at {step} {s}: forecast has {len(row)} values "
                    f"for {n_levels} levels"
                )
    values = np.array([matrix for _, matrix in models], dtype=float)
    # Matrices without rows stack to (N, 0), not (N, 0, K).
    values = values.reshape(len(models), len(models[0][1]), n_levels)
    for i, s, k in np.argwhere(np.isnan(values)).tolist():
        if models[i][1][s][k] is None:
            raise TypeError(
                f"model {models[i][0]!r} at {step} {s}: value at level index {k} "
                f"is null, not a number"
            )
    return values


def _validate_forecasts(
    owner: str, names: tuple[str, ...], levels: QuantileLevels, values: np.ndarray, step: str
) -> None:
    """Check an (N, S, K) forecast block once, vectorized.

    The shape must hold ``names`` x S x ``levels``, names must be unique, and
    every row finite and non-decreasing under ``MONOTONE_REL_TOL``. The first
    bad row, model-major, is reported by model name and ``step``.
    """
    if not names:
        raise DimensionMismatch(f"{owner} has no models")
    if values.ndim != 3 or values.shape[0] != len(names) or values.shape[2] != len(levels):
        raise DimensionMismatch(
            f"{owner} values of shape {values.shape} do not hold "
            f"{len(names)} models x {step}s x {len(levels)} levels"
        )
    if len(set(names)) != len(names):
        # Random substreams are keyed by model name; repeats would share one.
        repeated = sorted({name for name in names if names.count(name) > 1})
        raise DimensionMismatch(f"{owner} repeats model names {repeated}")
    finite = np.isfinite(values)
    dips = _dips(values)
    bad = ~finite.all(axis=-1) | dips.any(axis=-1)
    if not bad.any():
        return
    i, s = (int(v) for v in np.argwhere(bad)[0])
    where = f"model {names[i]!r} at {step} {s}"
    if not finite[i, s].all():
        k = int(np.argmin(finite[i, s]))
        raise NonFinite(
            f"{where}: forecast values contains non-finite value "
            f"{float(values[i, s, k])!r} at index {k}"
        )
    indices = np.flatnonzero(dips[i, s]).tolist()
    raise NonMonotoneQuantiles(
        f"{where}: quantile values decrease at level indices {indices}",
        model=names[i],
        timestep=s,
        indices=tuple(indices),
    )


@dataclass(frozen=True, eq=False)
class ForecastPanel:
    """Everything needed to arbitrate and score one series.

    ``values[i, t]`` holds model ``model_names[i]``'s quantiles for horizon
    step ``t`` on ``levels``: one read-only float64 array of shape
    (N models, T steps, K levels), validated once when the panel is built.
    ``actuals`` may be ``None`` for evaluation-free arbitration; metric
    operations then raise :class:`MissingActuals`.
    """

    series_id: str
    context: tuple[float, ...]
    actuals: tuple[float, ...] | None
    seasonality: int
    model_names: tuple[str, ...]
    levels: QuantileLevels
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "context", tuple(float(v) for v in self.context))
        if self.actuals is not None:
            object.__setattr__(self, "actuals", tuple(float(v) for v in self.actuals))
        object.__setattr__(self, "model_names", tuple(str(n) for n in self.model_names))
        object.__setattr__(self, "values", _frozen(self.values))
        _validate_panel(self)

    def _args(self) -> tuple:
        return (self.series_id, self.context, self.actuals, self.seasonality,
                self.model_names, self.levels, self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ForecastPanel):
            return NotImplemented
        mine, theirs = self._args(), other._args()
        return mine[:-1] == theirs[:-1] and np.array_equal(mine[-1], theirs[-1])

    def __reduce__(self):
        # Unpickling goes through the constructor, so a copy is validated and
        # read-only too.
        return ForecastPanel, self._args()

    @property
    def n_models(self) -> int:
        return self.values.shape[0]

    @property
    def horizon(self) -> int:
        return self.values.shape[1]

    def forecasts_at(self, t: int) -> tuple[QuantileForecast, ...]:
        """All models' forecasts for horizon step ``t``, as value objects."""
        return tuple(QuantileForecast(self.levels, row) for row in self.values[:, t].tolist())

    def require_actuals(self) -> tuple[float, ...]:
        if self.actuals is None:
            raise MissingActuals(f"panel {self.series_id!r} has no actuals")
        return self.actuals


def _validate_panel(panel: ForecastPanel) -> None:
    owner = f"panel {panel.series_id!r}"
    _validate_forecasts(owner, panel.model_names, panel.levels, panel.values, "timestep")
    if panel.horizon < 1:
        raise DimensionMismatch(f"horizon must be positive, got {panel.horizon}")
    if panel.seasonality < 1:
        raise DimensionMismatch(f"seasonality must be positive, got {panel.seasonality}")
    _require_finite(panel.context, "context")
    if len(panel.context) < panel.seasonality + 1:
        raise DimensionMismatch(
            f"context length {len(panel.context)} shorter than seasonality "
            f"{panel.seasonality} + 1"
        )
    if panel.actuals is not None:
        _require_finite(panel.actuals, "actuals")
        if len(panel.actuals) != panel.horizon:
            raise DimensionMismatch(
                f"actuals length {len(panel.actuals)} does not match horizon {panel.horizon}"
            )


def build_panel(
    series_id: str,
    context: Sequence[float],
    actuals: Sequence[float] | None,
    seasonality: int,
    levels: QuantileLevels,
    models: Sequence[tuple[str, Sequence[Sequence[float]]]],
) -> ForecastPanel:
    """Assemble and validate a panel from raw per-model value matrices.

    ``models`` maps each name to a T x K matrix of quantile values, stacked
    into the panel's (N, T, K) array. Errors are annotated with model name
    and timestep, which is what file loaders want.
    """
    if not models:
        raise DimensionMismatch(f"panel {series_id!r} has no models")
    horizon = len(models[0][1])
    for name, matrix in models:
        if len(matrix) != horizon:
            raise DimensionMismatch(
                f"model {name!r} provides {len(matrix)} steps while model "
                f"{models[0][0]!r} provides {horizon}"
            )
    return ForecastPanel(
        series_id=series_id,
        context=context,
        actuals=actuals,
        seasonality=seasonality,
        model_names=tuple(name for name, _ in models),
        levels=levels,
        values=stack_forecasts(models, len(levels), "timestep"),
    )


def normalize_weights(raw: Sequence[float]) -> tuple[float, ...]:
    """Divide by the (exact) sum; the sum must be positive."""
    total = math.fsum(raw)
    if not total > 0.0:
        raise ValueError(f"cannot normalize weights with sum {total}")
    return tuple(w / total for w in raw)


@dataclass(frozen=True, eq=False)
class PerformanceWindow:
    """Backtest records that seed the rolling performance window of a run.

    ``values[i, j]`` holds model ``model_names[i]``'s quantiles on ``levels``
    for record ``j``, scored against ``observations[j]``: read-only float64
    arrays of shapes (N models, L records, K levels), the panel's layout, and
    (L,), validated once when the window is built. How many records a run
    keeps is the run's window capacity, not the window's.
    """

    model_names: tuple[str, ...]
    levels: QuantileLevels
    values: np.ndarray
    observations: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "model_names", tuple(str(n) for n in self.model_names))
        object.__setattr__(self, "values", _frozen(self.values))
        object.__setattr__(self, "observations", _frozen(self.observations))
        _validate_forecasts(
            "window", self.model_names, self.levels, self.values, "backtest step"
        )
        obs = self.observations
        if obs.shape != self.values.shape[1:2]:
            raise DimensionMismatch(
                f"window observations of shape {obs.shape} do not match {len(self)} records"
            )
        finite = np.isfinite(obs)
        if not finite.all():
            j = int(np.argmin(finite))
            raise NonFinite(f"window observation at backtest step {j} is {float(obs[j])!r}")

    def __reduce__(self):
        # As for panels: a copy goes through the constructor, so it is
        # validated and read-only too.
        return PerformanceWindow, (self.model_names, self.levels, self.values, self.observations)

    def __len__(self) -> int:
        return self.values.shape[1]


#: Weight-rule labels recorded in traces.
RULE_UNIFORM = "uniform"
RULE_INVERSE_ERROR = "inverse_error"
RULE_SOFTMAX = "softmax"
RULE_STATIC = "static"
WEIGHT_RULES = (RULE_UNIFORM, RULE_INVERSE_ERROR, RULE_SOFTMAX, RULE_STATIC)

#: Rules that weight by window scores; the others leave a step without any.
SCORED_RULES = (RULE_INVERSE_ERROR, RULE_SOFTMAX)


@dataclass(frozen=True)
class ArbitrationStep:
    """One timestep of a trace, as value objects, for diagnostics."""

    forecast: QuantileForecast
    weights: tuple[float, ...]
    sample_counts: tuple[int, ...]
    simulated_truth: float
    scores: tuple[float, ...] | None
    weight_rule: str  # "uniform" | "inverse_error" | "softmax" | "static"


@dataclass(frozen=True, eq=False)
class ArbitrationTrace:
    """Full record of one arbitration run over a horizon, as arrays.

    Row ``t`` of each array is timestep ``t``: ``quantiles`` (T, K) on
    ``levels``, ``weights`` and sample ``counts`` (T, N) in ``model_names``
    order, window ``scores`` (T, N), NaN where the step had none, the
    ``rules`` that set the weights (T,) and the ``simulated`` truths (T,).
    All are read-only and validated once, vectorized, when the trace is
    built.
    """

    series_id: str
    model_names: tuple[str, ...]
    n_total: int
    levels: QuantileLevels
    quantiles: np.ndarray
    weights: np.ndarray
    counts: np.ndarray
    scores: np.ndarray
    rules: np.ndarray
    simulated: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "model_names", tuple(str(n) for n in self.model_names))
        for name in ("quantiles", "weights", "scores", "simulated"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        for name, dtype in (("counts", np.int64), ("rules", str)):
            array = np.array(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        _validate_trace(self)

    def _args(self) -> tuple:
        return (self.series_id, self.model_names, self.n_total, self.levels, self.quantiles,
                self.weights, self.counts, self.scores, self.rules, self.simulated)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArbitrationTrace):
            return NotImplemented
        mine, theirs = self._args(), other._args()
        return mine[:4] == theirs[:4] and all(
            np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
            for a, b in zip(mine[4:], theirs[4:])
        )

    def __reduce__(self):
        # As for panels: a copy goes through the constructor.
        return ArbitrationTrace, self._args()

    def __len__(self) -> int:
        return len(self.rules)

    @property
    def steps(self) -> tuple[ArbitrationStep, ...]:
        """Every timestep as an :class:`ArbitrationStep`, built on each access."""
        return tuple(
            ArbitrationStep(
                forecast=forecast,
                weights=tuple(w),
                sample_counts=tuple(c),
                simulated_truth=m,
                scores=tuple(s) if rule in SCORED_RULES else None,
                weight_rule=rule,
            )
            for forecast, w, c, m, s, rule in zip(
                self.forecasts, self.weights.tolist(), self.counts.tolist(),
                self.simulated.tolist(), self.scores.tolist(), self.rules.tolist(),
            )
        )

    @property
    def forecasts(self) -> tuple[QuantileForecast, ...]:
        return tuple(QuantileForecast(self.levels, row) for row in self.quantiles.tolist())

    @property
    def medians(self) -> tuple[float, ...]:
        return tuple(self.simulated.tolist())

    def weights_at(self, t: int) -> tuple[float, ...]:
        return tuple(self.weights[t].tolist())


def _validate_trace(trace: ArbitrationTrace) -> None:
    """Check a trace's arrays once, vectorized; the first bad step is named."""
    n, k = len(trace.model_names), len(trace.levels)
    horizon = len(trace.rules)
    for name, shape in (
        ("quantiles", (horizon, k)),
        ("weights", (horizon, n)),
        ("counts", (horizon, n)),
        ("scores", (horizon, n)),
        ("simulated", (horizon,)),
    ):
        if getattr(trace, name).shape != shape:
            raise DimensionMismatch(
                f"trace {name} of shape {getattr(trace, name).shape}, expected {shape} "
                f"for {horizon} steps, {n} models and {k} levels"
            )
    rules = trace.rules.tolist()
    unknown = set(rules) - set(WEIGHT_RULES)
    if unknown:
        raise ValueError(f"trace has unknown weight rules {sorted(unknown)}")
    counts, weights, quantiles = trace.counts, trace.weights, trace.quantiles
    unscored = np.array([rule not in SCORED_RULES for rule in rules], dtype=bool)
    # Each check marks bad entries in arrays whose first axis is the step.
    # One reduction over each array tests it; only a failing check is
    # searched for its first bad step.
    checks = (
        ((counts < 0, counts.sum(axis=1) != trace.n_total), DimensionMismatch,
         f"sample counts are not a split of {trace.n_total}"),
        ((~np.isfinite(quantiles), ~np.isfinite(trace.simulated), ~np.isfinite(weights)),
         NonFinite, "values are not finite"),
        ((_dips(quantiles),), NonMonotoneQuantiles, "quantiles decrease"),
        ((weights < 0, np.abs(weights.sum(axis=1) - 1.0) > WEIGHT_SUM_TOL),
         ValueError, "weights are not a distribution"),
        ((np.isnan(trace.scores) != unscored[:, None],),
         ValueError, "window scores do not fit the weight rule"),
    )
    for marks, error, what in checks:
        bad = [mark.reshape(horizon, -1).any(axis=1) for mark in marks if np.count_nonzero(mark)]
        if bad:
            step = int(np.argmax(np.logical_or.reduce(bad)))
            raise error(f"trace {trace.series_id!r} at step {step}: {what}")
