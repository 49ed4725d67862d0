"""Shared domain types: quantile grids, forecasts, panels, performance windows.

All types are immutable and validated at construction; they can be shared
freely across threads.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
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

# Levels closer than this count as the same level.
LEVEL_TOL = 1e-12

# Absolute tolerance on weight-vector normalization.
WEIGHT_SUM_TOL = 1e-9


def _require_finite(values: Iterable[float], what: str) -> None:
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise NonFinite(f"{what} contains non-finite value {v!r} at index {i}")


@dataclass(frozen=True)
class QuantileLevels:
    """Strictly increasing probability levels in the open interval (0, 1)."""

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

    def value_at(self, alpha: float) -> float:
        """Value at probability ``alpha``: exact when on the grid, else linear in level."""
        return float(quantile_at(self.levels.levels, self.values, alpha))

    @property
    def median(self) -> float:
        return self.value_at(0.5)


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
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
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

    def model_forecasts(self, name: str) -> tuple[QuantileForecast, ...]:
        """One model's forecasts over the horizon, as value objects."""
        if name not in self.model_names:
            raise KeyError(f"panel {self.series_id!r} has no model {name!r}")
        rows = self.values[self.model_names.index(name)].tolist()
        return tuple(QuantileForecast(self.levels, row) for row in rows)

    def require_actuals(self) -> tuple[float, ...]:
        if self.actuals is None:
            raise MissingActuals(f"panel {self.series_id!r} has no actuals")
        return self.actuals


def _validate_panel(panel: ForecastPanel) -> None:
    names = panel.model_names
    values = panel.values
    if not names:
        raise DimensionMismatch(f"panel {panel.series_id!r} has no models")
    if values.ndim != 3 or values.shape[0] != len(names) or values.shape[2] != len(panel.levels):
        raise DimensionMismatch(
            f"panel {panel.series_id!r} values of shape {values.shape} do not hold "
            f"{len(names)} models x horizon x {len(panel.levels)} levels"
        )
    if panel.horizon < 1:
        raise DimensionMismatch(f"horizon must be positive, got {panel.horizon}")
    if panel.seasonality < 1:
        raise DimensionMismatch(f"seasonality must be positive, got {panel.seasonality}")
    if len(set(names)) != len(names):
        # Random substreams are keyed by model name; repeats would share one.
        repeated = sorted({name for name in names if names.count(name) > 1})
        raise DimensionMismatch(
            f"panel {panel.series_id!r} repeats model names {repeated}"
        )
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
    finite = np.isfinite(values)
    dips = _dips(values)
    bad = ~finite.all(axis=-1) | dips.any(axis=-1)
    if not bad.any():
        return
    i, t = (int(v) for v in np.argwhere(bad)[0])
    where = f"model {names[i]!r} at timestep {t}"
    if not finite[i, t].all():
        k = int(np.argmin(finite[i, t]))
        raise NonFinite(
            f"{where}: forecast values contains non-finite value "
            f"{float(values[i, t, k])!r} at index {k}"
        )
    indices = np.flatnonzero(dips[i, t]).tolist()
    raise NonMonotoneQuantiles(
        f"{where}: quantile values decrease at level indices {indices}",
        model=names[i],
        timestep=t,
        indices=tuple(indices),
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
        for t, row in enumerate(matrix):
            if len(row) != len(levels):
                raise DimensionMismatch(
                    f"model {name!r} at timestep {t}: forecast has {len(row)} values "
                    f"for {len(levels)} levels"
                )
    values = np.array([matrix for _, matrix in models], dtype=float)
    try:
        return ForecastPanel(
            series_id=series_id,
            context=context,
            actuals=actuals,
            seasonality=seasonality,
            model_names=tuple(name for name, _ in models),
            levels=levels,
            values=values.reshape(len(models), horizon, len(levels)),
        )
    except NonFinite:
        # float conversion reads None (JSON null) as NaN; report it as what it is.
        for i, t, k in np.argwhere(np.isnan(values)).tolist():
            if models[i][1][t][k] is None:
                raise TypeError(
                    f"model {models[i][0]!r} at timestep {t}: value at level index {k} "
                    f"is null, not a number"
                ) from None
        raise


@dataclass(frozen=True)
class WeightVector:
    """Non-negative per-model weights summing to one."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not self.weights:
            raise ValueError("weight vector must not be empty")
        _require_finite(self.weights, "weights")
        for w in self.weights:
            if w < 0.0:
                raise ValueError(f"negative weight {w}")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total}, expected 1 within {WEIGHT_SUM_TOL}")

    @classmethod
    def normalized(cls, raw: Sequence[float]) -> "WeightVector":
        """Divide by the (exact) sum; the sum must be positive."""
        total = math.fsum(raw)
        if not total > 0.0:
            raise ValueError(f"cannot normalize weights with sum {total}")
        return cls(tuple(w / total for w in raw))

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        return cls((1.0 / n,) * n)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class PerformanceRecord:
    """One window entry: an observation and every model's forecast for it."""

    observation: float
    forecasts: tuple[QuantileForecast, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "observation", float(self.observation))
        object.__setattr__(self, "forecasts", tuple(self.forecasts))
        if not math.isfinite(self.observation):
            raise NonFinite(f"observation {self.observation!r} is not finite")
        if not self.forecasts:
            raise DimensionMismatch("performance record needs at least one forecast")
        levels = self.forecasts[0].levels
        if any(fc.levels != levels for fc in self.forecasts):
            raise DimensionMismatch("forecasts of one performance record use different grids")


@dataclass(frozen=True)
class PerformanceWindow:
    """FIFO window of performance records, bounded by ``capacity``.

    Immutable: :meth:`push` returns a new window, evicting the oldest record
    when full.
    """

    capacity: int
    records: tuple[PerformanceRecord, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        if self.capacity < 1:
            raise ValueError(f"window capacity must be >= 1, got {self.capacity}")
        if len(self.records) > self.capacity:
            raise ValueError(
                f"{len(self.records)} records exceed capacity {self.capacity}"
            )
        n = {len(r.forecasts) for r in self.records}
        if len(n) > 1:
            raise DimensionMismatch(f"records disagree on model count: {sorted(n)}")

    def push(self, record: PerformanceRecord) -> "PerformanceWindow":
        kept = self.records[1:] if len(self.records) == self.capacity else self.records
        return PerformanceWindow(self.capacity, kept + (record,))

    def __len__(self) -> int:
        return len(self.records)

    @property
    def is_empty(self) -> bool:
        return not self.records


@dataclass(frozen=True)
class ArbitrationStep:
    """Per-timestep arbitration output, kept for diagnostics."""

    forecast: QuantileForecast
    weights: WeightVector
    sample_counts: tuple[int, ...]
    simulated_truth: float
    scores: tuple[float, ...] | None
    weight_rule: str  # "uniform" | "inverse_error" | "softmax" | "static"


@dataclass(frozen=True)
class ArbitrationTrace:
    """Full record of one arbitration run over a horizon."""

    series_id: str
    model_names: tuple[str, ...]
    n_total: int
    steps: tuple[ArbitrationStep, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        n = len(self.model_names)
        for t, step in enumerate(self.steps):
            if len(step.sample_counts) != n:
                raise DimensionMismatch(
                    f"step {t} has {len(step.sample_counts)} sample counts for {n} models"
                )
            if sum(step.sample_counts) != self.n_total:
                raise DimensionMismatch(
                    f"step {t} sample counts sum to {sum(step.sample_counts)}, "
                    f"expected {self.n_total}"
                )
            if len(step.weights) != n:
                raise DimensionMismatch(
                    f"step {t} has {len(step.weights)} weights for {n} models"
                )

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def forecasts(self) -> tuple[QuantileForecast, ...]:
        return tuple(step.forecast for step in self.steps)

    @property
    def medians(self) -> tuple[float, ...]:
        return tuple(step.forecast.median for step in self.steps)

    def weights_at(self, t: int) -> tuple[float, ...]:
        return self.steps[t].weights.weights
