"""Shared domain types: quantile grids, forecasts, panels, performance windows.

All types are immutable value objects validated at construction; they can be
shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import (
    DimensionMismatch,
    MissingActuals,
    NonFinite,
    NonMonotoneQuantiles,
)

# Relative tolerance for quantile monotonicity: decreases no larger than this
# (relative to the neighbouring magnitudes) are accepted as float noise.
MONOTONE_REL_TOL = 1e-12

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


def _monotone_violations(values: Sequence[float]) -> list[int]:
    """Indices i where values[i] -> values[i+1] decreases beyond tolerance."""
    bad = []
    for i in range(len(values) - 1):
        lo, hi = values[i], values[i + 1]
        drop = lo - hi
        if drop > MONOTONE_REL_TOL * max(abs(lo), abs(hi)):
            bad.append(i)
    return bad


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
        bad = _monotone_violations(self.values)
        if bad:
            raise NonMonotoneQuantiles(
                f"quantile values decrease at level indices {bad}", indices=tuple(bad)
            )

    def value_at(self, alpha: float) -> float:
        """Value at probability ``alpha``: exact when on the grid, else linear in level."""
        lv = self.levels.levels
        for a, v in zip(lv, self.values):
            if abs(a - alpha) <= 1e-12:
                return v
        if alpha <= lv[0]:
            return self.values[0]
        if alpha >= lv[-1]:
            return self.values[-1]
        for i in range(len(lv) - 1):
            if lv[i] < alpha < lv[i + 1]:
                frac = (alpha - lv[i]) / (lv[i + 1] - lv[i])
                return self.values[i] + frac * (self.values[i + 1] - self.values[i])
        raise AssertionError("unreachable")

    @property
    def median(self) -> float:
        return self.value_at(0.5)


@dataclass(frozen=True)
class ForecastPanel:
    """Everything needed to arbitrate and score one series.

    ``models`` holds ``(name, forecasts)`` pairs where each forecast list spans
    the horizon. ``actuals`` may be ``None`` for evaluation-free arbitration;
    metric operations then raise :class:`MissingActuals`.
    """

    series_id: str
    context: tuple[float, ...]
    actuals: tuple[float, ...] | None
    horizon: int
    seasonality: int
    models: tuple[tuple[str, tuple[QuantileForecast, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "context", tuple(float(v) for v in self.context))
        if self.actuals is not None:
            object.__setattr__(self, "actuals", tuple(float(v) for v in self.actuals))
        object.__setattr__(
            self,
            "models",
            tuple((str(name), tuple(fs)) for name, fs in self.models),
        )
        _validate_panel_fields(self)

    @property
    def n_models(self) -> int:
        return len(self.models)

    @property
    def model_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.models)

    @property
    def levels(self) -> QuantileLevels:
        return self.models[0][1][0].levels

    def forecasts_at(self, t: int) -> tuple[QuantileForecast, ...]:
        """All models' forecasts for horizon step ``t``."""
        return tuple(fs[t] for _, fs in self.models)

    def model_forecasts(self, name: str) -> tuple[QuantileForecast, ...]:
        for n, fs in self.models:
            if n == name:
                return fs
        raise KeyError(f"panel {self.series_id!r} has no model {name!r}")

    def require_actuals(self) -> tuple[float, ...]:
        if self.actuals is None:
            raise MissingActuals(f"panel {self.series_id!r} has no actuals")
        return self.actuals


def _validate_panel_fields(panel: ForecastPanel) -> None:
    if panel.horizon < 1:
        raise DimensionMismatch(f"horizon must be positive, got {panel.horizon}")
    if panel.seasonality < 1:
        raise DimensionMismatch(f"seasonality must be positive, got {panel.seasonality}")
    if not panel.models:
        raise DimensionMismatch(f"panel {panel.series_id!r} has no models")
    names = panel.model_names
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
    ref_levels = None
    for name, forecasts in panel.models:
        if len(forecasts) != panel.horizon:
            raise DimensionMismatch(
                f"model {name!r} provides {len(forecasts)} steps for horizon {panel.horizon}"
            )
        for t, fc in enumerate(forecasts):
            if not isinstance(fc, QuantileForecast):
                raise DimensionMismatch(
                    f"model {name!r} step {t} is not a QuantileForecast"
                )
            if ref_levels is None:
                ref_levels = fc.levels
            elif fc.levels.levels != ref_levels.levels:
                raise DimensionMismatch(
                    f"model {name!r} step {t} uses a different quantile grid"
                )


def validate_panel(panel: ForecastPanel) -> ForecastPanel:
    """Re-check every panel invariant, including per-forecast monotonicity.

    Construction already validates, so this mainly guards panels assembled by
    hand or deserialized through non-standard paths. Returns the panel.
    """
    _validate_panel_fields(panel)
    for name, forecasts in panel.models:
        for t, fc in enumerate(forecasts):
            bad = _monotone_violations(fc.values)
            if bad:
                raise NonMonotoneQuantiles(
                    f"model {name!r} at timestep {t}: quantile values decrease "
                    f"at level indices {bad}",
                    model=name,
                    timestep=t,
                    indices=tuple(bad),
                )
    return panel


def build_panel(
    series_id: str,
    context: Sequence[float],
    actuals: Sequence[float] | None,
    seasonality: int,
    levels: QuantileLevels,
    models: Sequence[tuple[str, Sequence[Sequence[float]]]],
) -> ForecastPanel:
    """Assemble and validate a panel from raw per-model value matrices.

    ``models`` maps each name to a T x K matrix of quantile values. Errors are
    annotated with model name and timestep, which is what file loaders want.
    """
    if not models:
        raise DimensionMismatch(f"panel {series_id!r} has no models")
    horizon = len(models[0][1])
    built = []
    for name, matrix in models:
        if len(matrix) != horizon:
            raise DimensionMismatch(
                f"model {name!r} provides {len(matrix)} steps while model "
                f"{models[0][0]!r} provides {horizon}"
            )
        forecasts = []
        for t, row in enumerate(matrix):
            try:
                forecasts.append(QuantileForecast(levels, tuple(row)))
            except NonMonotoneQuantiles as exc:
                raise NonMonotoneQuantiles(
                    f"model {name!r} at timestep {t}: {exc}",
                    model=name,
                    timestep=t,
                    indices=exc.indices,
                ) from None
            except (DimensionMismatch, NonFinite) as exc:
                raise type(exc)(f"model {name!r} at timestep {t}: {exc}") from None
        built.append((name, tuple(forecasts)))
    return ForecastPanel(
        series_id=series_id,
        context=tuple(context),
        actuals=None if actuals is None else tuple(actuals),
        horizon=horizon,
        seasonality=seasonality,
        models=tuple(built),
    )


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
