"""Shared domain types: quantile grids, forecasts, panels, performance windows.

All types are immutable and validated at construction; they can be shared
freely across threads.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import struct
import sys
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

# Largest magnitude of a panel or window value, so that no score overflows
# float64: the steepest cubic term of a PCHIP inverse CDF grows as a value gap
# over the cube of a level gap (Fritsch & Carlson 1980), a level gap exceeds
# LEVEL_TOL, and the wQL divides by |y| floored at 1e-8. Panels with values
# at +-1e270 or 0 and level gaps just above LEVEL_TOL score without overflow.
MAX_ABS_VALUE = 1e270


def _require_within(
    values: Iterable[float], what: str, bound: float = sys.float_info.max, at: str = "index"
) -> None:
    """Reject a value above ``bound`` in magnitude or not finite, naming its
    position ``at``; the default bound passes every finite value."""
    for i, v in enumerate(values):
        if not abs(v) <= bound:  # NaN fails it too
            if isinstance(v, int) or math.isfinite(v):  # an int may be beyond float64
                raise NonFinite(
                    f"{what} contains out-of-range value {v!r} (|value| > {bound:g}) at {at} {i}"
                )
            raise NonFinite(f"{what} contains non-finite value {v!r} at {at} {i}")


#: What float conversion would read but a panel value is not: a JSON null
#: (read as NaN in an array), a string ("1.0") or a boolean (0.0 or 1.0).
_NOT_A_NUMBER = {type(None): "null", str: "a string", bool: "a boolean", np.bool_: "a boolean"}


def _non_number(values: Sequence) -> tuple[int, str] | None:
    """Index and kind of the first null, string or boolean in ``values``, or
    None; one C-level pass over the value types when there is none."""
    if set(map(type, values)).isdisjoint(_NOT_A_NUMBER):
        return None
    return next((i, _NOT_A_NUMBER[type(v)]) for i, v in enumerate(values)
                if type(v) in _NOT_A_NUMBER)


def _floats(values: Iterable, what: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats; a null, string or boolean raises ``TypeError`` and
    an integer beyond float64 :class:`NonFinite`, each naming ``what`` and its index."""
    values = tuple(values)
    bad = _non_number(values)
    if bad:
        raise TypeError(f"{what} value at index {bad[0]} is {bad[1]}, not a number")
    try:
        return tuple(map(float, values))
    except OverflowError:  # an integer beyond float64 is out of range
        _require_within(values, what, MAX_ABS_VALUE)
        raise


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
        object.__setattr__(self, "levels", _floats(self.levels, "levels"))
        if not self.levels:
            raise ValueError("at least one quantile level is required")
        _require_within(self.levels, "quantile levels")
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
    """Where values[..., k] -> values[..., k + 1] decreases beyond tolerance;
    no warning for values whose bound check rejects them."""
    lo, hi = values[..., :-1], values[..., 1:]
    with np.errstate(invalid="ignore", over="ignore"):
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
        _require_within(self.values, "forecast values")
        bad = np.flatnonzero(_dips(np.asarray(self.values))).tolist()
        if bad:
            raise NonMonotoneQuantiles(
                f"quantile values decrease at level indices {bad}", indices=tuple(bad)
            )


class _Record:
    """Base of the frozen dataclasses that hold arrays: equality by value,
    arrays compared element-wise with NaN equal to NaN in float arrays, and
    pickling through the constructor, so a copy is validated and read-only
    too. Equality and pickling see the fields the constructor takes."""

    def _args(self) -> tuple:
        return tuple(getattr(self, f.name) for f in dataclasses.fields(self) if f.init)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
            if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._args(), other._args())
        )

    def __reduce__(self):
        return type(self), self._args()


def _frozen(values) -> np.ndarray:
    """A read-only, C-ordered float64 copy of ``values``: scores reduce along
    the last axis, and their sums follow its memory order."""
    out = np.array(values, dtype=float, order="C")
    out.setflags(write=False)
    return out


def stack_forecasts(
    models: Sequence[tuple[str, Sequence[Sequence[float]]]], n_levels: int, step: str
) -> np.ndarray:
    """Stack per-model matrices of forecast rows into one (N, S, K) array.

    ``models`` pairs each name with S rows, S equal across models. A row
    whose length is not ``n_levels`` raises :class:`DimensionMismatch`, a
    null, string or boolean value (see ``_NOT_A_NUMBER``) raises
    ``TypeError`` and an integer beyond float64 raises :class:`NonFinite`;
    each names the model and the ``step`` ("timestep", "backtest step"). The
    rows are flattened and packed as doubles in one call; only a block that
    fails packing or holds a 0.0 or 1.0 (as a boolean packs) is type-scanned.
    """
    def located():  # each row, after the model and step that name it
        return ((f"model {name!r} at {step} {s}", row)
                for name, matrix in models for s, row in enumerate(matrix))
    rows = [row for _, matrix in models for row in matrix]
    if set(map(len, rows)) - {n_levels}:
        where, row = next((where, row) for where, row in located() if len(row) != n_levels)
        raise DimensionMismatch(f"{where}: forecast has {len(row)} values for {n_levels} levels")
    flat: list = []
    for row in rows:
        flat += row
    try:  # a null, a string and an integer beyond float64 fail packing
        values = np.frombuffer(struct.pack(f"{len(flat)}d", *flat))
    except struct.error:
        values = None
    if values is None or ((values == 0.0) | (values == 1.0)).any():
        if not set(map(type, flat)).isdisjoint(_NOT_A_NUMBER):
            for where, row in located():
                bad = _non_number(row)
                if bad:
                    raise TypeError(f"{where}: value at level index {bad[0]} is {bad[1]}, "
                                    "not a number")
    if values is None:  # read each value as float() does, or raise its error
        try:
            values = np.fromiter(flat, float, len(flat))
        except OverflowError:  # an integer beyond float64 is out of range
            for where, row in located():
                _require_within(row, f"{where}: forecast values", MAX_ABS_VALUE)
            raise
    # Matrices without rows stack to (N, 0, K) too.
    return values.reshape(len(models), len(models[0][1]), n_levels)


def _validate_forecasts(
    owner: str, names: tuple[str, ...], levels: QuantileLevels, values: np.ndarray, step: str
) -> None:
    """Check an (N, S, K) forecast block once, vectorized.

    The shape must hold ``names`` x S x ``levels``, names must be unique, and
    every row within ``MAX_ABS_VALUE`` and non-decreasing under
    ``MONOTONE_REL_TOL``. The first bad row, model-major, is reported by
    ``owner``, model name and ``step``.
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
    # All good in two reductions (NaN and +-inf fail the bound); else search.
    if (np.abs(values).max(initial=0.0) <= MAX_ABS_VALUE
            and (values[..., 1:] >= values[..., :-1]).all()):
        return
    dips = _dips(values)
    bad = ~(np.abs(values) <= MAX_ABS_VALUE).all(axis=-1) | dips.any(axis=-1)
    if not bad.any():
        return
    i, s = (int(v) for v in np.argwhere(bad)[0])
    where = f"{owner}, model {names[i]!r} at {step} {s}"
    _require_within(values[i, s].tolist(), f"{where}: forecast values", MAX_ABS_VALUE)
    indices = np.flatnonzero(dips[i, s]).tolist()
    raise NonMonotoneQuantiles(
        f"{where}: quantile values decrease at level indices {indices}",
        model=names[i],
        timestep=s,
        indices=tuple(indices),
    )


@dataclass(frozen=True, eq=False)
class ForecastPanel(_Record):
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
        owner = f"panel {self.series_id!r}"
        object.__setattr__(self, "context", _floats(self.context, f"{owner}: context"))
        if self.actuals is not None:
            object.__setattr__(self, "actuals", _floats(self.actuals, f"{owner}: actuals"))
        object.__setattr__(self, "model_names", tuple(str(n) for n in self.model_names))
        object.__setattr__(self, "values", _frozen(self.values))
        _validate_panel(self)

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
    _require_within(panel.context, f"{owner}: context", MAX_ABS_VALUE)
    if len(panel.context) < panel.seasonality + 1:
        raise DimensionMismatch(
            f"context length {len(panel.context)} shorter than seasonality "
            f"{panel.seasonality} + 1"
        )
    if panel.actuals is not None:
        _require_within(panel.actuals, f"{owner}: actuals", MAX_ABS_VALUE)
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
class PerformanceWindow(_Record):
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
        _require_within(obs.tolist(), "window observations", MAX_ABS_VALUE, "backtest step")

    def __len__(self) -> int:
        return self.values.shape[1]


#: Weight-rule labels recorded in traces; only an inverse-error step weights
#: by window scores, the others leave a step without any.
RULE_UNIFORM = "uniform"
RULE_INVERSE_ERROR = "inverse_error"
RULE_STATIC = "static"
WEIGHT_RULES = (RULE_UNIFORM, RULE_INVERSE_ERROR, RULE_STATIC)


@dataclass(frozen=True)
class ArbitrationStep:
    """One timestep of a trace, as value objects, for diagnostics."""

    forecast: QuantileForecast
    weights: tuple[float, ...]
    sample_counts: tuple[int, ...]
    simulated_truth: float
    scores: tuple[float, ...] | None
    weight_rule: str  # "uniform" | "inverse_error" | "static"


@dataclass(frozen=True, eq=False)
class ArbitrationTrace(_Record):
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
        object.__setattr__(self, "model_names", tuple(map(str, self.model_names)))
        for name in ("quantiles", "weights", "scores", "simulated"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        for name, dtype in (("counts", np.int64), ("rules", str)):
            array = np.array(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        _validate_trace(self)

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
                scores=tuple(s) if rule == RULE_INVERSE_ERROR else None,
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
    unscored = trace.rules != RULE_INVERSE_ERROR
    # Each check marks bad entries in arrays whose first axis is the step.
    # One reduction over each array tests it; only a failing check is
    # searched for its first bad step. A dip beyond tolerance is a decrease,
    # so the tolerance is applied only where the quantiles decrease at all.
    decreasing = quantiles[:, 1:] < quantiles[:, :-1]
    checks = (
        ((counts < 0, counts.sum(axis=1) != trace.n_total), DimensionMismatch,
         f"sample counts are not a split of {trace.n_total}"),
        ((~np.isfinite(quantiles), ~np.isfinite(trace.simulated), ~np.isfinite(weights)),
         NonFinite, "values are not finite"),
        ((_dips(quantiles) if decreasing.any() else decreasing,), NonMonotoneQuantiles,
         "quantiles decrease"),
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
