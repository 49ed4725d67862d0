"""Shared domain types: quantile grids, forecasts, panels, performance windows.

All types are immutable and validated at construction; they can be shared
freely across threads. The record or spec that holds a field checks it, by
one rule for each kind of field: a name (a series id, model name or tag) is a
``str``, numpy's included, stored as a plain one, and a level grid is a
:class:`QuantileLevels` (:func:`require_type`); a real value is anything that
packs into a double except a boolean (``_floats``), and an array of them may
also be one float or integer array (``_frozen``); a seed, seasonality or
count is an ``int`` or numpy integer, not a boolean (:func:`require_integer`).
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
            if v == v and abs(v) != math.inf:  # an int may be beyond float64
                raise NonFinite(
                    f"{what} contains out-of-range value {v!r} (|value| > {bound:g}) at {at} {i}"
                )
            raise NonFinite(f"{what} contains non-finite value {v!r} at {at} {i}")


#: Types that are numbers whatever their value: a panel file's, and an array's floats.
_PLAIN = {float, int, np.float64}


def _require_numbers(values: Iterable, what: str, at: str = "index") -> None:
    """Reject the first value that is not a number with a ``TypeError`` naming
    ``what``, its position ``at`` and its kind. A number is what packing into
    a double accepts, an integer beyond float64 too, and is not a boolean."""
    for i, v in enumerate(values):
        try:
            if not isinstance(v, (bool, np.bool_)) and (isinstance(v, int) or struct.pack("d", v)):
                continue
            kind = "a boolean"
        except struct.error:
            kind = ("null" if v is None else "a string" if isinstance(v, (str, bytes))
                    else f"of type {type(v).__name__}")
        raise TypeError(f"{what} value at {at} {i} is {kind}, not a number")


def _floats(values: Iterable, what: str, bound: float | None = None,
            at: str = "index") -> tuple[float, ...]:
    """``values`` as a tuple of floats, each within ``bound`` in magnitude when
    one is given. A value that is not a number raises ``TypeError``; a value
    beyond ``bound``, NaN, +-inf and an integer beyond float64 raise
    :class:`NonFinite`; each names ``what`` and the position ``at``. Only
    values that are not all plain floats and ints have their types scanned."""
    values = tuple(values)
    types = set(map(type, values))
    if not types <= _PLAIN:
        _require_numbers(values, what, at)
    try:  # a float reads as itself
        out = values if types <= {float} else tuple(map(float, values))
    except OverflowError:  # an integer beyond float64 is out of range
        _require_within(values, what, MAX_ABS_VALUE, at)
        raise
    if bound is not None:
        _require_within(out, what, bound, at)
    return out


def require_integer(value: object, what: str, low: int | None = None) -> int:
    """``value`` as an ``int``: a bool, a non-integer (numpy integers pass) or
    a ``value`` below ``low`` raises a ``ValueError`` naming ``what``."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, (bool, np.bool_))
            or low is not None and value < low):
        at_least = "" if low is None else f" >= {low}"
        raise ValueError(f"{what} must be an integer{at_least}, got {value!r}")
    return int(value)


def require_type(value, kind: type, what: str):
    """``value``, which must be a ``kind`` (or a subclass of it): anything else
    raises a ``TypeError`` naming ``what``. A ``str`` is returned as a plain
    one, so a name given as numpy's ``str_`` is stored as any other."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be a {kind.__name__}, got {value!r}")
    return str(value) if kind is str else value


def _real_fields(record: object, *fields: str) -> None:
    """Set each of ``record``'s ``fields`` as a float, read by the number rule:
    a value that is not a number raises ``TypeError`` naming the field, and
    one that is not finite ``ValueError``."""
    for field in fields:
        value, = _floats((getattr(record, field),), field)
        if not math.isfinite(value):
            raise ValueError(f"{field} must be finite, got {value!r}")
        object.__setattr__(record, field, value)


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
        require_type(self.levels, QuantileLevels, "levels")
        object.__setattr__(self, "values", _floats(self.values, "forecast", sys.float_info.max))
        if len(self.values) != len(self.levels):
            raise DimensionMismatch(
                f"forecast has {len(self.values)} values for {len(self.levels)} levels"
            )
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


def _frozen(values, what: str, integer: bool = False) -> np.ndarray:
    """A read-only, C-ordered float64 (for ``integer`` counts, int64) copy of
    ``values``: scores reduce along the last axis, and their sums follow its
    memory order. A float or integer array (for counts, an integer one) is
    copied as it is; anything else is read value by value, by the number rule
    or :func:`require_integer`, naming ``what`` and the flat index; ragged
    rows raise :class:`DimensionMismatch`."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in ("iu" if integer else "fiu")):
        block = np.array(values, dtype=object)  # each value kept as it was given
        flat = block.ravel().tolist()
        if any(np.iterable(v) and not isinstance(v, (str, bytes)) for v in flat):
            raise DimensionMismatch(f"{what} rows are ragged")
        values = np.reshape([require_integer(v, f"{what} value at index {i}")
                             for i, v in enumerate(flat)] if integer else _floats(flat, what),
                            block.shape)
    out = np.array(values, dtype=np.int64 if integer else float, order="C")
    out.setflags(write=False)
    return out


def _set_forecasts(record: _Record, owner: str, step: str) -> None:
    """Set ``record``'s model names as plain strings and its values as a
    validated read-only, C-ordered (N, S, K) float64 copy. A float or integer
    array is copied as it is; anything else, a boolean array included, is
    read as one matrix of rows per model, through :func:`stack_forecasts`."""
    names = tuple(require_type(name, str, owner + ": model name") for name in record.model_names)
    values, levels = record.values, require_type(record.levels, QuantileLevels, "levels")
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        values = values.tolist() if isinstance(values, np.ndarray) else values
        if len(values) != len(names):
            raise DimensionMismatch(
                f"{owner} values hold {len(values)} models for {len(names)} model names")
        values = stack_forecasts(list(zip(names, values)), len(levels), step)
    values = _frozen(values, f"{owner} values")
    _validate_forecasts(owner, names, levels, values, step)
    object.__setattr__(record, "model_names", names)
    object.__setattr__(record, "values", values)


def stack_forecasts(
    models: Sequence[tuple[str, Sequence[Sequence[float]]]], n_levels: int, step: str
) -> np.ndarray:
    """Stack per-model matrices of forecast rows into one (N, S, K) array.

    ``models`` pairs each name with S rows. A matrix whose row count differs
    from the first's, or a row whose length is not ``n_levels``, raises
    :class:`DimensionMismatch`, a value that is not a number (see
    ``_require_numbers``) raises ``TypeError`` and an integer beyond float64
    raises :class:`NonFinite`; each names the model and the ``step``
    ("timestep", "backtest step"). The rows are flattened and packed as
    doubles in one call; only a block that fails packing or holds a 0.0 or
    1.0 (as a boolean packs) has its value types scanned.
    """
    steps = len(models[0][1]) if models else 0
    for name, matrix in models:
        if len(matrix) != steps:
            raise DimensionMismatch(f"model {name!r} provides {len(matrix)} steps while model "
                                    f"{models[0][0]!r} provides {steps}")
    def located():  # each row, after the model and step that name it
        return ((f"model {name!r} at {step} {s}:", row)
                for name, matrix in models for s, row in enumerate(matrix))
    rows = [row for _, matrix in models for row in matrix]
    if set(map(len, rows)) - {n_levels}:
        where, row = next((where, row) for where, row in located() if len(row) != n_levels)
        raise DimensionMismatch(f"{where} forecast has {len(row)} values for {n_levels} levels")
    flat: list = []
    for row in rows:
        flat += row
    try:  # what is not a number, and an integer beyond float64, fail packing
        values = np.frombuffer(struct.pack(f"{len(flat)}d", *flat))
    except struct.error:
        values = None
    if values is None or ((values == 0.0) | (values == 1.0)).any():
        if not set(map(type, flat)) <= _PLAIN:
            for where, row in located():
                _require_numbers(row, where, "level index")
        if values is None:  # only an integer beyond float64 is left to fail packing
            for where, row in located():
                _require_within(row, f"{where} forecast values", MAX_ABS_VALUE)
    return values.reshape(len(models), steps, n_levels)


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
        object.__setattr__(self, "series_id", require_type(self.series_id, str, "series_id"))
        owner = f"panel {self.series_id!r}"
        _set_forecasts(self, owner, "timestep")
        seasonality = require_integer(self.seasonality, "seasonality")
        context = _floats(self.context, f"{owner}: context", MAX_ABS_VALUE)
        actuals = (None if self.actuals is None
                   else _floats(self.actuals, f"{owner}: actuals", MAX_ABS_VALUE))
        for name, value in (("seasonality", seasonality), ("context", context),
                            ("actuals", actuals)):
            object.__setattr__(self, name, value)
        if self.horizon < 1:
            raise DimensionMismatch(f"horizon must be positive, got {self.horizon}")
        if seasonality < 1:
            raise DimensionMismatch(f"seasonality must be positive, got {seasonality}")
        if len(context) < seasonality + 1:
            raise DimensionMismatch(
                f"context length {len(context)} shorter than seasonality {seasonality} + 1"
            )
        if actuals is not None and len(actuals) != self.horizon:
            raise DimensionMismatch(
                f"actuals length {len(actuals)} does not match horizon {self.horizon}"
            )

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
    into the panel's (N, T, K) array as the panel stacks nested values.
    Errors are annotated with model name and timestep, which is what file
    loaders want.
    """
    return ForecastPanel(
        series_id=series_id,
        context=context,
        actuals=actuals,
        seasonality=seasonality,
        model_names=tuple(name for name, _ in models),
        levels=levels,
        values=[matrix for _, matrix in models],
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
        _set_forecasts(self, "window", "backtest step")
        obs = _frozen(np.array(_floats(self.observations, "window observations", MAX_ABS_VALUE,
                                       "backtest step")), "window observations")
        object.__setattr__(self, "observations", obs)
        if obs.shape != self.values.shape[1:2]:
            raise DimensionMismatch(
                f"window observations of shape {obs.shape} do not match {len(self)} records"
            )

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
        sid = require_type(self.series_id, str, "series_id")
        owner = f"trace {sid!r}"
        rules = np.array(self.rules, dtype=str)  # the rule check rejects any other label
        rules.setflags(write=False)
        names = tuple(require_type(name, str, owner + ": model name") for name in self.model_names)
        fields = dict(series_id=sid, model_names=names, rules=rules,
                      n_total=require_integer(self.n_total, "n_total"),
                      levels=require_type(self.levels, QuantileLevels, "levels"))
        for name in ("quantiles", "weights", "counts", "scores", "simulated"):
            fields[name] = _frozen(getattr(self, name), f"{owner}: {name}", name == "counts")
        for name, value in fields.items():
            object.__setattr__(self, name, value)
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
