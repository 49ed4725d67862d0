"""One rule for each kind of field, held at every entry point of the Python API.

A real value is anything that packs into a double and is not a boolean; a
seed, a seasonality or a count is an ``int`` or numpy integer that is not a
boolean; a name is a ``str``, numpy's included, stored as a plain one; a
level grid is a ``QuantileLevels``; a part that a spec or a wrapper holds is
of its own kind. Each entry point rejects the same kind of value with the
same class, naming the field and the position, and reads an accepted value
as ``float`` reads it.
"""

from __future__ import annotations

import math
import re
import struct
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest

from quantarb.arbitration import ArbitratorConfig, seed_window_from_context
from quantarb.core import (
    DEFAULT_LEVELS,
    ArbitrationTrace,
    ForecastPanel,
    PerformanceWindow,
    QuantileForecast,
    QuantileLevels,
    build_panel,
)
from quantarb.errors import NonFinite
from quantarb.metrics import mase_scale
from quantarb.oracle import OracleTrace
from quantarb.panelio import PanelMetadata, TaggedPanel
from quantarb.quantiles import RandomStreams
from quantarb.reporting import PoolScalingRow, ReportRow, run_evaluation
from quantarb.synthetic import (
    RegimeSpec,
    Segment,
    SyntheticExpert,
    build_benchmark_suite,
    expert_forecast,
)

_GRID = QuantileLevels((0.25, 0.5, 0.75))
_ROW = [1.0, 2.0, 5.0]  # level index 1 is the slot
_CONTEXT = [1.0, 2.0, 3.0, 4.0]  # index 1 is the slot


def _row(value):
    return [_ROW[0], value, _ROW[2]]


def _at(sequence, value):
    out = list(sequence)
    out[1] = value
    return out


def _object_block(value):
    """A (1, 1, 3) object array holding ``value`` at level index 1, so that
    the array keeps the value as it was given."""
    block = np.empty((1, 1, 3), dtype=object)
    block[0, 0] = _row(value)
    return block


def _trace(**fields):
    """A one-step, two-model trace on ``_GRID`` that splits 10 samples under
    uniform weights; keyword ``fields`` replace any of its fields."""
    return ArbitrationTrace(**{**dict(
        series_id="s", model_names=("a", "b"), n_total=10, levels=_GRID, quantiles=[_ROW],
        weights=[[0.5, 0.5]], counts=[[4, 6]], scores=[[math.nan] * 2], rules=["uniform"],
        simulated=[2.0]), **fields})


def _one_model_trace(**fields):
    """:func:`_trace` of one model, which takes every sample at weight 1."""
    return _trace(**{**dict(model_names=("a",), n_total=1, weights=[[1.0]], counts=[[1]],
                            scores=[[math.nan]]), **fields})


def _report_row(**fields):
    """A registered method's overall row; keyword ``fields`` replace any score
    or count."""
    return ReportRow(**{**dict(method="median", scope="overall", n_panels=1, crps=0.1,
                               mase=0.2, wins=0, losses=0, ties=0), **fields})


def _pool_row(**fields):
    """A two-model pool-scaling row; keyword ``fields`` replace any of its fields."""
    return PoolScalingRow(**{**dict(pool_size=2, model_names=("a", "b"), crps=0.1, mase=0.2,
                                    best_individual="a", best_individual_crps=0.3,
                                    best_individual_mase=0.4), **fields})


#: An expert with no spread, which forecasts the actual itself at every level.
_FLAT = SyntheticExpert("e", (0,), sharpness=0.0)


_SPEC = RegimeSpec((Segment(3, 1.0),), context_length=1)


class _Entry(NamedTuple):
    """How to build an entry point with ``value`` in its slot and what its
    messages name; whether values beyond 1e270 are out of range there; what
    NaN and +-inf raise and name (None where it takes some of them); a number
    of ``value``'s type that the entry accepts; and where the value ends up."""

    build: Callable
    names: tuple[str, ...]
    bounded: bool
    non_finite: tuple[type, tuple[str, ...]] | None
    valid: Callable
    stored: Callable


def _entry(build, names, stored, bounded=False, non_finite=(NonFinite, None),
           valid=lambda value: value):
    """An :class:`_Entry`; by default NaN and +-inf raise ``NonFinite`` naming
    what a value that is not a number names."""
    if non_finite is not None and non_finite[1] is None:
        non_finite = (non_finite[0], names)
    return _Entry(build, names, bounded, non_finite, valid, stored)


def _spec_field(build, field):
    """A real field of a spec or a score: NaN and +-inf raise ``ValueError``
    naming it."""
    return _entry(build, (field,), lambda made: getattr(made, field),
                  non_finite=(ValueError, (f"{field} must be finite",)))


_ROW_WHERE = ("model 'a' at timestep 0", "index 1")
_STEP = ("trace 's' at step 0",)
_ENTRY_POINTS = {
    "QuantileLevels": _entry(
        lambda v: QuantileLevels((0.25, v, 0.875)), ("levels", "index 1"),
        lambda made: made.levels[1],
        valid=lambda v: None if isinstance(v, (int, np.integer)) else v / 8),  # in (0, 1)
    "QuantileForecast": _entry(
        lambda v: QuantileForecast(_GRID, _row(v)), ("forecast", "index 1"),
        lambda made: made.values[1]),
    "ForecastPanel context": _entry(
        lambda v: ForecastPanel("p", _at(_CONTEXT, v), None, 1, ("a",), _GRID, [[_ROW]]),
        ("panel 'p': context", "index 1"), lambda made: made.context[1], bounded=True),
    "ForecastPanel actuals": _entry(
        lambda v: ForecastPanel("p", _CONTEXT, [0.0, v], 1, ("a",), _GRID, [[_ROW, _ROW]]),
        ("panel 'p': actuals", "index 1"), lambda made: made.actuals[1], bounded=True),
    "ForecastPanel nested values": _entry(
        lambda v: ForecastPanel("p", _CONTEXT, None, 1, ("a",), _GRID, [[_row(v)]]),
        _ROW_WHERE, lambda made: made.values[0, 0, 1], bounded=True),
    "ForecastPanel array values": _entry(
        lambda v: ForecastPanel("p", _CONTEXT, None, 1, ("a",), _GRID, _object_block(v)),
        _ROW_WHERE, lambda made: made.values[0, 0, 1], bounded=True),
    "build_panel": _entry(
        lambda v: build_panel("p", _CONTEXT, None, 1, _GRID, [("a", [_row(v)])]),
        _ROW_WHERE, lambda made: made.values[0, 0, 1], bounded=True),
    "PerformanceWindow values": _entry(
        lambda v: PerformanceWindow(("a",), _GRID, [[_row(v)]], [2.0]),
        ("model 'a' at backtest step 0", "index 1"), lambda made: made.values[0, 0, 1],
        bounded=True),
    "PerformanceWindow observations": _entry(
        lambda v: PerformanceWindow(("a",), _GRID, [[_ROW, _ROW]], [2.0, v]),
        ("window observations", "backtest step 1"), lambda made: made.observations[1],
        bounded=True),
    "seed_window_from_context": _entry(
        lambda v: seed_window_from_context(
            build_panel("p", _CONTEXT, None, 1, _GRID, [("a", [_ROW])]), {"a": [_row(v)]}),
        ("model 'a' at backtest step 0", "index 1"), lambda made: made.values[0, 0, 1],
        bounded=True),
    "ArbitrationTrace quantiles": _entry(
        lambda v: _trace(quantiles=[_row(v)]), ("trace 's': quantiles", "index 1"),
        lambda made: made.quantiles[0, 1], non_finite=(NonFinite, _STEP)),
    "ArbitrationTrace weights": _entry(  # a one-model weight is 1; value ** 0 keeps its type
        lambda v: _one_model_trace(weights=[[v]]),
        ("trace 's': weights", "index 0"), lambda made: made.weights[0, 0],
        non_finite=(NonFinite, _STEP), valid=lambda v: v ** 0),
    "ArbitrationTrace scores": _entry(  # the trace does not bound a window score
        lambda v: _one_model_trace(scores=[[v]], rules=["inverse_error"]),
        ("trace 's': scores", "index 0"), lambda made: made.scores[0, 0],
        non_finite=None),
    "ArbitrationTrace simulated": _entry(
        lambda v: _trace(simulated=[v]), ("trace 's': simulated", "index 0"),
        lambda made: made.simulated[0], non_finite=(NonFinite, _STEP)),
    "OracleTrace": _entry(  # an infinite CRPS is a score no pick prefers
        lambda v: OracleTrace("s", ("a", "b"), [[1.0, 2.0], [v, 2.0]]),
        ("CRPS matrix", "index 2"), lambda made: made.crps_matrix[1, 0],
        non_finite=None),
    **{f"Segment {field}": _spec_field(
        lambda v, field=field: Segment(3, **{"level": 1.0, field: v}), field)
       for field in ("level", "trend", "season_amplitude", "noise_scale")},
    **{f"SyntheticExpert {field}": _spec_field(
        lambda v, field=field: SyntheticExpert("e", (0,), **{"sharpness": 1.0, field: v}), field)
       for field in ("sharpness", "bias", "dispersion_inflation")},
    "expert_forecast actuals": _entry(
        lambda v: expert_forecast(_FLAT, _SPEC, [2.0, v], seed=0),
        ("actuals", "horizon step 1"), lambda made: made[1][0]),
    "mase_scale context": _entry(  # the scale of (0, v) under seasonality 1 is |v|
        lambda v: mase_scale([0.0, v], 1), ("context", "index 1"), lambda made: made,
        non_finite=(NonFinite, ("context",))),
    **{f"ReportRow {field}": _spec_field(lambda v, field=field: _report_row(**{field: v}), field)
       for field in ("crps", "mase")},
    **{f"PoolScalingRow {field}": _spec_field(lambda v, field=field: _pool_row(**{field: v}), field)
       for field in ("crps", "mase", "best_individual_crps", "best_individual_mase")},
}

_NOT_NUMBERS = {
    "null": None,
    "str": "1.0",
    "np.str_": np.str_("1.0"),
    "bytes": b"1",
    "bool": True,
    "np.bool_": np.True_,
}

_OUT_OF_RANGE = {
    "int beyond float64": 10**400,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
}


@pytest.mark.parametrize("kind", list(_NOT_NUMBERS))
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_entry_point_rejects_what_is_not_a_number(entry, kind):
    build, names = _ENTRY_POINTS[entry][:2]
    with pytest.raises(TypeError, match="not a number") as caught:
        build(_NOT_NUMBERS[kind])
    for name in names:
        assert name in str(caught.value)


@pytest.mark.parametrize("kind", [*_OUT_OF_RANGE, "1e300"])
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_entry_point_rejects_what_is_out_of_range(entry, kind):
    made = _ENTRY_POINTS[entry]
    error, names = NonFinite, made.names
    if kind == "1e300" and not made.bounded:
        pytest.skip("only panel and window values are bounded by 1e270")
    if kind in ("nan", "inf", "-inf"):
        if made.non_finite is None:
            pytest.skip("the entry takes some non-finite values")
        error, names = made.non_finite
    with pytest.raises(error) as caught:
        made.build(_OUT_OF_RANGE.get(kind, 1e300))
    for name in names:
        assert name in str(caught.value)


def test_a_boolean_array_of_forecast_values_is_not_a_number():
    with pytest.raises(TypeError, match="at level index 0 is a boolean, not a number"):
        ForecastPanel("p", _CONTEXT, None, 1, ("a",), _GRID, np.ones((1, 1, 3), dtype=bool))


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@pytest.mark.parametrize("value", [3, np.float64(3.5), np.int64(4), Fraction(5, 2)],
                         ids=["int", "np.float64", "np.int64", "Fraction"])
def test_every_entry_point_reads_a_number_as_float_does(entry, value):
    made = _ENTRY_POINTS[entry]
    value = made.valid(value)
    if value is None:
        pytest.skip("no integer is a level")
    got = made.stored(made.build(value))
    assert struct.pack("d", got) == struct.pack("d", float(value))
    # Stored as the entry stores a float: a plain float in a field, numpy's in an array.
    assert type(got) is type(made.stored(made.build(made.valid(2.5))))


_SUITE = build_benchmark_suite(2, seed=0, n_experts=2)

# Each integer: how to pass it, and what its error says before the value.
_INTEGERS = {
    "seasonality": (lambda m: ForecastPanel("p", _CONTEXT, None, m, ("a",), _GRID, [[_ROW]]),
                    "seasonality must be an integer"),
    "mase seasonality": (lambda m: mase_scale(_CONTEXT, m), "seasonality must be an integer"),
    "seed": (RandomStreams, "seed must be an integer"),
    "n_experts": (lambda n: build_benchmark_suite(1, seed=0, n_experts=n),
                  "n_experts must be an integer"),
    "workers": (lambda n: run_evaluation(_SUITE, ("median",), workers=n),
                "workers must be an integer"),
    "trace counts": (lambda c: _trace(counts=[[c, 6]]),
                     "trace 's': counts value at index 0 must be an integer"),
    "trace n_total": (lambda n: _trace(n_total=n), "n_total must be an integer"),
    **{f"ReportRow {count}": (lambda n, count=count: _report_row(**{count: n}),
                              f"{count} must be an integer >= 0")
       for count in ("n_panels", "wins", "losses", "ties")},
    "PoolScalingRow pool_size": (lambda n: _pool_row(pool_size=n),
                                 "pool_size must be an integer >= 1"),
}


@pytest.mark.parametrize("bad", [2.5, True, np.True_, "3"], ids=["2.5", "True", "np.True_", "'3'"])
@pytest.mark.parametrize("what", list(_INTEGERS))
def test_every_integer_rejects_what_is_not_an_integer(what, bad):
    build, text = _INTEGERS[what]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{text}, got {bad!r}')}$"):
        build(bad)


@pytest.mark.parametrize("count", [2**70, -(2**70)], ids=["2**70", "-2**70"])
def test_a_count_beyond_int64_names_its_field_and_index(count):
    text = f"trace 's': counts value at index 0 must fit int64, got {count!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        _trace(counts=[[count, 0]])


def test_numpy_integers_are_integers():
    panel = _INTEGERS["seasonality"][0](np.int64(2))
    assert panel.seasonality == 2 and type(panel.seasonality) is int
    assert mase_scale(_CONTEXT, np.int64(2)) == mase_scale(_CONTEXT, 2)
    streams = RandomStreams(np.int64(-7))
    assert type(streams.seed) is int
    assert (streams.grid_keys(("t",), ("a", "b")).tobytes()
            == RandomStreams(-7).grid_keys(("t",), ("a", "b")).tobytes())
    assert (build_benchmark_suite(1, seed=np.int64(3), n_experts=np.int64(2))
            == build_benchmark_suite(1, seed=3, n_experts=2))
    assert (run_evaluation(_SUITE, ("median",), workers=np.int64(2))
            == run_evaluation(_SUITE, ("median",)))
    trace = _trace(n_total=np.int64(10), counts=[[np.int64(4), np.int64(6)]])
    assert trace == _trace() and type(trace.n_total) is int
    row = _report_row(**{count: np.int64(1) for count in ("n_panels", "wins", "losses", "ties")})
    assert row == _report_row(n_panels=1, wins=1, losses=1, ties=1)
    assert {type(getattr(row, count)) for count in ("n_panels", "wins", "losses", "ties")} == {int}
    pool_row = _pool_row(pool_size=np.int64(2))
    assert pool_row == _pool_row() and type(pool_row.pool_size) is int


# Each name: how to pass it, what its error calls it, and where it ends up.
_NAMES = {
    "ForecastPanel series_id": (
        lambda name: ForecastPanel(name, _CONTEXT, None, 1, ("a",), _GRID, [[_ROW]]),
        "series_id", lambda made: made.series_id),
    "ForecastPanel model name": (
        lambda name: ForecastPanel("p", _CONTEXT, None, 1, (name,), _GRID, [[_ROW]]),
        "panel 'p': model name", lambda made: made.model_names[0]),
    "build_panel series_id": (
        lambda name: build_panel(name, _CONTEXT, None, 1, _GRID, [("a", [_ROW])]),
        "series_id", lambda made: made.series_id),
    "build_panel model name": (
        lambda name: build_panel("p", _CONTEXT, None, 1, _GRID, [(name, [_ROW])]),
        "panel 'p': model name", lambda made: made.model_names[0]),
    "PerformanceWindow model name": (
        lambda name: PerformanceWindow((name,), _GRID, [[_ROW]], [2.0]),
        "window: model name", lambda made: made.model_names[0]),
    "ArbitrationTrace series_id": (
        lambda name: _trace(series_id=name), "series_id", lambda made: made.series_id),
    "ArbitrationTrace model name": (
        lambda name: _trace(model_names=("a", name)), "trace 's': model name",
        lambda made: made.model_names[1]),
    "OracleTrace series_id": (
        lambda name: OracleTrace(name, ("a",), [[1.0]]), "series_id",
        lambda made: made.series_id),
    "OracleTrace model name": (
        lambda name: OracleTrace("s", (name,), [[1.0]]), "oracle trace 's': model name",
        lambda made: made.model_names[0]),
    **{f"PanelMetadata {tag}": (lambda name, tag=tag: PanelMetadata(**{tag: name}), tag,
                                lambda made, tag=tag: getattr(made, tag))
       for tag in ("domain", "horizon_class", "frequency")},
    "SyntheticExpert name": (
        lambda name: SyntheticExpert(name, (0,), sharpness=1.0), "expert name",
        lambda made: made.name),
    **{f"ReportRow {field}": (lambda name, field=field: _report_row(**{field: name}), field,
                              lambda made, field=field: getattr(made, field))
       for field in ("method", "scope")},
    "PoolScalingRow model name": (
        lambda name: _pool_row(model_names=("a", name)), "pool scaling row: model name",
        lambda made: made.model_names[1]),
    "PoolScalingRow best_individual": (
        lambda name: _pool_row(best_individual=name), "best_individual",
        lambda made: made.best_individual),
}


@pytest.mark.parametrize("bad", [None, 5, True, b"a"], ids=["None", "5", "True", "b'a'"])
@pytest.mark.parametrize("field", list(_NAMES))
def test_every_name_rejects_what_is_not_a_string(field, bad):
    build, what, _ = _NAMES[field]
    with pytest.raises(TypeError, match=f"^{re.escape(f'{what} must be a str, got {bad!r}')}$"):
        build(bad)


@pytest.mark.parametrize("field", list(_NAMES))
def test_a_numpy_string_is_a_name_stored_as_a_plain_string(field):
    # "median" is a name in every field, a report row's method included.
    build, _, stored = _NAMES[field]
    got = stored(build(np.str_("median")))
    assert type(got) is str and got == "median"


# Each record or config that holds a level grid, built on ``grid``.
_GRIDS = {
    "QuantileForecast": lambda grid: QuantileForecast(grid, _ROW),
    "ForecastPanel": lambda grid: ForecastPanel("p", _CONTEXT, None, 1, ("a",), grid, [[_ROW]]),
    "build_panel": lambda grid: build_panel("p", _CONTEXT, None, 1, grid, [("a", [_ROW])]),
    "PerformanceWindow": lambda grid: PerformanceWindow(("a",), grid, [[_ROW]], [2.0]),
    "ArbitrationTrace": lambda grid: _trace(levels=grid),
    "ArbitratorConfig": lambda grid: ArbitratorConfig(levels=grid),
}


@pytest.mark.parametrize("record", list(_GRIDS))
def test_every_grid_is_a_quantile_levels(record):
    # A plain tuple is not a grid, even an increasing one.
    plain = re.escape(repr(_GRID.levels))
    with pytest.raises(TypeError, match=f"^levels must be a QuantileLevels, got {plain}$"):
        _GRIDS[record](_GRID.levels)
    _GRIDS[record](_GRID)


_PANEL = ForecastPanel("p", _CONTEXT, None, 1, ("a",), _GRID, [[_ROW]])

# Each part a spec or a wrapper holds: how to pass it, what its error calls
# it, and its kind.
_PARTS = {
    "RegimeSpec segment": (lambda part: RegimeSpec((Segment(3, 1.0), part), context_length=1),
                           "segment at index 1", Segment),
    "TaggedPanel panel": (lambda part: TaggedPanel(part), "panel", ForecastPanel),
    "TaggedPanel metadata": (lambda part: TaggedPanel(_PANEL, part), "metadata", PanelMetadata),
}


@pytest.mark.parametrize("bad", [None, 1, "x"], ids=["None", "1", "'x'"])
@pytest.mark.parametrize("part", list(_PARTS))
def test_every_part_is_of_its_kind(part, bad):
    build, what, kind = _PARTS[part]
    text = f"{what} must be a {kind.__name__}, got {bad!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(text)}$"):
        build(bad)
    good = {Segment: Segment(2, 1.0), ForecastPanel: _PANEL, PanelMetadata: PanelMetadata()}
    build(good[kind])
