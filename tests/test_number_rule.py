"""One rule for what a number is, held at every entry point of the Python API.

A real value is anything that packs into a double and is not a boolean; a
seed, a seasonality or a count is an ``int`` or numpy integer that is not a
boolean. Each entry point rejects the same kind of value with the same class,
naming the field and the position, and reads an accepted value as ``float``
reads it.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from quantarb.arbitration import seed_window_from_context
from quantarb.core import (
    DEFAULT_LEVELS,
    ForecastPanel,
    PerformanceWindow,
    QuantileForecast,
    QuantileLevels,
    build_panel,
)
from quantarb.errors import NonFinite
from quantarb.metrics import mase_scale
from quantarb.quantiles import RandomStreams
from quantarb.reporting import run_evaluation
from quantarb.synthetic import build_benchmark_suite

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


# Each entry point: how to build it with ``value`` in its slot, what its
# message names, whether it bounds values by 1e270, and where the value ends up.
_ROW_WHERE = ("model 'a' at timestep 0", "index 1")
_ENTRY_POINTS = {
    "QuantileLevels": (
        lambda v: QuantileLevels((0.25, v, 0.875)), ("levels", "index 1"), False,
        lambda made: made.levels[1]),
    "QuantileForecast": (
        lambda v: QuantileForecast(_GRID, _row(v)), ("forecast", "index 1"), False,
        lambda made: made.values[1]),
    "ForecastPanel context": (
        lambda v: ForecastPanel("p", _at(_CONTEXT, v), None, 1, ("a",), _GRID, [[_ROW]]),
        ("panel 'p': context", "index 1"), True, lambda made: made.context[1]),
    "ForecastPanel actuals": (
        lambda v: ForecastPanel("p", _CONTEXT, [0.0, v], 1, ("a",), _GRID, [[_ROW, _ROW]]),
        ("panel 'p': actuals", "index 1"), True, lambda made: made.actuals[1]),
    "ForecastPanel nested values": (
        lambda v: ForecastPanel("p", _CONTEXT, None, 1, ("a",), _GRID, [[_row(v)]]),
        _ROW_WHERE, True, lambda made: made.values[0, 0, 1]),
    "ForecastPanel array values": (
        lambda v: ForecastPanel("p", _CONTEXT, None, 1, ("a",), _GRID, _object_block(v)),
        _ROW_WHERE, True, lambda made: made.values[0, 0, 1]),
    "build_panel": (
        lambda v: build_panel("p", _CONTEXT, None, 1, _GRID, [("a", [_row(v)])]),
        _ROW_WHERE, True, lambda made: made.values[0, 0, 1]),
    "PerformanceWindow values": (
        lambda v: PerformanceWindow(("a",), _GRID, [[_row(v)]], [2.0]),
        ("model 'a' at backtest step 0", "index 1"), True, lambda made: made.values[0, 0, 1]),
    "PerformanceWindow observations": (
        lambda v: PerformanceWindow(("a",), _GRID, [[_ROW, _ROW]], [2.0, v]),
        ("window observations", "backtest step 1"), True, lambda made: made.observations[1]),
    "seed_window_from_context": (
        lambda v: seed_window_from_context(
            build_panel("p", _CONTEXT, None, 1, _GRID, [("a", [_ROW])]), {"a": [_row(v)]}),
        ("model 'a' at backtest step 0", "index 1"), True, lambda made: made.values[0, 0, 1]),
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
    build, names, _, _ = _ENTRY_POINTS[entry]
    with pytest.raises(TypeError, match="not a number") as caught:
        build(_NOT_NUMBERS[kind])
    for name in names:
        assert name in str(caught.value)


@pytest.mark.parametrize("kind", [*_OUT_OF_RANGE, "1e300"])
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_entry_point_rejects_what_is_out_of_range(entry, kind):
    build, names, bounded, _ = _ENTRY_POINTS[entry]
    if kind == "1e300" and not bounded:
        pytest.skip("only panel and window values are bounded by 1e270")
    with pytest.raises(NonFinite) as caught:
        build(_OUT_OF_RANGE.get(kind, 1e300))
    for name in names:
        assert name in str(caught.value)


def test_a_boolean_array_of_forecast_values_is_not_a_number():
    with pytest.raises(TypeError, match="at level index 0 is a boolean, not a number"):
        ForecastPanel("p", _CONTEXT, None, 1, ("a",), _GRID, np.ones((1, 1, 3), dtype=bool))


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@pytest.mark.parametrize("value", [3, np.float64(3.5), np.int64(4), Fraction(5, 2)],
                         ids=["int", "np.float64", "np.int64", "Fraction"])
def test_every_entry_point_reads_a_number_as_float_does(entry, value):
    build, _, _, stored = _ENTRY_POINTS[entry]
    if entry == "QuantileLevels":  # a level lies in (0, 1)
        if isinstance(value, (int, np.integer)):
            pytest.skip("no integer is a level")
        value = value / 8
    got = stored(build(value))
    assert struct.pack("d", got) == struct.pack("d", float(value))


_SUITE = build_benchmark_suite(2, seed=0, n_experts=2)

# Each integer: how to pass it, and what the error names.
_INTEGERS = {
    "seasonality": lambda m: ForecastPanel("p", _CONTEXT, None, m, ("a",), _GRID, [[_ROW]]),
    "mase seasonality": lambda m: mase_scale(_CONTEXT, m),
    "seed": RandomStreams,
    "n_experts": lambda n: build_benchmark_suite(1, seed=0, n_experts=n),
    "workers": lambda n: run_evaluation(_SUITE, ("median",), workers=n),
}


@pytest.mark.parametrize("bad", [2.5, True, np.True_, "3"], ids=["2.5", "True", "np.True_", "'3'"])
@pytest.mark.parametrize("what", list(_INTEGERS))
def test_every_integer_rejects_what_is_not_an_integer(what, bad):
    name = what.split()[-1]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
        _INTEGERS[what](bad)


def test_numpy_integers_are_integers():
    panel = _INTEGERS["seasonality"](np.int64(2))
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
