import math
import pickle
import re
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantarb.core import (
    DEFAULT_LEVELS,
    MAX_ABS_VALUE,
    MONOTONE_REL_TOL,
    WEIGHT_SUM_TOL,
    ArbitrationStep,
    ArbitrationTrace,
    ForecastPanel,
    PerformanceWindow,
    QuantileForecast,
    QuantileLevels,
    _NOT_A_NUMBER,
    _non_number,
    _require_within,
    _validate_forecasts,
    build_panel,
    normalize_weights,
    quantile_at,
    stack_forecasts,
)
from quantarb.errors import (
    DimensionMismatch,
    MissingActuals,
    NonFinite,
    NonMonotoneQuantiles,
)


def test_default_levels_is_the_nine_point_grid():
    assert DEFAULT_LEVELS.levels == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    assert len(DEFAULT_LEVELS) == 9


@pytest.mark.parametrize("bad", [(0.2, 0.2), (0.5, 0.4), (0.0, 0.5), (0.5, 1.0), ()])
def test_levels_reject_non_increasing_or_out_of_range(bad):
    with pytest.raises(ValueError):
        QuantileLevels(bad)


@pytest.mark.parametrize(
    "lo, hi", [(5e-324, 1e-300), (0.3, 0.3 + 5e-13), (1.0 - 2.0**-52, 1.0 - 2.0**-53)]
)
def test_levels_reject_neighbours_that_count_as_the_same_level(lo, hi):
    # On (5e-324, 1e-300, 0.5) the inverse-CDF fit overflowed and evaluated
    # p = 1e-310 to NaN without any error.
    with pytest.raises(ValueError, match=re.escape(f"levels {lo} and {hi} are within 1e-12")):
        QuantileLevels(tuple(sorted({lo, hi, 0.5})))


def test_levels_accept_neighbours_just_beyond_the_tolerance():
    assert QuantileLevels((0.3, 0.3 + 1e-9)).levels == (0.3, 0.3 + 1e-9)


def test_forecast_accepts_monotone_values_with_ties():
    fc = QuantileForecast(DEFAULT_LEVELS, (1, 1, 2, 2, 3, 3, 4, 4, 5))
    assert fc.values == (1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0)
    assert quantile_at(DEFAULT_LEVELS.levels, fc.values) == 3.0


def test_forecast_rejects_decreasing_values_with_indices():
    with pytest.raises(NonMonotoneQuantiles) as exc:
        QuantileForecast(DEFAULT_LEVELS, (1.0, 0.9, 2, 3, 4, 5, 6, 7, 8))
    assert exc.value.indices == (0,)


def test_forecast_tolerates_tiny_relative_decrease():
    # decreases within float noise of the neighbouring magnitudes are legal
    v = 1e6
    QuantileForecast(DEFAULT_LEVELS, (v, v * (1 - 1e-14), v, v, v, v, v, v, v))
    with pytest.raises(NonMonotoneQuantiles):
        QuantileForecast(DEFAULT_LEVELS, (v, v * (1 - 1e-9), v, v, v, v, v, v, v))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_forecast_rejects_non_finite(bad):
    with pytest.raises(NonFinite):
        QuantileForecast(DEFAULT_LEVELS, (1, 2, 3, 4, bad, 6, 7, 8, 9))


def test_forecast_length_must_match_levels():
    with pytest.raises(DimensionMismatch):
        QuantileForecast(DEFAULT_LEVELS, (1.0, 2.0))


def test_value_at_is_exact_on_grid_and_linear_between():
    row = np.arange(1.0, 10.0)
    assert quantile_at(DEFAULT_LEVELS.levels, row, 0.3) == 3.0
    assert quantile_at(DEFAULT_LEVELS.levels, row, 0.35) == pytest.approx(3.5)
    assert quantile_at(DEFAULT_LEVELS.levels, row, 0.05) == 1.0  # clamped to the outermost knot
    assert quantile_at(DEFAULT_LEVELS.levels, row, 0.95) == 9.0


def _matrix(rows):
    return [list(r) for r in rows]


def _steps(values_per_step):
    return _matrix([[v + 0.1 * k for k in range(9)] for v in values_per_step])


def test_build_panel_identity_case():
    panel = build_panel(
        "s1",
        context=[1.0, 2.0, 3.0],
        actuals=[4.0, 5.0],
        seasonality=1,
        levels=DEFAULT_LEVELS,
        models=[("a", _steps([4.0, 5.0]))],
    )
    assert panel.values.shape == (1, 2, 9)
    assert panel.horizon == 2
    assert panel.n_models == 1
    assert panel.model_names == ("a",)
    assert panel.forecasts_at(1)[0].values[0] == 5.0


def test_build_panel_reports_model_and_timestep_on_bad_values():
    rows = _steps([4.0, 5.0])
    rows[0][3] = rows[0][2] - 1.0
    with pytest.raises(NonMonotoneQuantiles) as exc:
        build_panel("s1", [1, 2], [4, 5], 1, DEFAULT_LEVELS, [("a", rows)])
    assert exc.value.model == "a"
    assert exc.value.timestep == 0


def test_panel_validation_names_the_first_bad_row_model_major():
    a, b = _steps([4.0, 5.0, 6.0]), _steps([4.0, 5.0, 6.0])
    b[1][5] = b[1][6] + 1.0  # b, step 1: drop between levels 5 and 6
    b[2][0] = b[2][1] + 1.0
    a[2][7] = float("nan")  # a comes first, but at a later step
    with pytest.raises(NonFinite, match=r"model 'a' at timestep 2: .*nan at index 7"):
        build_panel("s", [1, 2], None, 1, DEFAULT_LEVELS, [("a", a), ("b", b)])
    with pytest.raises(NonMonotoneQuantiles, match="model 'b' at timestep 1") as exc:
        build_panel("s", [1, 2], None, 1, DEFAULT_LEVELS, [("b", b), ("a", _steps([1, 2, 3]))])
    assert (exc.value.model, exc.value.timestep, exc.value.indices) == ("b", 1, (5,))


def test_build_panel_reports_model_and_timestep_on_short_rows():
    rows = _steps([4.0, 5.0])
    rows[1] = rows[1][:8]
    with pytest.raises(DimensionMismatch, match="model 'a' at timestep 1: .*8 values for 9"):
        build_panel("s1", [1, 2], None, 1, DEFAULT_LEVELS, [("a", rows)])


def test_build_panel_rejects_a_null_value_as_not_a_number():
    # float conversion would read None as NaN
    rows = _steps([4.0, 5.0])
    rows[1][3] = None
    with pytest.raises(TypeError, match="model 'a' at timestep 1: value at level index 3 is null"):
        build_panel("s1", [1, 2], None, 1, DEFAULT_LEVELS, [("a", rows)])


@pytest.mark.parametrize("field", ["context", "actuals", "levels", "models"])
@pytest.mark.parametrize("value, kind", [("2.0", "a string"), (True, "a boolean"),
                                         (np.False_, "a boolean"), (None, "null")])
def test_build_panel_takes_numbers_only(field, value, kind):
    # The Python API holds every field to the loader's rule.
    args = dict(context=[1.0, 2.0, 3.0], actuals=[4.0, 5.0],
                levels=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], models=_steps([4.0, 5.0]))
    if field == "models":
        args[field][1][3] = value
        where = "model 'a' at timestep 1: value at level index 3"
    else:
        args[field][1] = value
        where = {"levels": "levels", "context": "panel 's1': context",
                 "actuals": "panel 's1': actuals"}[field] + " value at index 1"
    with pytest.raises(TypeError) as caught:
        build_panel("s1", args["context"], args["actuals"], 1,
                    QuantileLevels(tuple(args["levels"])), [("a", args["models"])])
    assert str(caught.value) == f"{where} is {kind}, not a number"


def test_panel_values_are_a_read_only_copy():
    values = np.tile(np.arange(1.0, 10.0), (2, 3, 1))
    panel = ForecastPanel("s", (1, 2), None, 1, ("a", "b"), DEFAULT_LEVELS, values)
    values[0, 0, 0] = 100.0
    assert panel.values[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        panel.values[0, 0, 0] = 100.0
    assert (panel.n_models, panel.horizon) == (2, 3)
    assert panel.forecasts_at(2)[1] == QuantileForecast(DEFAULT_LEVELS, range(1, 10))


def test_quantile_at_matches_value_at_row_by_row():
    grid = QuantileLevels((0.05, 0.25, 0.45, 0.6, 0.9))
    values = np.cumsum(np.arange(1.0, 31.0).reshape(2, 3, 5) ** 1.5, axis=-1)
    for alpha in (0.01, 0.05, 0.3, 0.5, 0.6, 0.95):
        got = quantile_at(grid.levels, values, alpha)
        for i in range(2):
            for t in range(3):
                assert got[i, t] == quantile_at(grid.levels, values[i, t].tolist(), alpha)
    # off the grid: linear between neighbours, clamped at the ends
    assert quantile_at(grid.levels, [1.0, 2.0, 4.0, 5.0, 9.0], 0.5) == 4.0 + (0.05 / 0.15) * 1.0
    assert quantile_at(grid.levels, [1.0, 2.0, 4.0, 5.0, 9.0], 0.99) == 9.0


def test_build_panel_rejects_horizon_mismatch_between_models():
    with pytest.raises(DimensionMismatch):
        build_panel(
            "s1",
            [1, 2],
            None,
            1,
            DEFAULT_LEVELS,
            [("a", _steps([1] * 5)), ("b", _steps([1] * 4))],
        )


def test_panel_rejects_mixed_quantile_grids():
    # A panel holds one level grid; rows of another length cannot join it.
    other = QuantileLevels((0.25, 0.5, 0.75))
    fa = [list(range(1, 10))] * 2
    fb = [[1, 2, 3]] * 2
    with pytest.raises(DimensionMismatch, match="model 'b' at timestep 0"):
        build_panel("s", [1, 2], None, 1, DEFAULT_LEVELS, [("a", fa), ("b", fb)])
    with pytest.raises(DimensionMismatch):
        ForecastPanel("s", (1, 2), None, 1, ("a",), other, np.array([fa]))


def test_build_panel_rejects_repeated_model_names():
    # Random substreams are keyed by name, so two models named "a" would draw
    # from one stream.
    with pytest.raises(DimensionMismatch, match="repeats model names"):
        build_panel(
            "s1", [1, 2], None, 1, DEFAULT_LEVELS,
            [("a", _steps([1.0])), ("b", _steps([2.0])), ("a", _steps([3.0]))],
        )


def test_panel_rejects_repeated_model_names():
    values = np.tile(np.arange(1.0, 10.0), (2, 1, 1))
    with pytest.raises(DimensionMismatch, match="'a'"):
        ForecastPanel("s", (1, 2), None, 1, ("a", "a"), DEFAULT_LEVELS, values)


def test_panel_context_must_cover_seasonality():
    with pytest.raises(DimensionMismatch):
        build_panel("s", [1.0, 2.0], None, 2, DEFAULT_LEVELS, [("a", _steps([1.0]))])


def test_panel_rejects_actuals_off_the_horizon_and_an_empty_horizon():
    # A series score pairs one actual with each horizon step.
    with pytest.raises(DimensionMismatch, match="actuals length 3"):
        build_panel("s", [1, 2], [4, 5, 6], 1, DEFAULT_LEVELS, [("a", _steps([4.0, 5.0]))])
    with pytest.raises(DimensionMismatch, match="horizon must be positive"):
        ForecastPanel("s", (1, 2), (), 1, ("a",), DEFAULT_LEVELS, np.empty((1, 0, 9)))


def test_panel_without_actuals_raises_only_on_demand():
    panel = build_panel("s", [1, 2], None, 1, DEFAULT_LEVELS, [("a", _steps([1.0]))])
    assert panel.actuals is None
    with pytest.raises(MissingActuals):
        panel.require_actuals()


def test_panel_round_trips_through_pickle_bit_exact():
    panel = build_panel(
        "s",
        [0.5, 1.25, -3.0],
        [2.0**-30, 7.0],
        2,
        DEFAULT_LEVELS,
        [("a", _steps([0.1, 0.2])), ("b", _steps([0.3, 0.4]))],
    )
    clone = pickle.loads(pickle.dumps(panel))
    assert clone == panel
    assert clone.values.tobytes() == panel.values.tobytes()
    assert not clone.values.flags.writeable


def test_normalize_weights_divides_by_the_exact_sum():
    assert normalize_weights([2.0, 6.0]) == (0.25, 0.75)
    assert normalize_weights([1.0] * 4) == (0.25,) * 4
    with pytest.raises(ValueError):
        normalize_weights([0.0, 0.0])


@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=8))
def test_normalized_weights_always_sum_to_one(raw):
    total = math.fsum(normalize_weights(raw))
    assert abs(total - 1.0) <= 1e-9


def _window(n_models=2, n_records=2, levels=DEFAULT_LEVELS):
    row = [1.0 + 0.1 * k for k in range(len(levels))]
    values = np.tile(row, (n_models, n_records, 1))
    names = tuple("abcdef"[:n_models])
    return names, levels, values, np.arange(1.0, n_records + 1.0)


def test_window_rejects_inconsistent_model_counts():
    names, levels, values, obs = _window(n_models=2)
    with pytest.raises(DimensionMismatch):
        PerformanceWindow(names + ("c",), levels, values, obs)
    with pytest.raises(DimensionMismatch, match="repeats model names"):
        PerformanceWindow(("a", "a"), levels, values, obs)


def test_record_forecasts_must_share_one_grid():
    # A window's scores come from one (N, L, K) block on one grid.
    names, _, values, obs = _window()
    with pytest.raises(DimensionMismatch):
        PerformanceWindow(names, QuantileLevels((0.1, 0.5, 0.9)), values, obs)


def test_window_is_one_validated_read_only_block():
    names, levels, values, obs = _window(n_records=3)
    window = PerformanceWindow(names, levels, values, obs)
    values[0, 0, 0] = 0.0
    assert len(window) == 3
    assert window.values[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        window.values[0, 0, 0] = 100.0
    with pytest.raises(ValueError):
        window.observations[0] = 0.0
    clone = pickle.loads(pickle.dumps(window))
    assert clone.values.tobytes() == window.values.tobytes()
    assert not clone.values.flags.writeable and not clone.observations.flags.writeable
    with pytest.raises(DimensionMismatch, match="observations"):
        PerformanceWindow(names, levels, values, obs[:2])
    with pytest.raises(NonFinite, match="backtest step 1"):
        PerformanceWindow(names, levels, values, [1.0, float("inf"), 3.0])
    values[1, 2, 4] = 0.0
    with pytest.raises(NonMonotoneQuantiles, match="model 'b' at backtest step 2"):
        PerformanceWindow(names, levels, values, obs)
    assert len(PerformanceWindow(names, levels, np.empty((2, 0, 9)), [])) == 0


def _holding(field, big):
    """A panel, or a window, whose ``field`` holds ``big`` at step 1."""
    names, levels, values, obs = _window()
    rows, context, actuals = _steps([4.0, 5.0]), [1.0, 2.0, 3.0], [4.0, 5.0]
    if field == "forecast values":
        rows[1][8] = big
    elif field == "window values":
        values[0, 1, 8] = big
    else:
        {"context": context, "actuals": actuals, "window observations": obs}[field][1] = big
    if field.startswith("window"):
        return PerformanceWindow(names, levels, values, obs)
    return build_panel("s", context, actuals, 1, DEFAULT_LEVELS, [("a", rows)])


@pytest.mark.parametrize(
    "field, message",
    [
        ("forecast values", "panel 's', model 'a' at timestep 1: forecast values contains "
                            "{} at index 8"),
        ("context", "panel 's': context contains {} at index 1"),
        ("actuals", "panel 's': actuals contains {} at index 1"),
        ("window values", "window, model 'a' at backtest step 1: forecast values contains "
                          "{} at index 8"),
        ("window observations", "window observations contains {} at backtest step 1"),
    ],
)
def test_a_value_just_beyond_the_bound_is_rejected_naming_its_owner(field, message):
    _holding(field, MAX_ABS_VALUE)
    above = float(np.nextafter(MAX_ABS_VALUE, math.inf))
    with pytest.raises(NonFinite) as caught:
        _holding(field, above)
    assert str(caught.value) == message.format(
        f"out-of-range value {above!r} (|value| > 1e+270)"
    )
    with pytest.raises(NonFinite) as caught:
        _holding(field, math.inf)
    assert str(caught.value) == message.format("non-finite value inf")


def test_array_records_compare_by_value_and_type():
    names, levels, values, obs = _window()
    window = PerformanceWindow(names, levels, values, obs)
    assert window == PerformanceWindow(names, levels, values.copy(), obs.copy())
    assert window != PerformanceWindow(names, levels, values, obs + 1.0)
    assert window != _holding("context", 1.0)
    with pytest.raises(TypeError, match="unhashable"):
        hash(window)


def _trace(split, names=("a", "b"), n_total=10, **arrays):
    """A one-step trace that splits ``n_total`` samples as ``split`` under
    uniform weights; keyword ``arrays`` replace any of its arrays."""
    n = len(split)
    fields = dict(
        quantiles=[range(9)],
        weights=[[1.0 / n] * n],
        counts=[split],
        scores=[[float("nan")] * n],
        rules=["uniform"],
        simulated=[4.0],
    )
    fields.update(arrays)
    return ArbitrationTrace("s", names, n_total, DEFAULT_LEVELS, **fields)


def test_trace_requires_counts_to_sum_to_n_total():
    _trace((4, 6))
    with pytest.raises(DimensionMismatch):
        _trace((4, 5))
    with pytest.raises(DimensionMismatch):
        _trace((4, 6), names=("a", "b", "c"))


def test_trace_rejects_rows_that_no_run_could_write():
    # Weights come from one inverse-error rule; no run writes "softmax".
    for rule in ("greedy", "softmax"):
        with pytest.raises(ValueError, match=f"unknown weight rules \\['{rule}'\\]"):
            _trace((4, 6), rules=[rule])
    _trace((4, 6), weights=[[0.25, 0.75]])
    for weights in ([0.5, 0.6], [0.25, 0.7], [-0.1, 1.1]):
        with pytest.raises(ValueError, match="step 0: weights are not a distribution"):
            _trace((4, 6), weights=[weights])
    with pytest.raises(NonFinite, match="step 0"):
        _trace((4, 6), weights=[[float("nan"), 1.0]])
    with pytest.raises(ValueError, match="window scores"):
        _trace((4, 6), scores=[[0.1, 0.2]])
    with pytest.raises(ValueError, match="window scores"):
        _trace((4, 6), rules=["inverse_error"], scores=[[0.1, float("nan")]])
    with pytest.raises(NonFinite):
        _trace((4, 6), simulated=[float("inf")])
    with pytest.raises(NonMonotoneQuantiles):
        _trace((4, 6), quantiles=[[0, 1, 2, 3, 4, 3, 6, 7, 8]])
    with pytest.raises(DimensionMismatch, match="quantiles"):
        _trace((4, 6), quantiles=[range(8)])


@pytest.mark.parametrize("quantiles, step", [
    ([[2.0, 2.0, 1.0]], 0),
    ([[3.0, 3.0, 3.0], [2.0, 2.0, 1.0], [5.0, 4.0, 4.0]], 1),
])
def test_trace_check_finds_a_decrease_where_no_quantile_increases(quantiles, step):
    # The dip tolerance runs only when some quantile decreases; here none
    # increases either, so a guard that looked for increases would skip it.
    horizon = len(quantiles)
    with pytest.raises(NonMonotoneQuantiles, match=f"at step {step}: quantiles decrease"):
        ArbitrationTrace("s", ("a",), 1, QuantileLevels((0.25, 0.5, 0.75)),
                         quantiles=quantiles, weights=[[1.0]] * horizon,
                         counts=[[1]] * horizon, scores=[[float("nan")]] * horizon,
                         rules=["uniform"] * horizon, simulated=[2.0] * horizon)


def _five_steps(**bad):
    """A valid five-step trace of two models; ``bad`` maps an array name to
    the rows, by step, that replace its own."""
    nan = float("nan")
    fields = dict(
        quantiles=[list(range(9))] * 5,
        weights=[[0.5, 0.5]] * 5,
        counts=[[5, 5]] * 5,
        scores=[[nan, nan]] * 5,
        rules=["uniform"] * 5,
        simulated=[4.0] * 5,
    )
    for name, rows in bad.items():
        for step, row in rows.items():
            fields[name][step] = row
    return ArbitrationTrace("s", ("a", "b"), 10, DEFAULT_LEVELS, **fields)


# Each check breaks step 2, and step 4 too; where a check tests several
# conditions, step 2 fails a later one than step 4, so the first bad step is
# searched across all of them.
@pytest.mark.parametrize(
    "bad, error, what",
    [
        (dict(counts={2: [4, 5], 4: [-1, 11]}), DimensionMismatch,
         "sample counts are not a split of 10"),
        (dict(weights={2: [float("nan"), 1.0]}, quantiles={4: [0, 1, 2, 3, float("inf"), 5, 6, 7, 8]}),
         NonFinite, "values are not finite"),
        (dict(simulated={2: float("inf")}, quantiles={4: [0, 1, 2, 3, float("nan"), 5, 6, 7, 8]}),
         NonFinite, "values are not finite"),
        (dict(quantiles={2: [0, 1, 2, 3, 4, 3, 6, 7, 8], 4: [8, 7, 6, 5, 4, 3, 2, 1, 0]}),
         NonMonotoneQuantiles, "quantiles decrease"),
        (dict(weights={2: [0.5, 0.6], 4: [-0.1, 1.1]}), ValueError,
         "weights are not a distribution"),
        (dict(rules={4: "inverse_error"}, scores={2: [0.1, 0.2], 4: [0.1, float("nan")]}),
         ValueError, "window scores do not fit the weight rule"),
    ],
)
def test_trace_check_names_the_first_bad_step(bad, error, what):
    _five_steps()
    with pytest.raises(error) as caught:
        _five_steps(**bad)
    assert str(caught.value) == f"trace 's' at step 2: {what}"


def _masked_trace_check(series_id, n_total, quantiles, weights, counts, scores, rules,
                        simulated):
    """Error class and message of the first failing trace condition, or None:
    every condition's mask built in full, the dip tolerance applied to every
    pair of neighbouring quantiles."""
    horizon = len(rules)
    unscored = np.array([rule != "inverse_error" for rule in rules])
    lo, hi = quantiles[:, :-1], quantiles[:, 1:]
    with np.errstate(all="ignore"):
        dips = lo - hi > MONOTONE_REL_TOL * np.maximum(np.abs(lo), np.abs(hi))
        checks = (
            ((counts < 0, counts.sum(axis=1) != n_total), DimensionMismatch,
             f"sample counts are not a split of {n_total}"),
            ((~np.isfinite(quantiles), ~np.isfinite(simulated), ~np.isfinite(weights)),
             NonFinite, "values are not finite"),
            ((dips,), NonMonotoneQuantiles, "quantiles decrease"),
            ((weights < 0, np.abs(weights.sum(axis=1) - 1.0) > WEIGHT_SUM_TOL), ValueError,
             "weights are not a distribution"),
            ((np.isnan(scores) != unscored[:, None],), ValueError,
             "window scores do not fit the weight rule"),
        )
    for marks, error, what in checks:
        steps = np.flatnonzero(np.logical_or.reduce(
            [mark.reshape(horizon, -1).any(axis=1) for mark in marks]))
        if steps.size:
            return error, f"trace {series_id!r} at step {steps[0]}: {what}"
    return None


_TRACE_FAULTS = ("none", "negative count", "count sum", "nan", "inf", "dip", "dip within",
                 "negative weight", "weight sum", "score for rule")


@st.composite
def _faulty_traces(draw):
    """A trace as a run writes it (2..4 models, 1..5 steps, 2..5 levels,
    quantiles of magnitude 1 to 100), then one fault at one step."""
    n, horizon, k = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(2, 5))
    n_total = draw(st.integers(1, 40))
    positive = st.floats(0.01, 10.0)
    weights = np.array([normalize_weights(draw(st.lists(positive, min_size=n, max_size=n)))
                        for _ in range(horizon)])
    counts = np.array([[n_total // n + (i < n_total % n) for i in range(n)]] * horizon)
    quantiles = np.sort(np.array(draw(st.lists(
        st.lists(st.floats(1.0, 100.0), min_size=k, max_size=k), min_size=horizon,
        max_size=horizon))), axis=1)
    rules = draw(st.lists(st.sampled_from(("uniform", "inverse_error", "static")),
                          min_size=horizon, max_size=horizon))
    scores = np.array([[draw(positive) if rule == "inverse_error" else np.nan] * n
                       for rule in rules])
    simulated = np.array(draw(st.lists(st.floats(1.0, 100.0), min_size=horizon,
                                       max_size=horizon)))
    fault, t = draw(st.sampled_from(_TRACE_FAULTS)), draw(st.integers(0, horizon - 1))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(1, k - 1))
    if fault == "negative count":
        counts[t, i] = -1
    elif fault == "count sum":
        counts[t, i] += 1
    elif fault in ("nan", "inf"):
        array = draw(st.sampled_from((quantiles, simulated, weights)))
        array[(t, i % array.shape[1]) if array.ndim == 2 else t] = float(fault)
    elif fault == "dip":
        quantiles[t, j] = quantiles[t, j - 1] * (1 - 1e-9)
    elif fault == "dip within":  # one ulp, far inside the tolerance at these magnitudes
        quantiles[t, j] = np.nextafter(quantiles[t, j - 1], -np.inf)
    elif fault == "negative weight":  # the sum stays 1, to within rounding
        weights[t, (i + 1) % n] += weights[t, i] + 0.25
        weights[t, i] = -0.25
    elif fault == "weight sum":
        weights[t, i] += 1e-6
    elif fault == "score for rule":
        scores[t, i] = np.nan if rules[t] == "inverse_error" else 0.5
    levels = QuantileLevels(tuple(np.arange(1, k + 1) / (k + 1)))
    return fault, dict(series_id="s", model_names=tuple(f"m{i}" for i in range(n)),
                       n_total=n_total, levels=levels, quantiles=quantiles, weights=weights,
                       counts=counts, scores=scores, rules=rules, simulated=simulated)


@given(_faulty_traces())
@settings(max_examples=300, deadline=None)
def test_trace_check_agrees_with_its_masks(case):
    # The check, which applies the dip tolerance only where some quantile
    # decreases, passes exactly the traces whose full masks find no bad step,
    # and a failing trace gets the masks' class and message.
    fault, fields = case
    want = _masked_trace_check(**{name: fields[name] for name in (
        "series_id", "n_total", "quantiles", "weights", "counts", "scores", "rules",
        "simulated")})
    try:
        ArbitrationTrace(**fields)
        got = None
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        got = type(exc), str(exc)
    assert got == want
    assert (got is None) == (fault in ("none", "dip within"))


def test_trace_arrays_are_read_only_and_survive_pickling():
    trace = _trace(
        (4, 6),
        rules=["uniform", "inverse_error"],
        quantiles=[range(9), range(1, 10)],
        weights=[[0.5, 0.5], [0.25, 0.75]],
        counts=[(5, 5), (3, 7)],
        scores=[[float("nan")] * 2, [0.3, 0.1]],
        simulated=[4.0, 5.0],
    )
    for array in (trace.quantiles, trace.weights, trace.counts, trace.scores, trace.rules,
                  trace.simulated):
        assert not array.flags.writeable
    clone = pickle.loads(pickle.dumps(trace))
    assert clone == trace  # NaN scores compare equal
    assert not clone.scores.flags.writeable
    assert clone != _trace((4, 6))
    assert len(trace) == 2
    assert trace.medians == (4.0, 5.0)
    assert trace.weights_at(1) == (0.25, 0.75)
    assert trace.steps == (
        ArbitrationStep(QuantileForecast(DEFAULT_LEVELS, range(9)), (0.5, 0.5),
                        (5, 5), 4.0, None, "uniform"),
        ArbitrationStep(QuantileForecast(DEFAULT_LEVELS, range(1, 10)),
                        (0.25, 0.75), (3, 7), 5.0, (0.3, 0.1), "inverse_error"),
    )
    assert trace.forecasts == tuple(step.forecast for step in trace.steps)


# Reference copies of the loader's row conversion and block check as they
# were before the packed conversion and the two-reduction all-good test: a
# type scan of every value and np.fromiter, and a mask of every bound and dip.
def _reference_stack_forecasts(models, n_levels, step):
    rows = list(chain.from_iterable(matrix for _, matrix in models))
    if set(map(len, rows)) - {n_levels}:
        name, s, row = next((name, s, row) for name, matrix in models
                            for s, row in enumerate(matrix) if len(row) != n_levels)
        raise DimensionMismatch(
            f"model {name!r} at {step} {s}: forecast has {len(row)} values for {n_levels} levels"
        )
    if not set(map(type, chain.from_iterable(rows))).isdisjoint(_NOT_A_NUMBER):
        for name, matrix in models:
            for s, row in enumerate(matrix):
                bad = _non_number(row)
                if bad:
                    raise TypeError(f"model {name!r} at {step} {s}: value at level index "
                                    f"{bad[0]} is {bad[1]}, not a number")
    values = np.fromiter(chain.from_iterable(rows), float, len(rows) * n_levels)
    return values.reshape(len(models), len(models[0][1]), n_levels)


def _reference_validate_forecasts(owner, names, levels, values, step):
    if not names:
        raise DimensionMismatch(f"{owner} has no models")
    if values.ndim != 3 or values.shape[0] != len(names) or values.shape[2] != len(levels):
        raise DimensionMismatch(
            f"{owner} values of shape {values.shape} do not hold "
            f"{len(names)} models x {step}s x {len(levels)} levels"
        )
    if len(set(names)) != len(names):
        repeated = sorted({name for name in names if names.count(name) > 1})
        raise DimensionMismatch(f"{owner} repeats model names {repeated}")
    within = np.abs(values) <= MAX_ABS_VALUE
    lo, hi = values[..., :-1], values[..., 1:]
    with np.errstate(invalid="ignore", over="ignore"):
        dips = lo - hi > MONOTONE_REL_TOL * np.maximum(np.abs(lo), np.abs(hi))
    bad = ~within.all(axis=-1) | dips.any(axis=-1)
    if not bad.any():
        return
    i, s = (int(v) for v in np.argwhere(bad)[0])
    where = f"{owner}, model {names[i]!r} at {step} {s}"
    _require_within(values[i, s].tolist(), f"{where}: forecast values", MAX_ABS_VALUE)
    indices = np.flatnonzero(dips[i, s]).tolist()
    raise NonMonotoneQuantiles(
        f"{where}: quantile values decrease at level indices {indices}",
        model=names[i], timestep=s, indices=tuple(indices),
    )


_ROW_DEFECTS = ("none", "length", "string", "true", "false", "null", "nan", "inf", "-inf",
                "beyond bound", "dip", "dip within")


@st.composite
def _defective_blocks(draw):
    """Rows as a panel file gives them (1..4 models, 0..5 steps, 1..5
    levels; sorted floats, or floats and integers, ties included, at
    magnitudes from 1e-3 to 1e6), then one defect at one place."""
    n, steps, k = draw(st.integers(1, 4)), draw(st.integers(0, 5)), draw(st.integers(1, 5))
    magnitude = draw(st.sampled_from((1e-3, 1.0, 1e6)))
    number = st.floats(-magnitude, magnitude, allow_subnormal=False)
    if draw(st.booleans()):
        number = st.one_of(st.integers(-5, 5), number)
    matrices = [[sorted(draw(st.lists(number, min_size=k, max_size=k))) for _ in range(steps)]
                for _ in range(n)]
    defect = draw(st.sampled_from(_ROW_DEFECTS)) if steps else "none"
    if defect != "none":
        row = matrices[draw(st.integers(0, n - 1))][draw(st.integers(0, steps - 1))]
        j = draw(st.integers(0, k - 1))
        if defect == "length":
            row.append(row[-1]) if draw(st.booleans()) else row.pop()
        elif defect in ("dip", "dip within"):
            if k == 1:
                row.append(row[0])  # a length defect instead
            else:
                j = max(j, 1)
                below = float(row[j - 1])
                if defect == "dip":
                    row[j] = below - max(abs(below), 1.0) * 1e-9
                else:  # one ulp, far inside the tolerance
                    row[j] = float(np.nextafter(below, -np.inf)) if below else below
        else:
            row[j] = {"string": str(row[j]), "true": True, "false": False, "null": None,
                      "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                      "beyond bound": draw(st.sampled_from((-1.0, 1.0))) * 1e290}[defect]
    names = tuple(f"m{i}" for i in range(n))
    return list(zip(names, matrices)), k


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except Exception as exc:  # noqa: BLE001 - the class and text are what is compared
        extra = ()
        if isinstance(exc, NonMonotoneQuantiles):
            extra = (exc.model, exc.timestep, exc.indices)
        return "raised", (type(exc), str(exc), extra)


@given(_defective_blocks())
@settings(max_examples=400, deadline=None)
def test_stack_and_check_agree_with_their_reference_copies(case):
    # The packed conversion and the two-reduction all-good test take no
    # different decision than the code they replaced: the same array, bit
    # for bit, or the same error with the same text and attributes.
    models, k = case
    got = _outcome(stack_forecasts, models, k, "timestep")
    want = _outcome(_reference_stack_forecasts, models, k, "timestep")
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got[1] == want[1]
        return
    values, reference = got[1], want[1]
    assert values.dtype == reference.dtype and values.shape == reference.shape
    assert values.tobytes() == reference.tobytes()
    levels = QuantileLevels(tuple(np.arange(1, k + 1) / (k + 1)))
    names = tuple(name for name, _ in models)
    assert (_outcome(_validate_forecasts, "panel 'p'", names, levels, values, "timestep")
            == _outcome(_reference_validate_forecasts, "panel 'p'", names, levels, values,
                        "timestep"))
