import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quantarb.core import (
    DEFAULT_LEVELS,
    ArbitrationStep,
    ArbitrationTrace,
    ForecastPanel,
    PerformanceWindow,
    QuantileForecast,
    QuantileLevels,
    WeightVector,
    build_panel,
    quantile_at,
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


def test_forecast_accepts_monotone_values_with_ties():
    fc = QuantileForecast(DEFAULT_LEVELS, (1, 1, 2, 2, 3, 3, 4, 4, 5))
    assert fc.values == (1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0)
    assert fc.median == 3.0


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
    fc = QuantileForecast(DEFAULT_LEVELS, (1, 2, 3, 4, 5, 6, 7, 8, 9))
    assert fc.value_at(0.3) == 3.0
    assert fc.value_at(0.35) == pytest.approx(3.5)
    assert fc.value_at(0.05) == 1.0  # clamped to the outermost knot
    assert fc.value_at(0.95) == 9.0


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


def test_panel_values_are_a_read_only_copy():
    values = np.tile(np.arange(1.0, 10.0), (2, 3, 1))
    panel = ForecastPanel("s", (1, 2), None, 1, ("a", "b"), DEFAULT_LEVELS, values)
    values[0, 0, 0] = 100.0
    assert panel.values[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        panel.values[0, 0, 0] = 100.0
    assert (panel.n_models, panel.horizon) == (2, 3)
    assert panel.forecasts_at(2)[1] == QuantileForecast(DEFAULT_LEVELS, range(1, 10))
    with pytest.raises(KeyError):
        panel.model_forecasts("c")


def test_quantile_at_matches_value_at_row_by_row():
    grid = QuantileLevels((0.05, 0.25, 0.45, 0.6, 0.9))
    values = np.cumsum(np.arange(1.0, 31.0).reshape(2, 3, 5) ** 1.5, axis=-1)
    for alpha in (0.01, 0.05, 0.3, 0.5, 0.6, 0.95):
        got = quantile_at(grid.levels, values, alpha)
        for i in range(2):
            for t in range(3):
                fc = QuantileForecast(grid, values[i, t])
                assert got[i, t] == fc.value_at(alpha)
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


def test_weight_vector_accepts_normalized_and_rejects_drift():
    WeightVector((0.25, 0.75))
    with pytest.raises(ValueError):
        WeightVector((0.25, 0.7))
    with pytest.raises(ValueError):
        WeightVector((-0.1, 1.1))
    with pytest.raises(ValueError):
        WeightVector(())


def test_weight_vector_normalized_and_uniform():
    w = WeightVector.normalized([2.0, 6.0])
    assert w.weights == (0.25, 0.75)
    assert WeightVector.uniform(4).weights == (0.25,) * 4
    with pytest.raises(ValueError):
        WeightVector.normalized([0.0, 0.0])


@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=8))
def test_normalized_weights_always_sum_to_one(raw):
    total = math.fsum(WeightVector.normalized(raw).weights)
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
    assert (len(window), window.is_empty) == (3, False)
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
    assert PerformanceWindow(names, levels, np.empty((2, 0, 9)), []).is_empty


def _step(counts, n_total=10):
    n = len(counts)
    fc = QuantileForecast(DEFAULT_LEVELS, range(9))
    return ArbitrationStep(
        forecast=fc,
        weights=WeightVector.uniform(n),
        sample_counts=tuple(counts),
        simulated_truth=4.0,
        scores=None,
        weight_rule="uniform",
    )


def test_trace_requires_counts_to_sum_to_n_total():
    ArbitrationTrace("s", ("a", "b"), 10, (_step((4, 6)),))
    with pytest.raises(DimensionMismatch):
        ArbitrationTrace("s", ("a", "b"), 10, (_step((4, 5)),))
    with pytest.raises(DimensionMismatch):
        ArbitrationTrace("s", ("a", "b", "c"), 10, (_step((4, 6)),))
