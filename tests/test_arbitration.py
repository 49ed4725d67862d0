import dataclasses
import hashlib
import math
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quantarb.arbitration as arbitration
import quantarb.quantiles as quantiles
from quantarb.arbitration import (
    ArbitratorConfig,
    WindowScores,
    allocate_samples,
    run_arbitration,
    seed_window_from_context,
    weights_with_rule,
)
from quantarb.cli import main
from quantarb.core import (
    DEFAULT_LEVELS,
    ArbitrationStep,
    PerformanceWindow,
    QuantileForecast,
    QuantileLevels,
    build_panel,
    normalize_weights,
    quantile_at,
)
from quantarb.errors import (
    AlignmentMismatch,
    DimensionMismatch,
    EmptyWindow,
    NonFinite,
    NonMonotoneQuantiles,
)
from quantarb.metrics import PinballLoss, crps_batch
from quantarb.quantiles import InverseCdf, KeyedPhilox, RandomStreams, empirical_quantiles
from quantarb.synthetic import build_benchmark_suite

CFG = ArbitratorConfig()


def _fc(values):
    return QuantileForecast(DEFAULT_LEVELS, values)


def _gauss(mu, sigma=1.0):
    z = (-1.2816, -0.8416, -0.5244, -0.2533, 0.0, 0.2533, 0.5244, 0.8416, 1.2816)
    return _fc(tuple(mu + sigma * zi for zi in z))


def test_config_validation():
    with pytest.raises(ValueError):
        ArbitratorConfig(n_total=0)
    with pytest.raises(ValueError):
        ArbitratorConfig(window_capacity=0)
    with pytest.raises(ValueError):
        ArbitratorConfig(mode="bogus")


@pytest.mark.parametrize("field", ["n_total", "window_capacity"])
@pytest.mark.parametrize("bad", [True, np.True_, 2.5, 1500.5, 4.0])
def test_config_rejects_sizes_that_are_not_integers(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1, got "):
        ArbitratorConfig(**{field: bad})


@pytest.mark.parametrize("bad", [True, np.True_, "1.0", None, 2.0])
def test_config_rejects_a_bool_temperature(bad):
    # The config has no temperature: any value given as one is a TypeError.
    with pytest.raises(TypeError, match="softmax_temperature"):
        ArbitratorConfig(softmax_temperature=bad)


def test_config_takes_numpy_integer_sizes():
    config = ArbitratorConfig(n_total=np.int64(300), window_capacity=np.int32(4))
    assert (config.n_total, config.resolve_capacity(40)) == (300, 4)


def test_default_window_capacity_tracks_short_horizons():
    assert CFG.resolve_capacity(8) == 8
    assert CFG.resolve_capacity(40) == 16
    assert ArbitratorConfig(window_capacity=3).resolve_capacity(40) == 3


def _scored(capacity, records):
    """Window scores after pushing ``(observation, forecasts)`` records one by one."""
    ring = WindowScores(capacity, PinballLoss(DEFAULT_LEVELS.levels), len(records[0][1]))
    for obs, fcs in records:
        ring.push([fc.values for fc in fcs], obs)
    return ring


def _crps(fc, y):
    return float(crps_batch(fc.levels.levels, fc.values, y))


def test_average_scores_zero_for_point_mass_at_observation():
    scores = _scored(4, [(5.0, (_fc((5.0,) * 9), _gauss(4.0)))]).averages()
    assert scores[0] == 0.0
    assert scores[1] > 0.0


def test_average_scores_is_the_record_mean():
    # one model, two records with known per-record CRPS
    f1, f2 = _fc((5.0,) * 9), _fc((6.0,) * 9)
    ring = _scored(4, [(4.0, (f1,)), (4.0, (f2,))])  # crps 2*1/4 = 0.5, then 2*2/4 = 1.0
    c1 = _crps(f1, 4.0)
    c2 = _crps(f2, 4.0)
    assert ring.averages() == (pytest.approx((c1 + c2) / 2, rel=1e-15),)


def test_average_scores_symmetric_for_identical_models():
    scores = _scored(2, [(3.0, (_gauss(2.0), _gauss(2.0)))]).averages()
    assert scores[0] == scores[1]


def test_average_scores_reject_empty_window():
    with pytest.raises(EmptyWindow):
        WindowScores(2, PinballLoss(DEFAULT_LEVELS.levels), 2).averages()


def test_inverse_error_weights_hand_values():
    assert weights_with_rule((1.0, 1.0)) == (0.5, 0.5)
    w = weights_with_rule((1.0, 3.0))
    assert w[0] == pytest.approx(0.75, rel=1e-12)
    assert w[1] == pytest.approx(0.25, rel=1e-12)


def test_zero_score_is_weighted_at_the_floor():
    # A zero score counts as NEAR_ZERO_EPSILON = 1e-9: weights 1e9 : 1.
    w = weights_with_rule((0.0, 1.0))
    assert w[0] == pytest.approx(1e9 / (1e9 + 1.0), rel=1e-15)
    assert w[1] == pytest.approx(1.0 / (1e9 + 1.0), rel=1e-12)


def test_temperature_knob_is_gone(capsys):
    # ArbitratorConfig has no temperature (test_config_rejects_a_bool_temperature),
    # and no command takes one.
    with pytest.raises(SystemExit) as caught:
        main(["eval", "panels.jsonl", "--temperature", "2"])
    assert caught.value.code == 2
    assert "unrecognized arguments: --temperature 2" in capsys.readouterr().err


def test_weight_rules_are_order_equivariant():
    perm = (2, 0, 3, 1)
    for scores in ((0.031, 0.72, 0.0044, 0.5), (0.031, 0.0, 0.0044, 0.0)):
        w = weights_with_rule(scores)
        w_perm = weights_with_rule(tuple(scores[i] for i in perm))
        assert w_perm == tuple(w[i] for i in perm)


# Scores at and around the floor, or ordinary window-score magnitudes.
_score = st.one_of(
    st.sampled_from((0.0, 1e-12, 0.99e-9, 1.01e-9)),
    st.floats(1e-9, 1.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(scores=st.lists(_score, min_size=1, max_size=12), data=st.data())
def test_weights_are_continuous_monotone_and_equivariant(scores, data):
    w = weights_with_rule(scores)
    # Moving one score across the floor, 1.01e-9 -> 0.99e-9, barely moves
    # any weight.
    i = data.draw(st.integers(0, len(scores) - 1))
    above = weights_with_rule(scores[:i] + [1.01e-9] + scores[i + 1:])
    below = weights_with_rule(scores[:i] + [0.99e-9] + scores[i + 1:])
    assert all(abs(b - a) <= 0.02 * a for a, b in zip(above, below))
    # A lower score never gets less weight; tied scores get equal weights.
    for sj, wj in zip(scores, w):
        for sk, wk in zip(scores, w):
            if sj < sk:
                assert wj >= wk
            elif sj == sk:
                assert wj == wk
    # Permuting the scores permutes the weights bit for bit.
    perm = data.draw(st.permutations(range(len(scores))))
    assert weights_with_rule([scores[j] for j in perm]) == tuple(w[j] for j in perm)


def test_allocation_hand_values():
    assert allocate_samples((0.5, 0.5), 1500) == (750, 750)
    assert allocate_samples((1.0, 0.0), 1500) == (1500, 0)
    thirds = (1 / 3, 1 / 3, 1 / 3)
    assert allocate_samples(thirds, 1000) == (334, 333, 333)
    assert allocate_samples((0.25, 0.25, 0.25, 0.25), 7) == (2, 2, 2, 1)


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=9),
    st.integers(min_value=1, max_value=5000),
)
@settings(max_examples=200)
def test_allocation_sums_exactly_and_stays_within_one_of_exact(raw, n_total):
    w = normalize_weights(raw)
    counts = allocate_samples(w, n_total)
    assert sum(counts) == n_total
    assert all(c >= 0 for c in counts)
    for c, wi in zip(counts, w):
        assert abs(c - wi * n_total) < 1.0


def _allocate_by_sorted_pairs(weights, n_total):
    """Largest remainder as it was written: remainder units go down the
    sorted (fraction, index) pairs, so ties go to the lowest index."""
    scaled = [w * n_total for w in weights]
    counts = [math.floor(x) for x in scaled]
    by_fraction = sorted(zip([c - x for c, x in zip(counts, scaled)], range(len(counts))))
    for _, i in by_fraction[:n_total - sum(counts)]:
        counts[i] += 1
    return tuple(counts)


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=9),
    st.integers(min_value=1, max_value=5000),
)
@settings(max_examples=300)
def test_allocation_breaks_ties_as_the_sorted_pairs_did(raw, n_total):
    # Small integer weights repeat, so many fractions tie exactly.
    weights = normalize_weights(raw)
    assert allocate_samples(weights, n_total) == _allocate_by_sorted_pairs(weights, n_total)


def _one_step_panel(rows, context=(9.0, 9.5, 10.0)):
    """A horizon-1 panel holding one forecast row per named model."""
    return build_panel(
        "step", context, None, 1, DEFAULT_LEVELS, [(name, [row]) for name, row in rows]
    )


def _arbitrate_step(rows, config=CFG, seed=0, backtests=None):
    """The one arbitrated step of a horizon-1 panel, its counts and weights."""
    panel = _one_step_panel(rows)
    window = seed_window_from_context(panel, backtests, config) if backtests else None
    trace = run_arbitration(
        panel, initial_window=window, config=config, streams=RandomStreams(seed)
    )
    step = trace.steps[0]
    return step.forecast, step.sample_counts, step.weights


def test_arbitrate_point_masses_splits_the_budget():
    out, counts, weights = _arbitrate_step((("a", (0.0,) * 9), ("b", (10.0,) * 9)))
    assert weights == (0.5, 0.5)
    assert counts == (750, 750)
    # pooled sample is exactly 750 zeros and 750 tens; under the linear
    # interpolation estimator the 0.5 level lands between the two blocks
    assert quantile_at(out.levels.levels, out.values, 0.2) == 0.0
    assert quantile_at(out.levels.levels, out.values, 0.8) == 10.0
    assert quantile_at(out.levels.levels, out.values, 0.5) == 5.0


def test_arbitrate_single_model_round_trips_its_forecast():
    fc = _gauss(20.0, 3.0)
    cfg = ArbitratorConfig(n_total=200_000)
    out, counts, _ = _arbitrate_step((("m", fc.values),), cfg, seed=1)
    assert counts == (200_000,)
    scale = fc.values[-1] - fc.values[0]
    tol = max(1e-2, 1e-2 * scale)
    for want, got in zip(fc.values, out.values):
        assert abs(got - want) <= tol


def test_arbitrate_identical_models_matches_single_model_distribution():
    fc = _gauss(4.0)
    cfg = ArbitratorConfig(n_total=30_000)
    # Point-mass backtests 0.7 and 0.3 above the last context value 10 score
    # 0.07 and 0.03, so the step weighs the identical models 0.3 and 0.7.
    backtests = {"a": [[10.7] * 9], "b": [[10.3] * 9]}
    both, _, weights = _arbitrate_step(
        (("a", fc.values), ("b", fc.values)), cfg, seed=2, backtests=backtests
    )
    assert weights == pytest.approx((0.3, 0.7), rel=1e-12)
    for want, got in zip(fc.values, both.values):
        assert abs(got - want) <= 0.05


def test_arbitrate_rejects_forecasts_on_different_grids():
    # A panel holds one grid; a window on another grid cannot seed its run.
    panel = _drifting_panel()
    grid = QuantileLevels((0.25, 0.5, 0.75))
    other = PerformanceWindow(panel.model_names, grid, [[[1.0, 2.0, 3.0]]] * 2, [10.0])
    with pytest.raises(AlignmentMismatch, match="initial window levels"):
        run_arbitration(panel, initial_window=other, streams=RandomStreams(0))


def _drifting_panel(names=("a", "b"), t_steps=6, offsets=(0.0, 1.5)):
    rows = {
        name: [[10.0 + off + t * 0.2 + 0.3 * k for k in range(9)] for t in range(t_steps)]
        for name, off in zip(names, offsets)
    }
    return build_panel(
        "drift",
        context=[9.0, 9.5, 10.0],
        actuals=[10.0 + t * 0.2 for t in range(t_steps)],
        seasonality=1,
        levels=DEFAULT_LEVELS,
        models=[(n, rows[n]) for n in names],
    )


def test_run_arbitration_trace_shape_and_budget():
    panel = _drifting_panel()
    trace = run_arbitration(panel, streams=RandomStreams(0))
    assert len(trace) == panel.horizon
    assert trace.model_names == ("a", "b")
    for step in trace.steps:
        assert sum(step.sample_counts) == 1500
        assert abs(math.fsum(step.weights) - 1.0) <= 1e-9


def test_trace_arrays_hold_every_step_and_its_views_agree():
    panel = _drifting_panel()
    trace = run_arbitration(panel, streams=RandomStreams(0))
    n, t = panel.n_models, panel.horizon
    assert trace.quantiles.shape == (t, 9) and trace.levels == DEFAULT_LEVELS
    assert trace.weights.shape == trace.counts.shape == trace.scores.shape == (t, n)
    assert trace.rules.tolist() == ["uniform"] + ["inverse_error"] * (t - 1)
    assert np.isnan(trace.scores[0]).all() and np.isfinite(trace.scores[1:]).all()
    assert (trace.counts.sum(axis=1) == 1500).all()
    assert trace.medians == tuple(trace.simulated.tolist())
    for i, step in enumerate(trace.steps):
        assert step.forecast.values == tuple(trace.quantiles[i].tolist())
        assert step.weights == trace.weights_at(i)
        assert step.sample_counts == tuple(trace.counts[i].tolist())
        assert step.weight_rule == trace.rules[i]
        assert step.scores == (None if i == 0 else tuple(trace.scores[i].tolist()))


def test_run_builds_no_value_objects_per_step(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built during a run")

    for cls in (QuantileForecast, ArbitrationStep):
        monkeypatch.setattr(cls, "__init__", refuse)
    trace = run_arbitration(_drifting_panel(), streams=RandomStreams(0))
    assert len(trace) == 6


def test_first_step_uses_uniform_weights_when_window_empty():
    trace = run_arbitration(_drifting_panel(), streams=RandomStreams(0))
    assert trace.steps[0].weight_rule == "uniform"
    assert trace.steps[0].weights == (0.5, 0.5)
    assert all(s.weight_rule == "inverse_error" for s in trace.steps[1:])


def test_static_mode_keeps_uniform_weights_throughout():
    trace = run_arbitration(
        _drifting_panel(), config=ArbitratorConfig(mode="static-uniform"), streams=RandomStreams(0)
    )
    assert all(s.weight_rule == "static" for s in trace.steps)
    assert all(s.weights == (0.5, 0.5) for s in trace.steps)
    assert all(s.scores is None for s in trace.steps)


def test_self_tracking_model_takes_nearly_all_the_weight():
    # model a is a point mass exactly at each arbitrated median: from t=1 on
    # its window score is exactly zero, which is weighted at the floor
    t_steps = 4
    b_rows = [[5.0 + 0.4 * k for k in range(9)] for _ in range(t_steps)]
    a_rows = [[5.0 + 0.4 * 4] * 9 for _ in range(t_steps)]  # matches b's median
    panel = build_panel(
        "self", [5.0, 5.0], [5.0] * t_steps, 1, DEFAULT_LEVELS,
        [("a", a_rows), ("b", b_rows)],
    )
    trace = run_arbitration(panel, streams=RandomStreams(0))
    assert trace.steps[0].weight_rule == "uniform"
    for step in trace.steps[1:]:
        assert step.weight_rule == "inverse_error"
        assert step.scores[0] == 0.0
        assert step.weights[0] >= 1.0 - 1e-6


def test_lower_window_error_earns_more_weight():
    # every record scores a strictly below b, so inverse-error weighting must
    # favor a regardless of the margins involved
    records = [(obs, (_gauss(obs, 0.5), _gauss(obs + 2.0, 3.0))) for obs in (3.0, 3.5, 2.8)]
    scores = _scored(4, records).averages()
    assert scores[0] < scores[1]
    w = weights_with_rule(scores)
    assert w[0] > w[1]


def test_seeded_runs_are_bit_identical():
    panel = _drifting_panel()
    t1 = run_arbitration(panel, streams=RandomStreams(11))
    t2 = run_arbitration(panel, streams=RandomStreams(11))
    t3 = run_arbitration(panel, streams=RandomStreams(12))
    assert t1 == t2
    assert t1 != t3


def test_permutation_equivariance_is_bit_exact():
    panel = _drifting_panel(names=("a", "b"), offsets=(0.0, 1.5))
    swapped = build_panel(
        "drift",
        context=panel.context,
        actuals=panel.actuals,
        seasonality=panel.seasonality,
        levels=DEFAULT_LEVELS,
        models=[
            ("b", panel.values[panel.model_names.index("b")].tolist()),
            ("a", panel.values[panel.model_names.index("a")].tolist()),
        ],
    )
    t_ab = run_arbitration(panel, streams=RandomStreams(5))
    t_ba = run_arbitration(swapped, streams=RandomStreams(5))
    for s1, s2 in zip(t_ab.steps, t_ba.steps):
        assert s1.forecast.values == s2.forecast.values
        assert s1.weights == (s2.weights[1], s2.weights[0])
        assert s1.sample_counts == (s2.sample_counts[1], s2.sample_counts[0])
        assert s1.simulated_truth == s2.simulated_truth


def test_arbitrated_forecasts_always_validate():
    trace = run_arbitration(_drifting_panel(), streams=RandomStreams(3))
    for step in trace.steps:
        vals = step.forecast.values
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_simulated_truth_is_the_pooled_median_on_grids_without_one_half():
    # Reported on (0.05, 0.1, 0.2), the pooled median must still stand in for
    # the observation, so the run matches one reported on a grid holding 0.5.
    panel = _drifting_panel(t_steps=8)
    runs = [
        run_arbitration(
            panel,
            config=ArbitratorConfig(levels=QuantileLevels(grid)),
            streams=RandomStreams(9),
        )
        for grid in ((0.05, 0.1, 0.2), (0.05, 0.1, 0.2, 0.5))
    ]
    lacking, holding = runs
    # The point path is the pooled median too, not the clamped q0.2.
    assert lacking.medians == tuple(s.simulated_truth for s in lacking.steps)
    assert lacking.medians == holding.medians
    for a, b in zip(lacking.steps, holding.steps):
        assert a.simulated_truth == b.simulated_truth == b.forecast.values[-1]
        assert a.weights == b.weights
        assert a.weight_rule == b.weight_rule
        assert a.forecast.values == b.forecast.values[:3]
    assert lacking.steps[-1].weight_rule == "inverse_error"


def test_n_total_must_cover_model_count():
    with pytest.raises(ValueError):
        run_arbitration(_drifting_panel(), config=ArbitratorConfig(n_total=1))


def test_seed_window_empty_without_backtests():
    panel = _drifting_panel()
    window = seed_window_from_context(panel)
    assert len(window) == 0
    assert (window.model_names, window.levels) == (panel.model_names, panel.levels)
    assert window.values.shape == (2, 0, 9) and window.observations.shape == (0,)


def test_seed_window_uses_context_tail_as_observations():
    panel = _drifting_panel()
    steps = {
        "a": [[1.0 + 0.1 * k for k in range(9)], [2.0 + 0.1 * k for k in range(9)]],
        "b": [[1.5 + 0.1 * k for k in range(9)], [2.5 + 0.1 * k for k in range(9)]],
    }
    window = seed_window_from_context(panel, steps)
    assert len(window) == 2
    assert window.observations.tolist() == [9.5, 10.0]
    assert window.values[0, 0, 0] == 1.0
    assert window.values[1, 1, 0] == 2.5


def test_seed_window_alignment_errors():
    panel = _drifting_panel()
    with pytest.raises(AlignmentMismatch):
        seed_window_from_context(panel, {"a": [[0.0] * 9]})  # model b missing
    with pytest.raises(AlignmentMismatch):
        seed_window_from_context(
            panel, {"a": [[0.0] * 9], "b": [[0.0] * 9, [0.0] * 9]}
        )
    too_long = {"a": [[0.0] * 9] * 4, "b": [[0.0] * 9] * 4}
    with pytest.raises(AlignmentMismatch):
        seed_window_from_context(panel, too_long)  # only 3 context values


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ([1.0] * 8, DimensionMismatch, "8 values for 9 levels"),
        ([1.0, None] + [2.0] * 7, TypeError, "level index 1 is null"),
        ([1.0, float("nan")] + [2.0] * 7, NonFinite, "nan at index 1"),
        ([2.0, 1.0] + [3.0] * 7, NonMonotoneQuantiles, r"level indices \[0\]"),
    ],
)
def test_seed_window_names_model_and_backtest_step_of_a_bad_row(bad, error, message):
    panel = _drifting_panel()
    good = [[1.0 + 0.1 * k for k in range(9)]] * 2
    with pytest.raises(error, match=f"model 'b' at backtest step 1: .*{message}"):
        seed_window_from_context(panel, {"a": good, "b": [good[0], bad]})


def test_seeded_window_keeps_the_newest_records_at_capacity():
    # Seeded under the default capacity (10 for this horizon), run under 4:
    # the first step scores only the 4 newest backtest records.
    panel = _three_model_panel()
    backtests = {
        name: [[18.5 + j + 0.5 * i + 0.3 * k for k in range(9)] for j in range(8)]
        for i, name in enumerate(panel.model_names)
    }
    window = seed_window_from_context(panel, backtests)
    assert len(window) == 8
    cfg = ArbitratorConfig(window_capacity=4)
    trace = run_arbitration(panel, initial_window=window, config=cfg, streams=RandomStreams(0))
    newest = [(window.values[:, j], window.observations[j]) for j in range(4, 8)]
    assert trace.steps[0].scores == _rescored(newest)
    assert trace.steps[0].scores != _rescored(
        [(window.values[:, j], window.observations[j]) for j in range(8)]
    )


def test_seed_window_may_hold_more_records_than_the_run_capacity():
    # 8 context values, 5 backtest records, capacity 4: the window keeps all
    # five, and the run scores its first step on the newest four.
    panel = _three_model_panel()
    cfg = ArbitratorConfig(window_capacity=4)
    backtests = {
        name: [[18.5 + j + 0.5 * i + 0.3 * k for k in range(9)] for j in range(5)]
        for i, name in enumerate(panel.model_names)
    }
    window = seed_window_from_context(panel, backtests, cfg)
    assert len(window) == 5
    assert window.observations.tolist() == list(panel.context[-5:])
    trace = run_arbitration(panel, initial_window=window, config=cfg, streams=RandomStreams(0))
    newest = [(window.values[:, j], window.observations[j]) for j in range(1, 5)]
    assert trace.steps[0].scores == _rescored(newest)


def test_arbitration_draws_without_building_a_generator_per_stream(monkeypatch):
    # Keys for every (step, model) come from one grid_keys pass; building a
    # SeedSequence-backed generator per stream is the slow path it replaces.
    expected = run_arbitration(_three_model_panel(), streams=RandomStreams(3))

    def refuse(self):
        raise AssertionError("run_arbitration built a per-stream generator")

    monkeypatch.setattr(RandomStreams, "generator", refuse)
    assert run_arbitration(_three_model_panel(), streams=RandomStreams(3)) == expected


def test_run_derives_its_keys_and_fits_once(monkeypatch):
    # The per-panel set-up runs once per run, whatever the horizon: one
    # grid_keys pass for every (step, model) stream, one fit of all N x T
    # forecasts.
    expected = run_arbitration(_three_model_panel(), streams=RandomStreams(3))
    calls = {"keys": 0, "fits": 0}
    grid_keys = RandomStreams.grid_keys

    def counted_keys(self, rows, leaves):
        calls["keys"] += 1
        return grid_keys(self, rows, leaves)

    def counted_fit(levels, values):
        calls["fits"] += 1
        return InverseCdf(levels, values)

    monkeypatch.setattr(RandomStreams, "grid_keys", counted_keys)
    monkeypatch.setattr(arbitration, "InverseCdf", counted_fit)
    for runs in (1, 2):
        assert run_arbitration(_three_model_panel(), streams=RandomStreams(3)) == expected
        assert calls == {"keys": runs, "fits": runs}


def _trace_bits(trace):
    """Everything a trace holds, arrays as their bytes."""
    return tuple(a.tobytes() if isinstance(a, np.ndarray) else a for a in trace._args())


@pytest.mark.parametrize("grid", [DEFAULT_LEVELS.levels, (0.1, 0.3, 0.8), (0.4,)])
@pytest.mark.parametrize("first", ["dynamic", "static-uniform"])
def test_runs_sharing_a_set_up_equal_lone_runs_bit_for_bit(grid, first):
    # A panel's dynamic and static runs under one stream tree share one fit
    # and one key grid, whichever runs first; on a grid without 0.5, and on
    # a one-level grid, a run requantizes on the grid with 0.5 added.
    rng = np.random.default_rng(len(grid))
    values = np.sort(rng.normal(20.0, 3.0, size=(3, 6, len(grid))), axis=-1)
    panel = build_panel("shared", [19.0, 20.0, 21.0], None, 1, QuantileLevels(grid),
                        [(f"m{i}", values[i].tolist()) for i in range(3)])
    modes = [first] + [mode for mode in ("dynamic", "static-uniform") if mode != first]
    configs = [ArbitratorConfig(n_total=90, window_capacity=3, mode=mode) for mode in modes]
    setup = arbitration.PanelSetup(panel, RandomStreams(7))
    shared = [_trace_bits(run_arbitration(panel, config=config, streams=RandomStreams(7),
                                          setup=setup)) for config in configs]
    lone = [_trace_bits(run_arbitration(panel, config=config, streams=RandomStreams(7)))
            for config in configs]
    assert shared == lone


def test_a_set_up_serves_only_its_own_panel_and_stream_tree():
    # An equal tree is the same tree; an equal panel is not the same panel.
    panel = _three_model_panel()
    setup = arbitration.PanelSetup(panel, RandomStreams(3))
    expected = run_arbitration(panel, streams=RandomStreams(3))
    assert run_arbitration(panel, streams=RandomStreams(3), setup=setup) == expected
    for other, streams in ((dataclasses.replace(panel), RandomStreams(3)),
                           (_drifting_panel(), RandomStreams(3)),
                           (panel, RandomStreams(4)),
                           (panel, RandomStreams(3).child("series"))):
        for fresh in (setup, arbitration.PanelSetup(panel, RandomStreams(3))):
            with pytest.raises(ValueError, match="set-up of panel 'ring' is for another run"):
                run_arbitration(other, streams=streams, setup=fresh)


def test_runs_on_one_thread_share_one_philox_generator(monkeypatch):
    # A thread builds its generator on its first run and every later run on
    # it draws from the same one; a new thread builds its own, once.
    expected = _trace_bits(run_arbitration(_three_model_panel(), streams=RandomStreams(3)))
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(threading.get_ident())
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    assert _trace_bits(run_arbitration(_three_model_panel(), streams=RandomStreams(3))) == expected
    assert built == []

    def twice():
        return [_trace_bits(run_arbitration(_three_model_panel(), streams=RandomStreams(3)))
                for _ in range(2)]

    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(twice).result() == [expected, expected]
    assert len(built) == 1 and built[0] != threading.get_ident()


def test_threads_arbitrating_at_once_reproduce_the_serial_traces():
    # Eight threads, one panel each, start together and run their panel
    # three times while the interpreter switches threads every 10 us: every
    # trace is the serial run's, bit for bit, so no thread ever drew from
    # another's generator state.
    suite = build_benchmark_suite(8, seed=4)
    config = ArbitratorConfig(n_total=600)
    serial = [_trace_bits(run_arbitration(t.panel, config=config, streams=RandomStreams(2)))
              for t in suite]
    start = threading.Barrier(len(suite))

    def arbitrate(tagged):
        start.wait(timeout=60)
        return [_trace_bits(run_arbitration(tagged.panel, config=config,
                                            streams=RandomStreams(2))) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(suite)) as pool:
            futures = [pool.submit(arbitrate, tagged) for tagged in suite]
            threaded = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == [[bits] * 3 for bits in serial]


def test_window_for_another_model_order_is_rejected():
    # Scores are attributed by position, so a window seeded for (a, b, c)
    # must not seed the (c, b, a) panel.
    panel = _three_model_panel()
    backtests = {name: [[19.0 + 0.3 * k for k in range(9)]] for name in panel.model_names}
    window = seed_window_from_context(panel, backtests)
    flipped = build_panel(
        panel.series_id, panel.context, None, 1, DEFAULT_LEVELS,
        [(name, panel.values[i].tolist()) for i, name in reversed(list(enumerate("abc")))],
    )
    with pytest.raises(AlignmentMismatch, match="initial window models"):
        run_arbitration(flipped, initial_window=window, streams=RandomStreams(0))
    own = seed_window_from_context(flipped, backtests)
    run_arbitration(flipped, initial_window=own, streams=RandomStreams(0))


def test_initial_window_biases_first_step_weights():
    panel = _drifting_panel()
    # backtest records where a nailed the context and b was far off
    steps = {
        "a": [[9.5 + 0.01 * k for k in range(9)], [10.0 + 0.01 * k for k in range(9)]],
        "b": [[12.0 + 0.01 * k for k in range(9)], [12.5 + 0.01 * k for k in range(9)]],
    }
    window = seed_window_from_context(panel, steps)
    trace = run_arbitration(panel, initial_window=window, streams=RandomStreams(0))
    assert trace.steps[0].weight_rule == "inverse_error"
    assert trace.steps[0].weights[0] > 0.9


def _rescored(records):
    """Reference: re-score every ``(values (N, K), observation)`` record, one
    forecast at a time, and average per model."""
    n_models = len(records[0][0])
    return tuple(
        math.fsum(float(crps_batch(DEFAULT_LEVELS.levels, v[i], y)) for v, y in records)
        / len(records)
        for i in range(n_models)
    )


def _three_model_panel(t_steps=10):
    rows = {
        name: [[20.0 + off + 0.3 * t + spread * k for k in range(9)] for t in range(t_steps)]
        for name, off, spread in (("a", -0.4, 0.2), ("b", 0.9, 0.5), ("c", 0.1, 1.1))
    }
    return build_panel(
        "ring", [19.0 + 0.1 * j for j in range(8)], None, 1, DEFAULT_LEVELS,
        [(n, rows[n]) for n in "abc"],
    )


@pytest.mark.parametrize("seeded", [0, 2, 4])
def test_cached_window_scores_match_rescoring_bit_for_bit(seeded):
    # Capacity 4 over a 10-step horizon: the window fills and then evicts.
    # seeded=4 starts full from backtests, 2 half full, 0 empty.
    panel = _three_model_panel()
    cfg = ArbitratorConfig(window_capacity=4)
    backtests = {
        name: [[18.5 + j + 0.5 * i + 0.3 * k for k in range(9)] for j in range(seeded)]
        for i, name in enumerate(panel.model_names)
    }
    window = seed_window_from_context(panel, backtests, cfg)
    assert len(window) == seeded
    trace = run_arbitration(panel, initial_window=window, config=cfg, streams=RandomStreams(4))
    records = deque(
        ((window.values[:, j], window.observations[j]) for j in range(seeded)), maxlen=4
    )
    for t, step in enumerate(trace.steps):
        if not records:
            assert step.weight_rule == "uniform" and step.scores is None
        else:
            assert step.scores == _rescored(records)
            weights = weights_with_rule(_rescored(records))
            assert (step.weights, step.weight_rule) == (weights, "inverse_error")
        records.append((panel.values[:, t], step.simulated_truth))
    assert len(records) == 4


def _reference_run(panel, window, config, streams):
    """A plain step loop to check ``run_arbitration`` against: each model's
    stream from its own generator, its draws through ``InverseCdf.__call__``,
    numpy's linear quantiles, and the whole window re-scored every step.
    Returns per step the weights, counts, scores (None when unscored), rule,
    quantiles on the panel grid and pooled median."""
    levels = panel.levels.levels
    probe = tuple(sorted(set(levels) | {0.5}))
    on_grid = [probe.index(a) for a in levels]
    dynamic = config.mode == "dynamic"
    records = deque(maxlen=config.window_capacity)
    if dynamic and window is not None:
        records.extend((window.values[:, j], window.observations[j]) for j in range(len(window)))
    series = streams.child("series", panel.series_id, "t")
    n, steps = panel.n_models, []
    for t in range(panel.horizon):
        if dynamic and records:
            scores = tuple(
                math.fsum(float(crps_batch(levels, v[i], y)) for v, y in records) / len(records)
                for i in range(n)
            )
            weights, rule = weights_with_rule(scores), "inverse_error"
        else:
            scores, weights = None, (1.0 / n,) * n
            rule = "uniform" if dynamic else "static"
        counts = allocate_samples(weights, config.n_total)
        pooled = np.concatenate([
            InverseCdf(levels, panel.values[i, t])(
                series.child(t).child(name).generator().random(c))
            for i, (name, c) in enumerate(zip(panel.model_names, counts))
        ])
        q = np.quantile(pooled, probe, method="linear")
        median = float(q[probe.index(0.5)])
        steps.append((weights, counts, scores, rule, q[on_grid], median))
        records.append((panel.values[:, t], median))
    return steps


_LEVEL_GRIDS = st.lists(st.integers(1, 99), min_size=1, max_size=5, unique=True).map(
    lambda ks: QuantileLevels(tuple(k / 100 for k in sorted(ks))))


@given(
    st.data(),
    _LEVEL_GRIDS,
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(1, 4),
    st.sampled_from(["dynamic", "static-uniform"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_run_equals_a_plain_reference_step_loop(data, levels, n, horizon, capacity, mode, seed):
    rng = np.random.default_rng(seed)
    k = len(levels)
    names = data.draw(st.lists(st.text("abxyz", min_size=1, max_size=3),
                               min_size=n, max_size=n, unique=True))
    n_total = data.draw(st.integers(n, 200))
    values = np.sort(rng.normal(20.0, 3.0, size=(n, horizon, k)), axis=-1)
    if rng.random() < 0.5:
        values = np.round(values)  # tied knots and flat pieces
    panel = build_panel("p", [19.0, 20.0, 21.0], None, 1, levels,
                        [(name, values[i].tolist()) for i, name in enumerate(names)])
    window = None
    if data.draw(st.booleans()):
        span = data.draw(st.integers(0, 5))
        window = PerformanceWindow(
            model_names=panel.model_names,
            levels=levels,
            values=np.sort(rng.normal(20.0, 3.0, size=(n, span, k)), axis=-1),
            observations=rng.normal(20.0, 3.0, size=span),
        )
    config = ArbitratorConfig(n_total=n_total, window_capacity=capacity, mode=mode)
    streams = RandomStreams(seed)
    trace = run_arbitration(panel, initial_window=window, config=config, streams=streams)
    want = _reference_run(panel, window, config, streams)
    assert len(trace) == len(want)
    for t, (weights, counts, scores, rule, quantiles, median) in enumerate(want):
        assert tuple(trace.weights[t].tolist()) == weights
        assert tuple(trace.counts[t].tolist()) == counts
        if scores is None:
            assert np.isnan(trace.scores[t]).all()
        else:
            assert tuple(trace.scores[t].tolist()) == scores
        assert trace.rules[t] == rule
        assert np.array_equal(trace.quantiles[t], quantiles)
        assert trace.simulated[t] == median


def test_window_scores_evict_the_oldest_row_at_capacity():
    ring = WindowScores(2, PinballLoss(DEFAULT_LEVELS.levels), 2)
    records = deque(maxlen=2)
    for obs in (3.0, 3.5, 2.8, 4.1):
        values = np.array([_gauss(3.0, 0.5).values, _gauss(4.0, 2.0).values])
        ring.push(values, obs)
        records.append((values, obs))
        assert len(ring) == len(records)
        assert ring.averages() == _rescored(records)
    with pytest.raises(EmptyWindow):
        WindowScores(3, PinballLoss(DEFAULT_LEVELS.levels), 2).averages()


def test_step_plan_is_kept_per_shape_read_only_and_bounded():
    # A run's offsets, uniform row, probe levels and window loss depend on
    # its shape alone; runs of one shape share one read-only plan.
    panel = _drifting_panel(t_steps=4)
    n, horizon, grid = panel.n_models, panel.horizon, panel.levels.levels
    plan = arbitration._step_plan(grid, grid, n, horizon, 60)
    assert plan is arbitration._step_plan(grid, grid, n, horizon, 60)
    assert arbitration._step_plan.cache_info().maxsize == 64
    rows = np.arange(horizon)[:, None] + np.arange(n) * horizon
    icdf = InverseCdf(grid, panel.values)
    assert plan.offsets.tolist() == icdf.offsets(rows).tolist()
    with pytest.raises(ValueError, match="read-only"):
        plan.offsets[0, 0] = 0
    assert plan.uniform_row[1] == allocate_samples((0.5, 0.5), 60)
    assert plan.probe == DEFAULT_LEVELS.levels and plan.median_at == 4
    assert plan.on_grid == slice(None)
    # An output grid without 0.5 requantizes on it with 0.5 added.
    out = QuantileLevels((0.1, 0.9))
    off_grid = arbitration._step_plan(grid, out.levels, n, horizon, 60)
    assert off_grid.probe == (0.1, 0.5, 0.9) and off_grid.median_at == 1
    assert off_grid.on_grid.tolist() == [0, 2]
    with pytest.raises(ValueError, match="read-only"):
        off_grid.on_grid[0] = 1
    trace = run_arbitration(panel, config=ArbitratorConfig(n_total=60, levels=out))
    assert trace.levels == out and trace.quantiles.shape == (horizon, 2)


def _static_reference(panel, n_total, streams):
    """A static-uniform run step by step, from public pieces: each step's keys
    from ``grid_keys``, its uniforms from a fresh ``KeyedPhilox.fill``, one
    ``InverseCdf.evaluate`` and one ``empirical_quantiles`` per step."""
    n, horizon, levels = panel.n_models, panel.horizon, panel.levels.levels
    keys = streams.child("series", panel.series_id, "t").grid_keys(range(horizon),
                                                                   panel.model_names)
    counts = allocate_samples((1.0 / n,) * n, n_total)
    icdf = InverseCdf(levels, panel.values)
    probe = tuple(sorted(set(levels) | {0.5}))
    steps = []
    for t in range(horizon):
        uniforms = KeyedPhilox().fill(keys[t].tolist(), counts, np.empty(n_total))
        rows = icdf.offsets(np.arange(n) * horizon + t).repeat(counts)
        steps.append(empirical_quantiles(icdf.evaluate(uniforms, rows), probe))
    return counts, probe, steps


@given(
    st.integers(1, 9),
    st.integers(1, 5),
    st.sampled_from(["n", 7, 60]),
    _LEVEL_GRIDS,
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_static_runs_drawn_in_blocks_equal_a_step_by_step_reference(
    horizon, n, budget, levels, seed
):
    # Horizons 1-9 cover one block, whole blocks and a short last block.
    rng = np.random.default_rng(seed)
    n_total = n if budget == "n" else budget
    values = np.sort(rng.normal(20.0, 3.0, size=(n, horizon, len(levels))), axis=-1)
    panel = build_panel(f"s{seed % 97}", [19.0, 20.0, 21.0], None, 1, levels,
                        [(f"m{i}", values[i].tolist()) for i in range(n)])
    streams = RandomStreams(seed)
    trace = run_arbitration(panel, config=ArbitratorConfig(n_total=n_total,
                                                           mode="static-uniform"),
                            streams=streams)
    counts, probe, steps = _static_reference(panel, n_total, streams)
    on_grid = [probe.index(a) for a in levels.levels]
    assert trace.rules.tolist() == ["static"] * horizon
    assert trace.counts.tolist() == [list(counts)] * horizon
    assert trace.weights.tolist() == [[1.0 / n] * n] * horizon
    assert np.isnan(trace.scores).all()
    for t, q in enumerate(steps):
        assert trace.quantiles[t].tobytes() == q[on_grid].tobytes()
        assert trace.simulated[t] == q[probe.index(0.5)]


def test_run_keys_equal_the_series_path_without_rehashing_its_constants(monkeypatch):
    # The constant path components "series" and "t" are hashed once, at
    # import; a run keys its streams exactly as the spelled-out path does.
    panel = _drifting_panel(t_steps=5)
    names, horizon = panel.model_names, panel.horizon
    real_grid_keys, real_blake2b = RandomStreams.grid_keys, hashlib.blake2b
    derived, hashed = [], []

    def grid_keys(self, rows, leaves):
        keys = real_grid_keys(self, rows, leaves)
        derived.append((self, keys))
        return keys

    def blake2b(data, **kwargs):
        hashed.append(data)
        return real_blake2b(data, **kwargs)

    run_arbitration(panel)  # keeps the model names' hashes
    monkeypatch.setattr(RandomStreams, "grid_keys", grid_keys)
    monkeypatch.setattr(quantiles.hashlib, "blake2b", blake2b)
    for sid in ("a", "series", "t", "panel-07"):
        streams = RandomStreams(5)
        for mode in ("dynamic", "static-uniform"):
            derived.clear()
            hashed.clear()
            run_arbitration(dataclasses.replace(panel, series_id=sid),
                            config=ArbitratorConfig(n_total=60, mode=mode), streams=streams)
            # Only the series id is hashed.
            assert hashed == [sid.encode()]
            (node, keys), = derived
            want = streams.child("series", sid, "t")
            assert (node.seed, node.path) == (want.seed, want.path)
            assert keys.tobytes() == real_grid_keys(want, range(horizon), names).tobytes()
