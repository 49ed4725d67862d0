import pickle

import pytest
from hypothesis import given, strategies as st

from quantarb.core import (
    DEFAULT_LEVELS,
    ArbitrationTrace,
    QuantileForecast,
    build_panel,
    quantile_at,
)
from quantarb.errors import (
    DimensionMismatch,
    EmptyGroup,
    Misalignment,
    MissingActuals,
    NonFinite,
)
from quantarb.oracle import (
    OracleTrace,
    median_ensemble_rankings,
    oracle_select,
    suite_topk_accuracy,
    switching_stats,
    topk_selection_accuracy,
    weight_rankings,
)
from quantarb.arbitration import run_arbitration
from quantarb.metrics import crps_batch
from quantarb.baselines import quantile_median_ensemble


def _fc(values):
    return QuantileForecast(DEFAULT_LEVELS, values)


def _spread(center, width=1.0):
    return [center + width * (k - 4) / 4.0 for k in range(9)]


def _panel(series_id, model_rows, actuals):
    return build_panel(
        series_id,
        context=[0.0, 1.0, 2.0],
        actuals=actuals,
        seasonality=1,
        levels=DEFAULT_LEVELS,
        models=model_rows,
    )


def test_single_model_is_always_selected():
    panel = _panel("one", [("a", [_spread(1.0), _spread(2.0)])], [1.0, 2.0])
    trace = oracle_select(panel)
    assert trace.selections == (0, 0)
    assert trace.switch_count == 0
    assert trace.switch_percentage == 0.0
    # A lone model is the oracle's pick at every step, so their CRPS agree.
    per = crps_batch(panel.levels.levels, panel.values[0], panel.require_actuals())
    alone = float(per.mean())
    assert trace.crps == pytest.approx(alone, rel=1e-15)


def test_point_mass_at_truth_wins_every_step():
    actuals = [3.0, 4.0]
    exact = [[a] * 9 for a in actuals]
    wide = [_spread(a, 5.0) for a in actuals]
    trace = oracle_select(_panel("pm", [("exact", exact), ("wide", wide)], actuals))
    assert trace.selections == (0, 0)
    assert trace.per_timestep_crps == (0.0, 0.0)


def test_alternating_perfect_models_switch_every_step():
    # a is perfect at even steps, b at odd steps, T=4
    actuals = [1.0, 2.0, 3.0, 4.0]
    a_rows = [[1.0] * 9, _spread(7.0), [3.0] * 9, _spread(9.0)]
    b_rows = [_spread(6.0), [2.0] * 9, _spread(8.0), [4.0] * 9]
    trace = oracle_select(_panel("alt", [("a", a_rows), ("b", b_rows)], actuals))
    assert trace.selections == (0, 1, 0, 1)
    assert trace.switch_count == 3
    assert trace.switch_percentage == 1.0


def test_ties_break_to_the_lowest_index():
    same = [_spread(5.0)]
    trace = oracle_select(_panel("tie", [("a", same), ("b", same)], [5.0]))
    assert trace.selections == (0,)


def test_oracle_requires_actuals():
    panel = _panel("na", [("a", [_spread(1.0)])], [1.0])
    stripped = build_panel(
        "na", panel.context, None, 1, DEFAULT_LEVELS,
        [("a", panel.values[panel.model_names.index("a")].tolist())],
    )
    with pytest.raises(MissingActuals):
        oracle_select(stripped)


def test_oracle_crps_hand_mean():
    # per-step CRPS: a=(0.1, 0.5), b=(0.4, 0.2) -> oracle mean (0.1+0.2)/2
    trace = OracleTrace("hand", ("a", "b"), ((0.1, 0.4), (0.5, 0.2)))
    assert trace.selections == (0, 1)
    assert trace.crps == pytest.approx(0.15, rel=1e-15)
    assert trace.per_timestep_crps == (0.1, 0.2)


def test_trace_picks_each_row_argmin_with_ties_to_the_lowest_index():
    rows = ((0.3, 0.1, 0.2), (0.2, 0.2, 0.5), (0.4, 0.1, 0.1), (float("inf"), 0.0, 0.0))
    trace = OracleTrace("p", ("a", "b", "c"), rows)
    assert trace.selections == (1, 0, 1, 1)
    assert trace.per_timestep_crps == (0.1, 0.2, 0.1, 0.0)


@pytest.mark.parametrize("rows", [((0.1, 0.4, 0.5),), ((0.1, 0.4), (0.2,)), (0.1, 0.4)])
def test_trace_rejects_a_matrix_that_does_not_fit(rows):
    with pytest.raises(DimensionMismatch):
        OracleTrace("bad", ("a", "b"), rows)


def test_trace_rejects_a_nan_score_and_names_its_timestep():
    with pytest.raises(NonFinite, match="NaN score at timestep 1"):
        OracleTrace("bad", ("a", "b"), ((0.1, 0.4), (0.2, float("nan")), (float("nan"), 0.1)))


def test_trace_matrix_is_one_read_only_array_that_survives_pickling():
    trace = OracleTrace("p", ("a", "b"), ((0.1, 0.4), (0.5, 0.2)))
    assert trace.crps_matrix.shape == (2, 2)
    assert not trace.crps_matrix.flags.writeable
    clone = pickle.loads(pickle.dumps(trace))
    assert clone == trace
    assert not clone.crps_matrix.flags.writeable
    assert clone.selections == trace.selections == (0, 1)
    assert clone != OracleTrace("p", ("a", "b"), ((0.1, 0.4), (0.5, 0.3)))


def test_switching_stats_groups_and_means():
    t_zero = OracleTrace("z", ("a",), ((0.1,), (0.2,)))
    t_mixed1 = OracleTrace("m1", ("a", "b"), _rows4())
    assert t_mixed1.selections == (0, 1, 1, 0)
    stats = switching_stats(
        [
            ("retail", "short", t_zero),
            ("retail", "short", t_mixed1),
            ("energy", "long", t_mixed1),
        ]
    )
    assert stats[("retail", "short")] == pytest.approx(
        (0.0 + t_mixed1.switch_percentage) / 2
    )
    assert stats[("energy", "long")] == pytest.approx(t_mixed1.switch_percentage)
    with pytest.raises(EmptyGroup):
        switching_stats([])


def _rows4():
    rows = []
    for pick in (0, 1, 1, 0):
        rows.append((0.1, 0.3) if pick == 0 else (0.3, 0.1))
    return tuple(rows)


def test_weight_rankings_sort_by_descending_weight():
    panel = _panel(
        "wr",
        [("a", [_spread(1.0)] * 3), ("b", [_spread(1.4)] * 3)],
        [1.0, 1.0, 1.0],
    )
    trace = run_arbitration(panel, seed=0)
    rankings = weight_rankings(trace)
    assert len(rankings) == 3
    assert rankings[0] == (0, 1)  # uniform weights tie-break by index
    for step, ranking in zip(trace.steps, rankings):
        w = step.weights
        assert w[ranking[0]] == max(w)


@given(st.lists(st.sampled_from((0.0, 0.125, 0.25, 0.5)), min_size=1, max_size=7))
def test_weight_rankings_match_a_sort_by_weight_then_index(raw):
    # Few distinct values, so most rows hold ties, zeros among them.
    weights = [w / sum(raw) for w in raw] if sum(raw) else [1.0 / len(raw)] * len(raw)
    n = len(weights)
    trace = ArbitrationTrace(
        "w", [f"m{i}" for i in range(n)], n, DEFAULT_LEVELS, quantiles=[range(9)],
        weights=[weights], counts=[[1] * n], scores=[[float("nan")] * n],
        rules=["uniform"], simulated=[4.0],
    )
    assert weight_rankings(trace) == (tuple(sorted(range(n), key=lambda i: (-weights[i], i))),)


def _one_step_rankings(centers):
    """Median-ensemble rankings of a one-step panel of spread forecasts."""
    rows = [(f"m{i}", [_spread(c)]) for i, c in enumerate(centers)]
    return median_ensemble_rankings(_panel("ir", rows, [0.0]))


def test_median_implicit_ranking_hand_cases():
    fcs = [_fc(_spread(1.0)), _fc(_spread(5.0)), _fc(_spread(9.0))]
    ens = quantile_median_ensemble(fcs)
    assert quantile_at(DEFAULT_LEVELS.levels, ens.values) == 5.0
    assert _one_step_rankings((1.0, 5.0, 9.0)) == ((1, 0, 2),)

    # two medians 0.5 either side of the ensemble's 2.5: ties go to the lower index
    assert _one_step_rankings((2.0, 3.0)) == ((0, 1),)

    assert _one_step_rankings((4.0, 4.0, 4.0)) == ((0, 1, 2),)


def test_median_ensemble_rankings_cover_the_horizon():
    panel = _panel(
        "mr",
        [("a", [_spread(1.0), _spread(9.0)]), ("b", [_spread(2.0), _spread(2.0)])],
        [1.0, 2.0],
    )
    rankings = median_ensemble_rankings(panel)
    assert len(rankings) == 2
    assert all(sorted(r) == [0, 1] for r in rankings)


def test_topk_accuracy_counts_hits():
    oracle = OracleTrace(
        "t", ("a", "b", "c"),
        (
            (0.1, 0.2, 0.3),
            (0.5, 0.4, 0.1),
            (0.9, 0.2, 0.5),
            (0.1, 0.6, 0.2),
        ),
    )
    assert oracle.selections == (0, 2, 1, 0)
    rankings = ((0, 1, 2), (0, 1, 2), (0, 1, 2), (1, 0, 2))
    assert topk_selection_accuracy(rankings, oracle, 1) == 0.25
    assert topk_selection_accuracy(rankings, oracle, 2) == 0.75
    assert topk_selection_accuracy(rankings, oracle, 3) == 1.0


def test_topk_accuracy_validates_inputs():
    oracle = OracleTrace("t", ("a", "b"), ((0.1, 0.2),))
    with pytest.raises(ValueError):
        topk_selection_accuracy(((0, 1),), oracle, 0)
    with pytest.raises(ValueError):
        topk_selection_accuracy(((0, 1),), oracle, 3)
    with pytest.raises(Misalignment):
        topk_selection_accuracy(((0, 1), (0, 1)), oracle, 1)


def test_suite_topk_global_vs_per_panel_weighting():
    # panel 1: 1 of 2 hits; panel 2: 4 of 4 hits
    o1 = OracleTrace("p1", ("a", "b"), ((0.1, 0.2), (0.3, 0.1)))
    r1 = ((0, 1), (0, 1))
    o2 = OracleTrace("p2", ("a", "b"), ((0.1, 0.2),) * 4)
    r2 = ((0, 1),) * 4
    pairs = [(r1, o1), (r2, o2)]
    assert suite_topk_accuracy(pairs, 1) == pytest.approx(5 / 6)
    assert suite_topk_accuracy(pairs, 1, per_panel=True) == pytest.approx(0.75)
    with pytest.raises(EmptyGroup):
        suite_topk_accuracy([], 1)


def test_topk_accuracy_never_decreases_in_k_and_tops_out_at_one():
    panel = _panel(
        "mono",
        [
            ("a", [_spread(1.0), _spread(4.0), _spread(2.0)]),
            ("b", [_spread(2.0), _spread(1.0), _spread(3.0)]),
            ("c", [_spread(3.0), _spread(2.0), _spread(1.0)]),
        ],
        [1.0, 1.0, 1.0],
    )
    oracle = oracle_select(panel)
    rankings = weight_rankings(run_arbitration(panel, seed=0))
    accs = [topk_selection_accuracy(rankings, oracle, k) for k in (1, 2, 3)]
    assert accs == sorted(accs)
    assert accs[-1] == 1.0

