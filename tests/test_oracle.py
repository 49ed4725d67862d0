import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quantarb.core import DEFAULT_LEVELS, QuantileForecast, build_panel, quantile_at
from quantarb.errors import DimensionMismatch, EmptyGroup, MissingActuals, NonFinite
from quantarb.oracle import (
    OracleTrace,
    median_distances,
    oracle_select,
    pick_ranks,
    switching_stats,
    topk_agreement,
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
    assert trace.crps == 0.0


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


def test_trace_picks_each_row_argmin_with_ties_to_the_lowest_index():
    rows = ((0.3, 0.1, 0.2), (0.2, 0.2, 0.5), (0.4, 0.1, 0.1), (float("inf"), 0.0, 0.0))
    trace = OracleTrace("p", ("a", "b", "c"), rows)
    assert trace.selections == (1, 0, 1, 1)
    assert trace.crps == (0.1 + 0.2 + 0.1 + 0.0) / 4


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


def _sorted_position(row, pick):
    """Where ``pick`` lands when a row is sorted by (score, index)."""
    return sorted(range(len(row)), key=lambda i: (row[i], i)).index(pick)


def test_pick_ranks_of_negated_weights_put_the_heaviest_first():
    panel = _panel(
        "wr",
        [("a", [_spread(1.0)] * 3), ("b", [_spread(1.4)] * 3)],
        [1.0, 1.0, 1.0],
    )
    trace = run_arbitration(panel)
    heaviest = trace.weights.argmax(axis=1)
    assert pick_ranks(-trace.weights, heaviest).tolist() == [0, 0, 0]
    # Step 0 has uniform weights, which tie-break by index.
    assert pick_ranks(-trace.weights[:1], [1]).tolist() == [1]


def test_pick_ranks_hand_cases():
    scores = [[0.3, 0.1, 0.2], [0.2, 0.2, 0.2], [0.2, 0.2, 0.2], [0.0, -0.0, 1.0]]
    ranks = pick_ranks(scores, [0, 0, 2, 1])
    # The last row: -0.0 equals 0.0, so the lower index ranks first.
    assert ranks.tolist() == [2, 0, 2, 1]


@pytest.mark.parametrize("scores, picks", [
    ([[0.1, 0.2]], [0, 1]),  # two picks for one step
    ([[0.1, 0.2], [0.2, 0.1]], [0]),  # two steps, one pick
    ([0.1, 0.2], [0]),  # not a (T, N) matrix
    ([[0.1, 0.2]], [2]),  # no model 2
    ([[0.1, 0.2]], [-1]),
])
def test_pick_ranks_reject_picks_that_do_not_fit(scores, picks):
    with pytest.raises(DimensionMismatch):
        pick_ranks(scores, picks)


@given(st.lists(st.sampled_from((0.0, 0.125, 0.25, 0.5)), min_size=1, max_size=7), st.data())
def test_pick_ranks_match_a_sort_by_weight_then_index(raw, data):
    # Few distinct values, so most rows hold ties, zeros among them.
    weights = [w / sum(raw) for w in raw] if sum(raw) else [1.0 / len(raw)] * len(raw)
    negated = [-w for w in weights]
    pick = data.draw(st.integers(0, len(weights) - 1))
    assert pick_ranks([negated], [pick]).tolist() == [_sorted_position(negated, pick)]


_SCORE_VALUES = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, float("inf")))


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(_SCORE_VALUES, min_size=n, max_size=n), min_size=1, max_size=5)
    ),
    st.data(),
)
def test_pick_ranks_equal_the_position_in_a_sort_by_score_then_index(rows, data):
    picks = [data.draw(st.integers(0, len(rows[0]) - 1)) for _ in rows]
    expected = [_sorted_position(row, pick) for row, pick in zip(rows, picks)]
    assert pick_ranks(rows, picks).tolist() == expected


def _one_step_ranks(centers):
    """Every member's rank in the median ensemble's implicit ranking of a
    one-step panel of spread forecasts."""
    rows = [(f"m{i}", [_spread(c)]) for i, c in enumerate(centers)]
    distances = median_distances(_panel("ir", rows, [0.0]))
    return [pick_ranks(distances, [i]).item() for i in range(len(centers))]


def test_median_implicit_ranking_hand_cases():
    fcs = [_fc(_spread(1.0)), _fc(_spread(5.0)), _fc(_spread(9.0))]
    ens = quantile_median_ensemble(fcs)
    assert quantile_at(DEFAULT_LEVELS.levels, ens.values) == 5.0
    assert _one_step_ranks((1.0, 5.0, 9.0)) == [1, 0, 2]

    # two medians 0.5 either side of the ensemble's 2.5: ties go to the lower index
    assert _one_step_ranks((2.0, 3.0)) == [0, 1]

    assert _one_step_ranks((4.0, 4.0, 4.0)) == [0, 1, 2]


def test_median_distances_cover_the_horizon():
    panel = _panel(
        "mr",
        [("a", [_spread(1.0), _spread(9.0)]), ("b", [_spread(2.0), _spread(2.0)])],
        [1.0, 2.0],
    )
    # The two-member ensemble's median sits halfway between the members'.
    assert median_distances(panel).tolist() == [[0.5, 0.5], [3.5, 3.5]]


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
    # A method that scores (0, 1, 2) on every step but the last, (1, 0, 2) there.
    scores = [(0, 1, 2), (0, 1, 2), (0, 1, 2), (1, 0, 2)]
    ranks = pick_ranks(scores, oracle.selections)
    assert ranks.tolist() == [0, 2, 1, 1]
    assert topk_agreement(ranks, 3) == (0.25, 0.75, 1.0)


def test_topk_accuracy_validates_inputs():
    with pytest.raises(EmptyGroup):
        topk_agreement(np.array([], dtype=np.intp), 2)


def test_suite_topk_pools_every_timestep():
    # panel 1: 1 of 2 hits; panel 2: 4 of 4 hits; pooled, 5 of 6
    o1 = OracleTrace("p1", ("a", "b"), ((0.1, 0.2), (0.3, 0.1)))
    o2 = OracleTrace("p2", ("a", "b"), ((0.1, 0.2),) * 4)
    r1 = pick_ranks([(0, 1)] * 2, o1.selections)
    r2 = pick_ranks([(0, 1)] * 4, o2.selections)
    assert topk_agreement(np.concatenate([r1, r2]), 2) == (5 / 6, 1.0)


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
    ranks = pick_ranks(-run_arbitration(panel).weights, oracle.selections)
    accs = topk_agreement(ranks, 3)
    assert list(accs) == sorted(accs)
    assert accs[-1] == 1.0
