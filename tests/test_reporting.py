"""Evaluation rows, pool scaling, win/loss tallies, and report emission.

The seeded-suite numbers asserted here were produced by this code and frozen
afterwards; they guard against silent behavior drift, not external truth.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quantarb.arbitration
import quantarb.oracle
import quantarb.reporting
from quantarb.arbitration import ArbitratorConfig, run_arbitration, seed_window_from_context
from quantarb.core import (
    DEFAULT_LEVELS,
    LEVEL_TOL,
    MAX_ABS_VALUE,
    QuantileLevels,
    build_panel,
)
from quantarb.errors import DimensionMismatch, InsufficientModels, NonFinite, ZeroDenominator
from quantarb.oracle import oracle_select
from quantarb.panelio import TaggedPanel
from quantarb.quantiles import RandomStreams
from quantarb.reporting import (
    METHODS,
    PoolScalingRow,
    ReportRow,
    emit_report,
    emit_scaling,
    load_report,
    report_json_schema,
    run_evaluation,
    run_pool_scaling,
    run_win_loss,
    score_panel,
    selection_accuracy_table,
)
from quantarb.synthetic import build_benchmark_suite

ALL_METHODS = ("synapse", "synapse-static", "median", "mean", "per-model", "oracle")


@pytest.fixture(scope="module")
def small_suite():
    return build_benchmark_suite(24, seed=7, n_experts=4)


@pytest.fixture(scope="module")
def eval_rows(small_suite):
    return run_evaluation(small_suite, methods=ALL_METHODS)


@pytest.fixture(scope="module")
def scaling_rows(small_suite):
    names = small_suite[0].panel.model_names
    return run_pool_scaling(small_suite, names)


def _picks(suite):
    """Each panel's oracle picks, as ``quantarb oracle`` hands them over."""
    return [oracle_select(t.panel).selections for t in suite]


@pytest.fixture(scope="module")
def accuracy_table(small_suite):
    return selection_accuracy_table(small_suite, _picks(small_suite))


def _rows_for(rows, scope):
    return {r.method: r for r in rows if r.scope == scope}


def _point_mass_panel(sid, a_val, b_val, actual):
    return TaggedPanel(
        panel=build_panel(
            series_id=sid,
            context=[1.0, 2.0, 4.0],
            actuals=[actual],
            seasonality=1,
            levels=DEFAULT_LEVELS,
            models=[("a", [[a_val] * 9]), ("b", [[b_val] * 9])],
        )
    )


@pytest.fixture(scope="module")
def hand_fixture():
    # Point-mass CRPS reduces to |y - v| / |y|, so winners are knowable by eye:
    # model a is closer on p1 and p2, model b on p3.
    return [
        _point_mass_panel("p1", 10.0, 8.0, 10.0),
        _point_mass_panel("p2", 9.0, 5.0, 10.0),
        _point_mass_panel("p3", 6.0, 10.0, 10.0),
    ]


def periodic_panel():
    """A panel whose context repeats with its seasonality, so its MASE scale is 0."""
    return TaggedPanel(
        panel=build_panel(
            series_id="periodic",
            context=[1.0, 2.0, 1.0, 2.0, 1.0, 2.0],
            actuals=[1.5, 2.5],
            seasonality=2,
            levels=DEFAULT_LEVELS,
            models=[
                ("a", [[float(k) for k in range(9)]] * 2),
                ("b", [[float(k) + 0.5 for k in range(9)]] * 2),
            ],
        )
    )


def _static_block(tagged):
    """Shape of a panel's static block: its N members, then the median and
    mean ensembles, as (N + 2, T, K)."""
    n, t, k = tagged.panel.values.shape
    return (n + 2, t, k)


@pytest.fixture
def pool_scorings(monkeypatch):
    """Shapes of the values every ``crps_batch`` call in reporting and oracle
    scores; a panel's static block is scored in one (N + 2, T, K) call and an
    arbitrated path in one (T, K) call."""
    shapes = []
    real = quantarb.reporting.crps_batch

    def counting(levels, values, observations):
        shapes.append(np.shape(values))
        return real(levels, values, observations)

    monkeypatch.setattr(quantarb.reporting, "crps_batch", counting)
    monkeypatch.setattr(quantarb.oracle, "crps_batch", counting)
    return shapes


class TestReportRow:
    def test_rejects_unregistered_method(self):
        with pytest.raises(ValueError, match="unregistered"):
            ReportRow("mystery", "overall", 1, 0.1, 0.2, 0, 0, 1)

    def test_accepts_model_prefixed_method(self):
        row = ReportRow("model:anything", "overall", 1, 0.1, 0.2, 0, 0, 1)
        assert row.method == "model:anything"

    def test_rejects_non_finite_scores(self):
        with pytest.raises(ValueError, match="finite"):
            ReportRow("median", "overall", 1, float("nan"), 0.2, 0, 0, 1)
        with pytest.raises(ValueError, match="finite"):
            ReportRow("median", "overall", 1, 0.1, float("inf"), 0, 0, 1)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match=">= 0"):
            ReportRow("median", "overall", -1, 0.1, 0.2, 0, 0, 0)


class TestScorePanel:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_periodic_context_names_the_panel(self, method):
        with pytest.raises(ZeroDenominator) as caught:
            score_panel(periodic_panel(), [method])
        assert str(caught.value) == (
            "panel 'periodic': context is 2-periodic; seasonal-naive MAE is zero"
        )

    def test_arbitration_alone_runs_on_a_periodic_context(self):
        # Only scoring reads the MASE scale, so a periodic panel arbitrates.
        trace = run_arbitration(periodic_panel().panel)
        assert len(trace) == 2

    def test_per_model_expands_to_one_entry_per_member(self, small_suite):
        scores = score_panel(small_suite[0], ["per-model"])
        expected = {f"model:{n}" for n in small_suite[0].panel.model_names}
        assert set(scores) == expected

    def test_model_method_yields_that_member_alone(self, small_suite):
        tagged = small_suite[0]
        every = score_panel(tagged, ["per-model"])
        assert score_panel(tagged, ["model:expert_01"]) == {
            "model:expert_01": every["model:expert_01"]
        }
        with pytest.raises(DimensionMismatch, match="has no model 'ghost'"):
            score_panel(tagged, ["model:ghost"])

    @pytest.mark.parametrize("n_experts", [6, 12])
    def test_scores_do_not_depend_on_the_memory_layout_of_the_values(self, n_experts):
        # A panel built from an F-ordered array equals the C-ordered one, so
        # it must score byte for byte the same under every method.
        for tagged in build_benchmark_suite(4, seed=0, n_experts=n_experts):
            fortran = dataclasses.replace(
                tagged.panel, values=np.asfortranarray(tagged.panel.values)
            )
            assert fortran == tagged.panel
            scores = [
                {k: (v.crps.hex(), v.mase.hex()) for k, v in score_panel(t, ALL_METHODS).items()}
                for t in (tagged, TaggedPanel(fortran, tagged.metadata))
            ]
            assert scores[0] == scores[1]

    def test_unknown_method_rejected(self, small_suite):
        with pytest.raises(ValueError, match="unknown method"):
            score_panel(small_suite[0], ["typo"])

    @pytest.mark.parametrize(
        "methods, pool_calls",
        [
            (ALL_METHODS, 1),
            (("per-model",), 1),
            (("oracle",), 1),
            (("oracle", "median", "per-model"), 1),
            (("median", "mean"), 1),
            (("model:expert_02", "mean", "synapse"), 1),
            (("synapse", "synapse-static"), 0),
        ],
    )
    def test_the_pool_is_scored_once_and_only_when_a_method_needs_it(
        self, small_suite, pool_scorings, methods, pool_calls
    ):
        # Every static method reads the one (N + 2, T, K) block of the pool
        # and both ensembles; only arbitrated paths are scored on their own.
        tagged = small_suite[0]
        score_panel(tagged, methods)
        arbitrated = [m for m in methods if m.startswith("synapse")]
        path = tagged.panel.values.shape[1:]
        want = [_static_block(tagged)] * pool_calls + [path] * len(arbitrated)
        assert sorted(pool_scorings) == sorted(want)

    def test_member_and_oracle_scores_read_the_pool_matrix(self, small_suite):
        # The oracle's CRPS is the mean of each step's lowest member CRPS, so
        # it is never above any member's.
        scores = score_panel(small_suite[3], ["oracle", "per-model"])
        members = [v for k, v in scores.items() if k.startswith("model:")]
        assert len(members) == small_suite[3].panel.n_models
        assert all(scores["oracle"].crps <= m.crps for m in members)

    # Each case once at the value bound, where every score is a float64, and
    # once beyond it (1e308, whose scores overflow), where building the
    # panel fails naming it; neither warns.
    @pytest.mark.parametrize("method", ["median", "per-model", "oracle", "synapse"])
    def test_forecast_minus_actual_overflow_names_the_panel(self, method):
        # 1e308 - (-1e308) is finite minus finite, but not a float64.
        def panel(big):
            return build_panel("big", [0.0, 1.0, 2.5, 1.0], [-big], 1, QuantileLevels((0.5,)),
                               [("a", [[big]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = score_panel(TaggedPanel(panel(MAX_ABS_VALUE)), [method])
            assert all(math.isfinite(v) for s in scores.values() for v in (s.crps, s.mase))
            with pytest.raises(NonFinite, match=r"^panel 'big', model 'a' at timestep 0: "
                                                r"forecast values contains out-of-range value "
                                                r"1e\+308 \(\|value\| > 1e\+270\) at index 0$"):
                panel(1e308)

    @pytest.mark.parametrize("method", ["median", "per-model", "oracle", "synapse"])
    def test_crps_overflow_names_the_panel(self, method):
        # 1e308 - 0.5 is a float64, but the loss scaled by 2 / 0.5 is not.
        def panel(big):
            return build_panel("big", [0.0, 1.0, 2.5, 1.0], [0.5], 1, QuantileLevels((0.5,)),
                               [("a", [[big]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = score_panel(TaggedPanel(panel(MAX_ABS_VALUE)), [method])
            assert all(math.isfinite(s.crps) for s in scores.values())
            with pytest.raises(NonFinite, match=r"^panel 'big', model 'a' at timestep 0: "
                                                r"forecast values contains out-of-range"):
                panel(1e308)

    @pytest.mark.parametrize("method", ["median", "per-model", "oracle", "synapse"])
    def test_overflowing_mase_scale_names_the_panel(self, method):
        # Every context value is finite, but 1e308 - (-1e308) is not a float64.
        def panel(big):
            return build_panel("wild", [big, -big, big, 0.0], [1.0], 1,
                               QuantileLevels((0.5,)), [("a", [[5.0]]), ("b", [[6.0]])])
        message = (r"^panel 'wild': context contains out-of-range value 1e\+308 "
                   r"\(\|value\| > 1e\+270\) at index 0$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bounded = TaggedPanel(panel(MAX_ABS_VALUE))
            assert all(s.mase > 0.0 for s in score_panel(bounded, [method]).values())
            assert run_pool_scaling([bounded], ("a", "b"))[0].mase > 0.0
            with pytest.raises(NonFinite, match=message):
                panel(1e308)

    def test_pool_scaling_names_the_overflowing_panel(self):
        def panel(big):
            return build_panel("big", [0.0, 1.0, 2.5, 1.0], [-big], 1, QuantileLevels((0.5,)),
                               [("a", [[big]]), ("b", [[1.0]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row, = run_pool_scaling([TaggedPanel(panel(MAX_ABS_VALUE))], ("a", "b"))
            assert math.isfinite(row.crps) and math.isfinite(row.mase)
            with pytest.raises(NonFinite, match=r"^panel 'big', model 'a' at timestep 0: "):
                panel(1e308)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_score_of_a_bounded_panel_is_a_float64(self, data):
        # The bound's worst cases: every value at +-MAX_ABS_VALUE or 0, and
        # levels just over LEVEL_TOL apart, where the inverse CDF is
        # steepest. A subnormal (or zero) seasonal-naive scale may still make
        # MASE overflow; that raises ZeroDenominator.
        big = MAX_ABS_VALUE
        edges = st.sampled_from([-big, 0.0, big])
        levels = [data.draw(st.floats(0.01, 0.5))]
        for _ in range(data.draw(st.integers(0, 4))):
            if data.draw(st.booleans()):
                hi = levels[-1] + LEVEL_TOL
                while hi - levels[-1] <= LEVEL_TOL:
                    hi = math.nextafter(hi, 1.0)
            else:
                hi = levels[-1] + data.draw(st.floats(0.01, 0.1))
            levels.append(hi)
        k, horizon, span = len(levels), data.draw(st.integers(1, 3)), data.draw(st.integers(0, 6))
        names = ("a", "b", "c")[:data.draw(st.integers(2, 3))]

        def rows(count):
            return [sorted(data.draw(st.lists(edges, min_size=k, max_size=k)))
                    for _ in range(count)]

        context = data.draw(st.lists(st.sampled_from([-big, 0.0, 1.0, big, 2.2e-309]),
                                     min_size=6, max_size=6))
        actuals = data.draw(st.lists(edges, min_size=horizon, max_size=horizon))
        panel = build_panel("edge", context, actuals, 1, QuantileLevels(tuple(levels)),
                            [(name, rows(horizon)) for name in names])
        window = seed_window_from_context(panel, {name: rows(span) for name in names})
        tagged, config = TaggedPanel(panel), ArbitratorConfig(n_total=60)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.isfinite(oracle_select(panel).crps_matrix).all()
            run_arbitration(panel, window, config)  # its trace rejects a non-finite value
            results = [lambda m=m: score_panel(tagged, [m], config).values() for m in METHODS]
            results.append(lambda: run_pool_scaling([tagged], names, config))
            for result in results:
                try:
                    scores = result()
                except ZeroDenominator:
                    continue
                assert all(math.isfinite(s.crps) and math.isfinite(s.mase) for s in scores)

    def test_the_benchmark_step_timer_and_spans_find_their_call_sites(
        self, small_suite, monkeypatch
    ):
        # The benchmark times and traces by wrapping module globals where
        # their callers look them up: each panel's arbitrated methods call
        # reporting's run_arbitration once each, with config= by keyword (the
        # step timer reads its mode), and a run calls arbitration's
        # weights_with_rule once per scored step and empirical_quantiles once
        # per step.
        runs, traces, calls = [], [], {"weights": 0, "requantize": 0}
        real_run = quantarb.reporting.run_arbitration
        real_weights = quantarb.arbitration.weights_with_rule
        real_requantize = quantarb.arbitration.empirical_quantiles

        def run(*args, **kwargs):
            runs.append((args[0].series_id, kwargs["config"].mode))
            traces.append(real_run(*args, **kwargs))
            return traces[-1]

        def weights(*args):
            calls["weights"] += 1
            return real_weights(*args)

        def requantize(*args):
            calls["requantize"] += 1
            return real_requantize(*args)

        monkeypatch.setattr(quantarb.reporting, "run_arbitration", run)
        monkeypatch.setattr(quantarb.arbitration, "weights_with_rule", weights)
        monkeypatch.setattr(quantarb.arbitration, "empirical_quantiles", requantize)
        for tagged in small_suite[:3]:
            score_panel(tagged, ["synapse", "median", "synapse-static"])
        assert runs == [(t.panel.series_id, mode) for t in small_suite[:3]
                        for mode in ("dynamic", "static-uniform")]
        rules = [rule for trace in traces for rule in trace.rules.tolist()]
        assert calls == {"weights": sum(rule == "inverse_error" for rule in rules),
                         "requantize": len(rules)}
        assert calls["weights"] > 0

    def test_a_panel_is_fitted_and_keyed_once_for_all_its_methods(self, small_suite,
                                                                   monkeypatch):
        # A panel's synapse and synapse-static runs share one set-up: one fit
        # of its N x T forecasts and one key grid, built by its first run.
        calls = {"fits": 0, "keys": 0}
        real_fit, real_keys = quantarb.arbitration.InverseCdf, RandomStreams.grid_keys

        def fit(*args):
            calls["fits"] += 1
            return real_fit(*args)

        def keys(*args):
            calls["keys"] += 1
            return real_keys(*args)

        monkeypatch.setattr(quantarb.arbitration, "InverseCdf", fit)
        monkeypatch.setattr(RandomStreams, "grid_keys", keys)
        for tagged in small_suite[:3]:
            score_panel(tagged, METHODS)
        assert calls == {"fits": 3, "keys": 3}
        run_win_loss(small_suite[:2], "synapse-static", "synapse")
        assert calls == {"fits": 5, "keys": 5}


class TestRunEvaluation:
    def test_requires_methods_and_panels(self, small_suite):
        with pytest.raises(ValueError):
            run_evaluation(small_suite, methods=())
        with pytest.raises(ValueError):
            run_evaluation([], methods=("median",))

    def test_overall_scope_covers_every_method(self, eval_rows, small_suite):
        overall = _rows_for(eval_rows, "overall")
        named = {f"model:{n}" for n in small_suite[0].panel.model_names}
        assert set(overall) == set(ALL_METHODS) - {"per-model"} | named
        assert all(r.n_panels == len(small_suite) for r in overall.values())

    def test_rows_sorted_by_scope_then_method_registry_order(self, eval_rows):
        scopes = [r.scope for r in eval_rows]
        assert scopes[0] == "overall"
        assert scopes.index("overall-balanced") > scopes.index("overall")
        first_block = [r.method for r in eval_rows if r.scope == "overall"]
        registry = [m for m in METHODS if m in first_block]
        assert first_block[: len(registry)] == registry
        assert first_block[len(registry):] == sorted(first_block[len(registry):])

    def test_oracle_never_above_any_individual_model_in_any_scope(self, eval_rows):
        scopes = {r.scope for r in eval_rows}
        for scope in scopes:
            rows = _rows_for(eval_rows, scope)
            if "oracle" not in rows:
                continue
            for method, row in rows.items():
                if method.startswith("model:"):
                    assert rows["oracle"].crps <= row.crps + 1e-15

    def test_seeded_suite_golden_numbers(self, eval_rows):
        # Frozen from the first run of this seeded configuration.
        overall = _rows_for(eval_rows, "overall")
        assert overall["synapse"].crps == pytest.approx(0.013121191003881804, rel=1e-9)
        assert overall["median"].crps == pytest.approx(0.022361090192346555, rel=1e-9)

    def test_arbitration_beats_median_ensemble_on_seeded_suite(self, eval_rows):
        overall = _rows_for(eval_rows, "overall")
        assert overall["synapse"].crps < overall["median"].crps

    def test_static_uniform_sits_between_median_and_dynamic(self, eval_rows):
        overall = _rows_for(eval_rows, "overall")
        assert overall["synapse"].crps < overall["synapse-static"].crps
        assert overall["synapse-static"].crps < overall["median"].crps

    def test_overall_crps_is_panel_weighted_mean_of_horizon_rows(self, eval_rows):
        overall = _rows_for(eval_rows, "overall")
        for method, row in overall.items():
            hrows = [
                r for r in eval_rows if r.method == method and r.scope.startswith("horizon:")
            ]
            assert sum(r.n_panels for r in hrows) == row.n_panels
            weighted = math.fsum(r.crps * r.n_panels for r in hrows) / row.n_panels
            # Grouped summation can shift the last bit, hence the tolerance.
            assert weighted == pytest.approx(row.crps, rel=1e-12, abs=1e-15)

    def test_balanced_overall_is_mean_of_domain_rows(self, eval_rows):
        balanced = _rows_for(eval_rows, "overall-balanced")
        for method, row in balanced.items():
            drows = [
                r for r in eval_rows if r.method == method and r.scope.startswith("domain:")
            ]
            expected = math.fsum(r.crps for r in drows) / len(drows)
            assert expected == pytest.approx(row.crps, rel=1e-12, abs=1e-15)

    def test_win_loss_reference_is_synapse(self, eval_rows, small_suite):
        overall = _rows_for(eval_rows, "overall")
        n = len(small_suite)
        assert (overall["synapse"].wins, overall["synapse"].losses, overall["synapse"].ties) == (0, 0, n)
        assert overall["oracle"].wins == n
        for row in overall.values():
            assert row.wins + row.losses + row.ties == n

    def test_model_method_rows_match_the_per_model_rows(self, small_suite, eval_rows):
        rows = run_evaluation(small_suite, methods=("model:expert_02", "synapse"))
        assert rows == [r for r in eval_rows if r.method in ("synapse", "model:expert_02")]

    def test_balanced_rows_count_only_panels_that_hold_the_member(self):
        # Pools cycle through 2..6 members, so only the six-member pools hold expert_05.
        suite = build_benchmark_suite(24, seed=1)
        rows = run_evaluation(suite, methods=("per-model",))
        overall = _rows_for(rows, "overall")
        balanced = _rows_for(rows, "overall-balanced")
        assert set(balanced) == set(overall)
        for method, row in balanced.items():
            assert row.n_panels == overall[method].n_panels
            assert (row.wins, row.losses, row.ties) == (0, 0, 0)
        assert balanced["model:expert_05"].n_panels < len(suite)

    def test_include_series_adds_single_panel_scopes(self, hand_fixture):
        rows = run_evaluation(hand_fixture, methods=("median",), include_series=True)
        series_rows = [r for r in rows if r.scope.startswith("series:")]
        assert {r.scope for r in series_rows} == {"series:p1", "series:p2", "series:p3"}
        assert all(r.n_panels == 1 for r in series_rows)

    def test_worker_pool_does_not_change_results(self, small_suite, eval_rows):
        threaded = run_evaluation(small_suite, methods=ALL_METHODS, workers=4)
        assert threaded == eval_rows

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_is_rejected(self, hand_fixture, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_evaluation(hand_fixture, methods=("median",), workers=workers)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_periodic_context_raises_zero_denominator(self, method):
        message = r"^panel 'periodic': context is 2-periodic; seasonal-naive MAE is zero$"
        with pytest.raises(ZeroDenominator, match=message):
            run_evaluation([periodic_panel()], methods=(method,))

    def test_repeat_run_is_identical(self, small_suite, eval_rows):
        again = run_evaluation(small_suite, methods=ALL_METHODS)
        assert again == eval_rows


class TestStaticDynamicCoincidence:
    def test_single_step_suite_forces_uniform_weights_both_modes(self, hand_fixture):
        rows = run_evaluation(hand_fixture, methods=("synapse", "synapse-static"))
        overall = _rows_for(rows, "overall")
        assert overall["synapse"].crps == overall["synapse-static"].crps
        assert overall["synapse"].mase == overall["synapse-static"].mase


class TestWinLoss:
    def test_method_against_itself_all_ties(self, hand_fixture):
        result = run_win_loss(hand_fixture, "median", "median")
        assert result == {"crps": (0, 0, 3), "mase": (0, 0, 3)}

    def test_oracle_never_loses_on_crps(self, small_suite):
        result = run_win_loss(small_suite[:8], "oracle", "median")
        assert result["crps"][1] == 0

    def test_hand_fixture_scores_two_one_zero(self, hand_fixture):
        result = run_win_loss(hand_fixture, "model:a", "model:b")
        assert result["crps"] == (2, 1, 0)
        assert result["mase"] == (2, 1, 0)

    def test_requires_panels(self):
        with pytest.raises(ValueError):
            run_win_loss([], "median", "mean")

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ("per-model", "median", "model:<name>"),
            ("median", "per-model", "model:<name>"),
            ("median", "typo", "unknown method 'typo'"),
        ],
    )
    def test_a_method_that_is_not_one_row_is_rejected_before_any_scoring(
        self, hand_fixture, monkeypatch, a, b, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("a panel was scored")

        monkeypatch.setattr(quantarb.reporting, "crps_batch", never)
        with pytest.raises(ValueError, match=message):
            run_win_loss(hand_fixture, a, b)

    def test_scores_each_panel_through_score_panel_once(self, small_suite, monkeypatch):
        calls = []
        real = quantarb.reporting.score_panel

        def counting(tagged, methods, *args, **kwargs):
            calls.append((tagged.panel.series_id, tuple(methods)))
            return real(tagged, methods, *args, **kwargs)

        monkeypatch.setattr(quantarb.reporting, "score_panel", counting)
        panels = small_suite[:3]
        run_win_loss(panels, "synapse", "model:expert_00")
        assert calls == [(t.panel.series_id, ("synapse", "model:expert_00")) for t in panels]

    def test_each_panel_pool_is_scored_once(self, small_suite, pool_scorings):
        panels = small_suite[:3]
        run_win_loss(panels, "model:expert_00", "oracle")
        assert pool_scorings == [_static_block(t) for t in panels]

    def test_matches_the_evaluation_tally_against_the_reference(self, small_suite, eval_rows):
        overall = _rows_for(eval_rows, "overall")
        for method in ("median", "oracle", f"model:{small_suite[0].panel.model_names[0]}"):
            result = run_win_loss(small_suite, method, "synapse")
            row = overall[method]
            assert result["crps"] == (row.wins, row.losses, row.ties)


class TestPoolScaling:
    def test_one_row_per_prefix_of_size_two_plus(self, scaling_rows, small_suite):
        names = small_suite[0].panel.model_names
        assert [r.pool_size for r in scaling_rows] == list(range(2, len(names) + 1))
        assert scaling_rows[0].model_names == names[:2]
        assert scaling_rows[-1].model_names == names

    def test_best_individual_matches_evaluation_per_model_rows(
        self, scaling_rows, eval_rows
    ):
        overall = _rows_for(eval_rows, "overall")
        for row in scaling_rows:
            member_scores = {n: overall[f"model:{n}"].crps for n in row.model_names}
            best_name = min(sorted(member_scores), key=member_scores.get)
            assert row.best_individual == best_name
            assert row.best_individual_crps == member_scores[best_name]
            assert row.best_individual_mase == min(
                overall[f"model:{n}"].mase for n in row.model_names
            )

    def test_full_pool_row_equals_evaluation_synapse_row(self, scaling_rows, eval_rows):
        overall = _rows_for(eval_rows, "overall")
        assert scaling_rows[-1].crps == overall["synapse"].crps
        assert scaling_rows[-1].mase == overall["synapse"].mase

    def test_needs_at_least_two_models(self, small_suite):
        with pytest.raises(InsufficientModels):
            run_pool_scaling(small_suite, ["expert_00"])

    def test_requires_panels(self):
        with pytest.raises(ValueError):
            run_pool_scaling([], ["a", "b"])

    def test_repeated_name_is_rejected_before_any_scoring(self, small_suite, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a panel was scored")

        monkeypatch.setattr(quantarb.reporting, "crps_batch", never)
        monkeypatch.setattr(quantarb.reporting, "run_arbitration", never)
        with pytest.raises(ValueError, match=r"^model order repeats 'expert_00'$"):
            run_pool_scaling(small_suite, ["expert_00", "expert_01", "expert_00"])

    def test_each_panel_pool_is_scored_once(self, small_suite, pool_scorings):
        panels = small_suite[:3]
        run_pool_scaling(panels, ["expert_00", "expert_01", "expert_02"])
        # Each panel's static block, then two arbitrated prefixes a panel.
        blocks = [_static_block(t) for t in panels]
        assert pool_scorings == blocks + [t.panel.values.shape[1:] for t in panels] * 2


class TestSelectionAccuracy:
    def test_topk_non_decreasing_with_full_pool_certainty(
        self, accuracy_table, small_suite
    ):
        n_models = small_suite[0].panel.n_models
        for values in accuracy_table.values():
            assert len(values) == n_models
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
            assert values[-1] == 1.0

    def test_weight_ranking_beats_median_implicit_ranking_at_top1(self, accuracy_table):
        assert accuracy_table["synapse"][0] > accuracy_table["median"][0]

    def test_requires_panels(self):
        with pytest.raises(ValueError):
            selection_accuracy_table([], [])

    def test_needs_one_pick_row_per_panel(self, small_suite):
        panels = small_suite[:3]
        with pytest.raises(DimensionMismatch, match="^2 pick rows for 3 panels$"):
            selection_accuracy_table(panels, _picks(panels)[:2])
        first, *rest = _picks(panels)
        with pytest.raises(DimensionMismatch, match="^7 picks for a score matrix"):
            selection_accuracy_table(panels, [first[:-1], *rest])

    #: ``float.hex`` of every agreement on the 40-panel, six-expert suite of
    #: seed 0, recorded when each method's ranking was a tuple sorted per step.
    PINNED = {
        "dynamic": {
            "synapse": (
                "0x1.3000000000000p-1",
                "0x1.722e8ba2e8ba3p-1",
                "0x1.8e8ba2e8ba2e9p-1",
                "0x1.e3a2e8ba2e8bap-1",
                "0x1.0000000000000p+0",
                "0x1.0000000000000p+0",
            ),
            "median": (
                "0x1.da2e8ba2e8ba3p-3",
                "0x1.ea2e8ba2e8ba3p-2",
                "0x1.8ae8ba2e8ba2fp-1",
                "0x1.ef45d1745d174p-1",
                "0x1.fdd1745d1745dp-1",
                "0x1.0000000000000p+0",
            ),
        },
        "static-uniform": {
            "synapse": (
                "0x1.68ba2e8ba2e8cp-4",
                "0x1.4000000000000p-2",
                "0x1.d8ba2e8ba2e8cp-2",
                "0x1.6800000000000p-1",
                "0x1.8c5d1745d1746p-1",
                "0x1.0000000000000p+0",
            ),
            "median": (
                "0x1.da2e8ba2e8ba3p-3",
                "0x1.ea2e8ba2e8ba3p-2",
                "0x1.8ae8ba2e8ba2fp-1",
                "0x1.ef45d1745d174p-1",
                "0x1.fdd1745d1745dp-1",
                "0x1.0000000000000p+0",
            ),
        },
    }

    @pytest.mark.parametrize("mode", sorted(PINNED))
    def test_agreement_is_pinned_bit_for_bit(self, mode):
        suite = build_benchmark_suite(40, seed=0, n_experts=6)
        table = selection_accuracy_table(suite, _picks(suite), config=ArbitratorConfig(mode=mode))
        assert {m: tuple(v.hex() for v in vals) for m, vals in table.items()} == self.PINNED[mode]


class TestEmission:
    def test_csv_round_trip_is_bit_identical(self, eval_rows, tmp_path):
        first = tmp_path / "report.csv"
        emit_report(eval_rows, fmt="csv", out_path=first)
        loaded = load_report(first)
        second = tmp_path / "again.csv"
        emit_report(loaded, fmt="csv", out_path=second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded == list(eval_rows)

    def test_json_output_validates_against_shipped_schema(self, eval_rows):
        text = emit_report(eval_rows, fmt="json")
        doc = json.loads(text)
        jsonschema.validate(doc, report_json_schema())
        assert len(doc["rows"]) == len(eval_rows)

    def test_empty_rows_emit_header_only(self):
        csv_text = emit_report([], fmt="csv")
        assert csv_text.splitlines() == [
            "method,scope,n_panels,crps,mase,wins,losses,ties"
        ]
        table_text = emit_report([], fmt="table")
        assert len(table_text.splitlines()) == 2
        doc = json.loads(emit_report([], fmt="json"))
        assert doc["rows"] == []

    def test_long_format_emits_one_line_per_metric(self, eval_rows):
        lines = emit_report(eval_rows, fmt="csv-long").splitlines()
        assert lines[0] == "method,scope,metric,value"
        assert len(lines) == 1 + 2 * len(eval_rows)
        assert lines[1].split(",")[2] == "crps"
        assert lines[2].split(",")[2] == "mase"

    def test_unknown_format_rejected(self, eval_rows):
        with pytest.raises(ValueError, match="format"):
            emit_report(eval_rows, fmt="yaml")
        with pytest.raises(ValueError, match="format"):
            emit_scaling([], fmt="yaml")

    def test_load_report_rejects_foreign_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_report(bad)

    def test_write_target_matches_returned_text(self, eval_rows, tmp_path):
        target = tmp_path / "out.json"
        text = emit_report(eval_rows, fmt="json", out_path=target)
        assert target.read_text(encoding="utf-8") == text

    def test_scaling_emission_formats(self, tmp_path):
        rows = [
            PoolScalingRow(
                pool_size=2,
                model_names=("a", "b"),
                crps=0.5,
                mase=1.5,
                best_individual="b",
                best_individual_crps=0.75,
                best_individual_mase=1.25,
            )
        ]
        csv_text = emit_scaling(rows, fmt="csv")
        assert csv_text.splitlines()[0].startswith("pool_size,models,crps")
        assert "a|b" in csv_text
        doc = json.loads(emit_scaling(rows, fmt="json"))
        assert doc["rows"][0]["models"] == ["a", "b"]
        table_text = emit_scaling(rows, fmt="table")
        assert "a|b" in table_text
        target = tmp_path / "scaling.csv"
        emit_scaling(rows, fmt="csv", out_path=target)
        assert target.read_text(encoding="utf-8") == csv_text

    def test_end_to_end_reports_are_byte_identical_across_runs(self):
        def one_pass() -> bytes:
            suite = build_benchmark_suite(6, seed=3, n_experts=3)
            rows = run_evaluation(suite, methods=("synapse", "median", "oracle"))
            return emit_report(rows, fmt="json").encode()

        assert one_pass() == one_pass()


# sha256 of reports on a pool-cycling suite: a change to how panels are scored
# or rows aggregated must keep every report byte for byte the same. The
# aggregate rows are otherwise checked only within tolerances.
_PINNED_REPORTS = {
    "csv": "68a3e5eec307ff5429ebab9ac7608ec6421627e21593fd831f51afca52fb569b",
    "json": "9f67bacedb364b4852fae274be681085678afd3638befafbb9b2e0d6e4a7695d",
}
_PINNED_SCALING_CSV = "226ec0031dde092dda06a96f270df19cb66baa227a17cef00ec56bd1be3c06a1"
_PINNED_TALLIES = [
    ("synapse", "median", {"crps": (40, 0, 0), "mase": (38, 2, 0)}),
    ("model:expert_00", "oracle", {"crps": (0, 40, 0), "mase": (0, 40, 0)}),
    ("median", "median", {"crps": (0, 0, 40), "mase": (0, 0, 40)}),
    ("synapse-static", "model:expert_01", {"crps": (28, 12, 0), "mase": (39, 1, 0)}),
    ("mean", "synapse", {"crps": (0, 40, 0), "mase": (0, 40, 0)}),
]


class TestPinnedReports:
    @pytest.fixture(scope="class")
    def cycling_suite(self):
        return build_benchmark_suite(40, seed=5)

    @pytest.mark.parametrize("fmt", sorted(_PINNED_REPORTS))
    def test_evaluation_report_is_pinned_byte_for_byte(self, cycling_suite, fmt):
        rows = run_evaluation(cycling_suite, METHODS, include_series=True)
        text = emit_report(rows, fmt)
        assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_REPORTS[fmt]

    def test_scaling_report_is_pinned_byte_for_byte(self, cycling_suite):
        rows = run_pool_scaling(cycling_suite, ("expert_00", "expert_01"))
        text = emit_scaling(rows, "csv")
        assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_SCALING_CSV

    @pytest.mark.parametrize("a, b, tallies", _PINNED_TALLIES)
    def test_win_loss_tallies_are_pinned(self, cycling_suite, a, b, tallies):
        assert run_win_loss(cycling_suite, a, b) == tallies
