import numpy as np
import pytest

from quantarb.core import DEFAULT_LEVELS, ForecastPanel
from quantarb.errors import LengthMismatch
from quantarb.oracle import oracle_select, selection_frequency_table
from quantarb.synthetic import (
    DOMAINS,
    HORIZON_CLASSES,
    RegimeSpec,
    Segment,
    SyntheticExpert,
    build_benchmark_suite,
    expert_forecast,
    generate_series,
)


def _flat_spec(length=24, context=8, level=5.0, **kw):
    return RegimeSpec(
        segments=(Segment(length, level, **kw),), context_length=context
    )


def test_segment_and_spec_validation():
    with pytest.raises(ValueError):
        Segment(0, 1.0)
    with pytest.raises(ValueError):
        Segment(4, 1.0, season_period=0)
    with pytest.raises(ValueError):
        Segment(4, 1.0, noise_scale=-0.1)
    with pytest.raises(ValueError):
        RegimeSpec(segments=(), context_length=1)
    with pytest.raises(ValueError):
        RegimeSpec(segments=(Segment(4, 1.0),), context_length=4)


def test_regime_id_lookup():
    spec = RegimeSpec((Segment(3, 0.0), Segment(5, 1.0)), context_length=2)
    assert [spec.regime_id_at(p) for p in range(8)] == [0, 0, 0, 1, 1, 1, 1, 1]
    assert spec.horizon == 6
    with pytest.raises(IndexError):
        spec.regime_id_at(8)


def test_zero_noise_constant_spec_yields_constant_series():
    context, actuals = generate_series(_flat_spec(level=5.0), seed=1)
    assert set(context) == {5.0}
    assert set(actuals) == {5.0}
    assert len(context) == 8
    assert len(actuals) == 16


def test_pure_trend_first_difference_matches_slope():
    spec = _flat_spec(level=2.0, trend=0.25)
    context, actuals = generate_series(spec, seed=1)
    series = context + actuals
    diffs = np.diff(series)
    assert np.allclose(diffs, 0.25)


def test_seasonal_segment_has_the_requested_period():
    spec = _flat_spec(length=32, context=8, season_amplitude=2.0, season_period=8)
    context, actuals = generate_series(spec, seed=3)
    series = np.array(context + actuals)
    assert np.allclose(series[:8], series[8:16], atol=1e-12)
    assert series.std() > 0.5


def test_generate_series_is_seed_deterministic():
    spec = _flat_spec(noise_scale=1.0)
    assert generate_series(spec, seed=9) == generate_series(spec, seed=9)
    assert generate_series(spec, seed=9) != generate_series(spec, seed=10)


def test_trend_resets_within_each_segment():
    spec = RegimeSpec(
        (Segment(4, 0.0, trend=1.0), Segment(4, 10.0, trend=0.0)), context_length=2
    )
    context, actuals = generate_series(spec, seed=0)
    series = context + actuals
    assert series[:4] == (0.0, 1.0, 2.0, 3.0)
    assert series[4:] == (10.0,) * 4


def _two_regime_spec(pre=6, post=18, context=12):
    return RegimeSpec(
        (Segment(context + pre, 20.0, noise_scale=1.0), Segment(post, 24.0, noise_scale=1.0)),
        context_length=context,
    )


def test_expert_point_mass_at_actual_when_sharpness_zero():
    spec = _two_regime_spec()
    _, actuals = generate_series(spec, seed=4)
    expert = SyntheticExpert("e", favored_regimes=(0, 1), sharpness=0.0)
    rows = expert_forecast(expert, spec, actuals, seed=4)
    for y, row in zip(actuals, rows):
        assert row == (y,) * 9


def test_expert_bias_shifts_the_median_by_exactly_b():
    # same name -> same jitter stream, so the only difference is the bias
    spec = _two_regime_spec()
    _, actuals = generate_series(spec, seed=4)
    plain = SyntheticExpert("e", (), sharpness=0.5, bias=0.0, dispersion_inflation=2.0)
    biased = SyntheticExpert("e", (), sharpness=0.5, bias=1.75, dispersion_inflation=2.0)
    rows_plain = expert_forecast(plain, spec, actuals, seed=4)
    rows_biased = expert_forecast(biased, spec, actuals, seed=4)
    for rp, rb in zip(rows_plain, rows_biased):
        med_p = rp[4]
        med_b = rb[4]
        assert med_b - med_p == pytest.approx(1.75, rel=1e-12)


def test_expert_spread_inflates_out_of_regime():
    spec = _two_regime_spec(pre=6, post=18)
    _, actuals = generate_series(spec, seed=4)
    expert = SyntheticExpert("e", (0,), sharpness=0.5, dispersion_inflation=10.0)
    rows = expert_forecast(expert, spec, actuals, seed=4)
    in_spread = rows[0][-1] - rows[0][0]  # t=0 is pre-break, regime 0
    out_spread = rows[10][-1] - rows[10][0]  # deep post-break, regime 1
    assert out_spread == pytest.approx(10.0 * in_spread, rel=1e-9)


def test_expert_rows_monotone_across_random_configs():
    spec = _two_regime_spec()
    _, actuals = generate_series(spec, seed=4)
    rng = np.random.default_rng(0)
    for case in range(200):
        expert = SyntheticExpert(
            name=f"e{case}",
            favored_regimes=(int(rng.integers(0, 2)),),
            sharpness=float(rng.uniform(0.0, 5.0)),
            bias=float(rng.uniform(-10.0, 10.0)),
            dispersion_inflation=float(rng.uniform(0.1, 20.0)),
        )
        for row in expert_forecast(expert, spec, actuals, seed=int(rng.integers(1 << 30))):
            assert all(b >= a for a, b in zip(row, row[1:]))


def test_expert_forecast_rejects_misaligned_actuals():
    spec = _two_regime_spec()
    expert = SyntheticExpert("e", (0,), sharpness=1.0)
    with pytest.raises(LengthMismatch):
        expert_forecast(expert, spec, [1.0, 2.0], seed=0)


def test_oracle_share_tracks_regime_share_for_disjoint_experts():
    # regime 0 covers 1/4 of the horizon, regime 1 the rest
    spec = RegimeSpec(
        (Segment(12 + 6, 20.0, noise_scale=1.0), Segment(18, 23.0, noise_scale=1.0)),
        context_length=12,
    )
    a = SyntheticExpert("a", (0,), sharpness=0.3, bias=0.4, dispersion_inflation=8.0)
    b = SyntheticExpert("b", (1,), sharpness=0.3, bias=0.4, dispersion_inflation=8.0)
    traces = []
    for seed in range(30):
        from quantarb.core import build_panel

        context, actuals = generate_series(spec, seed)
        panel = build_panel(
            f"pair-{seed}",
            context,
            actuals,
            1,
            DEFAULT_LEVELS,
            [
                ("a", expert_forecast(a, spec, actuals, seed)),
                ("b", expert_forecast(b, spec, actuals, seed)),
            ],
        )
        traces.append(oracle_select(panel))
    table = selection_frequency_table(traces)
    assert abs(table["a"] - 6 / 24) <= 0.10
    assert abs(table["b"] - 18 / 24) <= 0.10


def test_suite_is_empty_for_zero_panels():
    assert build_benchmark_suite(0, seed=0) == []


@pytest.mark.parametrize(
    "n_panels, n_experts, message",
    [
        (-1, None, "n_panels must be >= 0, got -1"),
        (2, 0, "n_experts must be >= 1, got 0"),
        (2, -3, "n_experts must be >= 1, got -3"),
    ],
)
def test_suite_rejects_negative_panel_counts_and_empty_pools(n_panels, n_experts, message):
    with pytest.raises(ValueError, match=message):
        build_benchmark_suite(n_panels, seed=0, n_experts=n_experts)


def test_suite_of_single_expert_panels_builds():
    suite = build_benchmark_suite(2, seed=0, n_experts=1)
    assert [tp.panel.n_models for tp in suite] == [1, 1]


def test_suite_is_seed_deterministic():
    s1 = build_benchmark_suite(6, seed=3)
    s2 = build_benchmark_suite(6, seed=3)
    s3 = build_benchmark_suite(6, seed=4)
    assert s1 == s2
    assert s1 != s3


def test_suite_panels_all_validate():
    suite = build_benchmark_suite(24, seed=0)
    for tagged in suite:
        # Rebuilding from the panel's own fields re-runs every check.
        p = tagged.panel
        rebuilt = ForecastPanel(
            p.series_id, p.context, p.actuals, p.seasonality, p.model_names, p.levels, p.values
        )
        assert rebuilt == p
        assert tagged.metadata.domain in DOMAINS
        assert tagged.metadata.horizon_class in {hc for hc, _ in HORIZON_CLASSES}


def test_suite_cycles_domains_horizons_and_pool_sizes():
    suite = build_benchmark_suite(24, seed=0)
    assert [tp.metadata.domain for tp in suite[:4]] == list(DOMAINS)
    lengths = {tp.metadata.horizon_class: tp.panel.horizon for tp in suite}
    assert lengths == {"short": 8, "medium": 16, "long": 32}
    sizes = {tp.panel.n_models for tp in suite}
    assert sizes == {2, 3, 4, 5, 6}
    fixed = build_benchmark_suite(8, seed=0, n_experts=6)
    assert all(tp.panel.n_models == 6 for tp in fixed)
    assert fixed[0].panel.model_names == tuple(f"expert_{i:02d}" for i in range(6))
