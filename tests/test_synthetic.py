import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.stats import norm

from quantarb import synthetic
from quantarb.core import DEFAULT_LEVELS, ForecastPanel, QuantileLevels
from quantarb.errors import LengthMismatch, NonFinite
from quantarb.oracle import oracle_select
from quantarb.panelio import save_panels
from quantarb.quantiles import RandomStreams
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


@pytest.mark.parametrize("field", ["level", "trend", "season_amplitude", "noise_scale"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_segment_rejects_non_finite_parameters(field, bad):
    kwargs = {"length": 5, "level": 1.0, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Segment(**kwargs)


@pytest.mark.parametrize("field", ["sharpness", "bias", "dispersion_inflation"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_expert_rejects_non_finite_parameters(field, bad):
    kwargs = {"name": "a", "favored_regimes": (0,), "sharpness": 1.0, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SyntheticExpert(**kwargs)


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


@pytest.mark.parametrize("regimes", [("0", "1"), (True,), (1.0,), (-1,), (0, None)])
def test_expert_rejects_regime_ids_that_are_not_segment_indices(regimes):
    with pytest.raises(ValueError, match="a favored regime id must be an integer >= 0"):
        SyntheticExpert("e", regimes, sharpness=1.0)


def test_expert_takes_numpy_regime_ids_like_ints():
    spec = _two_regime_spec()
    _, actuals = generate_series(spec, seed=4)
    numpy_ids = SyntheticExpert("e", (np.int64(1),), sharpness=0.5, bias=2.0)
    plain = SyntheticExpert("e", (1,), sharpness=0.5, bias=2.0)
    assert expert_forecast(numpy_ids, spec, actuals, 4) == expert_forecast(plain, spec, actuals, 4)


def test_expert_regime_beyond_the_segments_favors_no_step():
    # Backtests reuse a horizon's experts on a one-segment history spec.
    spec = _two_regime_spec()
    _, actuals = generate_series(spec, seed=4)
    beyond = SyntheticExpert("e", (7,), sharpness=0.5, bias=2.0)
    never = SyntheticExpert("e", (), sharpness=0.5, bias=2.0)
    assert expert_forecast(beyond, spec, actuals, 4) == expert_forecast(never, spec, actuals, 4)


def test_expert_forecast_rejects_misaligned_actuals():
    spec = _two_regime_spec()
    expert = SyntheticExpert("e", (0,), sharpness=1.0)
    with pytest.raises(LengthMismatch):
        expert_forecast(expert, spec, [1.0, 2.0], seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, None])
def test_expert_forecast_rejects_non_finite_actuals(bad):
    # An array of actuals reads None as NaN.
    spec = _two_regime_spec(pre=1, post=1)
    expert = SyntheticExpert("e", (0,), sharpness=1.0)
    with pytest.raises(NonFinite, match="actual at horizon step 1 is not finite"):
        expert_forecast(expert, spec, [20.0, bad], seed=0)


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
    picks = np.bincount(np.concatenate([trace.selections for trace in traces]), minlength=2)
    share_a, share_b = picks / picks.sum()
    assert abs(share_a - 6 / 24) <= 0.10
    assert abs(share_b - 18 / 24) <= 0.10


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


# sha256 of `save_panels` output for pinned suites, recorded from the per-row
# generator: the array generator must write every file byte for byte the same.
_GRID3 = QuantileLevels((0.1, 0.25, 0.9))
_PINNED_SUITES = [
    (200, 0, None, DEFAULT_LEVELS, "c1af30ee928045ced7ea7ea41fc9a199bde9849504e0eab5664b1a870a1eac99"),
    (200, 3, 6, DEFAULT_LEVELS, "00d28a0d41550536113e9c293ed826e54c96c7a96bc9a4561dd0251bb83abedc"),
    (100, 11, 12, DEFAULT_LEVELS, "d46eb3df56ab86e749598db2d45f6193ded8bb502bf6cea3b2b64d410bfdab45"),
    (40, 5, None, _GRID3, "886e17920a84d15c49b80a7a1ed19693025b55e902c6c4ddde9a2b10ebe28c63"),
]


@pytest.mark.parametrize(
    "n_panels, seed, n_experts, levels, digest",
    _PINNED_SUITES,
    ids=["pool-cycling", "six-experts", "twelve-experts", "three-levels-without-median"],
)
def test_suite_files_are_pinned_byte_for_byte(tmp_path, n_panels, seed, n_experts, levels, digest):
    path = tmp_path / "suite.jsonl"
    save_panels(path, build_benchmark_suite(n_panels, seed, n_experts, levels))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _loop_generate_series(spec, seed):
    """The per-row generator the array version replaced, kept as its oracle."""
    rng = RandomStreams(seed).child("series").generator()
    noise = rng.standard_normal(spec.total_length)
    values = []
    position = 0
    for seg in spec.segments:
        for u in range(seg.length):
            season = seg.season_amplitude * math.sin(
                2.0 * math.pi * (position % seg.season_period) / seg.season_period
            )
            values.append(
                seg.level + seg.trend * u + season + seg.noise_scale * noise[position]
            )
            position += 1
    split = spec.context_length
    return tuple(values[:split]), tuple(values[split:])


def _loop_expert_forecast(expert, spec, actuals, seed, levels=DEFAULT_LEVELS):
    """The per-row expert the array version replaced, kept as its oracle."""
    z = norm.ppf(np.asarray(levels.levels))
    rng = RandomStreams(seed).child("expert", expert.name).generator()
    jitter = rng.standard_normal(len(actuals))
    rows = []
    for t, y in enumerate(actuals):
        regime = spec.regime_id_at(spec.context_length + t)
        if regime in expert.favored_regimes:
            sigma = expert.sharpness
            mu = y + 0.1 * sigma * jitter[t]
        else:
            sigma = expert.sharpness * expert.dispersion_inflation
            mu = y + expert.bias + 0.1 * sigma * jitter[t]
        rows.append(tuple(float(v) for v in mu + sigma * z))
    return tuple(rows)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _maybe_zero(strategy):
    return st.one_of(st.just(0.0), strategy)


@st.composite
def _regime_cases(draw):
    """A spec of 1..4 segments (trend, periods 1..24, zero noise allowed), an
    expert whose favored set is empty, partial or every regime (zero
    sharpness allowed), a seed, a grid and, half the time, actuals drawn
    freely (signed zeros included) in place of the realized ones."""
    segments = tuple(
        Segment(
            length=draw(st.integers(1, 30)),
            level=draw(st.floats(-100.0, 100.0)),
            trend=draw(_maybe_zero(st.floats(-2.0, 2.0))),
            season_amplitude=draw(_maybe_zero(st.floats(-5.0, 5.0))),
            season_period=draw(st.integers(1, 24)),
            noise_scale=draw(_maybe_zero(st.floats(0.0, 3.0))),
        )
        for _ in range(draw(st.integers(1, 4)))
    )
    total = sum(seg.length for seg in segments)
    assume(total >= 2)
    spec = RegimeSpec(segments, context_length=draw(st.integers(1, total - 1)))
    expert = SyntheticExpert(
        name=draw(st.sampled_from(("a", "expert_03"))),
        favored_regimes=tuple(draw(st.sets(st.integers(0, len(segments) - 1)))),
        sharpness=draw(_maybe_zero(st.floats(0.0, 5.0))),
        bias=draw(_maybe_zero(st.floats(-10.0, 10.0))),
        dispersion_inflation=draw(st.floats(0.1, 20.0)),
    )
    free = st.lists(st.floats(-1e3, 1e3), min_size=spec.horizon, max_size=spec.horizon)
    actuals = draw(st.one_of(st.none(), free))
    levels = draw(st.sampled_from((DEFAULT_LEVELS, _GRID3, QuantileLevels((0.5,)))))
    return spec, expert, draw(st.integers(0, 2**63 - 1)), levels, actuals


@given(_regime_cases())
# A favored step with zero sharpness on an actual of -0.0: the bias must not
# be added there, not even as +0.0, or the row's signed zeros flip.
@example((
    RegimeSpec((Segment(6, 1.0),), context_length=2),
    SyntheticExpert("a", (0,), sharpness=0.0, bias=0.0),
    3,
    DEFAULT_LEVELS,
    [-0.0] * 4,
))
@settings(max_examples=300, deadline=None)
def test_array_generator_equals_the_per_row_loops(case):
    spec, expert, seed, levels, actuals = case
    series = generate_series(spec, seed)
    want = _loop_generate_series(spec, seed)
    assert series == want
    for got, ref in zip(series, want):
        assert np.array_equal(_bits(got), _bits(ref))
    if actuals is None:
        actuals = series[1]
    rows = expert_forecast(expert, spec, actuals, seed, levels)
    want_rows = _loop_expert_forecast(expert, spec, actuals, seed, levels)
    assert rows == want_rows
    assert np.array_equal(_bits(rows), _bits(want_rows))


def test_normal_quantiles_are_computed_once_per_level_grid(monkeypatch):
    calls = []

    class CountingNorm:
        @staticmethod
        def ppf(q):
            calls.append(tuple(q))
            return norm.ppf(q)

    monkeypatch.setattr(synthetic, "norm", CountingNorm)
    synthetic._normal_quantiles.cache_clear()
    try:
        build_benchmark_suite(12, seed=0)
        build_benchmark_suite(4, seed=1, n_experts=3, levels=_GRID3)
        spec = _two_regime_spec()
        _, actuals = generate_series(spec, seed=4)
        expert_forecast(SyntheticExpert("e", (0,), sharpness=1.0), spec, actuals, seed=4)
        assert not synthetic._normal_quantiles(DEFAULT_LEVELS.levels).flags.writeable
    finally:
        synthetic._normal_quantiles.cache_clear()
    assert calls == [DEFAULT_LEVELS.levels, _GRID3.levels]
