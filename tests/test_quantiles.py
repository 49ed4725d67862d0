import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from quantarb.core import DEFAULT_LEVELS, QuantileForecast, QuantileLevels
from quantarb.errors import DimensionMismatch, EmptySampleSet
from quantarb.quantiles import (
    InverseCdf,
    RandomStreams,
    empirical_quantiles,
    fit_inverse_cdf,
    sample,
)


def _fit(values, levels=DEFAULT_LEVELS):
    return fit_inverse_cdf(QuantileForecast(levels, values))


def test_identity_quantiles_reproduce_the_line():
    icdf = _fit(tuple(DEFAULT_LEVELS.levels))
    assert icdf(0.55) == pytest.approx(0.55, abs=1e-12)
    ps = np.linspace(0.01, 0.99, 53)
    assert np.allclose(icdf(ps), ps, atol=1e-12)


def test_point_mass_is_constant_everywhere():
    icdf = _fit((7.0,) * 9)
    for p in (0.001, 0.1, 0.5, 0.9, 0.999):
        assert icdf(p) == 7.0
    assert icdf.support == (7.0, 7.0)


def test_knots_are_interpolated_exactly():
    values = (0.0, 0.5, 0.7, 1.9, 2.0, 2.0, 3.5, 10.0, 11.0)
    icdf = _fit(values)
    for a, v in zip(DEFAULT_LEVELS.levels, values):
        assert icdf(a) == pytest.approx(v, abs=1e-12)


def test_upper_tail_extends_last_segment_slope():
    values = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0)
    icdf = _fit(values)
    slope = (9.0 - 7.0) / 0.1
    assert icdf(0.95) == pytest.approx(9.0 + 0.05 * slope, rel=1e-12)
    lo_slope = (1.0 - 0.0) / 0.1
    assert icdf(0.02) == pytest.approx(0.0 - 0.08 * lo_slope, rel=1e-12)


def test_flat_outer_segment_gives_flat_tail():
    values = (1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 7.0)
    icdf = _fit(values)
    assert icdf(0.99) == 7.0
    assert icdf(0.01) == 1.0


monotone_values = st.lists(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    min_size=9,
    max_size=9,
).map(sorted)


@given(monotone_values, st.floats(0.001, 0.999), st.floats(0.001, 0.999))
@settings(max_examples=200)
def test_inverse_cdf_monotone_for_random_probe_pairs(values, p1, p2):
    icdf = _fit(tuple(values))
    lo, hi = sorted((p1, p2))
    assert icdf(lo) <= icdf(hi) + 1e-12


def test_sample_zero_draws_and_point_mass():
    rng = np.random.default_rng(0)
    assert sample(_fit((7.0,) * 9), 0, rng).shape == (0,)
    draws = sample(_fit((7.0,) * 9), 100, rng)
    assert np.all(draws == 7.0)
    with pytest.raises(ValueError):
        sample(_fit((7.0,) * 9), -1, rng)


def test_sample_median_of_identity_icdf_near_half():
    rng = np.random.default_rng(42)
    draws = sample(_fit(tuple(DEFAULT_LEVELS.levels)), 100_000, rng)
    assert np.median(draws) == pytest.approx(0.5, abs=0.01)


def test_sampling_is_deterministic_per_stream():
    icdf = _fit(tuple(range(9)))
    a = sample(icdf, 50, RandomStreams(9).child("x").generator())
    b = sample(icdf, 50, RandomStreams(9).child("x").generator())
    c = sample(icdf, 50, RandomStreams(9).child("y").generator())
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_empirical_quantiles_constant_samples():
    fc = empirical_quantiles([3.0] * 17, DEFAULT_LEVELS)
    assert fc.values == (3.0,) * 9


def test_empirical_quantiles_linear_interpolation_estimator():
    fc = empirical_quantiles(np.arange(1.0, 101.0), DEFAULT_LEVELS)
    assert fc.value_at(0.5) == pytest.approx(50.5, rel=1e-12)
    # position (n-1)*alpha: (99)(0.1) = 9.9 -> 10.9 after the 1-based offset
    assert fc.values[0] == pytest.approx(10.9, rel=1e-12)


def test_empirical_quantiles_duplication_invariant():
    xs = np.arange(1.0, 101.0)
    once = empirical_quantiles(xs, DEFAULT_LEVELS)
    twice = empirical_quantiles(np.concatenate([xs, xs]), DEFAULT_LEVELS)
    for a, b in zip(once.values, twice.values):
        assert b == pytest.approx(a, abs=1e-12)


def test_empirical_quantiles_reject_empty():
    with pytest.raises(EmptySampleSet):
        empirical_quantiles([], DEFAULT_LEVELS)


@given(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=40),
)
@settings(max_examples=150)
def test_empirical_quantiles_always_monotone(xs):
    fc = empirical_quantiles(xs, DEFAULT_LEVELS)
    assert all(b >= a for a, b in zip(fc.values, fc.values[1:]))


def test_round_trip_smooth_forecast():
    mu, sigma = 10.0, 2.0
    z = np.array([-1.2816, -0.8416, -0.5244, -0.2533, 0.0, 0.2533, 0.5244, 0.8416, 1.2816])
    values = tuple(mu + sigma * zi for zi in z)
    icdf = _fit(values)
    draws = sample(icdf, 200_000, RandomStreams(3).generator())
    back = empirical_quantiles(draws, DEFAULT_LEVELS)
    scale = values[-1] - values[0]
    tol = max(1e-2, 1e-2 * scale)
    for want, got in zip(values, back.values):
        assert abs(got - want) <= tol


def test_single_level_grid_fits_a_constant():
    one = QuantileLevels((0.5,))
    icdf = fit_inverse_cdf(QuantileForecast(one, (4.2,)))
    assert icdf(0.1) == 4.2
    assert icdf(0.9) == 4.2


def test_streams_key_by_name_not_position():
    root = RandomStreams(123)
    a1 = root.child("series", "s1").child("model", "alpha").generator().random(8)
    a2 = (
        RandomStreams(123)
        .child("series", "s1")
        .child("model", "alpha")
        .generator()
        .random(8)
    )
    b = root.child("series", "s1").child("model", "beta").generator().random(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_streams_mix_string_and_int_components():
    g1 = RandomStreams(5).child("t", 3).generator().random(4)
    g2 = RandomStreams(5).child("t", 3).generator().random(4)
    g3 = RandomStreams(5).child("t", 4).generator().random(4)
    assert np.array_equal(g1, g2)
    assert not np.array_equal(g1, g3)
    with pytest.raises(TypeError):
        RandomStreams(5).child(True)


def test_streams_negative_int_components_are_stable():
    a = RandomStreams(1).child(-7).generator().random(3)
    b = RandomStreams(1).child(-7).generator().random(3)
    assert np.array_equal(a, b)


def _scipy_inverse_cdf(levels, values, p):
    """Reference: one forecast fitted with SciPy's ``PchipInterpolator``
    between the outer levels, linear tails with the outer segment slopes."""
    levels = np.asarray(levels, dtype=float)
    values = np.maximum.accumulate(np.asarray(values, dtype=float))
    out = np.empty_like(p)
    lo, hi = p <= levels[0], p >= levels[-1]
    mid = ~(lo | hi)
    lo_slope = hi_slope = 0.0
    if len(levels) >= 2:
        lo_slope = max(0.0, (values[1] - values[0]) / (levels[1] - levels[0]))
        hi_slope = max(0.0, (values[-1] - values[-2]) / (levels[-1] - levels[-2]))
        if mid.any():
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                out[mid] = PchipInterpolator(levels, values, extrapolate=False)(p[mid])
    out[lo] = values[0] + (p[lo] - levels[0]) * lo_slope
    out[hi] = values[-1] + (p[hi] - levels[-1]) * hi_slope
    return out


@st.composite
def _forecast_batches(draw):
    """A level grid (K = 1..10, K = 1 and 2 weighted up) and 1..4 forecasts
    on it; a zero increment makes tied knots, an all-zero row a flat one."""
    k = draw(st.one_of(st.sampled_from((1, 2)), st.integers(1, 10)))
    ticks = draw(st.lists(st.integers(1, 999), min_size=k, max_size=k, unique=True))
    levels = np.array(sorted(ticks)) / 1000.0
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        base = draw(st.floats(-1e3, 1e3))
        steps = draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.0, 50.0)), min_size=k - 1, max_size=k - 1
            )
        )
        rows.append(np.concatenate(([base], base + np.cumsum(steps))))
    probes = draw(st.lists(st.floats(0.0, 1.0), max_size=20))
    # Knot levels exactly, both tails, and the open interval's ends.
    p = np.concatenate((probes, levels, [0.0, levels[0] / 2, (1 + levels[-1]) / 2, 1.0]))
    return levels, np.array(rows), p


@given(_forecast_batches())
@settings(max_examples=400, deadline=None)
def test_batched_kernel_matches_scipy_pchip(case):
    # Required to 1e-12; every case tried so far agreed bit for bit, since the
    # kernel repeats SciPy's derivative, coefficient and evaluation arithmetic.
    levels, rows, p = case
    icdf = InverseCdf(levels, rows)
    for r, values in enumerate(rows):
        want = _scipy_inverse_cdf(levels, values, p)
        got = icdf(p, np.full(len(p), r))
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.all(np.abs(got - want) <= 1e-12 * scale), (r, got, want)
        one = InverseCdf(levels, values)(p)
        assert np.array_equal(one, got)


def test_batched_kernel_mixes_rows_in_one_call():
    levels = np.asarray(DEFAULT_LEVELS.levels)
    rows = np.array([np.arange(9.0), 10.0 + 2.0 * np.arange(9.0), np.full(9, 3.0)])
    icdf = InverseCdf(levels, rows.reshape(3, 1, 9))
    p = np.array([0.05, 0.35, 0.5, 0.95, 0.35, 0.5])
    which = np.array([0, 1, 2, 0, 0, 1])
    got = icdf(p, which)
    for j in range(len(p)):
        assert got[j] == _scipy_inverse_cdf(levels, rows[which[j]], p[j : j + 1])[0]
    low, high = icdf.support
    assert low.shape == high.shape == (3, 1)
    assert (low[2, 0], high[2, 0]) == (3.0, 3.0)


def test_kernel_rejects_values_off_the_grid():
    with pytest.raises(DimensionMismatch):
        InverseCdf(np.asarray(DEFAULT_LEVELS.levels), np.zeros((2, 8)))
