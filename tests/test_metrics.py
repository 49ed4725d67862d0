import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantarb.core import DEFAULT_LEVELS, QuantileLevels
from quantarb.errors import (
    DegenerateVariance,
    LengthMismatch,
    SeriesTooShort,
    ZeroDenominator,
)
from quantarb.metrics import (
    crps_batch,
    lumpiness,
    mase,
    pearson_correlation,
    pinball_loss,
    weighted_quantile_loss,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_pinball_hand_values():
    assert pinball_loss(0.5, 0.0, 2.0) == 1.0
    assert pinball_loss(0.9, 3.0, 3.0) == 0.0
    assert pinball_loss(0.1, 5.0, 2.0) == pytest.approx(2.7, rel=1e-15)


def test_pinball_rejects_degenerate_alpha():
    for alpha in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            pinball_loss(alpha, 1.0, 2.0)


@given(st.floats(min_value=0.01, max_value=0.99), finite, finite)
def test_pinball_nonnegative_and_zero_only_at_truth(alpha, q, y):
    loss = pinball_loss(alpha, q, y)
    assert loss >= 0.0
    if q != y:
        assert loss > 0.0
    assert pinball_loss(alpha, y, y) == 0.0


def test_weighted_quantile_loss_hand_values():
    assert weighted_quantile_loss(0.5, 0.0, 2.0) == 1.0
    assert weighted_quantile_loss(0.5, 4.0, 4.0) == 0.0
    assert weighted_quantile_loss(0.2, 1.0, -2.0) == pytest.approx(2.4, rel=1e-15)


def test_weighted_quantile_loss_is_finite_at_zero_observation():
    v = weighted_quantile_loss(0.5, 1.0, 0.0)
    assert np.isfinite(v)
    assert v == pytest.approx(2.0 * 0.5 * 1.0 / 1e-8)


def _crps(values, y):
    """CRPS of one forecast on the default grid, as a float."""
    return float(crps_batch(DEFAULT_LEVELS.levels, values, y))


def test_crps_timestep_zero_for_point_mass_at_truth():
    assert _crps((5.0,) * 9, 5.0) == 0.0


def test_crps_timestep_staircase_oracle():
    # levels .1..9 with values 1..9 against y=5: the nine pinball terms are
    # (.4,.6,.6,.4,0,.4,.6,.6,.4), summing to 4; CRPS = (1/9)(2/5)(4) = 8/45.
    got = _crps(tuple(range(1, 10)), 5.0)
    assert got == pytest.approx(8.0 / 45.0, rel=1e-12)


def test_crps_timestep_scale_invariant_away_from_zero():
    values = (1, 2, 3, 4, 5, 6, 7, 8, 9)
    scaled = tuple(3.0 * v for v in values)
    assert _crps(scaled, 3.0 * 5.0) == pytest.approx(_crps(values, 5.0), rel=1e-12)


@st.composite
def _blocks(draw):
    """Sorted (N, T, K) quantile blocks with K from 1 to 19, plus observations
    that include zero and values near the 1e-8 floor."""
    k = draw(st.integers(1, 19))
    levels = QuantileLevels(tuple((j + 1) / (k + 1) for j in range(k)))
    n, t = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    flat = draw(st.lists(finite, min_size=n * t * k, max_size=n * t * k))
    values = np.sort(np.array(flat).reshape(n, t, k), axis=-1)
    obs = draw(st.lists(st.sampled_from([0.0, 1e-9, -3e-9, 1.0]) | finite, min_size=t, max_size=t))
    return levels, values, obs


@given(_blocks())
@settings(max_examples=200)
def test_crps_batch_matches_per_forecast_scores_bit_for_bit(block):
    levels, values, obs = block
    got = crps_batch(levels.levels, values, obs)
    assert got.shape == values.shape[:2]
    for t, y in enumerate(obs):
        # The block is also an (N, L, K) window against (L,) observations:
        # each record scored alone as an (N, K) slice, as a record enters the
        # window, must equal its column bit for bit, which one-call window
        # seeding relies on.
        record = crps_batch(levels.levels, values[:, t], y)
        assert record.tobytes() == got[:, t].tobytes()
        for i in range(values.shape[0]):
            assert got[i, t] == float(crps_batch(levels.levels, values[i, t].tolist(), y))


def test_crps_series_is_mean_of_timesteps():
    # A series' CRPS is the mean of its per-timestep scores over the horizon.
    horizon = np.array([range(1, 10), (5.0,) * 9], dtype=float)
    per = crps_batch(DEFAULT_LEVELS.levels, horizon, [5.0, 5.0])
    a = _crps(tuple(range(1, 10)), 5.0)
    assert per.tolist() == [a, 0.0]
    assert float(np.mean(per)) == pytest.approx(a / 2.0, rel=1e-12)
    assert float(np.mean(crps_batch(DEFAULT_LEVELS.levels, horizon[:1], [5.0]))) == a


def test_mase_hand_oracle():
    # context (0,1,3) m=1: naive errors 1 and 2, denominator 1.5; |4-2| = 2.
    assert mase([4.0], [2.0], [0.0, 1.0, 3.0], 1) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_mase_zero_for_perfect_forecasts():
    assert mase([1.0, 2.0], [1.0, 2.0], [0.0, 1.0, 3.0], 1) == 0.0


def test_mase_periodic_context_is_an_error_not_infinity():
    with pytest.raises(ZeroDenominator):
        mase([3.0, 3.0], [1.0, 2.0], [1.0, 2.0, 1.0, 2.0, 1.0, 2.0], 2)


def test_mase_context_must_exceed_seasonality():
    with pytest.raises(SeriesTooShort):
        mase([1.0], [1.0], [1.0, 2.0], 2)


@given(st.floats(min_value=-100, max_value=100))
def test_mase_translation_invariant(c):
    base = mase([4.0, 1.0], [2.0, 2.0], [0.0, 1.0, 3.0, 2.0], 1)
    shifted = mase(
        [4.0 + c, 1.0 + c], [2.0 + c, 2.0 + c], [0.0 + c, 1.0 + c, 3.0 + c, 2.0 + c], 1
    )
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_lumpiness_zero_for_constant_series():
    assert lumpiness([3.0] * 40, 10) == 0.0


def test_lumpiness_zero_for_identical_tiles():
    tile = [0.0, 1.0, 0.0, -1.0, 0.5]
    assert lumpiness(tile * 8, 5) == pytest.approx(0.0, abs=1e-24)


def test_lumpiness_matches_brute_force_on_white_noise():
    rng = np.random.default_rng(7)
    x = rng.normal(size=1000)
    got = lumpiness(x, 10)

    z = (x - x.mean()) / x.std()
    tiles = [z[i : i + 10] for i in range(0, 1000, 10)]
    tile_vars = [float(np.mean((t - t.mean()) ** 2)) for t in tiles]
    mean_v = sum(tile_vars) / len(tile_vars)
    want = sum((v - mean_v) ** 2 for v in tile_vars) / len(tile_vars)
    assert got == pytest.approx(want, rel=1e-10)
    assert got > 0.0


def test_lumpiness_default_tile_width_and_short_series():
    x = list(range(100))
    assert lumpiness(x) == lumpiness(x, 10)  # max(10, 100 // 20)
    with pytest.raises(SeriesTooShort):
        lumpiness([1.0, 2.0, 3.0], 2)


def test_pearson_exact_endpoints():
    xs = [1.0, 2.0, 4.0]
    assert pearson_correlation(xs, xs) == 1.0
    assert pearson_correlation(xs, [-v for v in xs]) == -1.0


def test_pearson_closed_form_oracle():
    # r = 15 / sqrt(228) for (1,2,3) vs (2,4,7)
    want = 15.0 / np.sqrt(228.0)
    assert pearson_correlation([1, 2, 3], [2, 4, 7]) == pytest.approx(want, rel=1e-12)


def test_pearson_degenerate_and_mismatch():
    with pytest.raises(DegenerateVariance):
        pearson_correlation([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        pearson_correlation([1.0], [1.0, 2.0])
    with pytest.raises(SeriesTooShort):
        pearson_correlation([1.0], [2.0])
