import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantarb.core import DEFAULT_LEVELS, QuantileLevels, build_panel
from quantarb.errors import SeriesTooShort, ZeroDenominator
from quantarb.metrics import ABS_OBS_FLOOR, crps_batch, mase_scale
from quantarb.panelio import TaggedPanel
from quantarb.reporting import score_panel

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _wql(alpha, q, y):
    """Weighted quantile loss of one quantile: ``crps_batch`` with K = 1,
    ``2 * pinball / max(|y|, 1e-8)``."""
    return float(crps_batch([alpha], [q], y))


def test_pinball_hand_values():
    # At |y| = 2 the weighted quantile loss equals the pinball loss itself.
    assert _wql(0.5, 0.0, 2.0) == 1.0
    assert _wql(0.9, 3.0, 3.0) == 0.0
    assert _wql(0.1, 5.0, 2.0) == pytest.approx(2.7, rel=1e-15)


@given(st.floats(min_value=0.01, max_value=0.99), finite, finite)
def test_pinball_nonnegative_and_zero_only_at_truth(alpha, q, y):
    loss = _wql(alpha, q, y)
    assert loss >= 0.0
    if q != y:
        assert loss > 0.0
    assert _wql(alpha, y, y) == 0.0


def test_weighted_quantile_loss_hand_values():
    assert _wql(0.5, 0.0, 2.0) == 1.0
    assert _wql(0.5, 4.0, 4.0) == 0.0
    assert _wql(0.2, 1.0, -2.0) == pytest.approx(2.4, rel=1e-15)


def test_weighted_quantile_loss_is_finite_at_zero_observation():
    v = _wql(0.5, 1.0, 0.0)
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


def _crps_with_np_mean(levels, values, observations):
    """``crps_batch`` as it was written with ``np.mean``, kept as an oracle."""
    alphas = np.asarray(levels, dtype=float)
    q = np.asarray(values, dtype=float)
    y = np.asarray(observations, dtype=float)[..., None]
    rho = np.where(y > q, alphas * (y - q), (1.0 - alphas) * (q - y))
    return np.mean(2.0 * rho / np.maximum(np.abs(y), ABS_OBS_FLOOR), axis=-1)


@given(_blocks(), st.sampled_from(("K", "NK", "NLK")), st.data())
@settings(max_examples=200)
def test_crps_batch_equals_the_np_mean_formulation_bit_for_bit(block, shape, data):
    levels, values, obs = block
    # Some forecasts sit on their observation at every level: exact-zero
    # losses, whose +0.0 must stay +0.0.
    on_truth = data.draw(st.lists(st.booleans(), min_size=len(obs), max_size=len(obs)))
    for t, hit in enumerate(on_truth):
        if hit:
            values[0, t] = obs[t]
    if shape == "K":
        cases = [(values[i, t], obs[t]) for i in range(len(values)) for t in range(len(obs))]
    elif shape == "NK":
        cases = [(values[:, t], obs[t]) for t in range(len(obs))]
    else:
        cases = [(values, obs)]
    for v, y in cases:
        got = crps_batch(levels.levels, v, y)
        want = _crps_with_np_mean(levels.levels, v, y)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_crps_batch_of_forecasts_on_their_observation_is_positive_zero():
    for y in (5.0, -5.0, 0.0):
        got = crps_batch(DEFAULT_LEVELS.levels, [[y] * 9, [y] * 9], y)
        assert np.signbit(got).tolist() == [False, False]
        assert not np.signbit(crps_batch(DEFAULT_LEVELS.levels, [y] * 9, y))


def test_crps_series_is_mean_of_timesteps():
    # A series' CRPS is the mean of its per-timestep scores over the horizon.
    horizon = np.array([range(1, 10), (5.0,) * 9], dtype=float)
    per = crps_batch(DEFAULT_LEVELS.levels, horizon, [5.0, 5.0])
    a = _crps(tuple(range(1, 10)), 5.0)
    assert per.tolist() == [a, 0.0]
    assert float(np.mean(per)) == pytest.approx(a / 2.0, rel=1e-12)
    assert float(np.mean(crps_batch(DEFAULT_LEVELS.levels, horizon[:1], [5.0]))) == a


def _mase(points, actuals, context, seasonality):
    """The reported MASE of a one-model panel whose forecasts sit on
    ``points`` at every level."""
    panel = build_panel("s", context, actuals, seasonality, DEFAULT_LEVELS,
                        [("a", [[p] * 9 for p in points])])
    return score_panel(TaggedPanel(panel), ["per-model"])["model:a"].mase


def test_mase_hand_oracle():
    # context (0,1,3) m=1: naive errors 1 and 2, denominator 1.5; |4-2| = 2.
    assert abs(4.0 - 2.0) / mase_scale([0.0, 1.0, 3.0], 1) == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert _mase([4.0], [2.0], [0.0, 1.0, 3.0], 1) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_mase_zero_for_perfect_forecasts():
    assert _mase([1.0, 2.0], [1.0, 2.0], [0.0, 1.0, 3.0], 1) == 0.0


def test_mase_periodic_context_is_an_error_not_infinity():
    with pytest.raises(ZeroDenominator):
        _mase([3.0, 3.0], [1.0, 2.0], [1.0, 2.0, 1.0, 2.0, 1.0, 2.0], 2)


def test_mase_context_must_exceed_seasonality():
    with pytest.raises(SeriesTooShort):
        mase_scale([1.0, 2.0], 2)


def test_mase_scale_hand_oracle():
    # context (0, 1, 3, 2), m=2: seasonal-naive errors 3 and 1.
    assert mase_scale([0.0, 1.0, 3.0, 2.0], 2) == 2.0
    assert mase_scale((0.0, 1.0, 3.0), 1) == 1.5


@pytest.mark.parametrize(
    "context, m, error, message",
    [
        ([1.0, 2.0, 1.0, 2.0, 1.0, 2.0], 2, ZeroDenominator,
         "context is 2-periodic; seasonal-naive MAE is zero"),
        ([1.0, 2.0], 2, SeriesTooShort, "context length 2 must exceed seasonality 2"),
        ([1.0, 2.0, 3.0], 0, ValueError, "seasonality must be >= 1, got 0"),
    ],
)
def test_mase_and_its_scale_reject_the_same_contexts_alike(context, m, error, message):
    # Every reported MASE divides by this scale, so these are its rejections.
    with pytest.raises(error, match=message):
        mase_scale(context, m)


@given(
    st.lists(finite, min_size=1, max_size=12),
    st.lists(finite, min_size=3, max_size=20),
    st.integers(1, 2),
)
def test_mase_is_the_forecast_mae_over_its_scale(errors, context, m):
    try:
        scale = mase_scale(context, m)
    except ZeroDenominator:
        return
    points = [float(e) for e in errors]
    actuals = [0.0] * len(points)
    assert _mase(points, actuals, context, m) == float(np.mean(np.abs(points))) / scale


@given(st.floats(min_value=-100, max_value=100))
def test_mase_translation_invariant(c):
    base = _mase([4.0, 1.0], [2.0, 2.0], [0.0, 1.0, 3.0, 2.0], 1)
    shifted = _mase(
        [4.0 + c, 1.0 + c], [2.0 + c, 2.0 + c], [0.0 + c, 1.0 + c, 3.0 + c, 2.0 + c], 1
    )
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)

