import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quantarb.baselines import (
    mean_ensemble,
    median_ensemble,
    quantile_mean_ensemble,
    quantile_median_ensemble,
)
from quantarb.core import DEFAULT_LEVELS, QuantileForecast, QuantileLevels
from quantarb.errors import DimensionMismatch


def _fc(values, levels=DEFAULT_LEVELS):
    return QuantileForecast(levels, values)


def _shift(base, c):
    return _fc(tuple(v + c for v in base))


BASE = tuple(float(k) for k in range(1, 10))


def test_median_ensemble_single_model_is_identity():
    fc = _fc(BASE)
    assert quantile_median_ensemble([fc]).values == fc.values


def test_median_ensemble_odd_count_picks_middle():
    fcs = [_shift(BASE, 0.0), _shift(BASE, 1.0), _shift(BASE, 8.0)]
    ens = quantile_median_ensemble(fcs)
    assert ens.value_at(0.5) == 5.0 + 1.0
    assert ens.values == _shift(BASE, 1.0).values


def test_median_ensemble_even_count_takes_midpoint():
    fcs = [_shift(BASE, 0.0), _shift(BASE, 3.0)]
    assert quantile_median_ensemble(fcs).values == _shift(BASE, 1.5).values


def test_mean_ensemble_hand_values():
    fc = _fc(BASE)
    assert quantile_mean_ensemble([fc]).values == fc.values
    lo = _fc((0.0,) * 9)
    hi = _fc((10.0,) * 9)
    assert quantile_mean_ensemble([lo, hi]).values == (5.0,) * 9
    assert quantile_mean_ensemble([fc, fc, fc]).values == fc.values


@st.composite
def _pool_values(draw):
    """(N, T, K) pool values, N 1..16 and T 1..40, whose members sit at
    magnitudes from 1e-3 to 1e6: contiguous, reversed along the pool and the
    steps, or gathered by a list of member indices as a pool subset is."""
    n, t, k = draw(st.integers(1, 16)), draw(st.integers(1, 40)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitudes = 10.0 ** rng.uniform(-3.0, 6.0, size=(n, 1, 1))
    values = np.sort(rng.normal(1.0, 0.5, size=(n, t, k)), axis=-1) * magnitudes
    layout = draw(st.sampled_from(("contiguous", "reversed", "subset")))
    if layout == "reversed":
        return values[::-1, ::-1]
    if layout == "subset":
        return values[draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))]
    return values


# Eight models on a one-level grid: one reduction over this block rounds
# differently from the per-step means, forwards and reversed.
_ONE_LEVEL = np.array(
    [2195.407, 1380.375, 43.755, 59.901, 0.689, 0.254, 5.144, 2.559, 138775.68,
     161652.63, 0.052, 0.117, 322932.58, 846075.512, -460.308, 6674.402]
).reshape(8, 2, 1)


@given(_pool_values())
@settings(max_examples=300, deadline=None)
@example(_ONE_LEVEL)
@example(_ONE_LEVEL[::-1, ::-1])
def test_mean_ensemble_equals_the_per_step_mean_bit_for_bit(values):
    per_step = np.array([np.mean(values[:, t], axis=0) for t in range(values.shape[1])])
    assert mean_ensemble(values).tobytes() == per_step.tobytes()


@st.composite
def _tied_pool_values(draw):
    """(N, T, K) pool values, N 1..16, each drawn from eight values so that
    members tie: +0.0, -0.0 and six of either sign at magnitudes from 1e-3
    to 1e6."""
    n, t, k = draw(st.integers(1, 16)), draw(st.integers(1, 6)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signed = rng.choice((-1.0, 1.0), size=6) * 10.0 ** rng.uniform(-3.0, 6.0, size=6)
    palette = np.concatenate(([0.0, -0.0], signed))
    return palette[rng.integers(0, len(palette), size=(n, t, k))]


@given(_tied_pool_values())
@settings(max_examples=300, deadline=None)
@example(np.array([0.0, -0.0]).reshape(2, 1, 1))
@example(np.array([-0.0, 0.0, -0.0]).reshape(3, 1, 1))
@example(np.array([1e6, -1e6, 1e-3, -1e-3]).reshape(4, 1, 1))
def test_median_ensemble_equals_numpy_median(values):
    assert np.array_equal(median_ensemble(values), np.median(values, axis=0))


def test_ensembles_reject_empty_and_mixed_grids():
    with pytest.raises(ValueError):
        quantile_median_ensemble([])
    with pytest.raises(ValueError):
        quantile_mean_ensemble([])
    other = QuantileForecast(QuantileLevels((0.25, 0.5, 0.75)), (1.0, 2.0, 3.0))
    with pytest.raises(DimensionMismatch):
        quantile_median_ensemble([_fc(BASE), other])
    with pytest.raises(DimensionMismatch):
        quantile_mean_ensemble([_fc(BASE), other])


monotone_rows = st.lists(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=9, max_size=9).map(sorted),
    min_size=1,
    max_size=5,
)


@given(monotone_rows)
@settings(max_examples=150)
def test_ensembles_preserve_monotonicity(rows):
    fcs = [_fc(tuple(r)) for r in rows]
    for ens in (quantile_median_ensemble(fcs), quantile_mean_ensemble(fcs)):
        assert all(b >= a for a, b in zip(ens.values, ens.values[1:]))


@given(monotone_rows, st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_ensembles_are_permutation_invariant(rows, rnd):
    fcs = [_fc(tuple(r)) for r in rows]
    shuffled = list(fcs)
    rnd.shuffle(shuffled)
    assert quantile_median_ensemble(shuffled).values == pytest.approx(
        quantile_median_ensemble(fcs).values
    )
    assert quantile_mean_ensemble(shuffled).values == pytest.approx(
        quantile_mean_ensemble(fcs).values
    )
