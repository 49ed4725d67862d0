import pytest
from hypothesis import given, settings, strategies as st

from quantarb.baselines import quantile_mean_ensemble, quantile_median_ensemble
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
