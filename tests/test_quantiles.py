import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from quantarb.core import DEFAULT_LEVELS, QuantileLevels
from quantarb.errors import DimensionMismatch, EmptySampleSet, NonFinite
from quantarb.quantiles import (
    InverseCdf,
    KeyedPhilox,
    RandomStreams,
    _grid,
    _hashed,
    _hashed_words,
    _pchip_constants,
    _pchip_derivatives,
    _type7_positions,
    empirical_quantiles,
)


def _fit(values, levels=DEFAULT_LEVELS):
    return InverseCdf(np.asarray(levels.levels), np.asarray(values, dtype=float))


def test_identity_quantiles_reproduce_the_line():
    icdf = _fit(tuple(DEFAULT_LEVELS.levels))
    assert icdf(0.55) == pytest.approx(0.55, abs=1e-12)
    ps = np.linspace(0.01, 0.99, 53)
    assert np.allclose(icdf(ps), ps, atol=1e-12)


def test_point_mass_is_constant_everywhere():
    icdf = _fit((7.0,) * 9)
    for p in (0.001, 0.1, 0.5, 0.9, 0.999):
        assert icdf(p) == 7.0
    assert (icdf(0.0), icdf(1.0)) == (7.0, 7.0)


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
    assert _fit((7.0,) * 9)(rng.random(0)).shape == (0,)
    draws = _fit((7.0,) * 9)(rng.random(100))
    assert np.all(draws == 7.0)


def test_sample_median_of_identity_icdf_near_half():
    rng = np.random.default_rng(42)
    draws = _fit(tuple(DEFAULT_LEVELS.levels))(rng.random(100_000))
    assert np.median(draws) == pytest.approx(0.5, abs=0.01)


def test_sampling_is_deterministic_per_stream():
    icdf = _fit(tuple(range(9)))
    a = icdf(RandomStreams(9).child("x").generator().random(50))
    b = icdf(RandomStreams(9).child("x").generator().random(50))
    c = icdf(RandomStreams(9).child("y").generator().random(50))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_empirical_quantiles_constant_samples():
    q = empirical_quantiles([3.0] * 17, DEFAULT_LEVELS)
    assert q.tolist() == [3.0] * 9


def test_empirical_quantiles_linear_interpolation_estimator():
    q = empirical_quantiles(np.arange(1.0, 101.0), DEFAULT_LEVELS)
    assert q[4] == pytest.approx(50.5, rel=1e-12)
    # position (n-1)*alpha: (99)(0.1) = 9.9 -> 10.9 after the 1-based offset
    assert q[0] == pytest.approx(10.9, rel=1e-12)


def test_empirical_quantiles_duplication_invariant():
    xs = np.arange(1.0, 101.0)
    once = empirical_quantiles(xs, DEFAULT_LEVELS)
    twice = empirical_quantiles(np.concatenate([xs, xs]), DEFAULT_LEVELS)
    for a, b in zip(once, twice):
        assert b == pytest.approx(a, abs=1e-12)


def test_empirical_quantiles_reject_empty():
    with pytest.raises(EmptySampleSet):
        empirical_quantiles([], DEFAULT_LEVELS)


_EDGE_LEVELS = (5e-324, 1e-300, 1e-16, 1e-9, 1.0 - 1e-9, 1.0 - 1e-16, 1.0 - 2.0**-53)


@st.composite
def _samples(draw):
    """Sample sets of size 1, 2, small or 1500: spread, with ties, or constant."""
    n = draw(st.sampled_from((1, 2, 3, 5, 17, 1500)))
    kind = draw(st.sampled_from(("spread", "ties", "constant")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    value = st.floats(-1e6, 1e6, allow_nan=False)
    if kind == "constant":
        return np.full(n, draw(value))
    if kind == "ties":
        return rng.choice(draw(st.lists(value, min_size=1, max_size=4)), size=n)
    return rng.normal(draw(value), 10.0 ** draw(st.integers(-8, 6)), size=n)


@st.composite
def _levels(draw):
    """Strictly increasing grids in (0, 1), with levels next to 0 and 1, with
    or without 0.5."""
    inner = draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), max_size=8))
    edges = draw(st.lists(st.sampled_from(_EDGE_LEVELS), max_size=3))
    levels = set(inner) | set(edges)
    if draw(st.booleans()):
        levels.add(0.5)
    else:
        levels.discard(0.5)
    return tuple(sorted(levels)) or (0.5,)


@given(_samples(), _levels())
@settings(max_examples=300, deadline=None)
@example(np.array([2.0]), (5e-324, 0.5, 1.0 - 2.0**-53))
@example(np.array([1.0, 3.0]), (0.25, 0.75))
@example(np.full(1500, -4.25), (1e-16, 0.1, 0.9))
def test_empirical_quantiles_equal_numpys_linear_quantile_bit_for_bit(xs, levels):
    got = empirical_quantiles(xs, levels)
    want = np.quantile(xs, np.array(levels))
    # Among tied zeros, sort and numpy's partition may leave -0.0 and 0.0 in
    # different places, so the sign of a zero is not compared; every other
    # bit is.
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


@given(_samples(), _levels(), st.booleans())
@settings(max_examples=100, deadline=None)
# 1499 samples: a size no run draws, in reverse order.
@example(np.arange(1499.0)[::-1].copy(), DEFAULT_LEVELS.levels, False)
@example(np.array([0.0, -0.0, 0.0]), (0.25, 0.5), True)
def test_empirical_quantiles_leave_their_samples_untouched(xs, levels, as_list):
    samples = xs.tolist() if as_list else xs
    before = np.array(samples).tobytes()
    want = np.quantile(xs, np.array(levels))
    # With the cache cleared, the first call works out its positions afresh
    # and the second reads them from the cache.
    _type7_positions.cache_clear()
    for _ in range(2):
        got = empirical_quantiles(samples, levels)
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
        assert np.array(samples).tobytes() == before


def test_empirical_quantiles_leave_the_samples_unsorted():
    xs = np.array([3.0, 1.0, 2.0])
    assert empirical_quantiles(xs, (0.5,)).tolist() == [2.0]
    assert xs.tolist() == [3.0, 1.0, 2.0]


@pytest.mark.parametrize(
    "levels",
    [(), (-0.25,), (0.5, 1.25), (float("nan"),), (0.5, float("inf")), ((0.1, 0.9),)],
)
def test_empirical_quantiles_reject_levels_outside_the_unit_interval(levels):
    with pytest.raises(ValueError):
        empirical_quantiles([1.0, 2.0, 3.0], levels)


def test_empirical_quantiles_accept_the_closed_interval_ends():
    assert empirical_quantiles([3.0, 1.0, 2.0], (0.0, 1.0)).tolist() == [1.0, 3.0]
    assert empirical_quantiles([7.0], (0.0, 1.0)).tolist() == [7.0, 7.0]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_empirical_quantiles_reject_non_finite_samples(bad):
    with pytest.raises(NonFinite):
        empirical_quantiles([1.0, bad, 2.0], DEFAULT_LEVELS)


@given(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=40),
)
@settings(max_examples=150)
def test_empirical_quantiles_always_monotone(xs):
    q = empirical_quantiles(xs, DEFAULT_LEVELS)
    assert all(b >= a for a, b in zip(q, q[1:]))


def test_round_trip_smooth_forecast():
    mu, sigma = 10.0, 2.0
    z = np.array([-1.2816, -0.8416, -0.5244, -0.2533, 0.0, 0.2533, 0.5244, 0.8416, 1.2816])
    values = tuple(mu + sigma * zi for zi in z)
    icdf = _fit(values)
    draws = icdf(RandomStreams(3).generator().random(200_000))
    back = empirical_quantiles(draws, DEFAULT_LEVELS)
    scale = values[-1] - values[0]
    tol = max(1e-2, 1e-2 * scale)
    for want, got in zip(values, back):
        assert abs(got - want) <= tol


def test_single_level_grid_fits_a_constant():
    one = QuantileLevels((0.5,))
    icdf = _fit((4.2,), one)
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


def test_numpy_integer_components_key_like_ints():
    root = RandomStreams(0)
    assert root.child(np.int64(3)).path == (3,)
    for value in (0, 7, 2**40, -7):
        assert root.child(np.int64(value)).path == root.child(value).path
    assert root.child(np.uint64(2**64 - 1)).path == root.child(2**64 - 1).path
    assert root.child(np.uint8(5), np.int32(-1)).path == root.child(5, -1).path
    for flag in (True, np.True_, np.bool_(False)):
        with pytest.raises(TypeError):
            root.child(flag)


_EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, -1)
# One-word (below 2**32, 0 included) and two-word integers, negative ones
# (masked to 64 bits) and strings, so word-count groups mix.
_COMPONENTS = (
    st.sampled_from((0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1))
    | st.integers(0, 2**32 - 1)
    | st.integers(2**32, 2**64 - 1)
    | st.integers(-(2**63), -1)
    | st.text(max_size=3)
)


def _seed_sequence_key(node):
    entropy = (node.seed & 0xFFFFFFFFFFFFFFFF,) + node.path
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


def _with_edge_examples(test):
    # Every edge seed, under an empty (one-word) prefix and the prefix
    # run_arbitration uses, with row 0, two-word rows and one- and two-word
    # leaves mixed.
    rows, leaves = [0, 2**32, 5, 2**40 + 3], ["a", 3, 2**32 + 1, "model_b", 0]
    for seed in _EDGE_SEEDS:
        for prefix in ([], ["series", "s1", "t"]):
            test = example(seed=seed, prefix=prefix, rows=rows, leaves=leaves)(test)
    # Grids of a real run's size, 40 steps by 16 models: as run_arbitration
    # keys them, and with two-word rows and one-word leaves among them.
    steps, names = list(range(40)), [f"expert_{i:02d}" for i in range(16)]
    mixed_steps = steps[:20] + [2**32 + i for i in range(20)]
    mixed_names = names[:8] + list(range(8))
    for seed, prefix, rows, leaves in (
        (0, ["series", "s1", "t"], steps, names),
        (2**64 - 1, ["series", "s1", "t"], mixed_steps, mixed_names),
        (7, [], mixed_steps, names),
    ):
        test = example(seed=seed, prefix=prefix, rows=rows, leaves=leaves)(test)
    return test


@given(
    seed=st.sampled_from(_EDGE_SEEDS) | st.integers(-(2**70), 2**70),
    prefix=st.lists(_COMPONENTS, max_size=4),
    rows=st.lists(_COMPONENTS, max_size=4),
    leaves=st.lists(_COMPONENTS, max_size=4),
)
@_with_edge_examples
@settings(max_examples=150, deadline=None)
def test_grid_keys_match_seed_sequence(seed, prefix, rows, leaves):
    # Prefixes under four words hash row and leaf words into the first pool
    # words too.
    node = RandomStreams(seed).child(*prefix)
    keys = node.grid_keys(rows, leaves)
    assert keys.shape == (len(rows), len(leaves), 2) and keys.dtype == np.uint64
    for r, row in enumerate(rows):
        for i, leaf in enumerate(leaves):
            expected = _seed_sequence_key(node.child(row).child(leaf))
            assert keys[r, i].tolist() == expected.tolist()


def _assert_grid_keys_match(node, rows, leaves):
    keys = node.grid_keys(rows, leaves)
    assert keys.shape == (len(rows), len(leaves), 2) and keys.dtype == np.uint64
    for r, row in enumerate(rows):
        for i, leaf in enumerate(leaves):
            assert keys[r, i].tolist() == _seed_sequence_key(node.child(row).child(leaf)).tolist()


@pytest.mark.parametrize(
    "rows, leaves",
    [
        # Kept: a range of steps and a tuple of names, as every run keys them.
        (range(5), ("expert_00", "expert_01", "b")),
        (range(3, 40, 7), ("a",)),
        # Not kept: lists, numpy integers, a tuple holding an int.
        ([0, 1, 2], ["expert_00", "b"]),
        (np.arange(4), ("a", "b")),
        ([np.int64(2), np.uint32(9)], [np.int16(-1), 5]),
        (range(4), ("a", 3, "b")),
        # Mixed word counts: two-word steps, one-word leaves among names.
        ([0, 2**32 + 1, 5], ("a", "b")),
        (range(3), ["a", 7, 2**40, "expert_01"]),
    ],
)
def test_grid_keys_match_seed_sequence_for_kept_and_unkept_paths(rows, leaves):
    node = RandomStreams(5).child("series", "s1", "t")
    for _ in range(2):  # the second call reads what the first kept
        _assert_grid_keys_match(node, rows, leaves)


def test_hashed_names_kept_for_one_path_length_do_not_serve_another():
    # The same names tuple under paths of different word counts hashes at
    # different pool positions; each position has its own read-only entry.
    names = ("expert_00", "expert_01", "expert_02")
    prefixes = (["series", "s1", "t"], ["series", "s1", "t", "x"], ["series", 1, "t"],
                [2**40, 2**40, 2**40])
    nodes = [RandomStreams(0).child(*prefix) for prefix in prefixes]
    for node in nodes + nodes[::-1]:
        _assert_grid_keys_match(node, range(4), names)
    # Seed 0 is one word, 1 one and the other components two each, so the
    # names come after 8, 10, 7 and 8 words: those keys left three entries.
    hits = _hashed_words.cache_info().hits
    blocks = [_hashed(names, position) for position in (7, 8, 10)]
    assert _hashed_words.cache_info().hits == hits + 3
    assert all(block.flags.writeable is False for block in blocks)
    assert len({block.tobytes() for block in blocks}) == 3


def test_kept_key_words_are_bounded():
    # One cache of at most 256 entries, keyed by components and position;
    # it keeps a range of steps or a tuple of names, and nothing else.
    assert _hashed_words.cache_info().maxsize == 256
    kept = _hashed_words.cache_info().currsize
    node = RandomStreams(9).child(*range(2**32, 2**32 + 3))
    for rows, leaves in (([0, 1], ["bounded_a", "bounded_b"]), ((0, 1), ("bounded_a", 2**40))):
        _assert_grid_keys_match(node, rows, leaves)
        assert _hashed(rows, 6) is not _hashed(rows, 6)
        assert _hashed(leaves, 7) is not _hashed(leaves, 7)
    assert _hashed_words.cache_info().currsize == kept
    _assert_grid_keys_match(node, range(2), ("bounded_a", "bounded_b"))
    assert _hashed(range(2), 7) is _hashed(range(2), 7)
    assert _hashed(("bounded_a", "bounded_b"), 8) is _hashed(("bounded_a", "bounded_b"), 8)


def test_threads_keying_one_names_tuple_at_many_positions_get_their_own_keys():
    # Six threads key one names tuple under six path lengths, each a cache
    # entry of its own (names, position) pair, shared while the interpreter
    # switches threads every 10 us. Every key is still the SeedSequence key
    # of its own path, not that of another thread's position.
    names = ("threaded_a", "threaded_b", "threaded_c")
    nodes = [RandomStreams(3).child(*range(2**32, 2**32 + depth)) for depth in range(2, 8)]
    expected = [[[_seed_sequence_key(node.child(t).child(name)).tolist() for name in names]
                 for t in range(3)] for node in nodes]
    start = threading.Barrier(len(nodes))

    def keys(node):
        start.wait(timeout=60)
        return [node.grid_keys(range(3), names).tolist() for _ in range(40)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(nodes)) as pool:
            futures = [pool.submit(keys, node) for node in nodes]
            got = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [[want] * 40 for want in expected]


@pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 1500])
def test_reused_generator_draws_match_fresh_generators(count):
    # Counts 3 to 5 straddle Philox's four-word output buffer.
    node = RandomStreams(11).child("series", "s1", "t")
    rows, leaves = [0, 2**33], ["a", 2**40, 2]
    keys = node.grid_keys(rows, leaves)
    philox = KeyedPhilox()
    philox.generator.random(3)  # a reused generator is left mid-buffer
    buffer = np.full(count + 2, -1.0)
    for r, row in enumerate(rows):
        for i, leaf in enumerate(leaves):
            expected = node.child(row).child(leaf).generator().random(count)
            normals = node.child(row).child(leaf).generator().standard_normal(count)
            for key in (keys[r, i], keys[r, i].tolist()):
                drawn = philox.stream(key).random(out=buffer[1:count + 1])
                assert drawn.tobytes() == expected.tobytes()
                assert buffer[0] == buffer[-1] == -1.0  # only its slice is written
                assert philox.stream(key).standard_normal(count).tobytes() == normals.tobytes()


@pytest.mark.parametrize("counts", [(0, 3, 5), (4, 0, 0), (1500, 0, 1), (0, 0, 0)])
def test_fill_draws_each_streams_slice_as_fresh_generators_do(counts):
    # One call fills the buffer slice by slice, one keyed stream per count,
    # in order; a zero count takes no slice.
    node = RandomStreams(11).child("series", "s1", "t")
    leaves = ["a", 2**40, 2]
    keys = node.grid_keys([7], leaves)[0]
    expected = np.concatenate(
        [node.child(7).child(leaf).generator().random(c) for leaf, c in zip(leaves, counts)]
    )
    philox = KeyedPhilox()
    philox.generator.random(3)  # a reused generator is left mid-buffer
    for row in (keys, keys.tolist()):
        buffer = np.full(sum(counts) + 1, -1.0)
        assert philox.fill(row, counts, buffer) is buffer
        assert buffer[:-1].tobytes() == expected.tobytes()
        assert buffer[-1] == -1.0  # past the counts, nothing is written


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


def _sign_test_pchip_derivatives(h, m):
    """``_pchip_derivatives`` with SciPy's sign tests, as it was before the
    comparisons with zero, kept as the oracle for non-negative slopes."""
    if m.shape[1] == 1:
        return np.concatenate((m, m), axis=1)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    flat = (np.sign(m[:, 1:]) != np.sign(m[:, :-1])) | (m[:, 1:] == 0) | (m[:, :-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        whmean = (w1 / m[:, :-1] + w2 / m[:, 1:]) / (w1 + w2)
        interior = np.where(flat, 0.0, 1.0 / whmean)
    h0, h1 = h[[0, -1]][:, None], h[[1, -2]][:, None]
    m0, m1 = m[:, [0, -1]].T, m[:, [1, -2]].T
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flipped = np.sign(d) != np.sign(m0)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    first, last = np.where(flipped, 0.0, np.where(overshoot, 3.0 * m0, d))
    return np.concatenate((first[:, None], interior, last[:, None]), axis=1)


# Signed zeros, subnormals, slopes near 1e-300 and near overflow, and inf.
_EDGE_SLOPES = (0.0, -0.0, 5e-324, 1e-323, 2.2e-308, 1e-300, 1.0000000000000002e-300,
                0.5, 1.0, 1e300, 1.7e308, np.inf)


@st.composite
def _slope_blocks(draw):
    """Level gaps of a 2..8-level grid (one- and two-segment grids weighted
    up) and 1..4 rows of non-negative slopes; a zero slope is a tie."""
    k = draw(st.one_of(st.sampled_from((2, 3)), st.integers(2, 8)))
    ticks = draw(st.lists(st.integers(1, 999), min_size=k, max_size=k, unique=True))
    h = np.diff(np.array(sorted(ticks)) / 1000.0)
    slope = st.one_of(st.sampled_from(_EDGE_SLOPES), st.floats(0.0, 1e308))
    rows = draw(st.integers(1, 4))
    m = draw(st.lists(st.lists(slope, min_size=k - 1, max_size=k - 1), min_size=rows,
                      max_size=rows))
    return h, np.array(m)


@given(_slope_blocks())
# A subnormal end slope beside a flat segment, whose rounding trips the cap
# at three times the slope; -0.0 beside +0.0 and beside inf.
@example((np.array([0.221, 0.059]), np.array([[5e-324, 0.0]])))
@example((np.array([0.1, 0.2, 0.3]), np.array([[-0.0, 0.0, np.inf], [np.inf, -0.0, 1.0]])))
@settings(max_examples=400, deadline=None)
def test_pchip_derivatives_equal_the_sign_tests_bit_for_bit(case):
    h, m = case
    with np.errstate(all="ignore"):
        want = _sign_test_pchip_derivatives(h, m)
        got = _pchip_derivatives(m.T, _pchip_constants(h[:, None])).T
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (h, m, got, want)


def test_batched_kernel_mixes_rows_in_one_call():
    levels = np.asarray(DEFAULT_LEVELS.levels)
    rows = np.array([np.arange(9.0), 10.0 + 2.0 * np.arange(9.0), np.full(9, 3.0)])
    icdf = InverseCdf(levels, rows.reshape(3, 1, 9))
    p = np.array([0.05, 0.35, 0.5, 0.95, 0.35, 0.5])
    which = np.array([0, 1, 2, 0, 0, 1])
    got = icdf(p, which)
    for j in range(len(p)):
        assert got[j] == _scipy_inverse_cdf(levels, rows[which[j]], p[j : j + 1])[0]
    assert icdf(np.array([0.0, 1.0]), np.array([2, 2])).tolist() == [3.0, 3.0]


@st.composite
def _knot_rows(draw):
    """A 1..9-level grid and 1..5 rows of sorted knots, some changed into
    dips of one to four ulps (within MONOTONE_REL_TOL), ties or a pair of
    signed zeros."""
    k = draw(st.integers(1, 9))
    levels = np.arange(1, k + 1) / (k + 1)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row = sorted(draw(st.lists(st.floats(-1e6, 1e6) | st.sampled_from((0.0, -0.0)),
                                   min_size=k, max_size=k)))
        for j in range(1, k):
            move = draw(st.sampled_from(("keep", "keep", "keep", "dip", "tie", "zero")))
            if move == "dip":
                row[j] = np.nextafter(row[j - 1], -np.inf)
                for _ in range(draw(st.integers(0, 3))):
                    row[j] = np.nextafter(row[j], -np.inf)
            elif move == "tie":
                row[j] = row[j - 1]
            elif move == "zero":
                row[j - 1], row[j] = draw(st.sampled_from(((0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0))))
        rows.append(row)
    return levels, np.array(rows)


def _row_coef(icdf, r, k):
    return b"".join(c[r * (k + 1):(r + 1) * (k + 1)].tobytes() for c in icdf._coef)


@given(_knot_rows())
@example((np.array([0.25, 0.5, 0.75]), np.array([[1.0, 2.0, 3.0], [1.0, 0.9999999999999999, 3.0]])))
@example((np.array([0.25, 0.5, 0.75]), np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 0.0]])))
@settings(max_examples=300, deadline=None)
def test_fit_equals_a_fit_of_the_running_max_bit_for_bit(case):
    # The fit takes the running max only where a slope is not positive;
    # elsewhere the knots are their own running max. Each row fitted alone
    # (the clean ones skip the running max) and the whole block (which takes
    # it when any row dips or ties) equal a fit of the running max.
    levels, rows = case
    k = len(levels)
    reference = InverseCdf(levels, np.maximum.accumulate(rows, axis=-1))
    batch = InverseCdf(levels, rows)
    for got, want in zip(batch._coef, reference._coef):
        assert got.tobytes() == want.tobytes()
    for r, row in enumerate(rows):
        alone = InverseCdf(levels, row)
        assert _row_coef(alone, 0, k) == _row_coef(reference, r, k), row


def test_kernel_rejects_values_off_the_grid():
    with pytest.raises(DimensionMismatch):
        InverseCdf(np.asarray(DEFAULT_LEVELS.levels), np.zeros((2, 8)))


def _binary_search_inverse_cdf(icdf, p, rows):
    """``InverseCdf.__call__`` as it was before the bucket lookup, kept as an
    oracle: a binary search for each probability's piece, a gather of whole
    (s^3, s^2, s, 1) coefficient rows, and the same polynomial arithmetic."""
    levels = icdf.levels
    coef = np.stack(icdf._coef[::-1], axis=-1)
    base = np.concatenate((levels[:1], levels))
    pa = np.atleast_1d(np.asarray(p, dtype=float))
    piece = np.searchsorted(levels, pa, side="right")
    c = coef.take(np.asarray(rows, dtype=np.intp) * (len(levels) + 1) + piece, axis=0)
    s = pa - base[piece]
    s2 = s * s
    return c[:, 3] + c[:, 2] * s + c[:, 1] * s2 + c[:, 0] * (s2 * s)


@st.composite
def _lookup_grids(draw, edge_levels=_EDGE_LEVELS):
    """Sorted level grids: random ones in (0, 1), including levels from
    ``edge_levels`` next to 0 and 1, and clusters of levels 1e-9 apart that
    share one bucket."""
    if draw(st.booleans()):
        inner = draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=12))
        edges = draw(st.lists(st.sampled_from(edge_levels), max_size=3))
        return np.array(sorted(set(inner) | set(edges)))
    start = draw(st.floats(1e-3, 0.99))
    cluster = start + 1e-9 * np.arange(draw(st.integers(2, 9)))
    others = draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), max_size=4))
    return np.array(sorted(set(cluster.tolist()) | set(others)))


def _lookup_probes(levels, extra):
    """Every level and one ulp either side, the ends of [0, 1] and -0.0,
    subnormals, values just outside and far outside [0, 1], and ``extra``."""
    fixed = [0.0, -0.0, 1.0, 5e-324, 2.2e-308, -5e-324, -1e-300, -0.5, -3.0,
             1.0 + 2.0**-52, 1.5, 3.0, 1e100, -1e100]
    return np.concatenate(
        (levels, np.nextafter(levels, -np.inf), np.nextafter(levels, np.inf), fixed, extra)
    )


_HUGE_PROBES = [1e308, -1e308, np.inf, -np.inf]


@given(_lookup_grids(), st.lists(st.floats(allow_nan=False), max_size=20))
@settings(max_examples=300, deadline=None)
@example(np.array([0.25, 0.25 + 1e-9, 0.25 + 2e-9]), [])
@example(np.array(sorted(set(_EDGE_LEVELS))), [])
def test_bucket_lookup_equals_binary_search(levels, extra):
    icdf = InverseCdf(levels, np.zeros(len(levels)))
    p = _lookup_probes(levels, np.array(extra + _HUGE_PROBES))
    assert np.array_equal(icdf.pieces(p), np.searchsorted(levels, p, side="right"))


@given(
    # Without the levels 1e-300 apart, whose cubic coefficients overflow; no
    # QuantileLevels grid holds two levels that close.
    _lookup_grids(edge_levels=_EDGE_LEVELS[2:]),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(-1e100, 1e100, allow_nan=False), max_size=20),
)
@settings(max_examples=300, deadline=None)
def test_inverse_cdf_equals_the_binary_search_arithmetic_bit_for_bit(levels, n, seed, extra):
    rng = np.random.default_rng(seed)
    values = np.sort(rng.normal(0.0, 10.0, size=(n, len(levels))), axis=-1)
    values[rng.random(values.shape) < 0.3] = 0.0  # flat pieces and tied knots
    icdf = InverseCdf(levels, np.sort(values, axis=-1))
    p = np.append(_lookup_probes(levels, np.array(extra)), np.nan)
    rows = rng.integers(0, n, size=len(p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = icdf(p, rows)
        scalar = icdf(float(p[0]), int(rows[0]))
    want = _binary_search_inverse_cdf(icdf, p, rows)
    assert got.tobytes() == want.tobytes()
    assert np.float64(scalar).tobytes() == want[:1].tobytes()
    assert np.isnan(got[-1])


# The desk grid; three levels in one bucket of 16 beside a fourth; one level.
@pytest.mark.parametrize("levels", [DEFAULT_LEVELS.levels, (0.3, 0.305, 0.31, 0.8), (0.5,)])
def test_unclipped_evaluate_equals_call_bit_for_bit_on_the_unit_interval(levels):
    levels = np.asarray(levels)
    rng = np.random.default_rng(23)
    values = np.sort(rng.normal(0.0, 5.0, size=(3, len(levels))), axis=-1)
    values[0, : len(levels) // 2] = 0.0  # a flat piece
    icdf = InverseCdf(levels, values)
    if len(levels) == 4:
        assert len(set((levels[:3] * icdf._scale).astype(int))) == 1
        assert len(icdf._thresholds) == 3
    # Both ends, every level and one ulp either side, the smallest subnormal,
    # the largest double below 1, and Philox-like draws.
    p = np.concatenate((
        [0.0, 1.0, 5e-324, 1.0 - 2.0**-53],
        levels, np.nextafter(levels, 0.0), np.nextafter(levels, 1.0),
        rng.random(500),
    ))
    rows = rng.integers(0, 3, size=len(p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = icdf.evaluate(p, icdf.offsets(rows))
    assert got.tobytes() == icdf(p, rows).tobytes()


def test_fits_on_one_grid_share_one_read_only_bucket_table():
    levels = np.asarray(DEFAULT_LEVELS.levels)
    a = InverseCdf(levels, np.arange(9.0))
    b = InverseCdf(levels.copy(), np.arange(18.0).reshape(2, 9))
    assert a._scale == b._scale == 64.0
    assert a._below is b._below and a._thresholds is b._thresholds
    # The piece bases, the level gaps and the PCHIP constants come from the
    # same per-grid entry, built once.
    grid = _grid(levels.tobytes())
    assert grid is _grid(levels.copy().tobytes())
    assert a._base is b._base is grid.base
    assert grid.h.ravel().tolist() == np.diff(levels).tolist()
    h = np.diff(levels)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    assert [c.ravel().tolist() for c in grid.pchip[:3]] == [
        w1.tolist(), w2.tolist(), (w1 + w2).tolist()]
    for array in (a._below, a._thresholds, grid.base, grid.h, *grid.pchip):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # A grid one level away has its own table, and fitting it leaves the
    # first grid's fits as they were.
    p = np.linspace(0.0, 1.0, 257)
    before = a(p)
    moved = levels.copy()
    moved[4] = 0.55
    c = InverseCdf(moved, np.arange(9.0))
    assert c._thresholds is not a._thresholds and c._below is not a._below
    moved_grid = _grid(moved.tobytes())
    assert moved_grid.pchip[0] is not grid.pchip[0]
    assert moved_grid.pchip[0].tobytes() != grid.pchip[0].tobytes()
    assert not np.array_equal(c._thresholds, a._thresholds, equal_nan=True)
    assert a(p).tobytes() == before.tobytes()
    assert a(p).tobytes() == _binary_search_inverse_cdf(a, p, np.zeros(len(p), int)).tobytes()
    assert c(p).tobytes() == _binary_search_inverse_cdf(c, p, np.zeros(len(p), int)).tobytes()


def test_bucket_table_grows_with_the_grid():
    # 2**e buckets, the smallest power of two at least max(16, 4K), plus one
    # for probability 1; a grid that fits one level per bucket needs one row
    # of thresholds, and a cluster in one bucket needs a row per level.
    assert InverseCdf(np.array([0.5]), np.zeros(1))._thresholds.shape == (1, 17)
    spread = InverseCdf(np.asarray(DEFAULT_LEVELS.levels), np.zeros(9))
    assert spread._thresholds.shape == (1, 65)
    cluster = InverseCdf(0.3 + 1e-9 * np.arange(5), np.zeros(5))
    assert cluster._thresholds.shape == (5, 33)
