"""Continuous inverse CDFs from discrete quantiles, and sampling machinery.

A forecast's K quantile points are turned into a continuous, monotone quantile
function: a shape-preserving cubic through the knots on the interior level
range, continued linearly beyond the outermost knots using the adjacent
segment slopes. Inverse-transform draws from that function feed the pooled
empirical quantiles used by arbitration.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Sequence

import numpy as np

from .core import QuantileForecast, QuantileLevels
from .errors import DimensionMismatch, EmptySampleSet


class InverseCdf:
    """Monotone quantile functions of a batch of forecasts on one level grid.

    ``values`` holds one forecast (shape ``(K,)``) or a batch of them (shape
    ``(..., K)``). Each forecast's function interpolates every knot exactly
    and is non-decreasing on all of (0, 1): a PCHIP cubic between the outer
    levels, with derivatives from the Fritsch-Carlson rule (Fritsch & Carlson
    1980) and one-sided end slopes (Moler 2004), continued linearly beyond the
    outer levels with the adjacent segment slopes. The whole batch is fitted
    in one vectorized pass; evaluation takes a flat row index into the batch
    for every probability.
    """

    __slots__ = ("levels", "values", "_base", "_coef")

    def __init__(self, levels: np.ndarray, values: np.ndarray) -> None:
        levels = np.asarray(levels, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] != levels.shape:
            raise DimensionMismatch(
                f"values of shape {values.shape} do not end in {len(levels)} levels"
            )
        # Running max absorbs sub-tolerance float dips so the fit is always
        # fed non-decreasing knots.
        values = np.maximum.accumulate(values, axis=-1)
        self.levels = levels
        self.values = values
        y = values.reshape(-1, len(levels))
        zero = np.zeros(len(y))
        if len(levels) >= 2:
            h = np.diff(levels)
            m = np.diff(y, axis=1) / h  # non-negative after the running max
            lo_slope, hi_slope = m[:, 0], m[:, -1]
            d = _pchip_derivatives(h, m)
            # Hermite form in scipy's CubicHermiteSpline arithmetic.
            t = (d[:, :-1] + d[:, 1:] - 2 * m) / h
            interior = np.stack((t / h, (m - d[:, :-1]) / h - t, d[:, :-1], y[:, :-1]), axis=-1)
        else:
            lo_slope = hi_slope = zero
            interior = np.empty((len(y), 0, 4))
        # Cubic coefficients (s^3, s^2, s, 1) of K + 1 pieces per forecast:
        # the lower tail, the K - 1 segments, the upper tail. Piece j covers
        # levels[j-1] <= p < levels[j] and starts at _base[j]; the tails are
        # lines, so their cubic terms are zero.
        lower = np.stack((zero, zero, lo_slope, y[:, 0]), axis=-1)
        upper = np.stack((zero, zero, hi_slope, y[:, -1]), axis=-1)
        self._coef = np.concatenate(
            (lower[:, None], interior, upper[:, None]), axis=1
        ).reshape(-1, 4)
        self._base = np.concatenate((levels[:1], levels))

    def __call__(
        self, p: float | Sequence[float] | np.ndarray, rows: int | np.ndarray = 0
    ) -> float | np.ndarray:
        """Evaluate at probabilities ``p``; ``rows`` picks each probability's
        forecast by flat index into the batch (0 for a single forecast)."""
        scalar = np.ndim(p) == 0
        pa = np.atleast_1d(np.asarray(p, dtype=float))
        piece = np.searchsorted(self.levels, pa, side="right")
        c = self._coef[np.asarray(rows, dtype=np.intp) * (len(self.levels) + 1) + piece]
        s = pa - self._base[piece]
        s2 = s * s
        # scipy's evaluate_poly1 order: constant term first, powers of s
        # accumulated by repeated multiplication. On the tails the zero
        # cubic terms add signed zeros, leaving y + slope * s unchanged.
        out = c[:, 3] + c[:, 2] * s + c[:, 1] * s2 + c[:, 0] * (s2 * s)
        return float(out[0]) if scalar else out

    @property
    def support(self) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
        """Range of attainable values, [F^-1(0), F^-1(1)], per forecast."""
        pieces = self._coef.reshape(-1, len(self.levels) + 1, 4)
        low = pieces[:, 0, 3] - self.levels[0] * pieces[:, 0, 2]
        high = pieces[:, -1, 3] + (1.0 - self.levels[-1]) * pieces[:, -1, 2]
        shape = self.values.shape[:-1]
        if not shape:
            return float(low[0]), float(high[0])
        return low.reshape(shape), high.reshape(shape)


def _edge_derivative(h0: float, h1: float, m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """One-sided three-point end derivative, limited to preserve shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flipped = np.sign(d) != np.sign(m0)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(flipped, 0.0, np.where(overshoot, 3.0 * m0, d))


def _pchip_derivatives(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Knot derivatives of every row of segment slopes ``m`` (rows x K-1)."""
    if m.shape[1] == 1:
        return np.concatenate((m, m), axis=1)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    # Weighted harmonic mean of neighbouring slopes; zero where either slope
    # is zero or they differ in sign (tied knots divide by zero here, and
    # those entries are discarded). A near-zero slope overflows the mean to
    # inf, giving the correct zero derivative.
    flat = (np.sign(m[:, 1:]) != np.sign(m[:, :-1])) | (m[:, 1:] == 0) | (m[:, :-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        whmean = (w1 / m[:, :-1] + w2 / m[:, 1:]) / (w1 + w2)
        interior = np.where(flat, 0.0, 1.0 / whmean)
    first = _edge_derivative(h[0], h[1], m[:, 0], m[:, 1])
    last = _edge_derivative(h[-1], h[-2], m[:, -1], m[:, -2])
    return np.concatenate((first[:, None], interior, last[:, None]), axis=1)


def empirical_quantiles(
    samples: Sequence[float] | np.ndarray, levels: QuantileLevels
) -> QuantileForecast:
    """Empirical quantiles of a pooled sample set at the given levels.

    Uses the sorted-sample linear-interpolation estimator at position
    ``(n - 1) * alpha``; output values are monotone by construction.
    """
    xs = np.asarray(samples, dtype=float)
    if xs.size == 0:
        raise EmptySampleSet("cannot take quantiles of an empty sample set")
    q = np.quantile(xs, np.asarray(levels.levels))
    return QuantileForecast(levels, tuple(float(v) for v in q))


def _component_key(component: str | int) -> int:
    """Stable 64-bit key for one stream-path component.

    Integers, numpy's included, key by value; anything else by a hash of its
    string form.
    """
    if isinstance(component, (bool, np.bool_)):  # bool is an int subclass; keep it out
        raise TypeError("stream path components must be str or int")
    if not isinstance(component, str):
        try:
            return operator.index(component) & _MASK64
        except TypeError:
            pass
    digest = hashlib.blake2b(str(component).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# numpy's SeedSequence entropy hash (pool of 4 uint32 words), written out so
# the keys of many streams that share a path prefix hash side by side. Pool
# words are Python ints or uint64 arrays holding 32-bit values, so products
# of two words are exact and no fixed-width scalar can overflow.
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const: int):
    """One ``hashmix`` of ``value``; returns it with the advanced constant."""
    value = value ^ const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _mix_pool(pool: list, const: int) -> int:
    """Mix every pool word into every other one, in place."""
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    return const


def _schedule(const: int, mult: int) -> list[int]:
    """``const`` and its next ``_POOL_SIZE`` multiples by ``mult``, mod 2**32."""
    consts = [const]
    for _ in range(_POOL_SIZE):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _absorb(state: tuple, words) -> tuple:
    """Feed entropy words into a ``(pool, constant, words seen)`` hash state.

    The constant's schedule depends only on how many words came before, so a
    word may be an array of alternatives, hashed side by side.
    """
    pool, const, seen = state
    pool = list(pool)
    for word in words:
        if seen < _POOL_SIZE:
            pool[seen], const = _hashmix(word, const)
            if seen + 1 == _POOL_SIZE:
                const = _mix_pool(pool, const)
        elif isinstance(word, np.ndarray):
            # Each pool word mixes in its own hash of the new word, at the
            # next four constants: one array operation across the pool.
            consts = _schedule(const, _MULT_A)
            const = consts[-1]
            c = np.array(consts, dtype=np.uint64).reshape((-1,) + (1,) * word.ndim)
            hashed = (word ^ c[:-1]) * c[1:] & _MASK32
            pool = list(_mix(np.stack(np.broadcast_arrays(*pool)), hashed ^ hashed >> 16))
        else:
            for dst in range(_POOL_SIZE):
                hashed, const = _hashmix(word, const)
                pool[dst] = _mix(pool[dst], hashed)
        seen += 1
    return pool, const, seen


def _philox_key(state: tuple) -> tuple:
    """``generate_state(2, np.uint64)`` of a hash state: the Philox key as two
    uint64 arrays."""
    pool, const, seen = state
    if seen < _POOL_SIZE:  # entropy shorter than the pool is padded with zeros
        pool, const, seen = _absorb(state, [0] * (_POOL_SIZE - seen))
    words = np.stack(np.broadcast_arrays(*pool))
    c = np.array(_schedule(_INIT_B, _MULT_B), dtype=np.uint64).reshape(
        (-1,) + (1,) * (words.ndim - 1)
    )
    words = (words ^ c[:-1]) * c[1:] & _MASK32
    words ^= words >> 16
    return words[0] | words[1] << 32, words[2] | words[3] << 32


def _words(key: int) -> tuple[int, ...]:
    """uint32 words of a 64-bit key, as SeedSequence splits an integer."""
    return (key,) if key <= _MASK32 else (key & _MASK32, key >> 32)


def _word_groups(components) -> list[tuple[np.ndarray, np.ndarray]]:
    """Indices of ``components`` grouped by word count, with each group's
    words as a (count, group size) uint64 array."""
    groups: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for i, component in enumerate(components):
        words = _words(_component_key(component))
        groups.setdefault(len(words), []).append((i, words))
    return [
        (np.array([i for i, _ in group], dtype=np.intp),
         np.array([w for _, w in group], dtype=np.uint64).T)
        for group in groups.values()
    ]


class RandomStreams:
    """Deterministic tree of counter-based random streams.

    Each node is identified by a master seed plus a path of string/int keys;
    ``child`` extends the path and ``generator`` materializes an independent
    Philox stream; ``grid_keys`` derives the Philox keys of a whole grid of
    grandchildren at once, for ``philox_uniforms``. Keying substreams by
    names (not positions) is what makes arbitration permutation-equivariant
    bit-for-bit.
    """

    __slots__ = ("seed", "path")

    def __init__(self, seed: int, path: tuple[int, ...] = ()) -> None:
        self.seed = int(seed)
        self.path = tuple(path)

    def child(self, *components: str | int) -> "RandomStreams":
        return RandomStreams(
            self.seed, self.path + tuple(_component_key(c) for c in components)
        )

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence((self.seed & _MASK64,) + self.path)
        return np.random.Generator(np.random.Philox(seq))

    def grid_keys(self, rows: Sequence[str | int], leaves: Sequence[str | int]) -> np.ndarray:
        """Philox keys of every ``child(row).child(leaf)`` stream.

        Returns shape (len(rows), len(leaves), 2) uint64; entry ``[r, i]`` is
        the key ``child(rows[r]).child(leaves[i]).generator()`` seeds Philox
        with. Philox is counter-based, so the key fixes the whole stream
        (Salmon et al. 2011). The shared path is hashed once, then each row
        word across all rows, then each leaf word across rows and leaves.
        """
        prefix = [w for key in (self.seed & _MASK64,) + self.path for w in _words(key)]
        pool, const, seen = _absorb(([0] * _POOL_SIZE, _INIT_A, 0), prefix)
        # As (1, 1) arrays, the pool broadcasts over rows, then leaves.
        shared = ([np.full((1, 1), w, dtype=np.uint64) for w in pool], const, seen)
        leaf_groups = _word_groups(leaves)
        out = np.empty((len(rows), len(leaves), 2), dtype=np.uint64)
        for row_index, row_words in _word_groups(rows):
            row_state = _absorb(shared, row_words[:, :, None])
            for leaf_index, leaf_words in leaf_groups:
                key = _philox_key(_absorb(row_state, leaf_words[:, None, :]))
                out[np.ix_(row_index, leaf_index)] = np.stack(key, axis=-1)
        return out


def philox_uniforms(
    generator: np.random.Generator, key: Sequence[int] | np.ndarray, count: int
) -> np.ndarray:
    """The first ``count`` uniforms of the Philox stream with ``key``.

    ``generator`` wraps a Philox bit generator that is reset to the start of
    the keyed stream, so one generator serves any number of streams, and the
    draws equal those of a fresh ``RandomStreams.generator()`` bit for bit.
    """
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator.random(count)
