"""Continuous inverse CDFs from discrete quantiles, and sampling machinery.

A forecast's K quantile points are turned into a continuous, monotone quantile
function: a shape-preserving cubic through the knots on the interior level
range, continued linearly beyond the outermost knots using the adjacent
segment slopes. Inverse-transform draws from that function feed the pooled
empirical quantiles used by arbitration.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptySampleSet, NonFinite


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

    Finding each probability's piece is a table lookup, not a binary search.
    [0, 1] is cut into 2**e equal buckets (the smallest power of two at least
    ``max(16, 4K)``); the table holds how many levels lie below each bucket
    and, as rows of thresholds padded with NaN, the levels inside it. A
    probability's piece is its bucket's count plus how many of its bucket's
    thresholds it reaches: ``searchsorted(levels, p, "right")`` for every
    ``p`` but NaN, in a fixed number of array operations. On fresh random
    probabilities every branch of a binary search is a coin flip the CPU
    mispredicts, so the branch-free lookup is about three times faster there
    (Khuong & Morin 2017). Several levels in one bucket only add threshold
    rows, so every grid takes the same path.
    """

    __slots__ = ("levels", "_base", "_coef", "_scale", "_below", "_thresholds")

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
        y = values.reshape(-1, len(levels))
        zero = np.zeros(len(y))
        if len(levels) >= 2:
            h = np.diff(levels)
            m = np.diff(y, axis=1) / h  # non-negative after the running max
            lo_slope, hi_slope = m[:, 0], m[:, -1]
            d = _pchip_derivatives(h, m)
            # Hermite form in scipy's CubicHermiteSpline arithmetic.
            t = (d[:, :-1] + d[:, 1:] - 2 * m) / h
            interior = (y[:, :-1], d[:, :-1], (m - d[:, :-1]) / h - t, t / h)
        else:
            lo_slope = hi_slope = zero
            interior = (np.empty((len(y), 0)),) * 4
        # Coefficients (1, s, s^2, s^3) of K + 1 pieces per forecast, one
        # contiguous array per power: the lower tail, the K - 1 segments, the
        # upper tail. Piece j covers levels[j-1] <= p < levels[j] and starts
        # at _base[j]; the tails are lines, so their cubic terms are zero.
        tails = ((y[:, 0], y[:, -1]), (lo_slope, hi_slope), (zero, zero), (zero, zero))
        self._coef = tuple(
            np.concatenate((lo[:, None], mid, hi[:, None]), axis=1).ravel()
            for (lo, hi), mid in zip(tails, interior)
        )
        self._base = np.concatenate((levels[:1], levels))
        self._scale, self._below, self._thresholds = _bucket_table(levels.tobytes())

    def pieces(self, p: np.ndarray) -> np.ndarray:
        """Piece of each probability in a 1-D float array: the number of
        levels at or below it, ``searchsorted(levels, p, "right")``, for
        every ``p`` but NaN (NaN goes to piece 0, and evaluates to NaN)."""
        at = _buckets(p, self._scale)
        piece = self._below.take(at)
        for row in self._thresholds:
            piece += row.take(at) <= p
        return piece

    def offsets(self, rows: int | np.ndarray) -> np.ndarray:
        """Flat offsets of batch ``rows`` for :meth:`evaluate`."""
        return np.asarray(rows, dtype=np.intp) * (len(self.levels) + 1)

    def __call__(
        self, p: float | Sequence[float] | np.ndarray, rows: int | np.ndarray = 0
    ) -> float | np.ndarray:
        """Evaluate at probabilities ``p``; ``rows`` picks each probability's
        forecast by flat index into the batch (0 for a single forecast)."""
        out = self.evaluate(np.atleast_1d(np.asarray(p, dtype=float)), self.offsets(rows))
        return float(out[0]) if np.ndim(p) == 0 else out

    def evaluate(self, p: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Evaluate a 1-D float array ``p``, probability i against the
        forecast at flat offset ``offsets[i]`` (see :meth:`offsets`;
        ``offsets`` broadcasts against ``p``)."""
        piece = self.pieces(p)
        # take, not fancy indexing: numpy gathers far faster so.
        index = offsets + piece
        c0, c1, c2, c3 = (c.take(index) for c in self._coef)
        s = p - self._base.take(piece)
        s2 = s * s
        # scipy's evaluate_poly1 order, c0 + c1*s + c2*s2 + c3*(s2*s): powers
        # of s accumulated by repeated multiplication. Computed in place;
        # IEEE addition and multiplication commute exactly, so the bits are
        # the same. On the tails the zero cubic terms add signed zeros,
        # leaving y + slope * s unchanged.
        out = np.multiply(c1, s, out=c1)
        out += c0
        out += np.multiply(c2, s2, out=c2)
        out += np.multiply(c3, np.multiply(s2, s, out=s), out=c3)
        return out


def _buckets(p: np.ndarray, scale: float) -> np.ndarray:
    """floor(clip(p, 0, 1) * scale) for a power-of-two ``scale``: fmax and
    fmin send NaN to bucket 0 without a warning, and the scaling is exact."""
    x = np.fmax(p, 0.0)
    np.fmin(x, 1.0, out=x)
    x *= scale
    return x.astype(np.intp)


@functools.lru_cache(maxsize=64)
def _bucket_table(levels: bytes) -> tuple[float, np.ndarray, np.ndarray]:
    """Bucket count, levels below each bucket and thresholds inside each
    (see :class:`InverseCdf`) of a level grid given as float64 bytes; the
    arrays are read-only, shared by every fit on the grid."""
    levels = np.frombuffer(levels)
    size = max(16, 1 << (4 * len(levels) - 1).bit_length())  # a power of two >= 4K
    # Bucket `size` holds probability 1, and every level at or above it.
    at = _buckets(levels, float(size))
    below = np.concatenate(([0], np.cumsum(np.bincount(at, minlength=size + 1))))
    below = below[:-1].astype(np.intp)
    rank = np.arange(len(levels)) - below[at]
    thresholds = np.full((int(rank.max(initial=0)) + 1, size + 1), np.nan)
    thresholds[rank, at] = levels
    below.setflags(write=False)
    thresholds.setflags(write=False)
    return float(size), below, thresholds


def _pchip_derivatives(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Knot derivatives of every row of segment slopes ``m`` (rows x K-1).

    The slopes come after a running max, so none is negative: SciPy's sign
    tests reduce to comparisons with zero, with the same bits.
    """
    if m.shape[1] == 1:
        return np.concatenate((m, m), axis=1)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    # Weighted harmonic mean of neighbouring slopes. A zero slope divides to
    # inf and a near-zero one overflows to inf, so the mean is inf and the
    # derivative the correct zero; ``+ 0.0`` turns -0.0 into +0.0, which
    # would otherwise divide to -inf and meet +inf as NaN.
    pos = m + 0.0
    with np.errstate(divide="ignore", over="ignore"):
        interior = 1.0 / ((w1 / pos[:, :-1] + w2 / pos[:, 1:]) / (w1 + w2))
    # One-sided three-point end derivatives, limited to preserve shape: the
    # first knot's row from the first two segments, the last's from the
    # last two. A negative (or NaN) one is zeroed; beside a flat neighbouring
    # segment one is capped at three times the end slope.
    h0, h1 = h[[0, -1]][:, None], h[[1, -2]][:, None]
    m0, m1 = m[:, [0, -1]].T, m[:, [1, -2]].T
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    overshoot = (m1 == 0) & (d > 3.0 * m0)
    first, last = np.where(d >= 0, np.where(overshoot, 3.0 * m0, d), 0.0)
    return np.concatenate((first[:, None], interior, last[:, None]), axis=1)


@functools.lru_cache(maxsize=64)
def _type7_positions(levels: tuple[float, ...], n: int) -> tuple[np.ndarray, ...]:
    """Where each level reads ``n`` sorted samples under the linear estimator.

    Returns the lower and upper sorted indices, the interpolation weight, its
    complement, and where the weight is at least one half: numpy's ``linear``
    method (Hyndman & Fan 1996, type 7) step by step, virtual index
    ``(n - 1) * level`` included, so the result matches ``np.quantile`` bit
    for bit. The arrays are read-only; they are shared by every call with the
    same levels and sample size. Levels must be a non-empty set of finite
    values in [0, 1]; any other would read past the ends of the sample.
    """
    probs = np.asarray(levels, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("empirical quantiles need at least one level")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):  # NaN fails both
        raise ValueError(f"quantile levels must lie in [0, 1], got {levels}")
    virtual = (n - 1) * probs
    lower = np.floor(virtual)
    upper = lower + 1
    at_top = virtual >= n - 1
    lower[at_top] = upper[at_top] = -1
    gamma = virtual - lower
    out = (lower.astype(np.intp), upper.astype(np.intp), gamma, 1 - gamma, gamma >= 0.5)
    for a in out:
        a.setflags(write=False)
    return out


def empirical_quantiles(
    samples: Sequence[float] | np.ndarray,
    levels: Sequence[float],
) -> np.ndarray:
    """Empirical quantiles of a pooled sample set at the given levels.

    The sorted-sample linear-interpolation estimator at position
    ``(n - 1) * alpha``, as ``np.quantile``'s default and bit for bit equal
    to it, save the sign of a zero among tied zeros: one sort, then a gather
    and a lerp at positions fixed by ``n`` and ``levels``. Values are
    monotone in level. ``samples`` is left as it is. Non-finite samples raise
    :class:`NonFinite`; levels that are not all in [0, 1] raise
    ``ValueError``.
    """
    xs = np.asarray(samples, dtype=float).ravel()
    if xs.size == 0:
        raise EmptySampleSet("cannot take quantiles of an empty sample set")
    xs = np.sort(xs)
    # NaN sorts last, so the two ends cover every non-finite sample.
    if not (math.isfinite(xs[0]) and math.isfinite(xs[-1])):
        raise NonFinite("samples contain non-finite values")
    lower, upper, gamma, complement, high = _type7_positions(tuple(levels), xs.size)
    a, b = xs[lower], xs[upper]
    diff = b - a
    # numpy's _lerp: from the lower neighbour below one half, else from the
    # upper one, so each end is exact.
    out = a + diff * gamma
    np.subtract(b, diff * complement, out=out, where=high)
    return out


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


@functools.lru_cache(maxsize=4096)
def _name_words(name: str) -> tuple[int, ...]:
    """Key words of a model name, which keys the streams of every panel."""
    return _words(_component_key(name))


def _words(key: int) -> tuple[int, ...]:
    """uint32 words of a 64-bit key, as SeedSequence splits an integer."""
    return (key,) if key <= _MASK32 else (key & _MASK32, key >> 32)


# numpy's SeedSequence entropy hash (pool of 4 uint32 words), continued past
# a shared path prefix on uint32 arrays, so the keys of many streams hash
# side by side. Products wrap mod 2**32, as the hash's do.
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@functools.lru_cache(maxsize=64)
def _hash_constants(first: int, count: int, init: int = _INIT_A, mult: int = _MULT_A):
    """Constants before and after hashmixes ``first`` to ``first + count - 1``,
    read-only uint32 arrays of shape (count // 4, 4, 1, 1). Each hashmix
    multiplies the constant by ``mult``, so they depend only on how many
    came before: once the pool is full, word ``p`` takes ``4p`` to ``4p + 3``."""
    consts = [init * pow(mult, first, 1 << 32) & _MASK32]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    arrays = tuple(np.array(c, dtype=np.uint32).reshape(-1, _POOL_SIZE, 1, 1)
                   for c in (consts[:-1], consts[1:]))
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _absorb(pool: np.ndarray, seen: int, words: np.ndarray) -> np.ndarray:
    """The (4, ...) pool after entropy ``words`` of shape (count, ...), hashed
    side by side; ``seen`` words, at least four, came before. Each pool word
    mixes in its own hash of each word, all hashed at once."""
    before, after = _hash_constants(_POOL_SIZE * seen, _POOL_SIZE * len(words))
    hashed = words[:, None] ^ before
    hashed *= after
    hashed ^= hashed >> 16
    hashed *= _MIX_MULT_R
    for h in hashed:
        pool = pool * _MIX_MULT_L - h
        pool ^= pool >> 16
    return pool


def _by_word_count(words: list[tuple[int, ...]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Positions of components by how many words their keys have, with each
    part's words as a (count, size) uint32 array."""
    parts = []
    for count in (1, 2):
        index = [i for i, w in enumerate(words) if len(w) == count]
        if index:
            parts.append((np.array(index), np.array([words[i] for i in index], dtype=np.uint32).T))
    return parts


class RandomStreams:
    """Deterministic tree of counter-based random streams.

    Each node is identified by a master seed plus a path of string/int keys;
    ``child`` extends the path and ``generator`` materializes an independent
    Philox stream; ``grid_keys`` derives the Philox keys of a whole grid of
    grandchildren at once, for :class:`KeyedPhilox`. Keying substreams by
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
        (Salmon et al. 2011). numpy hashes the shared path once; the row
        words then mix into a (4, rows, 1) pool array and the leaf words
        into a (4, rows, leaves) one. One- and two-word keys hash apart,
        since a word's constants depend on its position.
        """
        entropy = (self.seed & _MASK64,) + self.path
        seen = sum(len(_words(key)) for key in entropy)
        row_words = [_words(_component_key(c)) for c in rows]
        leaf_words = [_name_words(c) if isinstance(c, str) else _words(_component_key(c))
                      for c in leaves]
        if seen < _POOL_SIZE:  # row and leaf words would fill the pool: key each stream
            keys = [np.random.SeedSequence(entropy + r + i).generate_state(2, np.uint64)
                    for r in row_words for i in leaf_words]
            return np.array(keys, dtype=np.uint64).reshape(len(rows), len(leaves), 2)
        pool = np.random.SeedSequence(entropy).pool[:, None, None]
        # generate_state(2, np.uint64): output word j hashes pool word j.
        before, after = (c.ravel() for c in _hash_constants(0, _POOL_SIZE, _INIT_B, _MULT_B))
        row_parts, leaf_parts = _by_word_count(row_words), _by_word_count(leaf_words)
        out = np.empty((len(rows), len(leaves), 2), dtype=np.uint64)
        for row_index, row_part in row_parts:
            row_pool = _absorb(pool, seen, row_part[:, :, None])
            for leaf_index, leaf_part in leaf_parts:
                words = _absorb(row_pool, seen + len(row_part), leaf_part[:, None, :])
                # Output word j of key (r, i) at [r, i, j]; little-endian
                # pairs of them read as the two uint64 key words.
                key = np.bitwise_xor(words.transpose(1, 2, 0), before, order="C")
                key *= after
                key ^= key >> 16
                key = key.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
                if len(row_parts) == len(leaf_parts) == 1:
                    return key
                out[np.ix_(row_index, leaf_index)] = key
        return out


class KeyedPhilox:
    """One Philox generator, reset through one state dict to the first draw
    of any keyed stream: a run builds no generator or state per stream, and
    the draws equal a fresh ``RandomStreams.generator()``'s bit for bit."""

    __slots__ = ("generator", "_state", "_counter")

    def __init__(self) -> None:
        self.generator = np.random.Generator(np.random.Philox(0))
        # Counter zero and an empty buffer; tuples load faster than arrays.
        self._counter = {"counter": (0, 0, 0, 0), "key": (0, 0)}
        self._state = {"bit_generator": "Philox", "state": self._counter,
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def uniforms(self, key: Sequence[int] | np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with the first ``len(out)`` uniforms of the Philox
        stream with ``key`` and return it."""
        self._counter["key"] = key
        self.generator.bit_generator.state = self._state
        return self.generator.random(out=out)
