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
import threading
from typing import NamedTuple, Sequence

import numpy as np

from .core import require_integer
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
        k = len(levels)
        if values.shape[-1:] != levels.shape:
            raise DimensionMismatch(
                f"values of shape {values.shape} do not end in {k} levels"
            )
        grid = _grid(levels.tobytes())
        self.levels = levels
        self._base, self._scale = grid.base, grid.scale
        self._below, self._thresholds = grid.below, grid.thresholds
        # The fit works on (K, rows) arrays, one column per forecast: each
        # operation then runs over whole contiguous rows, and the end knots
        # are plain slices. A running max absorbs sub-tolerance float dips so
        # the fit is always fed non-decreasing knots; knots whose every slope
        # is positive are their own running max, so it runs only where a
        # slope is not: a dip, a NaN, or a tie, whose signed zeros it may
        # rewrite.
        y = values.reshape(-1, k).T.copy()
        m = np.subtract(y[1:], y[:-1])
        if not (m > 0).all():
            y = np.maximum.accumulate(values.reshape(-1, k), axis=-1).T.copy()
            m = np.subtract(y[1:], y[:-1])
        # Coefficients (1, s, s^2, s^3) of K + 1 pieces per forecast, one
        # zeroed block with a row per power: the lower tail, the K - 1
        # segments, the upper tail. Piece j covers levels[j-1] <= p < levels[j]
        # and starts at _base[j]; the tails are lines, so their cubic terms
        # stay zero, as do the slopes of a one-level grid.
        block = np.zeros((4, y.shape[1], k + 1))
        c0, c1, c2, c3 = block.transpose(0, 2, 1)
        c0[0] = y[0]
        c0[1:] = y
        if k >= 2:
            h = grid.h
            m /= h  # non-negative after the running max
            d = _pchip_derivatives(m, grid.pchip)
            c1[0], c1[-1] = m[0], m[-1]
            c1[1:-1] = d[:-1]
            # Hermite form in scipy's CubicHermiteSpline arithmetic.
            t = np.add(d[:-1], d[1:])
            t -= 2 * m
            t /= h
            np.divide(t, h, out=c3[1:-1])
            mid = np.subtract(m, d[:-1], out=c2[1:-1])
            mid /= h
            mid -= t
        self._coef = tuple(block.reshape(4, -1))

    def pieces(self, p: np.ndarray) -> np.ndarray:
        """Piece of each probability in a 1-D float array: the number of
        levels at or below it, ``searchsorted(levels, p, "right")``, for
        every ``p`` but NaN (NaN goes to piece 0, and evaluates to NaN)."""
        return self._lookup(p, _buckets(p, self._scale))

    def _lookup(self, p: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Pieces of ``p`` whose buckets are ``at``: each bucket's count plus
        how many of its thresholds the probability reaches."""
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
        x = np.atleast_1d(np.asarray(p, dtype=float))
        out = self._at(x, self.offsets(rows), self.pieces(x))
        return float(out[0]) if np.ndim(p) == 0 else out

    def evaluate(self, p: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Evaluate a 1-D float array ``p`` of probabilities in [0, 1],
        probability i against the forecast at flat offset ``offsets[i]`` (see
        :meth:`offsets`; ``offsets`` broadcasts against ``p``).

        The buckets are not clipped: a ``p`` below -1/scale would read the
        bucket table from its end, and a NaN warns in the cast. Other
        probabilities go through ``__call__``, which clips, as :meth:`pieces`
        does, and gives the same values on [0, 1]."""
        return self._at(p, offsets, self._lookup(p, (p * self._scale).astype(np.intp)))

    def _at(self, p: np.ndarray, offsets: np.ndarray, piece: np.ndarray) -> np.ndarray:
        """The polynomial of each probability's ``piece`` at ``p``."""
        # take, not fancy indexing: numpy gathers far faster so.
        index = offsets + piece
        c0, c1, c2, c3 = self._coef
        c1, c2, c3 = c1.take(index), c2.take(index), c3.take(index)
        s = p - self._base.take(piece)
        s2 = s * s
        # scipy's evaluate_poly1 order, c0 + c1*s + c2*s2 + c3*(s2*s): powers
        # of s accumulated by repeated multiplication. Computed in place;
        # IEEE addition and multiplication commute exactly, so the bits are
        # the same. On the tails the zero cubic terms add signed zeros,
        # leaving y + slope * s unchanged.
        out = np.multiply(c1, s, out=c1)
        out += c0.take(index)
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


class _Grid(NamedTuple):
    """What every fit on one level grid shares: see :func:`_grid`."""

    scale: float
    below: np.ndarray
    thresholds: np.ndarray
    base: np.ndarray
    h: np.ndarray
    pchip: tuple[np.ndarray, ...] | None


@functools.lru_cache(maxsize=64)
def _grid(levels: bytes) -> _Grid:
    """What a fit needs of a level grid, given as float64 bytes, that depends
    on the grid alone: the bucket count, the levels below each bucket and the
    thresholds inside each (see :class:`InverseCdf`), each piece's base, the
    level gaps ``h`` as a (K - 1, 1) column and the PCHIP constants of
    :func:`_pchip_constants`. The arrays are read-only, shared by every fit
    on the grid."""
    levels = np.frombuffer(levels)
    size = max(16, 1 << (4 * len(levels) - 1).bit_length())  # a power of two >= 4K
    # Bucket `size` holds probability 1, and every level at or above it.
    at = _buckets(levels, float(size))
    below = np.concatenate(([0], np.cumsum(np.bincount(at, minlength=size + 1))))
    below = below[:-1].astype(np.intp)
    rank = np.arange(len(levels)) - below[at]
    thresholds = np.full((int(rank.max(initial=0)) + 1, size + 1), np.nan)
    thresholds[rank, at] = levels
    base = np.concatenate((levels[:1], levels))
    h = np.diff(levels)[:, None]
    for a in (below, thresholds, base, h):
        a.setflags(write=False)
    return _Grid(float(size), below, thresholds, base, h, _pchip_constants(h))


def _pchip_constants(h: np.ndarray) -> tuple[np.ndarray, ...] | None:
    """The terms of :func:`_pchip_derivatives` that depend only on the level
    gaps, a (K - 1, 1) column ``h``: the interior weights ``w1``, ``w2`` and
    ``w1 + w2``, then, from the end gaps ``h0`` (beside the end knot) and
    ``h1`` (next in), ``h0``, ``2*h0 + h1`` and ``h0 + h1``, first knot over
    last; and which slopes sit next in. All are read-only columns; ``None``
    below two gaps, where both derivatives are the one slope."""
    if len(h) < 2:
        return None
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    h0, h1 = h[[0, -1]], h[[1, -2]]
    out = (w1, w2, w1 + w2, h0, 2 * h0 + h1, h0 + h1, np.array([1, len(h) - 2]))
    for a in out:
        a.setflags(write=False)
    return out


def _pchip_derivatives(m: np.ndarray, constants: tuple[np.ndarray, ...] | None) -> np.ndarray:
    """Knot derivatives of segment slopes ``m`` (K-1 x rows, one forecast a
    column), given the grid's :func:`_pchip_constants`: K x rows.

    The slopes come after a running max, so none is negative: SciPy's sign
    tests reduce to comparisons with zero, with the same bits.
    """
    if constants is None:
        return np.concatenate((m, m))
    w1, w2, w12, h0, end_weight, end_gap, next_in = constants
    k = len(m) + 1
    d = np.empty((k, m.shape[1]))
    # Weighted harmonic mean of neighbouring slopes. A zero slope divides to
    # inf and a near-zero one overflows to inf, so the mean is inf and the
    # derivative the correct zero; ``+ 0.0`` turns -0.0 into +0.0, which
    # would otherwise divide to -inf and meet +inf as NaN.
    pos = m + 0.0
    with np.errstate(divide="ignore", over="ignore"):
        mean = np.divide(w1, pos[:-1])
        mean += np.divide(w2, pos[1:], out=pos[1:])
        mean /= w12
        np.divide(1.0, mean, out=d[1:-1])
    # One-sided three-point end derivatives, limited to preserve shape: the
    # first knot's from the first two segments, the last's from the last
    # two. A negative (or NaN) one is zeroed; beside a flat neighbouring
    # segment one is capped at three times the end slope.
    m0, m1 = m[::k - 2], m.take(next_in, axis=0)  # the end slopes and the next in
    end = end_weight * m0
    end -= h0 * m1
    end /= end_gap
    cap = 3.0 * m0
    overshoot = m1 == 0
    overshoot &= end > cap
    d[::k - 1] = np.where(end >= 0, np.where(overshoot, cap, end), 0.0)
    return d


@functools.lru_cache(maxsize=64)
def _type7_positions(levels: tuple[float, ...], n: int) -> tuple[np.ndarray, ...]:
    """Where each level reads ``n`` sorted samples under the linear estimator.

    Returns the lower and upper sorted indices, the index each value is
    interpolated from and the signed weight of the difference: numpy's
    ``linear`` method (Hyndman & Fan 1996, type 7) step by step, virtual
    index ``(n - 1) * level`` included, so the result matches ``np.quantile``
    bit for bit. The arrays are read-only; they are shared by every call
    with the same levels and sample size. Levels must be a non-empty set of
    finite values in [0, 1]; any other would read past the ends of the sample.
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
    lower, upper, high = lower.astype(np.intp), upper.astype(np.intp), gamma >= 0.5
    # numpy's _lerp: a + (b - a) * gamma below one half, else b - (b - a) * (1 - gamma),
    # so each end is exact; that is b + (b - a) * (gamma - 1), bit for bit.
    out = (lower, upper, np.where(high, upper, lower), np.where(high, gamma - 1, gamma))
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
    xs = np.array(samples, dtype=float).reshape(-1)  # one copy, sorted in place
    xs.sort()
    if xs.size == 0:
        raise EmptySampleSet("cannot take quantiles of an empty sample set")
    # NaN sorts last, so the two ends cover every non-finite sample.
    if not (math.isfinite(xs[0]) and math.isfinite(xs[-1])):
        raise NonFinite("samples contain non-finite values")
    lower, upper, base, weight = _type7_positions(tuple(levels), xs.size)
    a = xs.take(lower)
    out = np.subtract(xs.take(upper), a, out=a)
    out *= weight
    out += xs.take(base)
    return out


def _component_key(component: str | int) -> int:
    """Stable 64-bit key for one stream-path component.

    Integers, numpy's included, key by value; anything else by a hash of its
    string form.
    """
    if isinstance(component, (bool, np.bool_)):  # bool is an int subclass; keep it out
        raise TypeError("stream path components must be str or int")
    if isinstance(component, (int, np.integer)):
        return operator.index(component) & _MASK64
    digest = hashlib.blake2b(str(component).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _words(key: int) -> tuple[int, ...]:
    """uint32 words of a 64-bit key, as SeedSequence splits an integer."""
    return (key,) if key <= _MASK32 else (key & _MASK32, key >> 32)


# numpy's SeedSequence entropy hash (pool of 4 uint32 words), continued past
# a shared path prefix on uint32 arrays, so the keys of many streams hash
# side by side. Products wrap mod 2**32, as the hash's do; the mix constants
# are uint32 already, so no operation converts a Python int.
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _SHIFT = (
    np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


def _hash_constants(first: int, count: int, init: int = _INIT_A, mult: int = _MULT_A):
    """Constants before and after hashmixes ``first`` to ``first + count - 1``,
    uint32 arrays of shape (count // 4, 4, 1). Each hashmix multiplies the
    constant by ``mult``, so they depend only on how many came before: once
    the pool is full, word ``p`` takes ``4p`` to ``4p + 3``."""
    consts = [init * pow(mult, first, 1 << 32) & _MASK32]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return tuple(np.array(c, dtype=np.uint32).reshape(-1, _POOL_SIZE, 1)
                 for c in (consts[:-1], consts[1:]))


@functools.lru_cache(maxsize=256)
def _hashed_words(components: Sequence[str | int], position: int) -> np.ndarray | None:
    """Each pool word's hash of each of ``components``' key words, after
    ``position`` words, at least four: a read-only (words, 4, len) uint32
    array, or None when the components' word counts differ. It depends on the
    components and ``position`` alone, so it is kept for a range of steps or
    a tuple of names, what every run keys (see :func:`_hashed`)."""
    words = [_words(_component_key(c)) for c in components]
    if len({len(w) for w in words}) != 1:
        return None
    block = np.array(words, dtype=np.uint32).T
    before, after = _hash_constants(_POOL_SIZE * position, _POOL_SIZE * len(block))
    hashed = block[:, None] ^ before
    hashed *= after
    hashed ^= hashed >> _SHIFT
    hashed *= _MIX_MULT_R
    hashed.setflags(write=False)
    return hashed


def _hashed(components: Sequence[str | int], position: int) -> np.ndarray | None:
    """:func:`_hashed_words`, kept only for a range or a tuple of str: any
    other sequence is hashed afresh, since ``1``, ``1.0`` and ``True`` are
    equal cache keys but different components."""
    kept = isinstance(components, range) or (
        type(components) is tuple and all(type(c) is str for c in components))
    return (_hashed_words if kept else _hashed_words.__wrapped__)(components, position)


def _absorb(pool: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    """The (4, ...) pool after mixing in ``hashed`` words (see :func:`_hashed_words`),
    of shape (count, 4, ...), side by side."""
    for h in hashed:
        pool = pool * _MIX_MULT_L - h
        pool ^= pool >> _SHIFT
    return pool


#: The output hash of ``generate_state``, pool word j to output word j: the
#: constants before and after its hashmixes, as two read-only (4,) arrays.
_OUTPUT_HASH = tuple(
    c.reshape(_POOL_SIZE) for c in _hash_constants(0, _POOL_SIZE, _INIT_B, _MULT_B))


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
        self.seed = require_integer(seed, "seed")
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
        (Salmon et al. 2011). When the path has at least four words, every
        row key has one word count and every leaf key has one word count (a
        step index is one word, a model name almost always two), numpy hashes
        the shared path once; the row words then mix into a (4, rows, 1) pool
        array and the leaf words into a (4, rows, leaves) one. The hashed row
        and leaf words depend only on the words and on how many words came
        before, so one cache keeps them for a range of steps or a tuple of
        names (256 entries). Any other grid keys each stream on its own.
        """
        entropy = (self.seed & _MASK64,) + self.path
        words = [word for key in entropy for word in _words(key)]
        seen = len(words)
        # Side by side needs a full pool and one word count along each axis.
        rows_hashed = _hashed(rows, seen) if seen >= _POOL_SIZE else None
        leaves_hashed = None if rows_hashed is None else _hashed(leaves, seen + len(rows_hashed))
        if leaves_hashed is None:
            leaf_keys = [_component_key(i) for i in leaves]
            keys = [np.random.SeedSequence(entropy + (r, i)).generate_state(2, np.uint64)
                    for r in map(_component_key, rows) for i in leaf_keys]
            return np.array(keys, dtype=np.uint64).reshape(len(rows), len(leaves), 2)
        # The path's words as one uint32 array, which SeedSequence takes as
        # they are, where it would split each int of a tuple on its own.
        pool = np.random.SeedSequence(np.array(words, dtype=np.uint32)).pool[:, None, None]
        pool = _absorb(pool, rows_hashed[..., None])
        pool = _absorb(pool, leaves_hashed[:, :, None, :])
        # generate_state(2, np.uint64): output word j hashes pool word j, so
        # output word j of key (r, i) sits at [r, i, j]; little-endian pairs
        # of them read as the two uint64 key words.
        before, after = _OUTPUT_HASH
        key = np.bitwise_xor(pool.transpose(1, 2, 0), before, order="C")
        key *= after
        key ^= key >> _SHIFT
        return key.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


#: Per-thread state: the thread's KeyedPhilox.
_THREAD = threading.local()


class KeyedPhilox:
    """One Philox generator, reset through one state dict to the first draw
    of any keyed stream: a run builds no generator or state per stream, and
    the draws equal a fresh ``RandomStreams.generator()``'s bit for bit.
    Runs take their thread's one instance from :meth:`for_thread`."""

    __slots__ = ("generator", "_state", "_counter")

    def __init__(self) -> None:
        self.generator = np.random.Generator(np.random.Philox(0))
        # Counter zero and an empty buffer; tuples load faster than arrays.
        self._counter = {"counter": (0, 0, 0, 0), "key": (0, 0)}
        self._state = {"bit_generator": "Philox", "state": self._counter,
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    @staticmethod
    def for_thread() -> "KeyedPhilox":
        """The calling thread's instance, built on its first call. Each stream
        starts from a whole state set afresh, so every run on a thread can
        share one; threads never share one."""
        try:
            return _THREAD.philox
        except AttributeError:
            philox = _THREAD.philox = KeyedPhilox()
            return philox

    def fill(self, keys: Sequence, counts: Sequence[int], out: np.ndarray) -> np.ndarray:
        """``out`` filled from its start with the first ``counts[i]`` uniforms of
        the stream with ``keys[i]``, for each i in turn; zero counts are skipped.
        Each stream resets the generator to its first draw through the one
        state dict, with the lookups made once per call."""
        counter, state, end = self._counter, self._state, 0
        bit_generator, random = self.generator.bit_generator, self.generator.random
        for key, k in zip(keys, counts):
            if k:
                counter["key"] = key
                bit_generator.state = state
                random(out=out[end:end + k])
                end += k
        return out
