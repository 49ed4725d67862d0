"""Continuous inverse CDFs from discrete quantiles, and sampling machinery.

A forecast's K quantile points are turned into a continuous, monotone quantile
function: a shape-preserving cubic through the knots on the interior level
range, continued linearly beyond the outermost knots using the adjacent
segment slopes. Inverse-transform draws from that function feed the pooled
empirical quantiles used by arbitration.
"""

from __future__ import annotations

import hashlib
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


def fit_inverse_cdf(forecast: QuantileForecast) -> InverseCdf:
    """Fit the continuous inverse CDF of a validated quantile forecast."""
    return InverseCdf(np.asarray(forecast.levels.levels), np.asarray(forecast.values))


def sample(icdf: InverseCdf, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` inverse-transform samples from a single-forecast ``icdf``
    using the caller's random stream."""
    if n < 0:
        raise ValueError(f"sample count must be >= 0, got {n}")
    if n == 0:
        return np.empty(0, dtype=float)
    return icdf(rng.random(n))


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
    """Stable 64-bit key for one stream-path component."""
    if isinstance(component, bool):  # bool is an int subclass; keep it out
        raise TypeError("stream path components must be str or int")
    if isinstance(component, int):
        return component & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2b(str(component).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RandomStreams:
    """Deterministic tree of counter-based random streams.

    Each node is identified by a master seed plus a path of string/int keys;
    ``child`` extends the path and ``generator`` materializes an independent
    Philox stream. Keying substreams by names (not positions) is what makes
    arbitration permutation-equivariant bit-for-bit.
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
        seq = np.random.SeedSequence((self.seed & 0xFFFFFFFFFFFFFFFF,) + self.path)
        return np.random.Generator(np.random.Philox(seq))
