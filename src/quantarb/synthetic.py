"""Deterministic regime-switching benchmark with complementary synthetic experts.

Ground truth is piecewise: level, trend, seasonality, or noise scale changes
at a break point placed inside the forecast horizon. Each expert is sharp and
well-centered in its favored regimes and biased-and-wide elsewhere, so which
model is best flips at the break. That gives arbitration something real to
adapt to while keeping every run seed-reproducible in milliseconds.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .core import (DEFAULT_LEVELS, ForecastPanel, QuantileLevels, _floats, _real_fields,
                   require_integer, require_type)
from .errors import LengthMismatch
from .panelio import PanelMetadata, TaggedPanel
from .quantiles import RandomStreams

DOMAINS = ("level_shift", "trend_break", "season_swap", "vol_burst")

#: Horizon class label and length, cycled across the suite.
HORIZON_CLASSES = (("short", 8), ("medium", 16), ("long", 32))

_FREQUENCY_BY_CLASS = {"short": "H", "medium": "D", "long": "W"}


@dataclass(frozen=True)
class Segment:
    """One homogeneous stretch of the ground-truth process."""

    length: int
    level: float
    trend: float = 0.0
    season_amplitude: float = 0.0
    season_period: int = 1
    noise_scale: float = 0.0

    def __post_init__(self) -> None:
        _real_fields(self, "level", "trend", "season_amplitude", "noise_scale")
        require_integer(self.length, "segment length", 1)
        require_integer(self.season_period, "season period", 1)
        if self.noise_scale < 0.0:
            raise ValueError(f"noise scale must be >= 0, got {self.noise_scale}")


@dataclass(frozen=True)
class RegimeSpec:
    """Segments covering the whole series plus the context/horizon split."""

    segments: tuple[Segment, ...]
    context_length: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("at least one segment is required")
        require_integer(self.context_length, "context length", 1)
        total = self.total_length
        if self.context_length >= total:
            raise ValueError(
                f"context length {self.context_length} must leave a non-empty "
                f"horizon within total length {total}"
            )

    @property
    def total_length(self) -> int:
        return sum(s.length for s in self.segments)

    @property
    def horizon(self) -> int:
        return self.total_length - self.context_length

    def regime_id_at(self, position: int) -> int:
        """Index of the segment containing the global series position."""
        if not 0 <= position < self.total_length:
            raise IndexError(f"position {position} outside series of length {self.total_length}")
        offset = 0
        for i, seg in enumerate(self.segments):
            offset += seg.length
            if position < offset:
                return i
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class SyntheticExpert:
    """A forecaster that is sharp in its favored regimes and degraded elsewhere.

    Outside favored regimes the emitted median shifts by ``bias`` and the
    spread widens by ``dispersion_inflation``. Regimes are named by segment
    index: non-negative integers, not bools.
    """

    name: str
    favored_regimes: tuple[int, ...]
    sharpness: float
    bias: float = 0.0
    dispersion_inflation: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", require_type(self.name, str, "expert name"))
        object.__setattr__(self, "favored_regimes", tuple(self.favored_regimes))
        for regime in self.favored_regimes:
            require_integer(regime, "a favored regime id", 0)
        _real_fields(self, "sharpness", "bias", "dispersion_inflation")
        if self.sharpness < 0.0:
            raise ValueError(f"sharpness must be >= 0, got {self.sharpness}")
        if not self.dispersion_inflation > 0.0:
            raise ValueError(f"dispersion inflation must be > 0, got {self.dispersion_inflation}")


def generate_series(spec: RegimeSpec, seed: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Realize the ground-truth process; returns (context, actuals).

    Value ``u`` steps into a segment, at global position ``p``, is
    ``((level + trend * u) + season) + noise_scale * noise[p]`` in float64,
    with ``season = season_amplitude * math.sin(2.0 * math.pi * (p % period)
    / period)``. Each segment evaluates ``math.sin`` once per distinct phase
    (at most ``season_period`` of them) and repeats that table: ``np.sin`` is
    not guaranteed to match libm to the last bit.
    """
    noise = RandomStreams(seed).child("series").generator().standard_normal(spec.total_length)
    parts = []
    start = 0
    for seg in spec.segments:
        period = seg.season_period
        phases = range(start, start + min(seg.length, period))
        season = np.resize([math.sin(2.0 * math.pi * (p % period) / period) for p in phases],
                           seg.length)
        u = np.arange(seg.length, dtype=float)
        parts.append(seg.level + seg.trend * u + seg.season_amplitude * season
                     + seg.noise_scale * noise[start:start + seg.length])
        start += seg.length
    values = np.concatenate(parts).tolist()
    split = spec.context_length
    return tuple(values[:split]), tuple(values[split:])


@functools.lru_cache(maxsize=16)
def _normal_quantiles(levels: tuple[float, ...]) -> np.ndarray:
    """Standard normal quantiles of a level grid, read-only and shared."""
    z = np.array([NormalDist().inv_cdf(a) for a in levels])
    z.setflags(write=False)
    return z


def _expert_values(experts: Sequence[SyntheticExpert], spec: RegimeSpec,
                   actuals: Sequence[float], seed: int, levels: QuantileLevels) -> np.ndarray:
    """:func:`expert_forecast` of each of ``experts`` as one (N, T, K) float64
    array. Each expert's jitter comes from its own stream,
    ``RandomStreams(seed).child("expert").child(name)``. The actuals are read
    by the number rule, and each must be finite."""
    if len(actuals) != spec.horizon:
        raise LengthMismatch(f"{len(actuals)} actuals for a horizon of {spec.horizon}")
    y = np.array(_floats(actuals, "actuals", sys.float_info.max, "horizon step"))
    node = RandomStreams(seed).child("expert")
    ends = np.cumsum([seg.length for seg in spec.segments])
    regime = np.searchsorted(ends, np.arange(spec.context_length, spec.total_length), "right")
    z = _normal_quantiles(levels.levels)
    values = np.empty((len(experts), len(y), len(z)))
    for expert, out in zip(experts, values):
        jitter = node.child(expert.name).generator().standard_normal(len(y))
        favored = np.array([i in expert.favored_regimes for i in range(len(ends))])[regime]
        sigma = np.where(favored, expert.sharpness,
                         expert.sharpness * expert.dispersion_inflation)
        mu = np.where(favored, y, y + expert.bias) + 0.1 * sigma * jitter
        np.add(mu[:, None], sigma[:, None] * z, out=out)
    return values


def expert_forecast(
    expert: SyntheticExpert,
    spec: RegimeSpec,
    actuals: Sequence[float],
    seed: int,
    levels: QuantileLevels = DEFAULT_LEVELS,
) -> tuple[tuple[float, ...], ...]:
    """The expert's T x K quantile matrix over the horizon.

    Gaussian-shaped rows ``mu + sigma * z_alpha``, monotone for any sigma >= 0.
    The center jitters mildly around the realized value in favored regimes and
    carries the expert's bias (plus inflated spread) elsewhere.

    In float64, step ``t`` has ``sigma = sharpness`` and
    ``mu = y + (0.1 * sigma) * jitter[t]`` in a favored regime, and otherwise
    ``sigma = sharpness * dispersion_inflation`` and
    ``mu = (y + bias) + (0.1 * sigma) * jitter[t]``; the row is
    ``mu + sigma * z`` with ``z`` the standard normal quantile of each level.
    A favored regime id at or above the spec's segment count favors no step,
    so the same expert can forecast a shorter history spec (as backtests do).
    """
    return tuple(map(tuple, _expert_values((expert,), spec, actuals, seed, levels)[0].tolist()))


def _panel_spec(domain: str, horizon: int, rng: np.random.Generator) -> RegimeSpec:
    """Draw a two-regime series layout with the break inside the horizon."""
    period = int(rng.choice((8, 12)))
    context_length = 3 * period
    pre_break = int(rng.integers(2, horizon // 2 + 1))
    len1 = context_length + pre_break
    len2 = horizon - pre_break
    # Levels sit well above the spread of any segment so the |y|-normalized
    # loss never divides by a near-zero observation.
    level = float(rng.uniform(15.0, 25.0))
    amp = float(rng.uniform(1.0, 2.5))
    noise = float(rng.uniform(0.8, 1.2))
    trend1 = 0.0
    trend2 = 0.0
    level2 = level
    amp2, period2, noise2 = amp, period, noise
    if domain == "level_shift":
        level2 = level + float(rng.choice((-1.0, 1.0))) * float(rng.uniform(3.0, 6.0))
    elif domain == "trend_break":
        trend1 = float(rng.choice((-1.0, 1.0))) * float(rng.uniform(0.05, 0.12))
        trend2 = -trend1 * float(rng.uniform(0.8, 1.5))
        level2 = level + trend1 * len1
    elif domain == "season_swap":
        amp2 = amp * float(rng.uniform(1.5, 2.2))
        period2 = 12 if period == 8 else 8
    elif domain == "vol_burst":
        noise2 = noise * float(rng.uniform(2.5, 4.0))
    else:
        raise ValueError(f"unknown domain {domain!r}")
    return RegimeSpec(
        segments=(
            Segment(len1, level, trend1, amp, period, noise),
            Segment(len2, level2, trend2, amp2, period2, noise2),
        ),
        context_length=context_length,
    )


def _panel_experts(
    n_experts: int, noise_ref: float, rng: np.random.Generator
) -> list[SyntheticExpert]:
    """Alternating regime specialists with a shared failure direction.

    Even-indexed experts favor the opening regime, odd-indexed ones the break
    regime, so at every timestep roughly half of any pool is sharp and half is
    badly dispersed. Out-of-regime biases share one drag direction per panel
    (a common structural blind spot), which is what pulls the per-level median
    ensemble off center. The drag is kept small relative to the out-of-regime
    spread: the pooled median then stays near the actual even while stale
    experts dominate the weights, so windowed scores pick up a regime break
    almost immediately instead of chasing the pool's own bias."""
    drag = float(rng.choice((-1.0, 1.0)))
    experts = []
    for i in range(n_experts):
        sharpness = noise_ref * float(rng.uniform(0.2, 0.4))
        inflation = float(rng.uniform(10.0, 14.0))
        bias = drag * float(rng.uniform(0.05, 0.15)) * sharpness * inflation
        experts.append(SyntheticExpert(name=f"expert_{i:02d}", favored_regimes=(i % 2,),
                                       sharpness=sharpness, bias=bias,
                                       dispersion_inflation=inflation))
    return experts


def build_benchmark_suite(
    n_panels: int,
    seed: int,
    n_experts: int | None = None,
    levels: QuantileLevels = DEFAULT_LEVELS,
) -> list[TaggedPanel]:
    """Deterministic suite of tagged panels cycling domains, horizon classes,
    and (unless pinned) pool sizes 2..6.

    Expert names are stable across panels, so pools can be subset by name for
    scaling sweeps.
    """
    if require_integer(n_panels, "n_panels") < 0:
        raise ValueError(f"n_panels must be >= 0, got {n_panels}")
    if n_experts is not None and require_integer(n_experts, "n_experts") < 1:
        raise ValueError(f"n_experts must be >= 1, got {n_experts}")
    root = RandomStreams(seed).child("bench")
    out = []
    for idx in range(n_panels):
        rng = root.child("panel", idx).generator()
        panel_seed = int(rng.integers(0, 2**63))
        domain = DOMAINS[idx % len(DOMAINS)]
        horizon_class, horizon = HORIZON_CLASSES[(idx // len(DOMAINS)) % len(HORIZON_CLASSES)]
        pool_size = n_experts if n_experts is not None else 2 + idx % 5
        spec = _panel_spec(domain, horizon, rng)
        noise_ref = spec.segments[0].noise_scale
        experts = _panel_experts(pool_size, noise_ref, rng)
        context, actuals = generate_series(spec, panel_seed)
        panel = ForecastPanel(
            series_id=f"synth-{idx:04d}",
            context=context,
            actuals=actuals,
            seasonality=spec.segments[0].season_period,
            model_names=tuple(e.name for e in experts),
            levels=levels,
            values=_expert_values(experts, spec, actuals, panel_seed, levels),
        )
        metadata = PanelMetadata(domain=domain, horizon_class=horizon_class,
                                 frequency=_FREQUENCY_BY_CLASS[horizon_class])
        out.append(TaggedPanel(panel=panel, metadata=metadata))
    return out
