"""Hindsight best-model selection and ranking diagnostics.

The oracle picks, at every timestep, the model with the lowest CRPS against
the realized value. Its error curve is the floor any selection strategy could
reach; the gap between a method's implied model ranking and the oracle's
choices is measured as top-k agreement: the share of steps whose oracle pick
ranks among the method's k best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .baselines import median_ensemble
from .core import ForecastPanel, _frozen, _Record, quantile_at, require_type
from .errors import DimensionMismatch, EmptyGroup, NonFinite
from .metrics import crps_batch


@dataclass(frozen=True, eq=False)
class OracleTrace(_Record):
    """Per-timestep oracle selections plus the full CRPS matrix behind them.

    ``crps_matrix[t, i]`` is model ``i``'s CRPS at timestep ``t``: one
    read-only (T, N) float64 array. ``selections`` is derived from it: each
    row's argmin, ties going to the lowest index. A NaN entry is rejected.
    """

    series_id: str
    model_names: tuple[str, ...]
    crps_matrix: np.ndarray
    selections: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        sid, names = require_type(self.series_id, str, "series_id"), tuple(self.model_names)
        if not set(map(type, names)) <= {str}:  # a panel's plain names skip the per-name check
            names = tuple(require_type(name, str, f"oracle trace {sid!r}: model name")
                          for name in names)
        matrix, n = _frozen(self.crps_matrix, "CRPS matrix"), len(names)
        if matrix.ndim != 2 or matrix.shape[1] != n or n == 0:
            raise DimensionMismatch(f"CRPS matrix is not one row of {n} model scores per timestep")
        nan = np.isnan(matrix).any(axis=1)
        if nan.any():
            raise NonFinite(f"CRPS matrix has a NaN score at timestep {int(np.argmax(nan))}")
        for name, value in (("series_id", sid), ("model_names", names), ("crps_matrix", matrix),
                            ("selections", tuple(matrix.argmin(axis=1).tolist()))):
            object.__setattr__(self, name, value)

    @property
    def switch_count(self) -> int:
        return sum(a != b for a, b in zip(self.selections, self.selections[1:]))

    @property
    def switch_percentage(self) -> float:
        """Switches per comparison, as a fraction. A one-step trace has none."""
        steps = len(self.selections)
        return self.switch_count / (steps - 1) if steps > 1 else 0.0

    @property
    def crps(self) -> float:
        """Mean CRPS of the picked models, one per timestep."""
        picked = self.crps_matrix[np.arange(len(self.selections)), self.selections]
        return math.fsum(picked.tolist()) / len(picked)


def oracle_select(panel: ForecastPanel) -> OracleTrace:
    """Pick the per-timestep CRPS argmin against actuals; ties go to the
    lowest index."""
    crps = crps_batch(panel.levels.levels, panel.values, panel.require_actuals())
    return OracleTrace(panel.series_id, panel.model_names, crps.T)


def switching_stats(
    tagged_traces: Sequence[tuple[str, str, OracleTrace]],
) -> dict[tuple[str, str], float]:
    """Mean oracle switch percentage per (domain, horizon class) group."""
    if not tagged_traces:
        raise EmptyGroup("no oracle traces to group")
    groups: dict[tuple[str, str], list[float]] = {}
    for domain, horizon_class, trace in tagged_traces:
        groups.setdefault((domain, horizon_class), []).append(trace.switch_percentage)
    return {key: math.fsum(vals) / len(vals) for key, vals in sorted(groups.items())}


def median_distances(panel: ForecastPanel) -> np.ndarray:
    """(T, N) distance of each member's median from the median ensemble's at
    every step: the median ensemble's implicit ranking, nearest first."""
    levels = panel.levels.levels
    points = quantile_at(levels, panel.values).T
    targets = quantile_at(levels, median_ensemble(panel.values))
    return np.abs(points - targets[:, None])


def pick_ranks(scores: np.ndarray, picks: Sequence[int]) -> np.ndarray:
    """Position of each step's pick in that step's ascending ``scores`` row,
    ties going to the lower index: the count of models that score below the
    pick, or the same with a lower index. ``scores`` is (T, N), one pick per
    row; no row is sorted."""
    scores = np.asarray(scores, dtype=float)
    picks = np.asarray(picks, dtype=np.intp)
    if scores.ndim != 2 or picks.shape != scores.shape[:1]:
        raise DimensionMismatch(f"{picks.size} picks for a score matrix of shape {scores.shape}")
    if not ((0 <= picks) & (picks < scores.shape[1])).all():
        raise DimensionMismatch(f"a pick is not a model index below {scores.shape[1]}")
    mine = scores[np.arange(len(picks)), picks][:, None]
    before = np.arange(scores.shape[1]) < picks[:, None]
    return np.count_nonzero((scores < mine) | ((scores == mine) & before), axis=1)


def topk_agreement(ranks: np.ndarray, k_max: int) -> tuple[float, ...]:
    """Share of steps whose pick ranks among the top k, for k = 1..``k_max``."""
    if not len(ranks):
        raise EmptyGroup("no steps to pool")
    hits = np.cumsum(np.bincount(ranks, minlength=k_max))[:k_max]
    return tuple((hits / len(ranks)).tolist())
