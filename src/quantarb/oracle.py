"""Hindsight best-model selection and ranking diagnostics.

The oracle picks, at every timestep, the model with the lowest CRPS against
the realized value. Its error curve is the floor any selection strategy could
reach; the gap between a method's implied model ranking and the oracle's
choices is measured as top-k selection accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .baselines import median_ensemble
from .core import ArbitrationTrace, ForecastPanel, quantile_at
from .errors import DimensionMismatch, EmptyGroup, Misalignment, NonFinite
from .metrics import crps_batch


@dataclass(frozen=True, eq=False)
class OracleTrace:
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
        n = len(self.model_names)
        try:
            matrix = np.array(self.crps_matrix, dtype=float)
        except ValueError:  # ragged rows
            matrix = None
        if matrix is None or matrix.ndim != 2 or matrix.shape[1] != n or n == 0:
            raise DimensionMismatch(f"CRPS matrix is not one row of {n} model scores per timestep")
        matrix.setflags(write=False)
        nan = np.isnan(matrix).any(axis=1)
        if nan.any():
            raise NonFinite(f"CRPS matrix has a NaN score at timestep {int(np.argmax(nan))}")
        object.__setattr__(self, "crps_matrix", matrix)
        object.__setattr__(self, "selections", tuple(matrix.argmin(axis=1).tolist()))

    def _args(self) -> tuple:
        return (self.series_id, self.model_names, self.crps_matrix)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OracleTrace):
            return NotImplemented
        mine, theirs = self._args(), other._args()
        return mine[:-1] == theirs[:-1] and np.array_equal(mine[-1], theirs[-1])

    def __reduce__(self):
        return OracleTrace, self._args()

    @property
    def horizon(self) -> int:
        return len(self.selections)

    @property
    def n_models(self) -> int:
        return len(self.model_names)

    @property
    def switch_count(self) -> int:
        return sum(a != b for a, b in zip(self.selections, self.selections[1:]))

    @property
    def switch_percentage(self) -> float:
        """Switches per comparison, as a fraction. A one-step trace has none."""
        if self.horizon < 2:
            return 0.0
        return self.switch_count / (self.horizon - 1)

    @property
    def per_timestep_crps(self) -> tuple[float, ...]:
        return tuple(self.crps_matrix[np.arange(self.horizon), self.selections].tolist())

    @property
    def crps(self) -> float:
        per = self.per_timestep_crps
        return math.fsum(per) / len(per)


def oracle_select(panel: ForecastPanel) -> OracleTrace:
    """Pick the per-timestep CRPS argmin against actuals; ties go to the lowest index."""
    return _oracle_trace(
        panel, crps_batch(panel.levels.levels, panel.values, panel.require_actuals())
    )


def _oracle_trace(panel: ForecastPanel, pool_crps: np.ndarray) -> OracleTrace:
    """The oracle trace of ``panel`` from its pool's (N, T) CRPS matrix."""
    return OracleTrace(panel.series_id, panel.model_names, pool_crps.T)


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


def weight_rankings(trace: ArbitrationTrace) -> tuple[tuple[int, ...], ...]:
    """Model indices per timestep, best first by weight; ties by index."""
    order = np.argsort(-trace.weights, axis=1, kind="stable")
    return tuple(map(tuple, order.tolist()))


def _closest_first(points: Sequence[float], target: float) -> tuple[int, ...]:
    dist = [abs(p - target) for p in points]
    return tuple(sorted(range(len(dist)), key=lambda i: (dist[i], i)))


def median_ensemble_rankings(panel: ForecastPanel) -> tuple[tuple[int, ...], ...]:
    """Per-timestep implicit rankings of the per-level median ensemble."""
    levels = panel.levels.levels
    points = quantile_at(levels, panel.values).T.tolist()
    targets = quantile_at(levels, median_ensemble(panel.values)).tolist()
    return tuple(_closest_first(p, target) for p, target in zip(points, targets))


def _topk_hits(
    method_rankings: Sequence[Sequence[int]], oracle_trace: OracleTrace, k: int
) -> int:
    """Timesteps where the oracle's pick is in the method's top k."""
    if not 1 <= k <= oracle_trace.n_models:
        raise ValueError(f"k must be in 1..{oracle_trace.n_models}, got {k}")
    if len(method_rankings) != oracle_trace.horizon:
        raise Misalignment(
            f"{len(method_rankings)} rankings for horizon {oracle_trace.horizon}"
        )
    return sum(
        pick in ranking[:k]
        for pick, ranking in zip(oracle_trace.selections, method_rankings)
    )


def topk_selection_accuracy(
    method_rankings: Sequence[Sequence[int]], oracle_trace: OracleTrace, k: int
) -> float:
    """Fraction of timesteps where the oracle's pick is in the method's top k."""
    return _topk_hits(method_rankings, oracle_trace, k) / oracle_trace.horizon


def suite_topk_accuracy(
    pairs: Sequence[tuple[Sequence[Sequence[int]], OracleTrace]],
    k: int,
    per_panel: bool = False,
) -> float:
    """Top-k accuracy over many panels.

    Default pools every timestep globally; ``per_panel=True`` averages each
    panel's own accuracy instead, which weights short and long horizons
    equally.
    """
    if not pairs:
        raise EmptyGroup("no panels to aggregate")
    if per_panel:
        accs = [topk_selection_accuracy(r, tr, k) for r, tr in pairs]
        return math.fsum(accs) / len(accs)
    hits = sum(_topk_hits(rankings, trace, k) for rankings, trace in pairs)
    return hits / sum(trace.horizon for _, trace in pairs)

