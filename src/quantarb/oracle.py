"""Hindsight best-model selection and ranking diagnostics.

The oracle picks, at every timestep, the model with the lowest CRPS against
the realized value. Its error curve is the floor any selection strategy could
reach; the gap between a method's implied model ranking and the oracle's
choices is measured as top-k selection accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .baselines import median_ensemble
from .core import ArbitrationTrace, ForecastPanel, quantile_at
from .errors import DimensionMismatch, EmptyGroup, Misalignment
from .metrics import crps_batch


@dataclass(frozen=True, eq=False)
class OracleTrace:
    """Per-timestep oracle selections plus the full CRPS matrix behind them.

    ``crps_matrix[t, i]`` is model ``i``'s CRPS at timestep ``t``: one
    read-only (T, N) float64 array, validated once, vectorized.
    """

    series_id: str
    model_names: tuple[str, ...]
    selections: tuple[int, ...]
    crps_matrix: np.ndarray

    def __post_init__(self) -> None:
        picks = tuple(map(int, self.selections))
        object.__setattr__(self, "selections", picks)
        shape = (len(picks), len(self.model_names))
        try:
            matrix = np.array(self.crps_matrix, dtype=float)
        except ValueError:  # ragged rows
            matrix = None
        if matrix is None or matrix.shape != shape:
            raise DimensionMismatch(
                f"CRPS matrix does not hold {shape[0]} timesteps x {shape[1]} models"
            )
        matrix.setflags(write=False)
        object.__setattr__(self, "crps_matrix", matrix)
        if picks and not (0 <= min(picks) and max(picks) < shape[1]):
            t = next(t for t, p in enumerate(picks) if not 0 <= p < shape[1])
            raise DimensionMismatch(f"selection {picks[t]} at timestep {t} out of range")
        at = np.array(picks, dtype=np.intp)
        off_min = matrix[np.arange(shape[0]), at] != matrix.min(axis=1, initial=np.inf)
        if off_min.any():
            t = int(np.argmax(off_min))
            raise DimensionMismatch(f"selection {picks[t]} at timestep {t} is not a CRPS argmin")

    def _args(self) -> tuple:
        return (self.series_id, self.model_names, self.selections, self.crps_matrix)

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
    def selection_frequencies(self) -> tuple[float, ...]:
        counts = [0] * self.n_models
        for pick in self.selections:
            counts[pick] += 1
        return tuple(c / self.horizon for c in counts)

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
        return tuple(row[p] for row, p in zip(self.crps_matrix.tolist(), self.selections))

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
    scores = pool_crps.T
    return OracleTrace(
        series_id=panel.series_id,
        model_names=panel.model_names,
        selections=tuple(scores.argmin(axis=1).tolist()),
        crps_matrix=scores,
    )


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


def selection_frequency_table(
    traces: Sequence[OracleTrace],
) -> Mapping[str, float]:
    """Pooled selection share per model name across traces with a shared pool."""
    if not traces:
        raise EmptyGroup("no oracle traces")
    names = traces[0].model_names
    for tr in traces:
        if tr.model_names != names:
            raise DimensionMismatch("traces disagree on the model pool")
    counts = [0] * len(names)
    total = 0
    for tr in traces:
        for pick in tr.selections:
            counts[pick] += 1
        total += tr.horizon
    return {name: counts[i] / total for i, name in enumerate(names)}
