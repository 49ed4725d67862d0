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

from .baselines import median_ensemble
from .core import ArbitrationTrace, ForecastPanel, quantile_at
from .errors import DimensionMismatch, EmptyGroup, Misalignment
from .metrics import crps_batch


@dataclass(frozen=True)
class OracleTrace:
    """Per-timestep oracle selections plus the full CRPS matrix behind them."""

    series_id: str
    model_names: tuple[str, ...]
    selections: tuple[int, ...]
    crps_matrix: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.model_names)
        if len(self.crps_matrix) != len(self.selections):
            raise DimensionMismatch(
                f"{len(self.crps_matrix)} CRPS rows for {len(self.selections)} selections"
            )
        for t, (pick, row) in enumerate(zip(self.selections, self.crps_matrix)):
            if len(row) != n:
                raise DimensionMismatch(f"CRPS row {t} has {len(row)} entries for {n} models")
            if not 0 <= pick < n:
                raise DimensionMismatch(f"selection {pick} at timestep {t} out of range")
            if row[pick] != min(row):
                raise DimensionMismatch(
                    f"selection {pick} at timestep {t} is not a CRPS argmin"
                )

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
        return tuple(row[pick] for pick, row in zip(self.selections, self.crps_matrix))

    @property
    def crps(self) -> float:
        per = self.per_timestep_crps
        return math.fsum(per) / len(per)


def oracle_select(panel: ForecastPanel) -> OracleTrace:
    """Pick the per-timestep CRPS argmin against actuals; ties go to the lowest index."""
    scores = crps_batch(panel.levels.levels, panel.values, panel.require_actuals())
    rows = tuple(tuple(row) for row in scores.T.tolist())
    return OracleTrace(
        series_id=panel.series_id,
        model_names=panel.model_names,
        selections=tuple(row.index(min(row)) for row in rows),
        crps_matrix=rows,
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
    out = []
    for step in trace.steps:
        w = step.weights.weights
        out.append(tuple(sorted(range(len(w)), key=lambda i: (-w[i], i))))
    return tuple(out)


def _closest_first(points: Sequence[float], target: float) -> tuple[int, ...]:
    dist = [abs(p - target) for p in points]
    return tuple(sorted(range(len(dist)), key=lambda i: (dist[i], i)))


def median_ensemble_rankings(panel: ForecastPanel) -> tuple[tuple[int, ...], ...]:
    """Per-timestep implicit rankings of the per-level median ensemble."""
    levels = panel.levels.levels
    points = quantile_at(levels, panel.values).T.tolist()
    targets = quantile_at(levels, median_ensemble(panel.values)).tolist()
    return tuple(_closest_first(p, target) for p, target in zip(points, targets))


def topk_selection_accuracy(
    method_rankings: Sequence[Sequence[int]], oracle_trace: OracleTrace, k: int
) -> float:
    """Fraction of timesteps where the oracle's pick is in the method's top k."""
    if not 1 <= k <= oracle_trace.n_models:
        raise ValueError(f"k must be in 1..{oracle_trace.n_models}, got {k}")
    if len(method_rankings) != oracle_trace.horizon:
        raise Misalignment(
            f"{len(method_rankings)} rankings for horizon {oracle_trace.horizon}"
        )
    hits = sum(
        pick in ranking[:k]
        for pick, ranking in zip(oracle_trace.selections, method_rankings)
    )
    return hits / oracle_trace.horizon


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
    hits = 0
    total = 0
    for rankings, trace in pairs:
        hits += round(topk_selection_accuracy(rankings, trace, k) * trace.horizon)
        total += trace.horizon
    return hits / total


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
