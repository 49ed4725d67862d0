"""Suite evaluation, pool-scaling sweeps, win/loss tallies, and report emission.

Every method is scored per panel (CRPS over the horizon, MASE on the level-0.5
values), then aggregated into rows per scope: overall, overall balanced across
domains, per horizon class, per domain, and optionally per series. Emission is
deterministic byte-for-byte given the same rows.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .arbitration import ArbitratorConfig, PanelSetup, run_arbitration
from .baselines import mean_ensemble, median_ensemble
from .core import ForecastPanel, QuantileLevels, _real_fields, quantile_at, require_integer
from .errors import DimensionMismatch, InsufficientModels, ZeroDenominator
from .metrics import crps_batch, mase_scale, row_means
from .oracle import OracleTrace, median_distances, pick_ranks, topk_agreement
from .panelio import TaggedPanel
from .quantiles import RandomStreams

#: Absolute tolerance under which two per-panel scores count as a tie.
WIN_LOSS_TIE_TOL = 1e-9

REPORT_SCHEMA_VERSION = 1

# Prefix of the method name that scores one pool member.
_MODEL_PREFIX = "model:"

_REPORT_COLUMNS = ("method", "scope", "n_panels", "crps", "mase", "wins", "losses", "ties")
_LONG_COLUMNS = ("method", "scope", "metric", "value")
_SCALING_COLUMNS = (
    "pool_size",
    "models",
    "crps",
    "mase",
    "best_individual",
    "best_individual_crps",
    "best_individual_mase",
)
_CLASS_ORDER = {"short": 0, "medium": 1, "long": 2}


class PanelScore(NamedTuple):
    """One method's scores on one panel."""

    crps: float
    mase: float


@dataclass(frozen=True)
class ReportRow:
    """Aggregated scores for one method within one scope.

    Win/loss/tie counts compare per-panel CRPS against the evaluation's
    reference method within the same scope.
    """

    method: str
    scope: str
    n_panels: int
    crps: float
    mase: float
    wins: int
    losses: int
    ties: int

    def __post_init__(self) -> None:
        if not (self.method in METHODS or self.method.startswith(_MODEL_PREFIX)):
            raise ValueError(f"unregistered method name {self.method!r}")
        _real_fields(self, "crps", "mase")
        for label in ("n_panels", "wins", "losses", "ties"):
            object.__setattr__(self, label, require_integer(getattr(self, label), label, 0))


@dataclass(frozen=True)
class PoolScalingRow:
    """Arbitration versus the best pool member, for one pool prefix.

    ``crps`` and ``mase`` are the arbitrated means over the suite.
    ``best_individual`` is the member with the lowest mean CRPS, and
    ``best_individual_crps`` is that mean. ``best_individual_mase`` is the
    lowest mean MASE among the prefix's members, which may belong to a
    member other than ``best_individual``.
    """

    pool_size: int
    model_names: tuple[str, ...]
    crps: float
    mase: float
    best_individual: str
    best_individual_crps: float
    best_individual_mase: float


def _model_index(panel: ForecastPanel, name: str) -> int:
    if name not in panel.model_names:
        raise DimensionMismatch(f"panel {panel.series_id!r} has no model {name!r}")
    return panel.model_names.index(name)


def _subset_panel(panel: ForecastPanel, names: Sequence[str]) -> ForecastPanel:
    return replace(panel, model_names=tuple(names),
                   values=panel.values[[_model_index(panel, n) for n in names]])


class _PanelScoring:
    """What every score of one panel shares, each computed once: its actuals,
    its MASE scale, the :class:`PanelSetup` of its arbitrated runs under the
    run's ``streams`` and, the first time a static method asks, its static
    block: the pool's N members, the median and the mean ensemble stacked
    into one C-ordered (N + 2, T, K) array. One CRPS pass and one pass over
    its level-0.5 points score the whole block; every member, ensemble and
    oracle score is read from them."""

    def __init__(self, panel: ForecastPanel, streams: RandomStreams) -> None:
        self.panel, self.setup = panel, PanelSetup(panel, streams)
        self.actuals = np.asarray(panel.require_actuals(), dtype=float)
        try:
            self.scale = mase_scale(panel.context, panel.seasonality)
        except ZeroDenominator as exc:  # validation accepts a periodic context
            raise ZeroDenominator(f"panel {panel.series_id!r}: {exc}") from None

    def scores(self, crps: list[float], points: np.ndarray) -> list[PanelScore]:
        """Each path's score from its mean CRPS and level-0.5 ``points`` (last
        axis: steps). A panel's values are bounded, so only a MAE over a
        subnormal scale can overflow; it raises ``ZeroDenominator``."""
        maes = row_means(np.abs(points - self.actuals))
        mases = [mae / self.scale for mae in (maes.tolist() if maes.ndim else [float(maes)])]
        if math.inf in mases:
            raise ZeroDenominator(f"panel {self.panel.series_id!r}: MASE overflows over its "
                                  f"seasonal-naive scale {self.scale!r}")
        return list(map(PanelScore, crps, mases))

    def path(self, levels: QuantileLevels, values: np.ndarray) -> PanelScore:
        """CRPS and MASE of one arbitrated path: ``values`` of shape (T, K)
        on ``levels``. A step's MASE point is its value at level 0.5."""
        per = crps_batch(levels.levels, values, self.actuals)
        return self.scores([float(row_means(per))], quantile_at(levels.levels, values, 0.5))[0]

    @cached_property
    def block(self) -> tuple[np.ndarray, np.ndarray]:
        """(N + 2, T) CRPS and level-0.5 point of the static block's rows."""
        values, levels = self.panel.values, self.panel.levels.levels
        block = np.concatenate((values, median_ensemble(values)[None], mean_ensemble(values)[None]))
        return crps_batch(levels, block, self.actuals), quantile_at(levels, block, 0.5)

    @cached_property
    def statics(self) -> list[PanelScore]:
        """Every member's score in pool order, then the median's and the mean's."""
        crps, points = self.block
        return self.scores(row_means(crps).tolist(), points)

    def member(self, name: str) -> PanelScore:
        """The ``model:<name>`` score; a name the panel lacks raises
        ``DimensionMismatch``."""
        return self.statics[_model_index(self.panel, name)]

    def oracle(self) -> PanelScore:
        """The score of each step's CRPS argmin, read from the block's rows."""
        panel = self.panel
        crps, points = self.block
        trace = OracleTrace(panel.series_id, panel.model_names, crps[:-2].T)
        picked = points[list(trace.selections), np.arange(panel.horizon)]
        return self.scores([trace.crps], picked)[0]

    def arbitrated(self, config: ArbitratorConfig) -> PanelScore:
        trace = run_arbitration(self.panel, config=config, streams=self.setup.streams,
                                setup=self.setup)
        return self.path(trace.levels, trace.quantiles)


#: Scores one panel under one method, given its shared scoring inputs (the
#: stream tree among them) and the run's config, keyed by report row name.
Scorer = Callable[[_PanelScoring, ArbitratorConfig], dict[str, PanelScore]]

#: Every method, in registry order: the order of report rows. Each scorer
#: yields the method's own row, except ``per-model``, which yields one
#: ``model:<name>`` row per pool member.
_SCORERS: dict[str, Scorer] = {
    "synapse": lambda p, c: {"synapse": p.arbitrated(replace(c, mode="dynamic"))},
    "synapse-static": lambda p, c: {
        "synapse-static": p.arbitrated(replace(c, mode="static-uniform"))
    },
    "median": lambda p, c: {"median": p.statics[-2]},
    "mean": lambda p, c: {"mean": p.statics[-1]},
    "per-model": lambda p, c: {
        _MODEL_PREFIX + name: score for name, score in zip(p.panel.model_names, p.statics)
    },
    "oracle": lambda p, c: {"oracle": p.oracle()},
}

#: Method names accepted by evaluation, in registry order.
METHODS = tuple(_SCORERS)


def _scorer(method: str) -> Scorer:
    """The scorer of a registry method or of ``model:<name>``, which yields
    that one pool member's row."""
    if method.startswith(_MODEL_PREFIX):
        name = method[len(_MODEL_PREFIX):]
        return lambda p, c: {method: p.member(name)}
    if method not in _SCORERS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    return _SCORERS[method]


def score_panel(
    tagged: TaggedPanel,
    methods: Sequence[str],
    config: ArbitratorConfig = ArbitratorConfig(),
    streams: RandomStreams = RandomStreams(0),
) -> dict[str, PanelScore]:
    """Score one panel under every requested method, in request order; a
    method is a registry name or ``model:<name>``."""
    scorers = [_scorer(m) for m in dict.fromkeys(methods)]
    out: dict[str, PanelScore] = {}
    scoring = _PanelScoring(tagged.panel, streams)
    for scorer in scorers:
        out.update(scorer(scoring, config))
    return out


def _tally(deltas: Sequence[float]) -> tuple[int, int, int]:
    """(wins, losses, ties) of per-panel score differences, lower is better;
    differences within ``WIN_LOSS_TIE_TOL`` tie."""
    wins = sum(delta < -WIN_LOSS_TIE_TOL for delta in deltas)
    losses = sum(delta > WIN_LOSS_TIE_TOL for delta in deltas)
    return wins, losses, len(deltas) - wins - losses


def _method_sort_key(name: str) -> tuple[int, str]:
    if name in METHODS:
        return (METHODS.index(name), name)
    return (len(METHODS), name)


def _scope_sort_key(scope: str) -> tuple[int, int, str]:
    if scope == "overall":
        return (0, 0, scope)
    if scope == "overall-balanced":
        return (1, 0, scope)
    if scope.startswith("horizon:"):
        label = scope.split(":", 1)[1]
        return (2, _CLASS_ORDER.get(label, len(_CLASS_ORDER)), scope)
    if scope.startswith("domain:"):
        return (3, 0, scope)
    return (4, 0, scope)


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def run_evaluation(
    tagged_panels: Sequence[TaggedPanel],
    methods: Sequence[str] = ("synapse", "median"),
    config: ArbitratorConfig = ArbitratorConfig(),
    seed: int = 0,
    workers: int | None = None,
    include_series: bool = False,
) -> list[ReportRow]:
    """Score a suite and aggregate per scope.

    The reference for win/loss counts is ``synapse`` when requested, else the
    first method in registry order. Scoring is panel-parallel when ``workers``
    is above 1, and a count below 1 raises ``ValueError``; aggregation order
    never depends on completion order.
    """
    if not methods:
        raise ValueError("at least one method is required")
    if not tagged_panels:
        raise ValueError("at least one panel is required")
    if workers is not None and require_integer(workers, "workers") < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    streams = RandomStreams(seed)

    def worker(tagged: TaggedPanel) -> dict[str, PanelScore]:
        return score_panel(tagged, methods, config=config, streams=streams)

    if workers is not None and workers > 1:
        # Imported here, so that importing the CLI loads neither it nor logging.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_panel = list(pool.map(worker, tagged_panels))
    else:
        per_panel = [worker(t) for t in tagged_panels]

    method_keys = sorted({k for scores in per_panel for k in scores}, key=_method_sort_key)
    reference = "synapse" if "synapse" in method_keys else method_keys[0]

    scopes: dict[str, list[dict[str, PanelScore]]] = {"overall": per_panel}
    for tagged, scores in zip(tagged_panels, per_panel):
        scopes.setdefault(f"horizon:{tagged.metadata.horizon_class}", []).append(scores)
        scopes.setdefault(f"domain:{tagged.metadata.domain}", []).append(scores)
        if include_series:
            scopes.setdefault(f"series:{tagged.panel.series_id}", []).append(scores)

    rows = []
    for scope, panels in scopes.items():
        for key in method_keys:
            present = [s for s in panels if key in s]
            if not present:
                continue
            deltas = [s[key].crps - s[reference].crps for s in present if reference in s]
            crps = _mean([s[key].crps for s in present])
            mase = _mean([s[key].mase for s in present])
            rows.append(ReportRow(key, scope, len(present), crps, mase, *_tally(deltas)))

    # Balanced overall: the mean of a method's domain rows, so every domain
    # counts equally regardless of size. The domains split the panels, so
    # their counts add up to the method's overall count.
    domain_rows = [row for row in rows if row.scope.startswith("domain:")]
    for key in method_keys:
        mine = [row for row in domain_rows if row.method == key]
        n_panels = sum(row.n_panels for row in mine)
        crps = _mean([row.crps for row in mine])
        mase = _mean([row.mase for row in mine])
        rows.append(ReportRow(key, "overall-balanced", n_panels, crps, mase, 0, 0, 0))
    rows.sort(key=lambda r: (_scope_sort_key(r.scope), _method_sort_key(r.method)))
    return rows


def run_pool_scaling(
    tagged_panels: Sequence[TaggedPanel],
    model_order: Sequence[str],
    config: ArbitratorConfig = ArbitratorConfig(),
    seed: int = 0,
) -> list[PoolScalingRow]:
    """Arbitrate growing pool prefixes and compare against the best member.

    Per-model random substreams are keyed by name, so the full-pool row is
    identical to a plain evaluation of the same suite and seed.
    """
    model_order = tuple(model_order)
    repeated = sorted({n for n in model_order if model_order.count(n) > 1})
    if repeated:
        raise ValueError(f"model order repeats {', '.join(map(repr, repeated))}")
    if len(model_order) < 2:
        raise InsufficientModels(
            f"pool scaling needs at least 2 models, got {len(model_order)}"
        )
    if not tagged_panels:
        raise ValueError("at least one panel is required")
    for tagged in tagged_panels:
        held = set(tagged.panel.model_names)
        missing = [n for n in model_order if n not in held]
        if missing:
            raise DimensionMismatch(
                f"panel {tagged.panel.series_id!r} lacks models {missing}"
            )
    streams = RandomStreams(seed)

    scorings = [_PanelScoring(tagged.panel, streams) for tagged in tagged_panels]
    member_crps = {name: [s.member(name).crps for s in scorings] for name in model_order}
    member_mase = {name: [s.member(name).mase for s in scorings] for name in model_order}
    rows = []
    for size in range(2, len(model_order) + 1):
        prefix = model_order[:size]
        scores = []
        for scoring in scorings:
            trace = run_arbitration(_subset_panel(scoring.panel, prefix), config=config,
                                    streams=streams)
            scores.append(scoring.path(trace.levels, trace.quantiles))
        best = min(prefix, key=lambda n: (_mean(member_crps[n]), n))
        rows.append(
            PoolScalingRow(
                pool_size=size,
                model_names=prefix,
                crps=_mean([score.crps for score in scores]),
                mase=_mean([score.mase for score in scores]),
                best_individual=best,
                best_individual_crps=_mean(member_crps[best]),
                best_individual_mase=min(_mean(member_mase[n]) for n in prefix),
            )
        )
    return rows


def run_win_loss(
    tagged_panels: Sequence[TaggedPanel],
    method_a: str,
    method_b: str,
    config: ArbitratorConfig = ArbitratorConfig(),
    seed: int = 0,
) -> dict[str, tuple[int, int, int]]:
    """Per-panel (wins, losses, ties) of method A against method B.

    Keys are the metrics: lower CRPS or MASE wins; differences within
    ``WIN_LOSS_TIE_TOL`` tie. Each method is one registry method or
    ``model:<name>``; ``per-model``, which names the whole pool, is rejected.
    """
    methods = (method_a, method_b)
    for method in methods:
        if method == "per-model":
            raise ValueError(
                "winloss compares one method with another; name one pool member "
                "as model:<name> instead of per-model"
            )
        _scorer(method)
    if not tagged_panels:
        raise ValueError("at least one panel is required")
    streams = RandomStreams(seed)
    pairs = [
        (scores[method_a], scores[method_b])
        for scores in (score_panel(t, methods, config, streams) for t in tagged_panels)
    ]
    return {
        metric: _tally([getattr(a, metric) - getattr(b, metric) for a, b in pairs])
        for metric in ("crps", "mase")
    }


def selection_accuracy_table(
    tagged_panels: Sequence[TaggedPanel],
    picks: Sequence[Sequence[int]],
    config: ArbitratorConfig = ArbitratorConfig(),
    seed: int = 0,
) -> dict[str, tuple[float, ...]]:
    """Top-k agreement with the oracle, pooled over every timestep, for
    arbitration weights and for the median ensemble's implicit ranking, for
    k = 1..smallest pool size. ``picks`` holds each panel's oracle picks, as
    ``oracle_select(panel).selections`` gives them. A step counts for k when
    the oracle's pick is among the method's k best there, ties going to the
    lower index."""
    if not tagged_panels:
        raise ValueError("at least one panel is required")
    if len(picks) != len(tagged_panels):
        raise DimensionMismatch(f"{len(picks)} pick rows for {len(tagged_panels)} panels")
    streams = RandomStreams(seed)
    ranks: dict[str, list[np.ndarray]] = {"synapse": [], "median": []}
    for tagged, panel_picks in zip(tagged_panels, picks):
        panel = tagged.panel
        trace = run_arbitration(panel, config=config, streams=streams)
        ranks["synapse"].append(pick_ranks(-trace.weights, panel_picks))
        ranks["median"].append(pick_ranks(median_distances(panel), panel_picks))
    min_pool = min(t.panel.n_models for t in tagged_panels)
    return {method: topk_agreement(np.concatenate(r), min_pool) for method, r in ranks.items()}


def _cell(value, float_format: Callable[[float], str]) -> str:
    """One csv or table cell; a list (of model names) is joined by "|"."""
    if isinstance(value, float):
        return float_format(float(value))
    if isinstance(value, list):
        return "|".join(value)
    return str(value)


def _render_table(header: Sequence[str], cells: Sequence[Sequence[str]]) -> str:
    """Left-aligned columns two spaces apart, under a dashed rule."""
    widths = [
        max(len(header[c]), *(len(r[c]) for r in cells)) if cells else len(header[c])
        for c in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render(
    records: Sequence[dict],
    columns: Sequence[str],
    fmt: str,
    out_path: str | Path | None,
    table_float: Callable[[float], str] = repr,
) -> str:
    """Render ``records``, dicts keyed by ``columns``, as table, csv or json;
    also writes ``out_path`` if given. CSV floats use ``repr``, so they read
    back bit for bit; table floats use ``table_float``."""
    if fmt == "json":
        doc = {"schema_version": REPORT_SCHEMA_VERSION, "rows": list(records)}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif fmt in ("csv", "table"):
        float_format = repr if fmt == "csv" else table_float
        cells = [[_cell(r[c], float_format) for c in columns] for r in records]
        if fmt == "table":
            text = _render_table(columns, cells)
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(cells)
            text = buf.getvalue()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if out_path is not None:
        Path(out_path).write_text(text, encoding="utf-8")
    return text


def report_json_schema() -> dict:
    """The JSON report schema shipped with the package."""
    text = resources.files("quantarb").joinpath("report_schema.json").read_text("utf-8")
    return json.loads(text)


def emit_report(
    rows: Sequence[ReportRow],
    fmt: str = "table",
    out_path: str | Path | None = None,
) -> str:
    """Render rows as table, csv, csv-long or json; also writes ``out_path``
    if given. ``csv-long`` holds one (method, scope, metric, value) line per
    metric."""
    if fmt == "csv-long":
        records = [
            {"method": row.method, "scope": row.scope, "metric": m, "value": getattr(row, m)}
            for row in rows
            for m in ("crps", "mase")
        ]
        return _render(records, _LONG_COLUMNS, "csv", out_path)
    records = [{c: getattr(row, c) for c in _REPORT_COLUMNS} for row in rows]
    return _render(records, _REPORT_COLUMNS, fmt, out_path, table_float="{:.6f}".format)


def emit_scaling(
    rows: Sequence[PoolScalingRow],
    fmt: str = "table",
    out_path: str | Path | None = None,
) -> str:
    """Render pool-scaling rows as table, csv, or json."""
    records = [
        {
            "pool_size": row.pool_size,
            "models": list(row.model_names),
            "crps": row.crps,
            "mase": row.mase,
            "best_individual": row.best_individual,
            "best_individual_crps": row.best_individual_crps,
            "best_individual_mase": row.best_individual_mase,
        }
        for row in rows
    ]
    return _render(records, _SCALING_COLUMNS, fmt, out_path)


def load_report(path: str | Path) -> list[ReportRow]:
    """Read back a CSV report; floats survive the round trip bit-for-bit."""
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != _REPORT_COLUMNS:
            raise ValueError(f"unexpected report header {header!r}")
        return [
            ReportRow(method, scope, int(n), float(crps), float(mase),
                      int(wins), int(losses), int(ties))
            for method, scope, n, crps, mase, wins, losses, ties in reader
        ]
