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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .arbitration import ArbitratorConfig, run_arbitration
from .baselines import mean_ensemble, median_ensemble
from .core import ArbitrationTrace, ForecastPanel, QuantileLevels, quantile_at
from .errors import DimensionMismatch, InsufficientModels
from .metrics import crps_batch, lumpiness, mase, pearson_correlation
from .oracle import (
    median_ensemble_rankings,
    oracle_select,
    suite_topk_accuracy,
    weight_rankings,
)
from .panelio import TaggedPanel
from .quantiles import RandomStreams

#: Method names accepted by evaluation; "per-model" expands into one
#: "model:<name>" row per pool member.
METHODS = ("synapse", "synapse-static", "median", "mean", "per-model", "oracle")

#: Absolute tolerance under which two per-panel scores count as a tie.
WIN_LOSS_TIE_TOL = 1e-9

REPORT_SCHEMA_VERSION = 1

_CSV_COLUMNS = ("method", "scope", "n_panels", "crps", "mase", "wins", "losses", "ties")
_CLASS_ORDER = {"short": 0, "medium": 1, "long": 2}


@dataclass(frozen=True)
class PanelScore:
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
        if not (self.method in METHODS or self.method.startswith("model:")):
            raise ValueError(f"unregistered method name {self.method!r}")
        for label, value in (("crps", self.crps), ("mase", self.mase)):
            if not math.isfinite(value):
                raise ValueError(f"{label} is not finite: {value!r}")
        for label, value in (
            ("n_panels", self.n_panels),
            ("wins", self.wins),
            ("losses", self.losses),
            ("ties", self.ties),
        ):
            if value < 0:
                raise ValueError(f"{label} must be >= 0, got {value}")


@dataclass(frozen=True)
class PoolScalingRow:
    """Arbitration versus the best pool member, for one pool prefix."""

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
    return ForecastPanel(
        series_id=panel.series_id,
        context=panel.context,
        actuals=panel.actuals,
        seasonality=panel.seasonality,
        model_names=tuple(names),
        levels=panel.levels,
        values=panel.values[[_model_index(panel, n) for n in names]],
    )


def _mase_for(panel: ForecastPanel, points: Sequence[float]) -> float:
    return mase(points, panel.require_actuals(), panel.context, panel.seasonality)


def _score_path(panel: ForecastPanel, levels: QuantileLevels, values: np.ndarray) -> PanelScore:
    """CRPS and MASE of one forecast path: ``values`` of shape (T, K) on
    ``levels``. A step's MASE point is its value at level 0.5."""
    per = crps_batch(levels.levels, values, panel.require_actuals())
    points = quantile_at(levels.levels, values, 0.5)
    return PanelScore(crps=float(np.mean(per)), mase=_mase_for(panel, points))


def _score_trace(panel: ForecastPanel, trace: ArbitrationTrace) -> PanelScore:
    return _score_path(panel, trace.levels, trace.quantiles)


def _method_scorers(
    methods: Sequence[str], config: ArbitratorConfig, streams: RandomStreams
) -> Mapping[str, Callable[[ForecastPanel], Mapping[str, PanelScore]]]:
    def score_arbitrated(panel: ForecastPanel, mode: str, key: str):
        trace = run_arbitration(panel, config=replace(config, mode=mode), streams=streams)
        return {key: _score_trace(panel, trace)}

    def score_median(panel: ForecastPanel):
        return {"median": _score_path(panel, panel.levels, median_ensemble(panel.values))}

    def score_mean(panel: ForecastPanel):
        return {"mean": _score_path(panel, panel.levels, mean_ensemble(panel.values))}

    def score_oracle(panel: ForecastPanel):
        trace = oracle_select(panel)
        picked = panel.values[list(trace.selections), np.arange(panel.horizon)]
        points = quantile_at(panel.levels.levels, picked, 0.5)
        return {"oracle": PanelScore(crps=trace.crps, mase=_mase_for(panel, points))}

    def score_per_model(panel: ForecastPanel):
        return {
            f"model:{name}": _score_path(panel, panel.levels, panel.values[i])
            for i, name in enumerate(panel.model_names)
        }

    table: dict[str, Callable] = {}
    for method in methods:
        if method == "synapse":
            table[method] = lambda p: score_arbitrated(p, "dynamic", "synapse")
        elif method == "synapse-static":
            table[method] = lambda p: score_arbitrated(p, "static-uniform", "synapse-static")
        elif method == "median":
            table[method] = score_median
        elif method == "mean":
            table[method] = score_mean
        elif method == "oracle":
            table[method] = score_oracle
        elif method == "per-model":
            table[method] = score_per_model
        else:
            raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    return table


def score_panel(
    tagged: TaggedPanel,
    methods: Sequence[str],
    config: ArbitratorConfig | None = None,
    streams: RandomStreams | None = None,
    seed: int = 0,
) -> dict[str, PanelScore]:
    """Score one panel under every requested method."""
    config = config if config is not None else ArbitratorConfig()
    streams = streams if streams is not None else RandomStreams(seed)
    scorers = _method_scorers(tuple(methods), config, streams)
    out: dict[str, PanelScore] = {}
    for scorer in scorers.values():
        out.update(scorer(tagged.panel))
    return out


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
    config: ArbitratorConfig | None = None,
    seed: int = 0,
    workers: int | None = None,
    include_series: bool = False,
) -> list[ReportRow]:
    """Score a suite and aggregate per scope.

    The reference for win/loss counts is ``synapse`` when requested, else the
    first method in registry order. Scoring is panel-parallel when ``workers``
    is set; aggregation order never depends on completion order.
    """
    if not methods:
        raise ValueError("at least one method is required")
    if not tagged_panels:
        raise ValueError("at least one panel is required")
    config = config if config is not None else ArbitratorConfig()
    streams = RandomStreams(seed)

    def worker(tagged: TaggedPanel) -> dict[str, PanelScore]:
        return score_panel(tagged, methods, config=config, streams=streams)

    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_panel = list(pool.map(worker, tagged_panels))
    else:
        per_panel = [worker(t) for t in tagged_panels]

    method_keys = sorted({k for scores in per_panel for k in scores}, key=_method_sort_key)
    reference = "synapse" if "synapse" in method_keys else method_keys[0]

    scopes: dict[str, list[int]] = {"overall": list(range(len(tagged_panels)))}
    domains: dict[str, list[int]] = {}
    for i, tagged in enumerate(tagged_panels):
        domains.setdefault(tagged.metadata.domain, []).append(i)
        scopes.setdefault(f"horizon:{tagged.metadata.horizon_class}", []).append(i)
        scopes.setdefault(f"domain:{tagged.metadata.domain}", []).append(i)
        if include_series:
            scopes.setdefault(f"series:{tagged.panel.series_id}", []).append(i)

    rows = []
    for scope in sorted(scopes, key=_scope_sort_key):
        indices = scopes[scope]
        for key in method_keys:
            present = [i for i in indices if key in per_panel[i]]
            if not present:
                continue
            crps_vals = [per_panel[i][key].crps for i in present]
            mase_vals = [per_panel[i][key].mase for i in present]
            wins = losses = ties = 0
            for i in present:
                if reference not in per_panel[i]:
                    continue
                delta = per_panel[i][key].crps - per_panel[i][reference].crps
                if delta < -WIN_LOSS_TIE_TOL:
                    wins += 1
                elif delta > WIN_LOSS_TIE_TOL:
                    losses += 1
                else:
                    ties += 1
            rows.append(
                ReportRow(
                    method=key,
                    scope=scope,
                    n_panels=len(present),
                    crps=_mean(crps_vals),
                    mase=_mean(mase_vals),
                    wins=wins,
                    losses=losses,
                    ties=ties,
                )
            )

    # Balanced overall: every domain contributes equally regardless of size.
    for key in method_keys:
        domain_crps = []
        domain_mase = []
        for domain in sorted(domains):
            present = [i for i in domains[domain] if key in per_panel[i]]
            if not present:
                continue
            domain_crps.append(_mean([per_panel[i][key].crps for i in present]))
            domain_mase.append(_mean([per_panel[i][key].mase for i in present]))
        if not domain_crps:
            continue
        n_present = sum(1 for scores in per_panel if key in scores)
        rows.append(
            ReportRow(
                method=key,
                scope="overall-balanced",
                n_panels=n_present,
                crps=_mean(domain_crps),
                mase=_mean(domain_mase),
                wins=0,
                losses=0,
                ties=0,
            )
        )
    rows.sort(key=lambda r: (_scope_sort_key(r.scope), _method_sort_key(r.method)))
    return rows


def run_pool_scaling(
    tagged_panels: Sequence[TaggedPanel],
    model_order: Sequence[str],
    config: ArbitratorConfig | None = None,
    seed: int = 0,
) -> list[PoolScalingRow]:
    """Arbitrate growing pool prefixes and compare against the best member.

    Per-model random substreams are keyed by name, so the full-pool row is
    identical to a plain evaluation of the same suite and seed.
    """
    model_order = tuple(model_order)
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
    config = config if config is not None else ArbitratorConfig()
    streams = RandomStreams(seed)

    member_crps = {name: [] for name in model_order}
    member_mase = {name: [] for name in model_order}
    for tagged in tagged_panels:
        panel = tagged.panel
        for name in model_order:
            score = _score_path(panel, panel.levels, panel.values[_model_index(panel, name)])
            member_crps[name].append(score.crps)
            member_mase[name].append(score.mase)

    rows = []
    for size in range(2, len(model_order) + 1):
        prefix = model_order[:size]
        crps_vals = []
        mase_vals = []
        for tagged in tagged_panels:
            panel = _subset_panel(tagged.panel, prefix)
            trace = run_arbitration(panel, config=config, streams=streams)
            score = _score_trace(panel, trace)
            crps_vals.append(score.crps)
            mase_vals.append(score.mase)
        best = min(prefix, key=lambda n: (_mean(member_crps[n]), n))
        rows.append(
            PoolScalingRow(
                pool_size=size,
                model_names=prefix,
                crps=_mean(crps_vals),
                mase=_mean(mase_vals),
                best_individual=best,
                best_individual_crps=_mean(member_crps[best]),
                best_individual_mase=min(_mean(member_mase[n]) for n in prefix),
            )
        )
    return rows


def _panel_method_score(
    tagged: TaggedPanel,
    method: str,
    config: ArbitratorConfig,
    streams: RandomStreams,
) -> PanelScore:
    if method.startswith("model:"):
        panel = tagged.panel
        i = _model_index(panel, method.split(":", 1)[1])
        return _score_path(panel, panel.levels, panel.values[i])
    scores = score_panel(tagged, [method], config=config, streams=streams)
    return scores[method]


def run_win_loss(
    tagged_panels: Sequence[TaggedPanel],
    method_a: str,
    method_b: str,
    config: ArbitratorConfig | None = None,
    seed: int = 0,
) -> dict[str, tuple[int, int, int]]:
    """Per-panel (wins, losses, ties) of method A against method B.

    Keys are the metrics: lower CRPS or MASE wins; differences within
    ``WIN_LOSS_TIE_TOL`` tie. Methods may be registry names or ``model:<name>``.
    """
    if not tagged_panels:
        raise ValueError("at least one panel is required")
    config = config if config is not None else ArbitratorConfig()
    streams = RandomStreams(seed)
    tallies = {"crps": [0, 0, 0], "mase": [0, 0, 0]}
    for tagged in tagged_panels:
        a = _panel_method_score(tagged, method_a, config, streams)
        b = _panel_method_score(tagged, method_b, config, streams)
        for metric, (va, vb) in (("crps", (a.crps, b.crps)), ("mase", (a.mase, b.mase))):
            delta = va - vb
            if delta < -WIN_LOSS_TIE_TOL:
                tallies[metric][0] += 1
            elif delta > WIN_LOSS_TIE_TOL:
                tallies[metric][1] += 1
            else:
                tallies[metric][2] += 1
    return {metric: tuple(counts) for metric, counts in tallies.items()}


def selection_accuracy_table(
    tagged_panels: Sequence[TaggedPanel],
    config: ArbitratorConfig | None = None,
    seed: int = 0,
    per_panel: bool = False,
) -> dict[str, tuple[float, ...]]:
    """Top-k agreement with the oracle for arbitration weights and for the
    median ensemble's implicit ranking, for k = 1..smallest pool size."""
    if not tagged_panels:
        raise ValueError("at least one panel is required")
    config = config if config is not None else ArbitratorConfig()
    streams = RandomStreams(seed)
    synapse_pairs = []
    median_pairs = []
    min_pool = min(t.panel.n_models for t in tagged_panels)
    for tagged in tagged_panels:
        panel = tagged.panel
        oracle = oracle_select(panel)
        trace = run_arbitration(panel, config=config, streams=streams)
        synapse_pairs.append((weight_rankings(trace), oracle))
        median_pairs.append((median_ensemble_rankings(panel), oracle))
    return {
        "synapse": tuple(
            suite_topk_accuracy(synapse_pairs, k, per_panel=per_panel)
            for k in range(1, min_pool + 1)
        ),
        "median": tuple(
            suite_topk_accuracy(median_pairs, k, per_panel=per_panel)
            for k in range(1, min_pool + 1)
        ),
    }


def feature_mase_correlation(
    tagged_panels: Sequence[TaggedPanel],
    method: str = "synapse",
    config: ArbitratorConfig | None = None,
    seed: int = 0,
) -> float:
    """Correlation between series lumpiness and the method's per-panel MASE."""
    config = config if config is not None else ArbitratorConfig()
    streams = RandomStreams(seed)
    xs = []
    ys = []
    for tagged in tagged_panels:
        panel = tagged.panel
        series = panel.context + panel.require_actuals()
        xs.append(lumpiness(series))
        ys.append(_panel_method_score(tagged, method, config, streams).mase)
    return pearson_correlation(xs, ys)


def _format_float(value: float) -> str:
    return repr(float(value))


def _rows_to_csv(rows: Sequence[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row.method,
                row.scope,
                row.n_panels,
                _format_float(row.crps),
                _format_float(row.mase),
                row.wins,
                row.losses,
                row.ties,
            ]
        )
    return buf.getvalue()


def _rows_to_csv_long(rows: Sequence[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("method", "scope", "metric", "value"))
    for row in rows:
        writer.writerow((row.method, row.scope, "crps", _format_float(row.crps)))
        writer.writerow((row.method, row.scope, "mase", _format_float(row.mase)))
    return buf.getvalue()


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


def _rows_to_table(rows: Sequence[ReportRow]) -> str:
    cells = [
        [
            row.method,
            row.scope,
            str(row.n_panels),
            f"{row.crps:.6f}",
            f"{row.mase:.6f}",
            str(row.wins),
            str(row.losses),
            str(row.ties),
        ]
        for row in rows
    ]
    return _render_table(_CSV_COLUMNS, cells)


def report_json_schema() -> dict:
    """The JSON report schema shipped with the package."""
    text = resources.files("quantarb").joinpath("report_schema.json").read_text("utf-8")
    return json.loads(text)


def _rows_to_json(rows: Sequence[ReportRow]) -> str:
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "rows": [
            {
                "method": row.method,
                "scope": row.scope,
                "n_panels": row.n_panels,
                "crps": row.crps,
                "mase": row.mase,
                "wins": row.wins,
                "losses": row.losses,
                "ties": row.ties,
            }
            for row in rows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit_report(
    rows: Sequence[ReportRow],
    fmt: str = "table",
    out_path: str | Path | None = None,
) -> str:
    """Render rows in the requested format; also writes ``out_path`` if given."""
    if fmt == "table":
        text = _rows_to_table(rows)
    elif fmt == "csv":
        text = _rows_to_csv(rows)
    elif fmt == "csv-long":
        text = _rows_to_csv_long(rows)
    elif fmt == "json":
        text = _rows_to_json(rows)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if out_path is not None:
        Path(out_path).write_text(text, encoding="utf-8")
    return text


_SCALING_COLUMNS = (
    "pool_size",
    "models",
    "crps",
    "mase",
    "best_individual",
    "best_individual_crps",
    "best_individual_mase",
)


def emit_scaling(
    rows: Sequence[PoolScalingRow],
    fmt: str = "table",
    out_path: str | Path | None = None,
) -> str:
    """Render pool-scaling rows as table, csv, or json."""
    cells = [
        [
            str(row.pool_size),
            "|".join(row.model_names),
            _format_float(row.crps),
            _format_float(row.mase),
            row.best_individual,
            _format_float(row.best_individual_crps),
            _format_float(row.best_individual_mase),
        ]
        for row in rows
    ]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_SCALING_COLUMNS)
        writer.writerows(cells)
        text = buf.getvalue()
    elif fmt == "table":
        text = _render_table(_SCALING_COLUMNS, cells)
    elif fmt == "json":
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "rows": [
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
            ],
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if out_path is not None:
        Path(out_path).write_text(text, encoding="utf-8")
    return text


def load_report(path: str | Path) -> list[ReportRow]:
    """Read back a CSV report; floats survive the round trip bit-for-bit."""
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != _CSV_COLUMNS:
            raise ValueError(f"unexpected report header {header!r}")
        rows = []
        for record in reader:
            method, scope, n_panels, crps_v, mase_v, wins, losses, ties = record
            rows.append(
                ReportRow(
                    method=method,
                    scope=scope,
                    n_panels=int(n_panels),
                    crps=float(crps_v),
                    mase=float(mase_v),
                    wins=int(wins),
                    losses=int(losses),
                    ties=int(ties),
                )
            )
    return rows
