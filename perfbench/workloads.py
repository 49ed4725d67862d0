"""Workloads of the quantarb benchmark: their inputs, one pass each, and checks.

Every input is made from the run's seed. Two workloads drive ``quantarb eval``
through ``quantarb.cli.main`` on a panel file; two call ``run_arbitration``
once per panel. Outputs are compared against ``reference.json`` (a fixed-seed
golden set written by ``make_reference.py``), against invariants that hold for
any seed, and against a relabelled copy of the pool.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from quantarb.arbitration import ArbitratorConfig, run_arbitration, seed_window_from_context
from quantarb.baselines import quantile_mean_ensemble, quantile_median_ensemble
from quantarb.cli import main as cli_main
from quantarb.core import DEFAULT_LEVELS, build_panel
from quantarb.oracle import oracle_select
from quantarb.panelio import PanelMetadata, TaggedPanel, load_panels, save_panels
from quantarb.quantiles import RandomStreams
from quantarb.synthetic import (
    RegimeSpec,
    Segment,
    SyntheticExpert,
    build_benchmark_suite,
    expert_forecast,
    generate_series,
)

#: Every ``quantarb eval`` method, in the CLI's registry order.
ALL_METHODS = ("synapse", "synapse-static", "median", "mean", "per-model", "oracle")

#: Seed of the golden inputs whose outputs ``reference.json`` stores.
GOLDEN_SEED = 0

#: Tolerances for floats compared against the reference: loose enough for
#: float reassociation, far too tight for a changed answer (a different draw
#: moves CRPS by about 1e-4 relative).
FLOAT_TOL = {"crps": 1e-9, "mase": 1e-9, "weights": 1e-12, "quantiles": 1e-12}

PANEL_FILE = "panels.jsonl"
BACKTEST_FILE = "backtests.json"


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the operation the benchmark repeats on them.

    ``methods`` set means a pass is one ``quantarb eval`` of the panel file;
    ``None`` means a pass calls ``run_arbitration`` once per panel.
    ``backtest_steps`` > 0 seeds each panel's window from that many backtest
    forecasts over the context tail.
    """

    name: str
    why: str
    n_panels: int
    n_experts: int
    horizons: tuple[int, ...]
    window: int | None
    methods: tuple[str, ...] | None
    golden_panels: int
    backtest_steps: int = 0

    @property
    def config(self) -> ArbitratorConfig:
        return ArbitratorConfig(window_capacity=self.window)

    def shape(self) -> dict:
        return {
            "panels": self.n_panels,
            "experts": self.n_experts,
            "horizons": list(self.horizons),
            "window": self.window if self.window is not None else "min(horizon, 16)",
            "backtest_steps": self.backtest_steps,
            "methods": list(self.methods) if self.methods else ["run_arbitration"],
        }

    def eval_args(self, panel_path: Path, out_path: Path, seed: int) -> list[str]:
        """``quantarb eval`` arguments; arbitration workloads evaluate ``synapse``."""
        args = ["eval", str(panel_path), "--methods", ",".join(self.methods or ("synapse",))]
        if self.window is not None:
            args += ["--window", str(self.window)]
        return args + ["--format", "json", "--out", str(out_path), "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-eval",
            why="headline user run: quantarb eval, all six methods, on the desk suite "
            "(12 panels, 6 experts, horizons 8/16/32); touches every layer",
            n_panels=12,
            n_experts=6,
            horizons=(8, 16, 32),
            window=None,
            methods=ALL_METHODS,
            golden_panels=4,
        ),
        Workload(
            name="short-wide",
            why="run_arbitration on horizon-8 panels with 12 experts: inverse-CDF fits, "
            "sampling and stream creation grow with N and dominate; window scoring is small",
            n_panels=48,
            n_experts=12,
            horizons=(8,),
            window=None,
            methods=None,
            golden_panels=4,
        ),
        Workload(
            name="long-window",
            why="run_arbitration with 3 experts and a full 64-record window seeded from "
            "backtests: window scoring (W*N CRPS calls per step) dominates",
            n_panels=32,
            n_experts=3,
            horizons=(12,),
            window=64,
            methods=None,
            golden_panels=2,
            backtest_steps=64,
        ),
        Workload(
            name="ensembles-only",
            why="quantarb eval of median, mean, per-model and oracle on a 200-panel "
            "desk-shaped file: load, validation, metrics and oracle; never arbitrates",
            n_panels=200,
            n_experts=6,
            horizons=(8, 16, 32),
            window=None,
            methods=("median", "mean", "per-model", "oracle"),
            golden_panels=12,
        ),
    )
}


def _regime_panel(
    rng: np.random.Generator, series_id: str, horizon: int, n_experts: int, backtest_steps: int
) -> tuple[TaggedPanel, dict]:
    """A level-shift panel with the break inside the horizon, from the public
    generators in ``quantarb.synthetic``, plus backtest forecasts over the
    last ``backtest_steps`` context values (empty when 0)."""
    period = int(rng.choice((8, 12)))
    context_length = backtest_steps + 3 * period
    pre_break = int(rng.integers(1, horizon // 2 + 1))
    # Levels well above the noise keep the |y|-normalized loss away from zero,
    # as in the desk suite.
    level = float(rng.uniform(15.0, 25.0))
    shift = float(rng.choice((-1.0, 1.0))) * float(rng.uniform(3.0, 6.0))
    amp = float(rng.uniform(1.0, 2.5))
    noise = float(rng.uniform(0.8, 1.2))
    opening = Segment(context_length + pre_break, level, 0.0, amp, period, noise)
    spec = RegimeSpec(
        (opening, Segment(horizon - pre_break, level + shift, 0.0, amp, period, noise)),
        context_length,
    )
    panel_seed = int(rng.integers(0, 2**63))
    backtest_seed = int(rng.integers(0, 2**63))
    context, actuals = generate_series(spec, panel_seed)
    drag = float(rng.choice((-1.0, 1.0)))
    experts = []
    for i in range(n_experts):
        sharpness = noise * float(rng.uniform(0.2, 0.4))
        inflation = float(rng.uniform(10.0, 14.0))
        experts.append(
            SyntheticExpert(
                name=f"expert_{i:02d}",
                favored_regimes=(i % 2,),
                sharpness=sharpness,
                bias=drag * float(rng.uniform(0.05, 0.15)) * sharpness * inflation,
                dispersion_inflation=inflation,
            )
        )
    panel = build_panel(
        series_id=series_id,
        context=context,
        actuals=actuals,
        seasonality=period,
        levels=DEFAULT_LEVELS,
        models=[(e.name, expert_forecast(e, spec, actuals, panel_seed)) for e in experts],
    )
    backtests = {}
    if backtest_steps:
        history = RegimeSpec((Segment(context_length, level, 0.0, amp, period, noise),),
                             context_length - backtest_steps)
        tail = context[-backtest_steps:]
        backtests = {
            e.name: [list(row) for row in expert_forecast(e, history, tail, backtest_seed)]
            for e in experts
        }
    meta = PanelMetadata(domain="level_shift", horizon_class=f"h{horizon}", frequency="H")
    return TaggedPanel(panel=panel, metadata=meta), backtests


def build_inputs(w: Workload, seed: int, n_panels: int | None = None) -> tuple[list, dict]:
    """The workload's panels and, per series id, its backtest forecasts."""
    n = w.n_panels if n_panels is None else n_panels
    if w.methods is not None:
        return build_benchmark_suite(n, seed=seed, n_experts=w.n_experts), {}
    root = RandomStreams(seed).child("perfbench", w.name)
    panels, backtests = [], {}
    for i in range(n):
        sid = f"{w.name}-{i:04d}"
        horizon = w.horizons[i % len(w.horizons)]
        tagged, bt = _regime_panel(root.child(i).generator(), sid, horizon, w.n_experts,
                                   w.backtest_steps)
        panels.append(tagged)
        if bt:
            backtests[sid] = bt
    return panels, backtests


def arbitration_inputs(w: Workload, panels: list, backtests: dict) -> list[tuple]:
    """``(panel, initial_window)`` pairs; the window is ``None`` unless seeded."""
    return [
        (
            t.panel,
            seed_window_from_context(t.panel, backtests[t.panel.series_id], w.config)
            if w.backtest_steps
            else None,
        )
        for t in panels
    ]


def trace_summary(trace) -> dict:
    """The parts of an arbitration trace the correctness gate compares."""
    steps = trace.steps
    return {
        "series_id": trace.series_id,
        "rules": [s.weight_rule for s in steps],
        "counts": [[int(c) for c in s.sample_counts] for s in steps],
        "weights": [[float(v) for v in trace.weights_at(t)] for t in range(len(steps))],
        "quantiles": [[float(v) for v in s.forecast.values] for s in steps],
    }


def trace_digest(trace) -> str:
    """Bit-exact fingerprint of a trace, for pass-to-pass determinism."""
    return hashlib.sha256(json.dumps(trace_summary(trace)).encode()).hexdigest()


def mismatches(expected, actual, path: str = "", tol: float = 0.0) -> list[str]:
    """Differences between two JSON-like values; floats under a key of
    ``FLOAT_TOL`` compare within its relative tolerance, all else exactly."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or expected.keys() != actual.keys():
            return [f"{path}: keys differ"]
        return [
            m
            for k in expected
            for m in mismatches(expected[k], actual[k], f"{path}.{k}", FLOAT_TOL.get(k, tol))
        ]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: lengths differ"]
        return [
            m
            for i, (e, a) in enumerate(zip(expected, actual))
            for m in mismatches(e, a, f"{path}[{i}]", tol)
        ]
    if tol and isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(expected, actual, rel_tol=tol, abs_tol=tol):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: expected {expected!r}, got {actual!r}"]


def report_problems(w: Workload, rows: list[dict], n_panels: int) -> list[str]:
    """Invariants of an eval report that hold for any seed."""
    methods = {r["method"] for r in rows}
    wanted = {m for m in w.methods if m != "per-model"}
    if "per-model" in w.methods:
        wanted |= {f"model:expert_{i:02d}" for i in range(w.n_experts)}
    if methods != wanted:
        return [f"report methods {sorted(methods)} != {sorted(wanted)}"]
    scopes = {m: sorted(r["scope"] for r in rows if r["method"] == m) for m in methods}
    if len({tuple(s) for s in scopes.values()}) != 1 or "overall" not in scopes[w.methods[0]]:
        return ["report scopes differ between methods or lack 'overall'"]
    # The CLI compares against synapse when present, else the first method.
    reference = "synapse" if "synapse" in methods else w.methods[0]
    problems = []
    overall = {r["method"]: r for r in rows if r["scope"] == "overall"}
    for r in rows:
        where = f"{r['method']}@{r['scope']}"
        if not (math.isfinite(r["crps"]) and r["crps"] > 0 and math.isfinite(r["mase"])):
            problems.append(f"{where}: non-finite or non-positive score")
        if r["scope"] == "overall-balanced":
            continue
        if r["wins"] + r["losses"] + r["ties"] != r["n_panels"]:
            problems.append(f"{where}: wins + losses + ties != n_panels")
        if r["method"] == reference and r["ties"] != r["n_panels"]:
            problems.append(f"{where}: reference method does not tie itself")
    if any(r["n_panels"] != n_panels for r in overall.values()):
        problems.append(f"overall rows do not cover all {n_panels} panels")
    if "oracle" in overall:
        members = [r["crps"] for m, r in overall.items() if m.startswith("model:")]
        if members and overall["oracle"]["crps"] > min(members):
            problems.append("oracle CRPS exceeds the best pool member's")
    return problems


def trace_problems(panel, window, trace) -> list[str]:
    """Invariants of one arbitration trace that hold for any seed."""
    sid = panel.series_id
    if len(trace.steps) != panel.horizon or tuple(trace.model_names) != tuple(panel.model_names):
        return [f"{sid}: trace does not cover the panel"]
    first = trace.steps[0].weight_rule
    if (first == "uniform") != (window is None):
        return [f"{sid}: first-step rule {first!r} does not fit the window"]
    if tuple(trace.medians) != tuple(s.simulated_truth for s in trace.steps):
        return [f"{sid}: simulated truth is not the arbitrated median"]
    return []


def reversed_panels(panel_path: Path, count: int, out_dir: Path) -> tuple[list, list]:
    """The first ``count`` panels of a file, as loaded and with the model order
    reversed (through the file format, so no internal type is rebuilt)."""
    with panel_path.open(encoding="utf-8") as fh:
        records = [json.loads(next(fh)) for _ in range(count)]
    for name, recs in (("head.jsonl", records), ("reversed.jsonl", [
        {**r, "models": dict(reversed(list(r["models"].items())))} for r in records
    ])):
        (out_dir / name).write_text("".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8")
    return load_panels(out_dir / "head.jsonl"), load_panels(out_dir / "reversed.jsonl")


def relabel_problems(w: Workload, panel, flipped, backtests: dict, seed: int) -> list[str]:
    """Reversing the pool must permute weights bit-exactly and leave
    quantiles unchanged (for ensembles: per-model CRPS permuted, ensembles
    unchanged)."""
    sid = panel.series_id
    if w.methods is not None and "synapse" not in w.methods:
        problems = []
        a, b = oracle_select(panel), oracle_select(flipped)
        if [list(r) for r in a.crps_matrix] != [list(r)[::-1] for r in b.crps_matrix]:
            problems.append(f"{sid}: oracle CRPS rows are not permuted bit-exactly")
        for t in range(panel.horizon):
            fa, fb = panel.forecasts_at(t), flipped.forecasts_at(t)
            if quantile_median_ensemble(fa).values != quantile_median_ensemble(fb).values:
                problems.append(f"{sid}: median ensemble changed at t={t}")
            ma, mb = quantile_mean_ensemble(fa).values, quantile_mean_ensemble(fb).values
            if mismatches(list(ma), list(mb), tol=FLOAT_TOL["quantiles"]):
                problems.append(f"{sid}: mean ensemble changed at t={t}")
        return problems
    windows = [
        seed_window_from_context(p, backtests[sid], w.config) if w.backtest_steps else None
        for p in (panel, flipped)
    ]
    a, b = (
        run_arbitration(p, initial_window=win, config=w.config, streams=RandomStreams(seed))
        for p, win in zip((panel, flipped), windows)
    )
    for t, (sa, sb) in enumerate(zip(a.steps, b.steps)):
        if tuple(a.weights_at(t)) != tuple(b.weights_at(t))[::-1]:
            return [f"{sid}: weights not permuted bit-exactly at t={t}"]
        if tuple(sa.sample_counts) != tuple(sb.sample_counts)[::-1]:
            return [f"{sid}: sample counts not permuted at t={t}"]
        if tuple(sa.forecast.values) != tuple(sb.forecast.values):
            return [f"{sid}: quantiles changed at t={t}"]
    return []


def golden_output(w: Workload, work_dir: Path):
    """Outputs on the golden inputs: report rows for eval workloads, trace
    summaries for arbitration workloads."""
    panels, backtests = build_inputs(w, GOLDEN_SEED, w.golden_panels)
    if w.methods is not None:
        panel_path, report_path = work_dir / "golden.jsonl", work_dir / "golden-report.json"
        save_panels(panel_path, panels)
        code = cli_main(w.eval_args(panel_path, report_path, GOLDEN_SEED))
        if code != 0:
            raise RuntimeError(f"quantarb eval exited with {code} on the golden inputs")
        return json.loads(report_path.read_text(encoding="utf-8"))["rows"]
    streams = RandomStreams(GOLDEN_SEED)
    return [
        trace_summary(run_arbitration(p, initial_window=win, config=w.config, streams=streams))
        for p, win in arbitration_inputs(w, panels, backtests)
    ]
