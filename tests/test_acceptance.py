"""Timed end-to-end checks for the whole pipeline.

Each test prints one PASS/FAIL line with its measured numbers, outside
pytest's capture, then asserts the same condition. All suites are pinned by
seed, so every number printed here reproduces run over run.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from time import perf_counter

import numpy as np
import pytest
from scipy.optimize import bisect

from quantarb.arbitration import ArbitratorConfig, run_arbitration
from quantarb.core import DEFAULT_LEVELS, ForecastPanel, QuantileForecast, build_panel
from quantarb.metrics import crps_batch, mase_scale
from quantarb.oracle import (
    median_ensemble_rankings,
    oracle_select,
    topk_selection_accuracy,
)
from quantarb.panelio import TaggedPanel
from quantarb.quantiles import InverseCdf, RandomStreams, empirical_quantiles
from quantarb.reporting import (
    run_evaluation,
    run_pool_scaling,
    score_panel,
    selection_accuracy_table,
)
from quantarb.synthetic import build_benchmark_suite

ALL_METHODS = ("synapse", "synapse-static", "median", "mean", "per-model", "oracle")

#: z-scores of the nine working quantile levels under a standard normal.
_Z = np.array([NormalDist().inv_cdf(a) for a in DEFAULT_LEVELS.levels])


def _verdict(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def _gaussian_forecast(loc: float, scale: float) -> QuantileForecast:
    return QuantileForecast(DEFAULT_LEVELS, tuple(loc + scale * z for z in _Z))


def _fit(fc: QuantileForecast) -> InverseCdf:
    return InverseCdf(np.asarray(fc.levels.levels), np.asarray(fc.values))


def _crps(fc: QuantileForecast, y: float) -> float:
    return float(crps_batch(fc.levels.levels, fc.values, y))


@pytest.fixture(scope="module")
def desk_suite():
    start = perf_counter()
    suite = build_benchmark_suite(200, seed=0, n_experts=6)
    return suite, perf_counter() - start


def test_metric_hand_examples_match_exactly(capsys):
    start = perf_counter()

    def close(got, want):
        return got == pytest.approx(want, rel=1e-12)

    def wql(alpha, q, y):
        # One quantile's weighted loss, 2 * pinball / max(|y|, 1e-8): the
        # CRPS approximation with K = 1. At |y| = 2 it equals the pinball loss.
        return float(crps_batch([alpha], [q], y))

    def reported_mase(point, actual):
        panel = build_panel("m", [0.0, 1.0, 3.0], [actual], 1, DEFAULT_LEVELS,
                            [("a", [[point] * 9])])
        return score_panel(TaggedPanel(panel), ["per-model"])["model:a"].mase

    staircase = QuantileForecast(DEFAULT_LEVELS, tuple(float(v) for v in range(1, 10)))
    checks = [
        wql(0.5, 0.0, 2.0) == 1.0,
        wql(0.9, 3.0, 3.0) == 0.0,
        close(wql(0.1, 5.0, 2.0), 2.7),
        wql(0.5, 4.0, 4.0) == 0.0,
        close(wql(0.2, 1.0, -2.0), 2.4),
        close(wql(0.5, 1.0, 0.0), 2.0 * 0.5 * 1.0 / 1e-8),
        _crps(QuantileForecast(DEFAULT_LEVELS, (5.0,) * 9), 5.0) == 0.0,
        close(_crps(staircase, 5.0), 8.0 / 45.0),
        mase_scale([0.0, 1.0, 3.0], 1) == 1.5,
        close(reported_mase(4.0, 2.0), 4.0 / 3.0),
        reported_mase(2.0, 2.0) == 0.0,
    ]
    elapsed = perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    _verdict(
        capsys,
        ok,
        "metric hand examples",
        f"{sum(checks)}/{len(checks)} exact, {elapsed:.3f}s (budget 1s)",
    )


def test_sampling_round_trip_recovers_quantiles_with_monotone_probes(capsys):
    start = perf_counter()
    streams = RandomStreams(2024)
    param_rng = np.random.default_rng(314159)

    worst_ratio = 0.0
    for case in range(100):
        loc = float(param_rng.uniform(-50.0, 50.0))
        scale = float(10.0 ** param_rng.uniform(-1.0, 1.2))
        fc = _gaussian_forecast(loc, scale)
        xs = _fit(fc)(streams.child("rt", case).generator().random(200_000))
        back = empirical_quantiles(xs, DEFAULT_LEVELS)
        tol = max(1e-2, 1e-2 * (fc.values[-1] - fc.values[0]))
        err = max(abs(a - b) for a, b in zip(back, fc.values))
        worst_ratio = max(worst_ratio, err / tol)

    probe_rng = np.random.default_rng(99)
    probes = 0
    violations = 0
    for case in range(100):
        loc = float(probe_rng.uniform(-50.0, 50.0))
        scale = float(10.0 ** probe_rng.uniform(-1.0, 1.2))
        icdf = _fit(_gaussian_forecast(loc, scale))
        pairs = probe_rng.uniform(1e-6, 1.0 - 1e-6, size=(100, 2))
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        strict = hi > lo
        probes += int(strict.sum())
        violations += int(np.sum(icdf(hi[strict]) < icdf(lo[strict])))

    elapsed = perf_counter() - start
    ok = worst_ratio <= 1.0 and probes >= 10_000 and violations == 0 and elapsed < 30.0
    _verdict(
        capsys,
        ok,
        "inverse-CDF round trip",
        f"worst error {100.0 * worst_ratio:.1f}% of tolerance over 100 forecasts at "
        f"n=200000; {violations} order violations in {probes} probes; "
        f"{elapsed:.1f}s (budget 30s)",
    )


def test_pooled_mixture_quantiles_match_bisection_inverted_cdf(capsys):
    start = perf_counter()
    streams = RandomStreams(555)
    param_rng = np.random.default_rng(777)
    grid_p = np.linspace(1e-6, 1.0 - 1e-6, 20_001)

    worst = 0.0
    for case in range(50):
        scale_a = float(param_rng.uniform(0.5, 1.5))
        scale_b = float(param_rng.uniform(0.5, 1.5))
        loc_a = float(param_rng.uniform(-1.0, 1.0))
        separation = float(param_rng.uniform(0.0, 2.0 * max(scale_a, scale_b)))
        loc_b = loc_a + separation * (1.0 if param_rng.uniform() < 0.5 else -1.0)
        icdf_a = _fit(_gaussian_forecast(loc_a, scale_a))
        icdf_b = _fit(_gaussian_forecast(loc_b, scale_b))

        xs_a = icdf_a(streams.child("mix", case, "a").generator().random(500_000))
        xs_b = icdf_b(streams.child("mix", case, "b").generator().random(500_000))
        pooled = empirical_quantiles(np.concatenate([xs_a, xs_b]), DEFAULT_LEVELS)

        q_a = icdf_a(grid_p)
        q_b = icdf_b(grid_p)

        def mixture_cdf(x: float) -> float:
            f_a = float(np.interp(x, q_a, grid_p, left=0.0, right=1.0))
            f_b = float(np.interp(x, q_b, grid_p, left=0.0, right=1.0))
            return 0.5 * (f_a + f_b)

        lo = min(q_a[0], q_b[0]) - 1.0
        hi = max(q_a[-1], q_b[-1]) + 1.0
        for alpha, got in zip(DEFAULT_LEVELS.levels, pooled):
            want = bisect(lambda x: mixture_cdf(x) - alpha, lo, hi, xtol=1e-10)
            worst = max(worst, abs(got - want))

    elapsed = perf_counter() - start
    ok = worst <= 2e-2
    _verdict(
        capsys,
        ok,
        "mixture quantile agreement",
        f"worst gap {worst:.4f} (tolerance 0.02) across 50 seeded 50/50 mixtures "
        f"at all 9 levels; {elapsed:.1f}s",
    )


def test_arbitration_budget_determinism_and_relabeling(capsys):
    start = perf_counter()
    suite = build_benchmark_suite(10, seed=21)
    config = ArbitratorConfig()

    worst_weight_gap = 0.0
    budget_misses = 0
    determinism_ok = True
    relabel_ok = True
    steps_seen = 0
    for tagged in suite:
        panel = tagged.panel
        first = run_arbitration(panel, config=config, streams=RandomStreams(42))
        second = run_arbitration(panel, config=config, streams=RandomStreams(42))
        determinism_ok &= first == second

        for step in first.steps:
            steps_seen += 1
            gap = abs(math.fsum(step.weights) - 1.0)
            worst_weight_gap = max(worst_weight_gap, gap)
            if sum(step.sample_counts) != config.n_total:
                budget_misses += 1

        flipped_panel = ForecastPanel(
            series_id=panel.series_id,
            context=panel.context,
            actuals=panel.actuals,
            seasonality=panel.seasonality,
            model_names=panel.model_names[::-1],
            levels=panel.levels,
            values=panel.values[::-1],
        )
        flipped = run_arbitration(flipped_panel, config=config, streams=RandomStreams(42))
        for fwd, rev in zip(first.steps, flipped.steps):
            relabel_ok &= fwd.forecast.values == rev.forecast.values
            relabel_ok &= fwd.simulated_truth == rev.simulated_truth
            relabel_ok &= tuple(reversed(fwd.weights)) == rev.weights
            relabel_ok &= tuple(reversed(fwd.sample_counts)) == rev.sample_counts

    elapsed = perf_counter() - start
    ok = (
        worst_weight_gap <= 1e-9
        and budget_misses == 0
        and determinism_ok
        and relabel_ok
    )
    _verdict(
        capsys,
        ok,
        "arbitration conformance",
        f"{steps_seen} steps: worst weight-sum gap {worst_weight_gap:.2e} (tol 1e-9), "
        f"{budget_misses} budget misses of 1500, repeat-run identical {determinism_ok}, "
        f"relabeling bit-exact {relabel_ok}; {elapsed:.1f}s",
    )


def test_oracle_dominates_every_constituent_with_topk_certainty(capsys):
    start = perf_counter()
    suite = build_benchmark_suite(1000, seed=0)

    dominance_violations = 0
    ordering_violations = 0
    certainty_misses = 0
    for idx, tagged in enumerate(suite):
        panel = tagged.panel
        trace = oracle_select(panel)
        horizon = len(trace.selections)
        for col in range(panel.n_models):
            member = math.fsum(row[col] for row in trace.crps_matrix) / horizon
            if trace.crps > member:
                dominance_violations += 1
        if idx % 100 == 0:
            per = crps_batch(panel.levels.levels, panel.values[0], panel.require_actuals())
            recomputed = float(np.mean(per))
            matrix_mean = math.fsum(row[0] for row in trace.crps_matrix) / horizon
            assert recomputed == pytest.approx(matrix_mean, rel=1e-12)

        rankings = median_ensemble_rankings(panel)
        accs = [
            topk_selection_accuracy(rankings, trace, k)
            for k in range(1, panel.n_models + 1)
        ]
        if any(later < earlier for earlier, later in zip(accs, accs[1:])):
            ordering_violations += 1
        if accs[-1] != 1.0:
            certainty_misses += 1

    elapsed = perf_counter() - start
    ok = dominance_violations == 0 and ordering_violations == 0 and certainty_misses == 0
    _verdict(
        capsys,
        ok,
        "oracle dominance",
        f"{dominance_violations} dominance exceptions over 1000 panels, "
        f"{ordering_violations} top-k ordering breaks, {certainty_misses} panels "
        f"with full-pool accuracy != 1.0; {elapsed:.1f}s",
    )


def test_desk_scale_directional_claims(capsys, desk_suite):
    suite, build_elapsed = desk_suite
    start = perf_counter()
    rows = run_evaluation(suite, methods=ALL_METHODS)
    rows_again = run_evaluation(suite, methods=ALL_METHODS)
    table = selection_accuracy_table(suite)
    elapsed = build_elapsed + (perf_counter() - start)

    overall = {r.method: r for r in rows if r.scope == "overall"}
    synapse = overall["synapse"].crps
    static = overall["synapse-static"].crps
    median = overall["median"].crps
    best_expert = min(v.crps for k, v in overall.items() if k.startswith("model:"))
    top1_weights = table["synapse"][0]
    top1_median = table["median"][0]

    beats_best = synapse < best_expert
    beats_median = synapse < median
    static_between = synapse < static < median
    top1_better = top1_weights > top1_median
    deterministic = rows == rows_again
    under_budget = elapsed < 300.0

    ok = (
        beats_best
        and beats_median
        and static_between
        and top1_better
        and deterministic
        and under_budget
    )
    _verdict(
        capsys,
        ok,
        "desk-scale claims",
        f"CRPS synapse {synapse:.5f} < best expert {best_expert:.5f} [{beats_best}], "
        f"< median {median:.5f} [{beats_median}], static {static:.5f} strictly between "
        f"[{static_between}]; top-1 agreement {top1_weights:.4f} > {top1_median:.4f} "
        f"[{top1_better}]; repeat-run identical {deterministic}; "
        f"{elapsed:.1f}s (budget 300s)",
    )


def test_growing_pools_never_lose_to_best_member(capsys, desk_suite):
    suite, _ = desk_suite
    start = perf_counter()
    names = suite[0].panel.model_names
    rows = run_pool_scaling(suite, names)
    elapsed = perf_counter() - start

    sizes_ok = [r.pool_size for r in rows] == list(range(2, len(names) + 1))
    losing = [r.pool_size for r in rows if r.crps > r.best_individual_crps]
    ok = sizes_ok and not losing
    per_row = ", ".join(
        f"n={r.pool_size} {r.crps:.5f}<={r.best_individual_crps:.5f}" for r in rows
    )
    _verdict(
        capsys,
        ok,
        "pool scaling sweep",
        f"arbitrated CRPS vs best member per prefix: {per_row}; "
        f"losing rows {losing}; {elapsed:.1f}s",
    )
