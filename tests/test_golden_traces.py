"""Arbitration output against traces recorded before the batched kernel.

``data/golden_traces.json`` holds ``run_arbitration`` traces of four desk-suite
panels (seed 0, six experts, one per domain, all three horizon classes),
arbitrated with the default config and one shared stream tree. They were
first written by the per-forecast SciPy PCHIP fit and per-step window
re-scoring, which the batched kernel matched bit for bit, and re-recorded when
the suite's normal quantiles moved from SciPy to the standard library. Rules,
sample counts and weights must match exactly; quantiles to 1e-12.

``data/golden_traces_variants.json`` holds traces of the same panels under
``mode="static-uniform"`` and on the output grid (0.05, 0.1, 0.2), which lacks
0.5, recorded with ``np.quantile`` as the requantizer. They must match bit
for bit.

Regenerate the files only on a commit whose arbitration output is known to
be right::

    PYTHONPATH=src python tests/test_golden_traces.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from quantarb.arbitration import ArbitratorConfig, run_arbitration
from quantarb.core import QuantileLevels
from quantarb.quantiles import RandomStreams
from quantarb.synthetic import build_benchmark_suite

GOLDEN = Path(__file__).parent / "data" / "golden_traces.json"
VARIANTS_GOLDEN = Path(__file__).parent / "data" / "golden_traces_variants.json"

VARIANTS = {
    "static-uniform": ArbitratorConfig(mode="static-uniform"),
    "levels-0.05-0.1-0.2": ArbitratorConfig(levels=QuantileLevels((0.05, 0.1, 0.2))),
}

#: Suite indices: domains 0..3 and horizon classes short, medium, long, short.
PANEL_INDICES = (0, 5, 10, 15)
SEED = 0


def _traces() -> list[dict]:
    suite = build_benchmark_suite(max(PANEL_INDICES) + 1, seed=SEED, n_experts=6)
    streams = RandomStreams(SEED)
    out = []
    for i in PANEL_INDICES:
        trace = run_arbitration(suite[i].panel, streams=streams)
        out.append(
            {
                "series_id": trace.series_id,
                "rules": [s.weight_rule for s in trace.steps],
                "counts": [list(s.sample_counts) for s in trace.steps],
                "weights": [list(s.weights) for s in trace.steps],
                "quantiles": [list(s.forecast.values) for s in trace.steps],
            }
        )
    return out


def test_traces_match_the_recorded_golden_set():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["seed"] == SEED
    actual = _traces()
    assert [t["series_id"] for t in actual] == [t["series_id"] for t in golden["traces"]]
    for want, got in zip(golden["traces"], actual):
        sid = want["series_id"]
        assert got["rules"] == want["rules"], sid
        assert got["counts"] == want["counts"], sid
        assert got["weights"] == want["weights"], sid
        assert len(got["quantiles"]) == len(want["quantiles"]), sid
        for t, (qw, qg) in enumerate(zip(want["quantiles"], got["quantiles"])):
            assert len(qg) == len(qw)
            for a, b in zip(qw, qg):
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12), (sid, t, a, b)


def _variant_traces(config: ArbitratorConfig) -> list[dict]:
    suite = build_benchmark_suite(max(PANEL_INDICES) + 1, seed=SEED, n_experts=6)
    streams = RandomStreams(SEED)
    out = []
    for i in PANEL_INDICES:
        trace = run_arbitration(suite[i].panel, config=config, streams=streams)
        out.append(
            {
                "series_id": trace.series_id,
                "rules": trace.rules.tolist(),
                "counts": trace.counts.tolist(),
                "weights": trace.weights.tolist(),
                "quantiles": trace.quantiles.tolist(),
                "medians": trace.simulated.tolist(),
            }
        )
    return out


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_variant_traces_match_the_recorded_set_bit_for_bit(variant):
    golden = json.loads(VARIANTS_GOLDEN.read_text(encoding="utf-8"))
    assert golden["seed"] == SEED
    assert _variant_traces(VARIANTS[variant]) == golden["variants"][variant]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({"seed": SEED, "traces": _traces()}, indent=1) + "\n", encoding="utf-8"
    )
    variants = {name: _variant_traces(config) for name, config in VARIANTS.items()}
    VARIANTS_GOLDEN.write_text(
        json.dumps({"seed": SEED, "variants": variants}, indent=1) + "\n", encoding="utf-8"
    )
