"""Arbitration output against traces recorded before the batched kernel.

``data/golden_traces.json`` holds ``run_arbitration`` traces of four desk-suite
panels (seed 0, six experts, one per domain, all three horizon classes),
arbitrated with the default config and one shared stream tree, as written by
the per-forecast SciPy PCHIP fit and per-step window re-scoring. Rules,
sample counts and weights must match exactly; quantiles to 1e-12.

Regenerate the file only on a commit whose arbitration output is known to be
right::

    PYTHONPATH=src python tests/test_golden_traces.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from quantarb.arbitration import run_arbitration
from quantarb.quantiles import RandomStreams
from quantarb.synthetic import build_benchmark_suite

GOLDEN = Path(__file__).parent / "data" / "golden_traces.json"

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
                "weights": [list(s.weights.weights) for s in trace.steps],
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


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({"seed": SEED, "traces": _traces()}, indent=1) + "\n", encoding="utf-8"
    )
