"""Per-panel scores of every method against values recorded before the
pool-scoring pass, and re-recorded when the suite's normal quantiles moved
from SciPy to the standard library.

``data/golden_scores.json`` holds, for every panel of two benchmark suites,
the ``(crps, mase)`` that ``score_panel`` gave under each method: median,
mean, every ``model:<name>``, oracle, synapse and synapse-static. The
12-expert suite puts pools of eight and more members through the ensemble
and scoring reductions. Scores must match exactly.

Regenerate the file only on a commit whose scores are known to be right::

    PYTHONPATH=src python tests/test_golden_scores.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from quantarb.quantiles import RandomStreams
from quantarb.reporting import METHODS, score_panel
from quantarb.synthetic import build_benchmark_suite

GOLDEN = Path(__file__).parent / "data" / "golden_scores.json"

#: (name, n_panels, seed, n_experts) of each recorded suite.
SUITES = (
    ("desk-6", 12, 0, 6),
    ("wide-12", 8, 1, 12),
)


def _scores(n_panels: int, seed: int, n_experts: int) -> dict:
    suite = build_benchmark_suite(n_panels, seed=seed, n_experts=n_experts)
    streams = RandomStreams(seed)
    return {
        tagged.panel.series_id: {
            method: [score.crps, score.mase]
            for method, score in score_panel(tagged, METHODS, streams=streams).items()
        }
        for tagged in suite
    }


@pytest.mark.parametrize("name, n_panels, seed, n_experts", SUITES)
def test_scores_match_the_recorded_set_exactly(name, n_panels, seed, n_experts):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _scores(n_panels, seed, n_experts) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: _scores(*args) for name, *args in SUITES}, indent=1) + "\n",
        encoding="utf-8",
    )
