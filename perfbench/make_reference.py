"""Rewrite ``reference.json``, the golden outputs every run is checked against.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right: later versions
fail the benchmark's correctness gate when their outputs on these golden
inputs differ beyond ``workloads.FLOAT_TOL``.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> None:
    work = ROOT / ".bench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    reference = {
        "golden_seed": workloads.GOLDEN_SEED,
        "workloads": {
            name: workloads.golden_output(w, work) for name, w in workloads.WORKLOADS.items()
        },
    }
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
