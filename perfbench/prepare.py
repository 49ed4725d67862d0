"""Set-up of one benchmark run, in a fresh interpreter.

    python3 perfbench/prepare.py WORKLOAD SEED OUT_DIR

Imports ``quantarb.cli``, builds the workload's panels from the seed and
writes them with ``quantarb.panelio.save_panels`` to ``OUT_DIR/panels.jsonl``
(backtest forecasts, when the workload has them, go to ``backtests.json``,
untimed). Prints the three timings in CPU seconds as one JSON line. ``src``
must be on ``PYTHONPATH``.
"""

import json
import sys
import time
from pathlib import Path

start = time.process_time()
import quantarb.cli  # noqa: E402,F401  (the import every CLI user pays)

imported = time.process_time()
from quantarb.panelio import save_panels  # noqa: E402

import workloads  # noqa: E402


def main(name: str, seed: str, out_dir: str) -> None:
    out = Path(out_dir)
    t0 = time.process_time()
    panels, backtests = workloads.build_inputs(workloads.WORKLOADS[name], int(seed))
    t1 = time.process_time()
    save_panels(out / workloads.PANEL_FILE, panels)
    t2 = time.process_time()
    if backtests:
        (out / workloads.BACKTEST_FILE).write_text(json.dumps(backtests), encoding="utf-8")
    timings = {"import_s": imported - start, "build_s": t1 - t0, "save_s": t2 - t1}
    print(json.dumps(timings))


if __name__ == "__main__":
    main(*sys.argv[1:])
