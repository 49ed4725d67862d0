"""Benchmark of quantarb: end-to-end and per-layer metrics on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for shapes and reasons): ``desk-eval``,
``short-wide``, ``long-window``, ``ensembles-only``. Inputs come from the
seed. ``--trace 0`` prints the end-to-end metrics (``setup_s``, ``pass_s``,
``step_us.p50``, ``step_us.p90``, ``peak_rss_mb``; times are CPU times scaled
to a reference host speed, see ``calibration.py``); ``--trace 1`` runs the
same passes alternately with layer spans on and prints the per-layer metrics.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit code 0 when every output passed the
correctness gate, 1 when one did not, 2 when there are no quantarb sources
next to this directory. Work files and a full record of each run (provenance,
pass-to-pass spread, failures) go to ``.bench_work/`` at the checkout root.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads, here and in every
# child process, so all load comes from one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quantarb benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quantarb" / "__init__.py").is_file():
        print(f"error: no quantarb sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import harness

    if args.workload not in harness.workloads.WORKLOADS:
        names = ", ".join(harness.workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
