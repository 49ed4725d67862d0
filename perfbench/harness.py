"""One benchmark run: set-up, warm-up, timed passes, correctness gate, metrics.

All load comes from this process on one thread, as a closed loop with one
caller: each operation starts when the previous one has returned. Passes and
steps are timed in CPU time, which leaves out the time the host takes the
virtual CPU away, and scaled by calibration slices run between operations
(``calibration.py``), which take out the drift of the host's speed.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import quantarb.cli
import quantarb.reporting
import tracing
import workloads
from quantarb.arbitration import run_arbitration
from quantarb.panelio import load_panels
from quantarb.quantiles import RandomStreams

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Panels per run whose pool is reversed for the relabel check.
RELABEL_PANELS = 2
CHILD_TIMEOUT_S = 60
#: Untraced runs measure past ``--seconds`` (up to three times as long)
#: until they hold this many step samples, so that p90 has ten beyond it.
MIN_STEP_SAMPLES = 100

#: End-to-end metrics. ``setup_s`` is the median CPU time of the run's
#: set-ups; the other times are CPU times of untraced passes scaled to the
#: reference host (``calibration.REFERENCE_SLICE_NS``), ``pass_s`` their median.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "step_us.p50": "us",
    "step_us.p90": "us",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics. ``_s`` values are seconds of self time in one timed
#: pass (median over traced passes, unscaled wall time) unless they come from
#: set-up (CPU time); ``trace.*`` are unscaled CPU seconds per pass.
PER_LAYER = {
    "cli.import_s": "s",
    "synthetic.build_s": "s",
    "panelio.save_s": "s",
    "cli.main_self_s": "s",
    "panelio.load_s": "s",
    "panelio.bytes_read": "bytes",
    "core.build_panel_s": "s",
    "core.forecasts_validated": "count",
    "reporting.aggregate_s": "s",
    "reporting.score_self_s": "s",
    "reporting.emit_s": "s",
    "metrics.crps_series_s": "s",
    "metrics.mase_s": "s",
    "oracle.select_s": "s",
    "baselines.ensemble_s": "s",
    "arbitration.run_self_s": "s",
    "arbitration.score_s": "s",
    "arbitration.weights_s": "s",
    "arbitration.timestep_self_s": "s",
    "metrics.crps_timestep_s": "s",
    "metrics.crps_timestep.calls": "count",
    "quantiles.fit_s": "s",
    "quantiles.fit.calls": "count",
    "quantiles.sample_s": "s",
    "quantiles.samples_drawn": "count",
    "quantiles.streams_s": "s",
    "quantiles.streams.calls": "count",
    "quantiles.requantize_s": "s",
    "arbitration.steps": "count",
    "arbitration.rule.uniform": "count",
    "arbitration.rule.inverse_error": "count",
    "arbitration.rule.softmax": "count",
    "arbitration.rule.static": "count",
    "reporting.serial_eval_s": "s",
    "reporting.workers_eval_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "failed_ratio": "ratio",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _provenance() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quantarb").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        **{name: _version(name) for name in ("numpy", "scipy", "jsonschema")},
        "nproc": _nproc(),
        "cpu": _cpu_model(),
    }


def _step_timer(samples: list, fn, horizon_of, calibrator=None):
    """``fn`` that appends its CPU time per horizon step, in microseconds, for
    the calls ``horizon_of(args, kwargs)`` gives a horizon (not ``None``),
    with the number of calibration slices run before it. The calibrator, if
    any, ticks untimed ahead of each call."""

    def timed(*args, **kwargs):
        if calibrator is not None:
            calibrator.tick()
        start = time.process_time_ns()
        result = fn(*args, **kwargs)
        elapsed = time.process_time_ns() - start
        horizon = horizon_of(args, kwargs)
        if horizon is not None:
            slices = len(calibrator.slice_ns) if calibrator is not None else 0
            samples.append((elapsed / 1e3 / horizon, slices))
        return result

    return timed


def _panel_horizon(args, kwargs):
    return args[0].horizon


def _dynamic_horizon(args, kwargs):
    """Horizon of a dynamic arbitration run; ``None`` for static-uniform ones,
    whose steps skip scoring and would make the step latencies bimodal."""
    mode = getattr(kwargs.get("config"), "mode", "dynamic")
    return args[0].horizon if mode == "dynamic" else None


def _tagged_horizon(args, kwargs):
    return args[0].panel.horizon


def _spread(values: list[float]) -> float:
    return (max(values) - min(values)) / statistics.median(values)


class Run:
    """State of one benchmark run: inputs, operation tally and measurements."""

    def __init__(self, w: workloads.Workload, seed: int, directory: Path) -> None:
        self.w = w
        self.seed = seed
        self.dir = directory
        self.attempted = 0
        self.failures: list[str] = []
        self.streams = RandomStreams(seed)
        self.report_path = directory / "report.json"
        self.untraced: list[str] = []

    def op(self, problems: list[str]) -> None:
        """Count one operation; it fails when it reports any problem."""
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems[:3]))

    def setup(self) -> list[dict]:
        """Prepare the inputs in fresh interpreters; returns their timings."""
        timings = []
        for i in range(SETUP_REPEATS):
            out = self.dir / f"setup-{i}"
            out.mkdir()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "prepare.py"), self.w.name, str(self.seed),
                 str(out)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
            timings.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        files = [(self.dir / f"setup-{i}" / workloads.PANEL_FILE).read_bytes()
                 for i in range(SETUP_REPEATS)]
        self.op([] if len(set(files)) == 1 else ["set-up runs wrote different panel files"])
        self.panel_path = self.dir / "setup-0" / workloads.PANEL_FILE
        backtest_path = self.dir / "setup-0" / workloads.BACKTEST_FILE
        self.backtests = (json.loads(backtest_path.read_text(encoding="utf-8"))
                          if backtest_path.exists() else {})
        if self.w.methods is None:
            panels = load_panels(self.panel_path)
            self.inputs = workloads.arbitration_inputs(self.w, panels, self.backtests)
        return timings

    def _step_site(self, samples: list, calibrator) -> list:
        """Where per-panel latency is timed inside ``quantarb eval``: each
        arbitration run (samples from dynamic runs only) when the workload
        arbitrates, else each panel's scoring. Calibration ticks go there too."""
        if self.w.methods is None:
            return []
        attr, horizon_of = (("run_arbitration", _dynamic_horizon) if "synapse" in self.w.methods
                            else ("score_panel", _tagged_horizon))
        fn = getattr(quantarb.reporting, attr)
        return [(quantarb.reporting, attr, _step_timer(samples, fn, horizon_of, calibrator))]

    def one_pass(self, samples: list, tracer: tracing.Tracer | None,
                 calibrator: calibration.Calibrator | None = None) -> list:
        """Run every operation of the workload once; returns each one's raw
        output, or the exception it raised. With a calibrator, its slices
        run between operations."""
        outputs = []
        with tracing.patched(self._step_site(samples, calibrator)):
            layers = []
            if tracer is not None:
                layers, self.untraced = tracing.layer_patches(tracer)
            with tracing.patched(layers):
                self._operations(outputs, samples, tracer, calibrator)
        return outputs

    def _operations(self, outputs: list, samples: list, tracer: tracing.Tracer | None,
                    calibrator: calibration.Calibrator | None) -> None:
        if self.w.methods is not None:
            main = quantarb.cli.main
            if tracer is not None:
                main = tracer.wrap("cli.main", main)
            try:
                outputs.append(main(self.w.eval_args(self.panel_path, self.report_path,
                                                     self.seed)))
            except Exception as exc:  # counted as a failed operation
                outputs.append(exc)
            return
        arbitrate = _step_timer(samples, run_arbitration, _panel_horizon, calibrator)
        if tracer is not None:
            arbitrate = tracer.wrap("arbitration.run", arbitrate, tracing.count_steps)
        for panel, window in self.inputs:
            if tracer is not None:
                tracer.panel = panel.series_id
            try:
                outputs.append(arbitrate(panel, initial_window=window, config=self.w.config,
                                         streams=self.streams))
            except Exception as exc:  # counted as a failed operation
                outputs.append(exc)

    def fingerprints(self, outputs: list) -> list:
        """Comparable form of a pass's outputs: report bytes or trace digests."""
        keys = []
        for out in outputs:
            if isinstance(out, Exception):
                keys.append(f"raised {out!r}")
            elif self.w.methods is not None:
                keys.append(self.report_path.read_bytes() if out == 0 else f"exit code {out}")
            else:
                keys.append(workloads.trace_digest(out))
        return keys

    def warm_up(self) -> None:
        """First pass, untimed: its outputs are checked and every later pass
        must reproduce them exactly."""
        outputs = self.one_pass([], None)
        self.expected = self.fingerprints(outputs)
        if self.w.methods is not None:
            for out, key in zip(outputs, self.expected):
                problems = [key] if isinstance(key, str) else workloads.report_problems(
                    self.w, json.loads(key)["rows"], self.w.n_panels)
                self.op(problems)
            return
        for (panel, window), out in zip(self.inputs, outputs):
            self.op([f"{panel.series_id}: {out!r}"] if isinstance(out, Exception)
                    else workloads.trace_problems(panel, window, out))

    def timed(self, seconds: float, tracer: tracing.Tracer | None) -> dict:
        """Passes until ``seconds`` have elapsed; with a tracer, passes
        alternate between untraced and traced. Untraced passes run
        calibration slices, one before and one after the pass and more between
        its operations; their CPU time leaves the slices out."""
        cpu = {False: [], True: []}
        scaled, scales = [], []
        step_us, pass_p50, layers = [], [], []
        self.spans = []
        start = time.perf_counter()

        def more() -> bool:
            elapsed = time.perf_counter() - start
            if elapsed < seconds or not cpu[False] or (tracer is not None and not cpu[True]):
                return True
            return tracer is None and len(step_us) < MIN_STEP_SAMPLES and elapsed < 3 * seconds

        while more():
            traced = tracer is not None and len(cpu[False]) > len(cpu[True])
            samples: list[tuple[float, int]] = []
            calibrator = None if traced else calibration.Calibrator()
            gc.collect()  # every pass starts from the same heap state
            if calibrator is not None:
                calibrator.slice()
            t0, slices0 = time.process_time_ns(), calibrator.total_ns if calibrator else 0
            outputs = self.one_pass(samples, tracer if traced else None, calibrator)
            slices_ns = calibrator.total_ns - slices0 if calibrator else 0
            cpu[traced].append((time.process_time_ns() - t0 - slices_ns) / 1e9)
            if traced:
                metrics, self.spans = tracer.take()
                layers.append(metrics)
            else:
                calibrator.slice()
                scale = calibrator.scale()
                scales.append(scale)
                scaled.append(cpu[False][-1] * scale)
                steps = [v * calibrator.local_scale(k) for v, k in samples]
                step_us.extend(steps)
                if steps:
                    pass_p50.append(statistics.median(steps))
            for key, want in zip(self.fingerprints(outputs), self.expected):
                self.op([] if key == want else ["output differs from the first pass"])
        return {"cpu": cpu, "scaled": scaled, "scales": scales, "step_us": step_us,
                "pass_p50": pass_p50, "layers": layers,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    def check_golden(self) -> None:
        reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
        want = reference["workloads"].get(self.w.name)
        if want is None:
            self.op([f"no reference stored for {self.w.name}"])
            return
        try:
            got = workloads.golden_output(self.w, self.dir)
        except Exception as exc:  # counted as a failed operation
            self.op([f"golden run raised {exc!r}"])
            return
        self.op(["golden: " + m for m in workloads.mismatches(want, got)])

    def check_relabel(self) -> None:
        try:
            pairs = zip(*workloads.reversed_panels(self.panel_path, RELABEL_PANELS, self.dir))
            for a, b in pairs:
                self.op(workloads.relabel_problems(self.w, a.panel, b.panel, self.backtests,
                                                   self.seed))
        except Exception as exc:  # counted as a failed operation
            self.op([f"relabel check raised {exc!r}"])

    def workers_diagnostic(self) -> dict[str, float]:
        """``quantarb eval`` of the workload's file, serial and with one
        worker thread per core; both reports must be identical."""
        seconds, reports = {}, {}
        for label, extra in (("serial", []), ("workers", ["--workers", str(_nproc())])):
            out = self.dir / f"{label}-report.json"
            start = time.perf_counter()
            code = quantarb.cli.main(self.w.eval_args(self.panel_path, out, self.seed) + extra)
            seconds[label] = time.perf_counter() - start
            reports[label] = out.read_bytes() if code == 0 else None
        same = reports["serial"] is not None and reports["serial"] == reports["workers"]
        self.op([] if same else ["--workers report differs from the serial one"])
        return {"reporting.serial_eval_s": seconds["serial"],
                "reporting.workers_eval_s": seconds["workers"]}


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One benchmark run; prints the result line and returns the exit code."""
    w = workloads.WORKLOADS[name]
    label = f"{name}-seed{seed}-trace{int(trace)}"
    directory = WORK / label
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    bench = Run(w, seed, directory)

    setups = bench.setup()
    bench.warm_up()
    tracer = tracing.Tracer() if trace else None
    timed = bench.timed(seconds, tracer)
    bench.check_golden()
    bench.check_relabel()

    cpu = timed["cpu"]
    if trace:
        layers = timed["layers"]
        values = {k: statistics.median(m.get(k, 0) for m in layers) for k in PER_LAYER}
        for key, metric in (("import_s", "cli.import_s"), ("build_s", "synthetic.build_s"),
                            ("save_s", "panelio.save_s")):
            values[metric] = statistics.median(s[key] for s in setups)
        values.update(bench.workers_diagnostic())
        values["trace.pass_s"] = statistics.median(cpu[True])
        values["trace.overhead_s"] = values["trace.pass_s"] - statistics.median(cpu[False])
        values["failed_ratio"] = len(bench.failures) / bench.attempted
        units = PER_LAYER
    else:
        step_us = timed["step_us"]
        if len(step_us) < 2:
            bench.op(["too few step samples for percentiles"])
            step_us = [0.0, 0.0]
        values = {
            "setup_s": statistics.median(sum(s.values()) for s in setups),
            "pass_s": statistics.median(timed["scaled"]),
            "step_us.p50": statistics.median(step_us),
            "step_us.p90": statistics.quantiles(step_us, n=10)[-1],
            "peak_rss_mb": timed["peak_rss_mb"],
        }
        units = END_TO_END
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
    result = {"correct": not bench.failures, "attempted": bench.attempted,
              "failed": len(bench.failures), "metrics": metrics}

    details = {
        "workload": {"name": name, "why": w.why, **w.shape()},
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "provenance": _provenance(),
        "setups": setups,
        "pass_cpu_s": cpu[False],
        "pass_scale": timed["scales"],
        "pass_scaled_s": timed["scaled"],
        "pass_cpu_spread": _spread(cpu[False]),
        "pass_scaled_spread": _spread(timed["scaled"]),
        "step_samples": len(timed["step_us"]),
        "pass_step_p50_spread": _spread(timed["pass_p50"]) if timed["pass_p50"] else None,
        "traced_pass_cpu_s": cpu[True],
        "untraced_call_sites": bench.untraced if trace else [],
        "failures": bench.failures,
        "result": result,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{label}.json").write_text(json.dumps(details, indent=2), encoding="utf-8")
    if trace:
        with (results_dir / f"{label}-spans.jsonl").open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "panel", "parent", "start_ns", "end_ns"]) + "\n")
            fh.writelines(json.dumps(span) + "\n" for span in bench.spans)
    shutil.rmtree(directory)

    print(f"{label}: {len(cpu[False])} untraced and {len(cpu[True])} traced passes, "
          f"{details['step_samples']} step samples, pass spread {details['pass_cpu_spread']:.1%} "
          f"unscaled, {details['pass_scaled_spread']:.1%} scaled")
    for key, metric in metrics.items():
        print(f"  {key:32s} {metric['value']:.6g} {metric['unit']}")
    for failure in bench.failures[:10]:
        print(f"  FAILED: {failure}")
    print("details: " + json.dumps({k: details[k] for k in ("workload", "provenance", "seed")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
