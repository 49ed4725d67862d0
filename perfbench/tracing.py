"""Layer spans for the traced benchmark run, recorded from outside the package.

Each layer's public functions are wrapped where their caller looks them up
(``quantarb.arbitration.fit_inverse_cdf``, not ``quantarb.quantiles``'s, since
``arbitration`` imports the name), so no source file changes. Spans live in
memory with a panel id and a parent; a layer's self time is its span duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager


def _calls(key):
    def count(counts, args, result):
        counts[key] += 1

    return count


def _bytes_read(counts, args, result):
    counts["panelio.bytes_read"] += os.path.getsize(args[0])


def _forecasts_validated(counts, args, result):
    counts["core.forecasts_validated"] += result.n_models * result.horizon


def _samples_drawn(counts, args, result):
    counts["quantiles.samples_drawn"] += int(args[1])


def count_steps(counts, args, result):
    """Steps and weight rules of one arbitration trace."""
    counts["arbitration.steps"] += len(result.steps)
    for step in result.steps:
        counts[f"arbitration.rule.{step.weight_rule}"] += 1


def _panel_of_tagged(args):
    return args[0].panel.series_id


#: (module, attribute path, span name, counter, panel id of the call).
PATCHES = (
    ("quantarb.cli", "load_panels", "panelio.load", _bytes_read, None),
    ("quantarb.panelio", "build_panel", "core.build_panel", _forecasts_validated, None),
    ("quantarb.cli", "run_evaluation", "reporting.aggregate", None, None),
    ("quantarb.cli", "emit_report", "reporting.emit", None, None),
    ("quantarb.reporting", "score_panel", "reporting.score", None, _panel_of_tagged),
    ("quantarb.reporting", "run_arbitration", "arbitration.run", count_steps, None),
    ("quantarb.reporting", "crps_series", "metrics.crps_series", None, None),
    ("quantarb.reporting", "mase", "metrics.mase", None, None),
    ("quantarb.reporting", "oracle_select", "oracle.select", None, None),
    ("quantarb.reporting", "quantile_median_ensemble", "baselines.ensemble", None, None),
    ("quantarb.reporting", "quantile_mean_ensemble", "baselines.ensemble", None, None),
    ("quantarb.arbitration", "average_crps_scores", "arbitration.score", None, None),
    ("quantarb.arbitration", "crps_timestep", "metrics.crps_timestep",
     _calls("metrics.crps_timestep.calls"), None),
    ("quantarb.arbitration", "weights_with_rule", "arbitration.weights", None, None),
    ("quantarb.arbitration", "arbitrate_timestep", "arbitration.timestep", None, None),
    ("quantarb.arbitration", "fit_inverse_cdf", "quantiles.fit", _calls("quantiles.fit.calls"),
     None),
    ("quantarb.arbitration", "sample", "quantiles.sample", _samples_drawn, None),
    ("quantarb.arbitration", "empirical_quantiles", "quantiles.requantize", None, None),
    ("quantarb.quantiles", "RandomStreams.generator", "quantiles.streams",
     _calls("quantiles.streams.calls"), None),
)

#: Per-layer metric for each span's self time; other spans map to ``<span>_s``.
SELF_TIME_METRIC = {
    "cli.main": "cli.main_self_s",
    "reporting.score": "reporting.score_self_s",
    "arbitration.run": "arbitration.run_self_s",
    "arbitration.timestep": "arbitration.timestep_self_s",
}


class Tracer:
    """Nested spans ``[name, panel id, parent index, start ns, end ns]`` and
    counts, for one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.panel: str | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None, panel_of=None):
        def traced(*args, **kwargs):
            outer_panel = self.panel
            if panel_of is not None:
                self.panel = panel_of(args)
            span = [name, self.panel, self._stack[-1] if self._stack else -1, 0, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                self._stack.pop()
                self.panel = outer_panel
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def take(self) -> tuple[dict[str, float], list[list]]:
        """Per-layer self seconds and counts since the last call, plus the spans."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        child_ns = [0] * len(spans)
        for _, _, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        metrics: dict[str, float] = dict(counts)
        for (name, _, _, start, end), inner in zip(spans, child_ns):
            key = SELF_TIME_METRIC.get(name, f"{name}_s")
            metrics[key] = metrics.get(key, 0.0) + (end - start - inner) / 1e9
        return metrics, spans


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    return owner, attr


@contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` triples for the block, then restore them."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def layer_patches(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrapped replacements for every layer call site, plus the call sites
    this version of the package does not have (left untraced)."""
    replacements, missing = [], []
    for module, path, name, count, panel_of in PATCHES:
        owner, attr = _owner(module, path)
        if owner is None or not hasattr(owner, attr):
            missing.append(f"{module}.{path}")
            continue
        replacements.append((owner, attr, tracer.wrap(name, getattr(owner, attr), count, panel_of)))
    return replacements, missing
