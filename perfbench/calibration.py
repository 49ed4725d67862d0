"""Host-speed calibration: a fixed kernel run between the workload's operations.

The benchmark host is shared, and its speed drifts by 10-20% within seconds:
the CPU time of the very same pass does too, so it is not stolen time alone.
A fixed kernel slows down with it. On a 2-core shared Xeon, the CPU time of
a ``long-window`` pass and that of the slices run between its panels
correlated at 0.97 over 26 passes, and scaling by the slices cut the
pass-to-pass spread (sd) from 14% to 3%.

So every timed pass runs short slices of the kernel between operations, and
its CPU time is scaled by ``REFERENCE_SLICE_NS / mean slice CPU time``: the
seconds the pass would take on a host where one slice takes 2.7 ms. Each
step latency is scaled by the slices nearest it, since the speed also drifts
within a pass. The kernel depends on numpy and Python only, never on
quantarb, so at a given host speed a change to quantarb moves the scaled
times in the same proportion as the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

#: CPU time of one slice on the reference host (the median on a 2-core
#: shared Xeon); it only sets the scale of the reported seconds.
REFERENCE_SLICE_NS = 2_700_000

#: CPU time of work after which ``tick`` runs the next slice.
INTERVAL_NS = 30_000_000

#: Slices on each side of a step that give its local scale.
NEAR = 3

_SAMPLES = np.random.default_rng(0).normal(size=1500)
_LEVELS = np.linspace(0.05, 0.95, 19)


def _kernel() -> float:
    """The mix an arbitration step runs: sorting and quantiles of 1500-value
    arrays, then a Python loop over the 19 quantiles."""
    total = 0.0
    for i in range(30):
        values = np.quantile(np.sort(_SAMPLES * (1 + i * 1e-3)), _LEVELS)
        for j in range(len(values)):
            total += abs(float(values[j]) - 0.1 * j) * (1 if values[j] > 0 else 2)
    return total


class Calibrator:
    """Slices of the kernel run during one pass, and the scale they give."""

    def __init__(self) -> None:
        self.slice_ns: list[int] = []
        self._since = time.process_time_ns()

    def slice(self) -> None:
        start = time.process_time_ns()
        _kernel()
        self._since = time.process_time_ns()
        self.slice_ns.append(self._since - start)

    def tick(self) -> None:
        """Run a slice when ``INTERVAL_NS`` of CPU time passed since the last."""
        if time.process_time_ns() - self._since >= INTERVAL_NS:
            self.slice()

    @property
    def total_ns(self) -> int:
        return sum(self.slice_ns)

    def scale(self) -> float:
        """Factor from this host's CPU seconds to reference-host seconds."""
        return REFERENCE_SLICE_NS * len(self.slice_ns) / self.total_ns

    def local_scale(self, k: int) -> float:
        """Scale from the slices nearest the point where ``k`` slices had run;
        it follows the host's speed within a pass."""
        near = self.slice_ns[max(0, k - NEAR):k + NEAR]
        return REFERENCE_SLICE_NS * len(near) / sum(near)
