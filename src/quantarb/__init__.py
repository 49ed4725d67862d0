"""Dynamic arbitration of quantile forecasts over a model pool.

Turn per-model quantile forecasts into a single adaptive predictive
distribution: score models on a rolling window, weight them, pool
inverse-transform samples, and read off empirical quantiles. Includes the
hindsight oracle selector, static ensemble baselines, CRPS/MASE scoring, a
regime-switching synthetic benchmark, and a CLI harness.

Import from the submodules: ``quantarb.arbitration``, ``quantarb.core``,
``quantarb.reporting``, ``quantarb.synthetic`` and so on.
"""

__version__ = "0.1.0"
