"""Exception types shared across the package.

Everything raised on purpose derives from :class:`ArbitrationError`, so callers
(and the CLI exit-code mapping) can distinguish domain failures from bugs.
"""

from __future__ import annotations


class ArbitrationError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ArbitrationError):
    """Model forecast matrices disagree on horizon length or quantile grid."""


class NonMonotoneQuantiles(ArbitrationError):
    """Quantile values decrease across levels beyond tolerance."""

    def __init__(
        self,
        message: str,
        model: str | None = None,
        timestep: int | None = None,
        indices: tuple[int, ...] = (),
    ) -> None:
        super().__init__(message)
        self.model = model
        self.timestep = timestep
        self.indices = tuple(indices)


class NonFinite(ArbitrationError):
    """NaN or infinity where a finite value is required."""


class LengthMismatch(ArbitrationError):
    """Paired sequences have different lengths."""


class ZeroDenominator(ArbitrationError):
    """Scale denominator is exactly zero (e.g. seasonal-naive MAE on a periodic context)."""


class SeriesTooShort(ArbitrationError):
    """Series is too short for the requested computation."""


class EmptyWindow(ArbitrationError):
    """Performance window holds no records."""


class EmptySampleSet(ArbitrationError):
    """Empirical quantiles requested over zero samples."""


class MissingActuals(ArbitrationError):
    """Operation needs ground-truth actuals but the panel has none."""


class EmptyGroup(ArbitrationError):
    """Grouped aggregation received no members."""


class Misalignment(ArbitrationError):
    """Per-timestep structures do not line up."""


class AlignmentMismatch(ArbitrationError):
    """Backtest forecasts do not align with the context window."""


class InsufficientModels(ArbitrationError):
    """Operation needs more models than the panel provides."""


class ParseError(ArbitrationError):
    """Panel file could not be parsed; message carries file and line."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None) -> None:
        super().__init__(message)
        self.path = path
        self.line = line


class SchemaVersionMismatch(ArbitrationError):
    """Panel document declares an unsupported schema version."""
