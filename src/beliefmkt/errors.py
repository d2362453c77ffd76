"""Exception types shared across the engine, and its ceiling on counts.

This module imports nothing of the package, so any module may read it
without loading an engine."""

#: Ceiling on every count a run sets or implies (steps, agents, paths, sweep
#: seeds, iterations, a fit's driver points): far past any run that fits in
#: memory or time, so a larger count is a configuration error.
MAX_COUNT = 10**9


class BeliefMktError(Exception):
    """Base class for engine failures."""


class ConfigError(BeliefMktError):
    """Invalid configuration; message names the offending field."""


class NumericError(BeliefMktError):
    """Base class for numerical failures during a run."""


class SaturationError(NumericError):
    """A log-space quantity cannot be exponentiated without overflow."""


class SingularMarketError(NumericError):
    """Degenerate market state (zero stock volatility denominator)."""


class BracketError(NumericError):
    """Root bracketing failed; the residual never changed sign."""


class FixedPointError(NumericError):
    """Per-step price fixed point could not be solved."""

    def __init__(self, message, step=None, diagnostics=None):
        super().__init__(message)
        self.step = step
        self.diagnostics = diagnostics or {}
