"""Exception types shared across the engine, its ceiling on counts and
its rule for the step count of a span.

This module imports nothing of the package, so any module may read it
without loading an engine."""

import math

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


def step_count(span, dt, key):
    """The number of steps of length dt in the span named ``key``
    (``horizon_years``, ``years``, ``horizon``): span/dt, which must lie
    within 1e-9 (relative) of a whole number from 1 to MAX_COUNT.  Every
    span of the engine is cut into steps by this rule.  Raises ConfigError
    otherwise, starting with the key at fault."""
    if not 0.0 < span < math.inf:
        raise ConfigError(f"{key}: need a finite {key} > 0")
    if not dt > 0.0:
        raise ConfigError("dt: must be > 0")
    steps = span / dt
    if steps == math.inf:
        raise ConfigError(f"dt: too small for {key} ({key}/dt overflows)")
    n = round(steps)
    if n > MAX_COUNT:
        raise ConfigError(f"{key}: {key}/dt must be at most {MAX_COUNT} "
                          f"steps")
    if n < 1:
        raise ConfigError(f"{key}: {key}/dt must give at least 1 step")
    if abs(steps - n) > 1e-9 * steps:
        raise ConfigError(f"dt: must cut {key} into whole steps, not "
                          f"{key}/dt = {steps!r}")
    return n
