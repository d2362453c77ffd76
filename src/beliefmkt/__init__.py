"""Asset-market equilibrium engine for log investors with diverse beliefs."""

__version__ = "0.1.0"

import ctypes
import os

# Set before numpy loads OpenBLAS.  The engine's only BLAS calls are dot
# products over a handful of agents, so OpenBLAS worker threads do no work
# here; they only spin after start-up, taking CPU from the main thread, and
# every --parallel worker would start its own.  A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _keep_freed_heap():
    """Have glibc keep freed memory for reuse instead of handing it back to
    the OS: the fit objective frees and re-allocates the same arrays on
    every evaluation, and each hand-back made the next evaluation fault the
    pages in again.  Blocks under 32 MiB (M_MMAP_THRESHOLD) come from the
    heap, not from mmap, and up to 256 MiB of free memory at its top stays
    mapped (M_TRIM_THRESHOLD); the arrays of a fit batch take 512 KiB.  A
    user's MALLOC_* setting is kept, and without glibc's mallopt nothing
    changes.  Returns whether the thresholds were set."""
    if any(name.startswith("MALLOC_") for name in os.environ):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no C library or mallopt
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    return True


_keep_freed_heap()

from .beliefs import (BayesianGaussian, BeliefState, ConstantDrift,
                      DiscreteBelief, drift_at, initial_state,
                      likelihood_ratio, log_likelihood_ratio, update)
from .equilibrium import (AgentSpec, EquilibriumPath, MarketSpec,
                          simulate_path, simulate_paths, solve_market_clearing)
from .feedback import FeedbackConfig, FeedbackResult, run_feedback
from .beauty import (ContestSpec, pareto_faked_equilibrium,
                     truthful_equilibrium, welfare_comparison)
from .calibration import (CalibrationProblem, DEFAULT_TARGETS, FreeParameter,
                          MomentReport, compute_moments, fit_parameters,
                          ingest_price_dividend_csv, moment_loss)
from .errors import (BeliefMktError, ConfigError, FixedPointError,
                     NumericError, SaturationError, SingularMarketError)
