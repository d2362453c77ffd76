"""Asset-market equilibrium engine for log investors with diverse beliefs.

Each application lives in one engine (``equilibrium``, ``feedback``,
``beauty``, ``calibration``), and a run needs only the one it calls.  So
importing the package compiles none of them: every submodule but the
command-line front end ``cli`` is registered in ``sys.modules`` through
``importlib.util.LazyLoader`` and runs when one of its attributes is first
read.  The names listed in ``__all__`` are served from their modules by
the module ``__getattr__`` below (PEP 562), and the modules reach one
another through module attributes read at call time
(``feedback.run_feedback``), so running ``feedback`` never runs
``equilibrium``, ``calibration`` or ``beauty``.

Registering every module at import, rather than importing inside the
functions that need one, keeps the whole program visible to a caller that
wraps module attributes once, such as the benchmark's tracer: every module
is in ``sys.modules`` from the start, and reading its attributes runs it.
``LazyLoader`` is not thread-safe before Python 3.12; the package starts
no threads.
"""

__version__ = "0.1.0"

import ctypes
import importlib.util
import os
import sys

# Set before numpy loads OpenBLAS.  The engine's only BLAS calls are dot
# products over a handful of agents, so OpenBLAS worker threads do no work
# here; they only spin after start-up, taking CPU from the main thread.  A
# value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _keep_freed_heap():
    """Have glibc keep freed memory for reuse instead of handing it back to
    the OS: the fit objective and the moment report free and re-allocate
    the same arrays on every evaluation or path, and each hand-back made
    the next one fault the pages in again.  Blocks under 32 MiB
    (M_MMAP_THRESHOLD) come from the heap, not from mmap, and up to 256 MiB
    of free memory at its top stays mapped (M_TRIM_THRESHOLD); each array
    of a fit batch takes up to 512 KiB, and each per-agent array of a
    50-year daily path of configs/benchmark3.json about 300 KiB.  A user's
    MALLOC_* setting is kept, and without glibc's mallopt nothing changes.
    Returns whether the thresholds were set."""
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

#: Public name -> the submodule that defines it.
_ORIGIN = {name: module for module, names in (
    ("beliefs", ("BayesianGaussian", "ConstantDrift", "drift_at")),
    ("equilibrium", ("AgentSpec", "EquilibriumPath", "MarketSpec",
                     "simulate_path", "simulate_paths",
                     "solve_market_clearing")),
    ("feedback", ("FeedbackConfig", "FeedbackResult", "run_feedback")),
    ("beauty", ("ContestSpec", "pareto_faked_equilibrium",
                "truthful_equilibrium", "welfare_comparison")),
    ("calibration", ("CalibrationProblem", "DEFAULT_TARGETS",
                     "FreeParameter", "MomentReport", "compute_moments",
                     "fit_parameters", "ingest_price_dividend_csv",
                     "moment_loss")),
    ("errors", ("BeliefMktError", "ConfigError", "FixedPointError",
                "NumericError", "SaturationError", "SingularMarketError")),
) for name in names}
__all__ = sorted(_ORIGIN)


def _register(name):
    """Put submodule ``name`` in sys.modules and in this namespace; its code
    runs when one of its attributes is first read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = globals()[name] = module
    spec.loader.exec_module(module)


# ``cli`` is left out: it is the entry point, imported by name, and a module
# already in sys.modules would make ``python -m beliefmkt.cli`` warn.
for _name in ("beauty", "beliefs", "calibration", "config", "equilibrium",
              "errors", "feedback", "numerics", "rngtools"):
    _register(_name)
del _name


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_ORIGIN[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
