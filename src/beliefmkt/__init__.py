"""Asset-market equilibrium engine for log investors with diverse beliefs."""

__version__ = "0.1.0"

import os

# Set before numpy loads OpenBLAS.  The engine's only BLAS calls are dot
# products over a handful of agents, so OpenBLAS worker threads do no work
# here; they only spin after start-up, taking CPU from the main thread, and
# every --parallel worker would start its own.  A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
