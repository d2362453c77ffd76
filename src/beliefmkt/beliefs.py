"""Agent beliefs as likelihood-ratio processes against a reference measure.

Two families are supported.

Continuous time: an agent believes the common Brownian driver X carries a
drift.  The drift is either a fixed constant or the posterior mean of a
gaussian prior updated from the observed path (a conjugate learner).  The
belief enters equilibrium through the density process Lambda, which solves
d Lambda = Lambda * alpha_t dX; both kinds of agent have it in closed form.

Discrete time: an agent models observed log increments as i.i.d. gaussian
with known precision tau and unknown mean, carrying a conjugate
N(mu0, 1/(K0*tau)) prior.  The joint subjective density lambda_t of the
observations admits a cheap multiplicative update, and the likelihood
ratio against the mean-zero reference measure has a closed form in the
posterior state alone.

Everything is kept in log space; densities are exponentiated only on
demand, with an explicit saturation error instead of silent infinities.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, SaturationError

_LOG_TWO_PI = math.log(2.0 * math.pi)
_LOG_MAX = math.log(np.finfo(float).max)


# ---------------------------------------------------------------------------
# continuous-time beliefs


@dataclass(frozen=True)
class ConstantDrift:
    """Belief that the driver has a fixed drift per unit sqrt-time."""

    drift: float


@dataclass(frozen=True)
class BayesianGaussian:
    """Gaussian prior on the driver drift: mean ``prior_mean``, precision
    ``prior_precision`` (in time units, > 0)."""

    prior_mean: float
    prior_precision: float

    def __post_init__(self):
        if not self.prior_precision > 0.0:
            raise ConfigError("prior_precision must be > 0")


ContinuousBelief = Union[ConstantDrift, BayesianGaussian]


def drift_at(belief: ContinuousBelief, t, x):
    """Believed driver drift at time t given cumulative driver value x.

    Constant-drift agents return their drift unconditionally; conjugate
    learners return the posterior mean (x + beta*eps) / (eps + t).
    Accepts scalar or array t, x.
    """
    if isinstance(belief, ConstantDrift):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(np.float64(belief.drift), t.shape)[()] if t.shape else float(belief.drift)
    beta, eps = belief.prior_mean, belief.prior_precision
    return (np.asarray(x, dtype=float) + beta * eps) / (eps + np.asarray(t, dtype=float))


def drift_slope(belief: ContinuousBelief, t):
    """d drift_at / dx = 1 / (eps + t); a constant drift has eps = inf."""
    eps = getattr(belief, "prior_precision", math.inf)
    return 1.0 / (eps + np.asarray(t, dtype=float))


def bayesian_log_ratio_closed_form(belief: BayesianGaussian, t, x):
    """Closed-form log Lambda_t for the gaussian learner (prior integrated
    out): 0.5*log(eps/(eps+t)) + (x^2 + 2*beta*eps*x - eps*beta^2*t) / (2*(eps+t))."""
    beta, eps = belief.prior_mean, belief.prior_precision
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    return 0.5 * np.log(eps / (eps + t)) + (
        x * x + 2.0 * beta * eps * x - eps * beta * beta * t
    ) / (2.0 * (eps + t))


# ---------------------------------------------------------------------------
# discrete-time beliefs


@dataclass(frozen=True)
class DiscreteBelief:
    """Conjugate gaussian model for per-step log growth.

    prior_mean    mu0, prior mean of the per-step increment
    prior_weight  K0 > 0, prior effective sample size
    precision     tau > 0, assumed precision of one increment
    """

    prior_mean: float
    prior_weight: float
    precision: float

    def __post_init__(self):
        if not self.prior_weight > 0.0:
            raise ConfigError("prior_weight must be > 0")
        if not self.precision > 0.0:
            raise ConfigError("precision must be > 0")


@dataclass(frozen=True)
class BeliefState:
    """Immutable posterior state after ``step`` observations.

    ``log_density`` accumulates the log joint subjective density of the
    observations; ``sample_size`` is K_t and always equals K0 + step.
    """

    step: int
    posterior_mean: float
    sample_size: float
    log_density: float


def initial_state(belief: DiscreteBelief) -> BeliefState:
    return BeliefState(step=0, posterior_mean=belief.prior_mean,
                       sample_size=belief.prior_weight, log_density=0.0)


def posterior_mean_step(mean, weight, x):
    """Posterior mean after observing x: mean + (x - mean) / (weight + 1)."""
    return mean + (x - mean) / (weight + 1.0)


def log_density_increment(mean, weight, precision, x):
    """log(lambda_{t+1}/lambda_t) for observation x against posterior
    (mean, weight):  0.5 * (-tau*eps^2*K/(K+1) + log(K/(K+1)) + log(tau/2pi)),
    eps = x - mean.  Vectorizes over any argument.
    """
    eps = x - mean
    k1 = weight + 1.0
    return 0.5 * (
        -precision * eps * eps * weight / k1
        + np.log(weight / k1)
        + np.log(precision) - _LOG_TWO_PI
    )


def update(state: BeliefState, belief: DiscreteBelief, x: float) -> BeliefState:
    """Consume one observed increment and return the new state."""
    dlog = log_density_increment(state.posterior_mean, state.sample_size,
                                 belief.precision, x)
    step = state.step + 1
    return BeliefState(
        step=step,
        posterior_mean=posterior_mean_step(state.posterior_mean, state.sample_size, x),
        # K_t is re-derived from the integer step count, never accumulated
        # in floating point, so K_t = K0 + t holds exactly.
        sample_size=belief.prior_weight + step,
        log_density=state.log_density + float(dlog),
    )


def log_likelihood_ratio(state: BeliefState, belief: DiscreteBelief) -> float:
    """log Lambda_t against the mean-zero reference measure of the same
    precision: (tau/2) (K_t mu_t^2 - K0 mu0^2) + 0.5 log(K0/K_t)."""
    tau = belief.precision
    k0, mu0 = belief.prior_weight, belief.prior_mean
    kt, mut = state.sample_size, state.posterior_mean
    return 0.5 * tau * (kt * mut * mut - k0 * mu0 * mu0) + 0.5 * math.log(k0 / kt)


def likelihood_ratio(state: BeliefState, belief: DiscreteBelief) -> float:
    """Lambda_t materialized from log space.

    Raises SaturationError instead of returning infinity when the log
    ratio exceeds the representable range.
    """
    log_ratio = log_likelihood_ratio(state, belief)
    if log_ratio > _LOG_MAX:
        raise SaturationError(
            f"log likelihood ratio {log_ratio:.6g} exceeds representable range"
        )
    return math.exp(log_ratio)
