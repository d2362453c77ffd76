"""Agent beliefs as likelihood-ratio processes against a reference measure.

Two families are supported.

Continuous time: an agent believes the common Brownian driver X carries a
drift.  The drift is either a fixed constant or the posterior mean of a
gaussian prior updated from the observed path (a conjugate learner).  The
belief enters equilibrium through the density process Lambda, which solves
d Lambda = Lambda * alpha_t dX.  Each kind carries its own believed drift
(``drift_at``), that drift's slope in the driver (``drift_slope``) and
log Lambda in closed form (``log_ratio``), on scalars or arrays.

Discrete time: an agent models observed log increments as i.i.d. gaussian
with known precision tau and unknown mean, carrying a conjugate
N(mu0, 1/(K0*tau)) prior.  The feedback engine steps each agent's
posterior mean and the log of the joint subjective density of its
observations one observation at a time, with ``posterior_mean_step`` and
``log_density_increment``; both work on arrays of agents.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError

_LOG_TWO_PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# continuous-time beliefs


@dataclass(frozen=True)
class ConstantDrift:
    """Belief that the driver has a fixed drift per unit sqrt-time."""

    drift: float

    def drift_at(self, t, x):
        """The drift, whatever the time t and driver value x."""
        return self.drift

    def drift_slope(self, t):
        """d drift_at / dx: zeros shaped like t."""
        return np.zeros(np.shape(t))

    def log_ratio(self, t, x):
        """log Lambda_t, the exponential martingale drift*x - drift^2 t / 2."""
        return self.drift * x - 0.5 * self.drift**2 * t


@dataclass(frozen=True)
class BayesianGaussian:
    """Gaussian prior on the driver drift: mean ``prior_mean``, precision
    ``prior_precision`` (in time units, > 0)."""

    prior_mean: float
    prior_precision: float

    def __post_init__(self):
        if not self.prior_precision > 0.0:
            raise ConfigError("prior_precision must be > 0")

    def drift_at(self, t, x):
        """The drift's posterior mean (x + beta*eps) / (eps + t)."""
        eps = self.prior_precision
        return (x + self.prior_mean * eps) / (eps + t)

    def drift_slope(self, t):
        """d drift_at / dx = 1 / (eps + t)."""
        return 1.0 / (self.prior_precision + t)

    def log_ratio(self, t, x):
        """log Lambda_t with the prior integrated out: 0.5*log(eps/(eps+t))
        + (x^2 + 2*beta*eps*x - eps*beta^2*t) / (2*(eps+t))."""
        beta, eps = self.prior_mean, self.prior_precision
        return 0.5 * np.log(eps / (eps + t)) + (
            x * x + 2.0 * beta * eps * x - eps * beta * beta * t
        ) / (2.0 * (eps + t))


ContinuousBelief = Union[ConstantDrift, BayesianGaussian]


# ---------------------------------------------------------------------------
# discrete-time beliefs


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
