"""Continuous-time market equilibrium for log investors with diverse beliefs.

The economy has one productive asset in unit net supply paying dividend
stream delta_t, and a bank account in zero net supply.  Agent j discounts
log consumption at rate rho_j and prices events with a subjective density
process Lambda^j against the common reference measure, under which the
driver X is standard Brownian motion and

    d delta = delta * sigma * (dX + alpha_star dt).

With log utility everything is closed form.  Writing
l_j(t) = -rho_j t + log Lambda^j_t - log nu_j and q = softmax(l):

    zeta_t   = sum_j exp(l_j) / delta_t          (state-price density)
    PD_t     = sum_j q_j / rho_j                 (price/dividend ratio)
    S_t      = delta_t * PD_t
    r_t      = rhobar + sigma*(alpha_star + alphabar) - sigma^2
    kappa_t  = sigma - alphabar
    sigma^S  = kappa + a,   a = weighted drift with weights q_j/rho_j
    w_j      = delta * q_j / rho_j,   c_j = rho_j w_j = delta * q_j
    pi_j     = w_j (alpha_j + kappa) / (S (a + kappa))

so the clearing identities sum(c) = delta, sum(w) = S, sum(pi) = 1 hold to
rounding error by construction.  All agent aggregation happens in log
space, which is immune to under/overflow at large t.

Arrays are agent-major: a path's per-agent quantities are (J, n+1), and
those of a batch of P paths (J, P, n+1), so every sum or max over agents
reduces the leading, contiguous axis (J is small, and reductions over a
short trailing axis are slow).  Nothing ties one path to another, so the
kernel (``market_state``) takes a single exp pass over any number of paths:
with m = max_j l_j, e = exp(l - m) and s = sum_j e_j, q = e / s,
zeta = exp(m + log s - log delta), PD = sum_j (e_j / rho_j) / s, and
everything else follows from q and e.

A simulated path (``EquilibriumPath``) keeps that kernel's ``MarketState``
and derives S, sigma^S, zeta, w, c, pi and the trade diffusions theta from
it on first access, so a caller that reads only PD, r and S (the moment
report) never builds the per-agent portfolio arrays.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .beliefs import (ConstantDrift, ContinuousBelief,
                      bayesian_log_ratio_closed_form, drift_at)
from .errors import ConfigError, SingularMarketError
from .numerics import solve_decreasing, write_rows
from .rngtools import path_rng

# |a + kappa| below this is treated as a degenerate (zero stock volatility)
# market rather than silently producing huge portfolio numbers.
_SINGULAR_TOL = 1e-14

# A price/dividend ratio beyond this almost certainly means the transversality
# (integrability) requirement fails for the chosen parameters; runs flag it.
PD_DIVERGENCE_LIMIT = 1e6


def _require_finite(owner, prefix=""):
    """ConfigError naming the first number field of ``owner`` not finite."""
    for name, value in vars(owner).items():
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise ConfigError(f"{prefix}{name} must be finite")


@dataclass(frozen=True)
class AgentSpec:
    """One log investor: impatience rho > 0, a belief, and either an
    equilibrium weight nu > 0 or an initial wealth (converted through
    nu = 1 / (rho * wealth), the ratio the zeta_0 = 1 convention fixes)."""

    impatience: float
    belief: ContinuousBelief
    weight: Optional[float] = None
    initial_wealth: Optional[float] = None

    def __post_init__(self):
        if not self.impatience > 0.0:
            raise ConfigError("impatience must be > 0")
        if (self.weight is None) == (self.initial_wealth is None):
            raise ConfigError("exactly one of weight, initial_wealth must be set")
        if self.weight is not None and not self.weight > 0.0:
            raise ConfigError("weight must be > 0")
        if self.initial_wealth is not None and not self.initial_wealth > 0.0:
            raise ConfigError("initial_wealth must be > 0")
        _require_finite(self)
        _require_finite(self.belief, "belief.")

    def resolved_weight(self) -> float:
        if self.weight is not None:
            return self.weight
        return 1.0 / (self.impatience * self.initial_wealth)


@dataclass(frozen=True)
class MarketSpec:
    """Dividend dynamics plus the agent roster."""

    sigma: float
    agents: tuple
    drift_adjustment: float = 0.0
    initial_dividend: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ConfigError("sigma must be > 0")
        if not self.initial_dividend > 0.0:
            raise ConfigError("initial_dividend must be > 0")
        if len(self.agents) < 1:
            raise ConfigError("at least one agent is required")
        _require_finite(self)
        object.__setattr__(self, "agents", tuple(self.agents))

    def arrays(self):
        rho = np.array([a.impatience for a in self.agents])
        nu = np.array([a.resolved_weight() for a in self.agents])
        return rho, nu


# ---------------------------------------------------------------------------
# pointwise equilibrium formulas, agent axis first: per-agent arrays have
# shape (J, ...), so every aggregate over agents reduces the leading axis


def _per_agent(values, like):
    """A (J,) parameter shaped to broadcast against the (J, ...) ``like``."""
    return np.reshape(values, (-1,) + (1,) * (np.ndim(like) - 1))


def _log_weights(rho, nu, log_lam, t):
    """(m, e, s) for l_j = -rho_j t + log Lambda^j - log nu_j: m = max_j l_j,
    e = exp(l - m) and s = sum_j e_j, so that q = e / s and
    log sum_j exp(l_j) = m + log s.  The only exp over agents."""
    l = -_per_agent(rho, log_lam) * t + log_lam
    l -= _per_agent(np.log(nu), log_lam)
    m = l.max(axis=0)
    l -= m
    e = np.exp(l, out=l)
    return m, e, e.sum(axis=0)


def _wealth_moments(rho, e, s, alpha):
    """(PD, a): PD = sum_j q_j / rho_j, and a, the drift average under
    wealth weights proportional to q_j / rho_j."""
    u = e / _per_agent(rho, e)
    su = u.sum(axis=0)
    u *= alpha
    return su / s, u.sum(axis=0) / su


def _rate_and_kappa(rho, q, alpha, sigma, drift_adjustment):
    """(r, kappa, alphabar, rhobar) from the consumption shares q."""
    alphabar = (q * alpha).sum(axis=0)
    rhobar = (q * _per_agent(rho, q)).sum(axis=0)
    r = rhobar + sigma * (drift_adjustment + alphabar) - sigma * sigma
    return r, sigma - alphabar, alphabar, rhobar


def _check_volatility(a, kappa):
    """Raise SingularMarketError where the stock volatility a + kappa
    vanishes."""
    if np.any(np.abs(a + kappa) < _SINGULAR_TOL):
        raise SingularMarketError("a + kappa = 0: stock volatility degenerate")


def wealth_and_portfolios(rho, q, alpha, dividend, kappa, a):
    """Wealth, consumption and risky-asset holdings for every agent, each
    of shape (J, ...).

    Raises SingularMarketError where the stock volatility denominator
    a + kappa vanishes.
    """
    _check_volatility(a, kappa)
    consumption = dividend * q
    wealth = consumption / _per_agent(rho, q)
    # unit net supply: holdings are each agent's share of
    # sum_j w_j (alpha_j + kappa) = S (a + kappa), normalized by that sum
    # itself, so they add up to 1 even where a + kappa is small
    holdings = np.add(alpha, kappa, out=np.empty_like(wealth))
    holdings *= wealth
    holdings /= holdings.sum(axis=0)
    return wealth, consumption, holdings


def trade_volume(rho, q, alpha, sigma):
    """Diffusion coefficients theta_j, shape (J, ...), of the holdings
    processes and their Euclidean norm (the total trading-volume proxy).

    Valid only under the hypotheses of the closed form: common impatience,
    constant drifts and volatility.
    """
    if np.ptp(rho) != 0.0:
        raise ConfigError("trade_volume requires a common impatience rate")
    alpha = np.asarray(alpha, dtype=float)
    q = np.asarray(q, dtype=float)
    alphabar = (q * alpha).sum(axis=0)
    dev = alpha - alphabar
    v = (q * dev * dev).sum(axis=0)
    theta = q * (dev * dev / sigma - v / sigma + dev)
    total = np.sqrt((theta * theta).sum(axis=0))
    return theta, total


def solve_market_clearing(inverse_marginals: Sequence[Callable], lam, nu,
                          dividend: float, t: float, rtol: float = 1e-13):
    """zeta_t solving sum_j I_j(t, zeta * nu_j / lam_j) = dividend.

    Each I_j(t, .) must be continuous, strictly decreasing with range
    (0, inf), which makes the aggregate demand strictly decreasing in zeta
    and the root unique.  Bracketing failures raise BracketError.
    """
    lam = np.asarray(lam, dtype=float)
    nu = np.asarray(nu, dtype=float)

    def excess(zeta):
        return math.fsum(
            I(t, zeta * nu_j / lam_j) for I, nu_j, lam_j in zip(inverse_marginals, nu, lam)
        ) - dividend

    return solve_decreasing(excess, rtol=rtol)


# ---------------------------------------------------------------------------
# path simulation


def _n_steps(horizon, dt):
    if not (0.0 < dt <= horizon and math.isfinite(horizon / dt)):
        raise ConfigError("need a finite horizon > 0 and 0 < dt <= horizon")
    return int(round(horizon / dt))


def _drivers(horizon, dt, seed, path_indices):
    """(times, X) with X of shape (P, n+1): row i is the gaussian random
    walk with N(0, dt) increments drawn from path_rng(seed, path_indices[i])."""
    n = _n_steps(horizon, dt)
    x = np.zeros((len(path_indices), n + 1))
    for p, row in zip(path_indices, x):
        # Generator.normal(0, scale) draws scale * z: the same doubles
        steps = path_rng(seed, p).standard_normal(out=row[1:])
        steps *= math.sqrt(dt)
        np.cumsum(steps, out=steps)
    return np.arange(n + 1) * dt, x


def driver_batches(horizon: float, dt: float, seed: int, n_paths: int,
                   max_points: int):
    """Yield the (times, X) of paths 0..n_paths-1 in batches of whole paths,
    each as large as keeps its P * (n+1) within max_points (at least one
    path).  A path's driver does not depend on the batch it falls in."""
    size = max(1, max_points // (_n_steps(horizon, dt) + 1))
    for start in range(0, n_paths, size):
        yield _drivers(horizon, dt, seed,
                       range(start, min(start + size, n_paths)))


def dividend_path(spec: MarketSpec, times, x):
    """delta on the grid from driver values x of any leading path shape:
    d log delta = sigma dX + (sigma*alpha_star - sigma^2/2) dt."""
    return np.exp(math.log(spec.initial_dividend) + spec.sigma * x
                  + (spec.sigma * spec.drift_adjustment - 0.5 * spec.sigma**2)
                  * times)


def log_ratio_paths(spec: MarketSpec, times, x):
    """Per-agent (log Lambda, believed drift) along driver paths.

    Both are exact on the grid: constant-drift agents get the exponential
    martingale, gaussian learners the closed form with the prior integrated
    out.  For x of shape (..., n+1), one path per row, returns agent-major
    arrays of shape (J, ..., n+1).
    """
    log_lam = np.empty((len(spec.agents),) + np.shape(x))
    alpha = np.empty_like(log_lam)
    for j, agent in enumerate(spec.agents):
        b = agent.belief
        if isinstance(b, ConstantDrift):
            alpha[j] = b.drift
            log_lam[j] = b.drift * x - 0.5 * b.drift**2 * times
        else:
            alpha[j] = drift_at(b, times, x)
            log_lam[j] = bayesian_log_ratio_closed_form(b, times, x)
    return log_lam, alpha


class MarketState(NamedTuple):
    """The equilibrium along driver paths x of shape (..., n+1): per-agent
    fields are agent-major (J, ..., n+1), the rest (..., n+1)."""

    log_lam: np.ndarray
    alpha: np.ndarray
    q: np.ndarray
    log_max: np.ndarray    # m = max_j l_j
    weight_sum: np.ndarray  # s = sum_j exp(l_j - m)
    pd_ratio: np.ndarray
    wealth_drift: np.ndarray  # drift average under wealth weights q_j/rho_j
    rate: np.ndarray
    kappa: np.ndarray
    mean_drift: np.ndarray       # q-weighted average drift
    mean_impatience: np.ndarray  # q-weighted average impatience
    ic_suspect: bool   # PD exceeded PD_DIVERGENCE_LIMIT somewhere


def market_state(spec: MarketSpec, times, x) -> MarketState:
    """What the moments and the numeric guards need, in one exp pass over
    agent-major arrays; no path is tied to another, so x may hold any
    number of paths.  Raises SingularMarketError where a + kappa vanishes."""
    rho, nu = spec.arrays()
    log_lam, alpha = log_ratio_paths(spec, times, x)
    m, e, s = _log_weights(rho, nu, log_lam, times)
    pd, a = _wealth_moments(rho, e, s, alpha)
    q = np.divide(e, s, out=e)
    r, kappa, abar, rhobar = _rate_and_kappa(
        rho, q, alpha, spec.sigma, spec.drift_adjustment)
    _check_volatility(a, kappa)
    return MarketState(log_lam, alpha, q, m, s, pd, a, r, kappa, abar, rhobar,
                       bool(np.any(pd > PD_DIVERGENCE_LIMIT)))


@dataclass
class EquilibriumPath:
    """One simulated equilibrium trajectory on a uniform grid: the driver,
    the dividend and the market state along them.

    pd_ratio, rate, kappa, ic_suspect, q, drifts and log_ratios read the
    state; stock, stock_vol, zeta, wealth, consumption, holdings and trade
    are derived from it on first access and then kept.  Per-agent fields
    are (n+1, J) views of agent-major (J, n+1) arrays; trade is NaN unless
    all agents share one impatience rate.
    """

    spec: MarketSpec
    times: np.ndarray
    x: np.ndarray
    dividend: np.ndarray
    state: MarketState
    dt: float

    CSV_BASE_COLUMNS = ("t", "X", "delta", "zeta", "S", "PD", "r", "kappa", "sigmaS")

    pd_ratio = property(lambda self: self.state.pd_ratio)
    rate = property(lambda self: self.state.rate)
    kappa = property(lambda self: self.state.kappa)
    ic_suspect = property(lambda self: self.state.ic_suspect)
    q = property(lambda self: self.state.q.T)  # consumption shares
    drifts = property(lambda self: self.state.alpha.T)  # alpha^j_t
    log_ratios = property(lambda self: self.state.log_lam.T)  # log Lambda^j_t

    @cached_property
    def stock(self):
        return self.dividend * self.state.pd_ratio

    @cached_property
    def stock_vol(self):
        return self.state.kappa + self.state.wealth_drift

    @cached_property
    def zeta(self):
        k = self.state
        return np.exp(k.log_max + np.log(k.weight_sum) - np.log(self.dividend))

    @cached_property
    def _portfolios(self):
        k = self.state
        return tuple(a.T for a in wealth_and_portfolios(
            self.spec.arrays()[0], k.q, k.alpha, self.dividend, k.kappa,
            k.wealth_drift))

    wealth = property(lambda self: self._portfolios[0])
    consumption = property(lambda self: self._portfolios[1])
    holdings = property(lambda self: self._portfolios[2])  # units of the asset

    @cached_property
    def trade(self):
        rho = self.spec.arrays()[0]
        if np.ptp(rho) != 0.0:
            return np.full_like(self.state.q, np.nan).T
        return trade_volume(rho, self.state.q, self.state.alpha,
                            self.spec.sigma)[0].T

    @property
    def n_agents(self):
        return self.q.shape[1]

    def csv_header(self):
        cols = list(self.CSV_BASE_COLUMNS)
        J = self.n_agents
        for name in ("q", "w", "c", "pi", "theta"):
            cols += [f"{name}_{j + 1}" for j in range(J)]
        return cols

    def write_csv(self, fp):
        """Fixed column order: t, X, delta, zeta, S, PD, r, kappa, sigmaS,
        then q_1..q_J, w_1..w_J, c_1..c_J, pi_1..pi_J, theta_1..theta_J."""
        fp.write(",".join(self.csv_header()) + "\n")
        write_rows(fp, np.column_stack((
            self.times, self.x, self.dividend, self.zeta, self.stock,
            self.pd_ratio, self.rate, self.kappa, self.stock_vol,
            self.q, self.wealth, self.consumption, self.holdings, self.trade)))


def simulate_path(spec: MarketSpec, horizon: float, dt: float, seed: int,
                  path_index: int = 0) -> EquilibriumPath:
    """Simulate one equilibrium path under the reference measure;
    deterministic given (seed, path_index)."""
    times, x = _drivers(horizon, dt, seed, (path_index,))
    x = x[0]
    return EquilibriumPath(spec, times, x, dividend_path(spec, times, x),
                           market_state(spec, times, x), dt)


def simulate_paths(spec: MarketSpec, horizon: float, dt: float, seed: int,
                   n_paths: int):
    """Yield n_paths independent paths split off the master seed."""
    for p in range(n_paths):
        yield simulate_path(spec, horizon, dt, seed, p)
