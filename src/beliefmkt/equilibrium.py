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
kernel (``market_state``, whose docstring gives its formulas in log space)
takes a single exp pass over any number of paths.

A simulated path (``EquilibriumPath``) keeps that kernel's ``MarketState``
and derives S, sigma^S, zeta, w, c, pi and the trade diffusions theta from
it on first access, so a caller that reads only PD, r and S (the moment
report) never builds the per-agent portfolio arrays.

``simulate_paths`` returns a lazy sequence: item p is simulated from
(seed, p) when it is read, through this module's ``simulate_path`` as it
stands at that moment.  Because any item can be read on its own,
``calibration.compute_moments`` splits such a sequence into one contiguous
range of paths per usable CPU (``numerics.fork_map``) when the process
runs one Python thread: forked children send back only their per-path
sums, which the report pools with math.fsum, so it is identical to the
bit to the in-order one, and an error is raised as an in-order loop would
raise it, the lowest range's first.  A generator of paths is consumed in
order instead.
"""

import math
import operator
from collections import abc
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .beliefs import ContinuousBelief
from .errors import ConfigError, SingularMarketError, step_count
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
    """One log investor: impatience rho > 0, a belief, and an equilibrium
    weight nu > 0.  An initial wealth w0 gives nu = 1 / (rho * w0), the
    ratio the zeta_0 = 1 convention fixes."""

    impatience: float
    belief: ContinuousBelief
    weight: float

    def __post_init__(self):
        if not self.impatience > 0.0:
            raise ConfigError("impatience must be > 0")
        if not self.weight > 0.0:
            raise ConfigError("weight must be > 0")
        _require_finite(self)
        _require_finite(self.belief, "belief.")


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
        nu = np.array([a.weight for a in self.agents])
        return rho, nu


# ---------------------------------------------------------------------------
# pointwise equilibrium formulas, agent axis first: per-agent arrays have
# shape (J, ...), so every aggregate over agents reduces the leading axis


def _per_agent(values, like):
    """A (J,) parameter shaped to broadcast against the (J, ...) ``like``."""
    return np.reshape(values, (-1,) + (1,) * (np.ndim(like) - 1))


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


def trade_volume(rho, q, alpha, alphabar, kappa, slope=0.0):
    """Diffusion coefficients theta_j = d pi_j / dX, shape (J, ...), of the
    holdings, exact as the state is Markov in (t, X), and their Euclidean
    norm (the total trading-volume proxy).  alphabar = sum q alpha and
    kappa = sigma - alphabar are the market state's ``mean_drift`` and
    ``kappa``.

    With u = q / rho, b = alpha + kappa, N = u b, D = sum N, g = d alpha /
    dX (``slope``), v = sum q (alpha - alphabar)^2 and gbar = sum q g,
    N' = u (alpha b + g - v - gbar) is dN / dX up to a multiple of N, and
    theta = N' / D - (N / D) (sum N' / D)."""
    v = (q * (alpha - alphabar) ** 2).sum(axis=0)
    u = q / _per_agent(rho, q)
    b = alpha + kappa
    n = u * b
    d = n.sum(axis=0)
    dn = u * (alpha * b + slope - v - (q * slope).sum(axis=0))
    theta = dn / d - n / d * (dn.sum(axis=0) / d)
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


def _drivers(n, dt, seed, path_indices):
    """(times, X) with X of shape (P, n+1): row i is the gaussian random
    walk of n steps with N(0, dt) increments drawn from
    path_rng(seed, path_indices[i])."""
    x = np.zeros((len(path_indices), n + 1))
    for p, row in zip(path_indices, x):
        # Generator.normal(0, scale) draws scale * z: the same doubles
        steps = path_rng(seed, p).standard_normal(out=row[1:])
        steps *= math.sqrt(dt)
        np.cumsum(steps, out=steps)
    return np.arange(n + 1) * dt, x


def dividend_path(spec: MarketSpec, times, x):
    """delta on the grid from driver values x of any leading path shape:
    d log delta = sigma dX + (sigma*alpha_star - sigma^2/2) dt."""
    return np.exp(math.log(spec.initial_dividend) + spec.sigma * x
                  + (spec.sigma * spec.drift_adjustment - 0.5 * spec.sigma**2)
                  * times)


def log_ratio_paths(spec: MarketSpec, times, x):
    """Per-agent (log Lambda, believed drift) along driver paths.

    Both are exact on the grid: each belief gives its own closed forms
    (``log_ratio`` and ``drift_at``).  For x of shape (..., n+1), one path
    per row, returns agent-major arrays of shape (J, ..., n+1).
    """
    log_lam = np.empty((len(spec.agents),) + np.shape(x))
    alpha = np.empty_like(log_lam)
    for j, agent in enumerate(spec.agents):
        alpha[j] = agent.belief.drift_at(times, x)
        log_lam[j] = agent.belief.log_ratio(times, x)
    return log_lam, alpha


class MarketState(NamedTuple):
    """The equilibrium along driver paths x of shape (..., n+1): per-agent
    fields are agent-major (J, ..., n+1), the rest (..., n+1)."""

    impatience: np.ndarray  # rho, (J,)
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
    number of paths.  Raises SingularMarketError where a + kappa vanishes.

    With l_j = -rho_j t + log Lambda^j - log nu_j, m = max_j l_j,
    e = exp(l - m) (the only exp over agents) and s = sum_j e_j:
    q = e / s and log sum_j exp(l_j) = m + log s; with u = e / rho,
    PD = sum_j u_j / s and a = sum_j u_j alpha_j / sum_j u_j, the drift
    average under wealth weights q_j / rho_j; alphabar = sum_j q_j alpha_j,
    rhobar = sum_j q_j rho_j, r = rhobar + sigma (alpha* + alphabar) -
    sigma^2 and kappa = sigma - alphabar."""
    rho, nu = spec.arrays()
    log_lam, alpha = log_ratio_paths(spec, times, x)
    rho_j = _per_agent(rho, log_lam)
    l = -rho_j * times + log_lam
    l -= _per_agent(np.log(nu), log_lam)
    m = l.max(axis=0)
    l -= m
    e = np.exp(l, out=l)
    s = e.sum(axis=0)
    u = e / rho_j
    su = u.sum(axis=0)
    u *= alpha
    pd, a = su / s, u.sum(axis=0) / su
    del u   # the products below reuse its block while it is in cache
    q = np.divide(e, s, out=e)
    abar = (q * alpha).sum(axis=0)
    rhobar = (q * rho_j).sum(axis=0)
    sigma = spec.sigma
    r = rhobar + sigma * (spec.drift_adjustment + abar) - sigma * sigma
    kappa = sigma - abar
    _check_volatility(a, kappa)
    return MarketState(rho, log_lam, alpha, q, m, s, pd, a, r, kappa, abar,
                       rhobar, bool(np.any(pd > PD_DIVERGENCE_LIMIT)))


@dataclass
class EquilibriumPath:
    """One simulated equilibrium trajectory on a uniform grid: the driver,
    the dividend and the market state along them.

    pd_ratio, rate, kappa, ic_suspect, q, drifts and log_ratios read the
    state; stock, stock_vol, zeta, wealth, consumption, holdings and trade
    are derived from it on first access and then kept.  Per-agent fields
    are (n+1, J) views of agent-major (J, n+1) arrays; trade is
    ``trade_volume``'s theta_j = d pi_j / dX, exact for every market.
    """

    spec: MarketSpec
    times: np.ndarray
    x: np.ndarray
    dividend: np.ndarray
    state: MarketState
    dt: float

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
            k.impatience, k.q, k.alpha, self.dividend, k.kappa,
            k.wealth_drift))

    wealth = property(lambda self: self._portfolios[0])
    consumption = property(lambda self: self._portfolios[1])
    holdings = property(lambda self: self._portfolios[2])  # units of the asset

    @cached_property
    def trade(self):
        k = self.state
        slope = np.array([a.belief.drift_slope(self.times)
                          for a in self.spec.agents])
        return trade_volume(k.impatience, k.q, k.alpha, k.mean_drift, k.kappa,
                            slope)[0].T

    def _columns(self):
        """The CSV's columns by name, in order."""
        columns = dict(t=self.times, X=self.x, delta=self.dividend,
                       zeta=self.zeta, S=self.stock, PD=self.pd_ratio,
                       r=self.rate, kappa=self.kappa, sigmaS=self.stock_vol)
        for name, block in dict(q=self.q, w=self.wealth, c=self.consumption,
                                pi=self.holdings, theta=self.trade).items():
            columns.update((f"{name}_{j}", v)
                           for j, v in enumerate(block.T, 1))
        return columns

    def first_non_finite(self):
        """(column name, t) of the CSV's first value that is not finite,
        row by row, or None when every value is finite."""
        first = None
        for name, values in self._columns().items():
            finite = np.isfinite(values)
            if not finite.all():
                i = int(np.argmin(finite))
                if first is None or i < first[0]:
                    first = i, name
        return first and (first[1], float(self.times[first[0]]))

    def write_csv(self, fp):
        """The header row, then one row per grid point."""
        columns = self._columns()
        fp.write(",".join(columns) + "\n")
        write_rows(fp, np.column_stack(tuple(columns.values())))


def simulate_path(spec: MarketSpec, horizon: float, dt: float, seed: int,
                  path_index: int = 0) -> EquilibriumPath:
    """Simulate one equilibrium path under the reference measure;
    deterministic given (seed, path_index).  Raises ConfigError unless
    dt cuts the horizon into whole steps (``errors.step_count``)."""
    times, x = _drivers(step_count(horizon, dt, "horizon"), dt, seed,
                        (path_index,))
    x = x[0]
    return EquilibriumPath(spec, times, x, dividend_path(spec, times, x),
                           market_state(spec, times, x), dt)


class PathSequence(abc.Sequence):
    """The n_paths paths of a master seed, each simulated when it is read:
    item p is ``simulate_path(spec, horizon, dt, seed, p)``, and iterating
    goes in path order.  Nothing is kept, so a path read twice is simulated
    twice."""

    def __init__(self, spec, horizon, dt, seed, n_paths):
        self.spec, self.horizon, self.dt, self.seed = spec, horizon, dt, seed
        self.n_paths = n_paths

    def __len__(self):
        return self.n_paths

    def __getitem__(self, p):
        # a global read at call time, so a wrapper set on the module applies
        return simulate_path(self.spec, self.horizon, self.dt, self.seed,
                             range(self.n_paths)[operator.index(p)])


def simulate_paths(spec: MarketSpec, horizon: float, dt: float, seed: int,
                   n_paths: int) -> PathSequence:
    """The n_paths independent paths split off the master seed, as a lazy
    sequence.  Raises ConfigError unless n_paths is an integer >= 0 and dt
    cuts the horizon into whole steps (``errors.step_count``)."""
    step_count(horizon, dt, "horizon")
    try:
        n_paths = operator.index(n_paths)
    except TypeError:
        raise ConfigError(f"n_paths must be an integer, not "
                          f"{n_paths!r}") from None
    if n_paths < 0:
        raise ConfigError(f"n_paths must be >= 0, not {n_paths}")
    return PathSequence(spec, horizon, dt, seed, n_paths)
