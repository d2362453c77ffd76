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
             = N_j / sum_k N_k,   N_j = (q_j / rho_j) (alpha_j + kappa)

so the clearing identities sum(c) = delta, sum(w) = S, sum(pi) = 1 hold to
rounding error by construction.  All agent aggregation happens in log
space, which is immune to under/overflow at large t.  The holdings pi and
their diffusions theta_j = d pi_j / dX are formed from q / rho, not from
the wealth, so they do not depend on the dividend level.

Arrays are agent-major: a path's per-agent quantities are (J, n+1), and
those of a batch of P paths (J, P, n+1), so every max over agents reduces
the leading, contiguous axis (J is small, and reductions over a short
trailing axis are slow).  Nothing ties one path to another, so the kernel
(``market_state``, whose docstring gives its formulas in log space) takes
a single exp pass over any number of paths, and one matrix product of a
(5, J + V) weight matrix with those exponentials gives every agent sum the
state needs; a path priced alone and inside a batch agree to the bit.

A simulated path (``EquilibriumPath``) keeps that kernel's ``MarketState``,
whose exponentials e_j = exp(l_j - m) are the one per-agent array the
kernel builds and whose drifts are each belief's ``drift_at`` (a float for
a constant drift), and the log dividend.  It derives delta, S, sigma^S and
zeta from them on first access, and every per-agent array (alpha, the
shares q = e / s, w, c, pi and theta) in one derivation, so a caller that
reads only PD, r and log delta (the moment report) never builds a level or
a per-agent array beyond the kernel's own, and a written path evaluates no
belief's drift or log ratio a second time.

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
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .beliefs import ContinuousBelief
from .errors import ConfigError, SingularMarketError, step_count
from .numerics import check_finite, solve_decreasing, write_rows
from .rngtools import path_rng

# |a + kappa| below this is treated as a degenerate (zero stock volatility)
# market rather than silently producing huge portfolio numbers.
_SINGULAR_TOL = 1e-14


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


@lru_cache(maxsize=1)
def _grid(n, dt):
    """The read-only grid of n steps of dt, built once for the paths of a
    ``PathSequence`` and of a fit's driver batches, which share it."""
    times = np.arange(n + 1) * dt
    times.flags.writeable = False
    return times


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
    return _grid(n, dt), x


def log_dividend_path(spec: MarketSpec, times, x):
    """log delta on the grid from driver values x of any leading path shape:
    d log delta = sigma dX + (sigma*alpha_star - sigma^2/2) dt."""
    return (math.log(spec.initial_dividend) + spec.sigma * x
            + (spec.sigma * spec.drift_adjustment - 0.5 * spec.sigma**2)
            * times)


class MarketState(NamedTuple):
    """The equilibrium along driver paths x of shape (..., n+1): every
    field but rho, the drifts and the agent-major weights e is (..., n+1).
    e is a view of the kernel's own exp pass, and the drifts are the
    kernel's own ``drift_at`` values, so keeping them costs no pass and no
    copy."""

    impatience: np.ndarray  # rho, (J,)
    drifts: list  # alpha_j: a float, or an (..., n+1) array, per agent
    log_max: np.ndarray    # m = max_j l_j
    weights: np.ndarray    # e_j = exp(l_j - m), agent-major (J, ..., n+1)
    weight_sum: np.ndarray  # s = sum_j e_j
    pd_ratio: np.ndarray
    wealth_drift: np.ndarray  # drift average under wealth weights q_j/rho_j
    rate: np.ndarray
    kappa: np.ndarray
    mean_drift: np.ndarray  # q-weighted average drift


def market_state(spec: MarketSpec, times, x) -> MarketState:
    """What the moments and the numeric guards need, in one exp pass and
    one matrix product over agent-major arrays; no path is tied to
    another, so x may hold any number of paths.  Raises
    SingularMarketError where a + kappa vanishes.

    With the drifts alpha_j (each belief's ``drift_at``), the log weights
    l_j = -rho_j t + log Lambda^j - log nu_j, built one agent at a time,
    m = max_j l_j and e = exp(l - m) (the only exp over agents, taken in
    place and kept in the state), one ``np.dot`` of
    a (5, J + V) weight matrix with the rows of e, and one row e_j alpha_j
    for each of the V agents whose ``drift_at`` returns an array, gives
    s = sum_j e_j, sum_j e_j / rho_j, sum_j e_j rho_j, sum_j e_j alpha_j
    and sum_j e_j alpha_j / rho_j; a scalar drift enters the weights
    instead.  Then with q = e / s:
    PD = sum_j q_j / rho_j, a = sum_j e_j alpha_j / rho_j / sum_j e_j /
    rho_j, the drift average under wealth weights q_j / rho_j,
    alphabar = sum_j q_j alpha_j, rhobar = sum_j q_j rho_j,
    r = rhobar + sigma (alpha* + alphabar) - sigma^2 and kappa = sigma -
    alphabar.  The state keeps the drifts as ``drift_at`` returned them,
    and not rhobar, which only r reads.
    The shares q, an agent-major alpha and log Lambda itself are not
    built (``EquilibriumPath`` derives q and alpha when they are read,
    q = e / s from the state's e and s, and alpha from its drifts)."""
    rho, nu = spec.arrays()
    drifts = [agent.belief.drift_at(times, x) for agent in spec.agents]
    varying = [j for j, alpha in enumerate(drifts) if np.ndim(alpha)]
    n_agents = len(rho)
    e = np.empty((n_agents + len(varying),) + np.shape(x))
    l = e[:n_agents]   # the log weights, then their exponentials
    for j, (agent, log_nu) in enumerate(zip(spec.agents, np.log(nu))):
        np.subtract(agent.belief.log_ratio(times, x), rho[j] * times,
                    out=l[j])
        l[j] -= log_nu
    m = l.max(axis=0)
    l -= m
    np.exp(l, out=l)
    for row, j in enumerate(varying, n_agents):
        np.multiply(e[j], drifts[j], out=e[row])
    # rows: the weights of s, sum e/rho, sum e rho, sum e alpha and
    # sum e alpha/rho; columns: the rows of e
    inv = 1.0 / rho
    const = np.array([0.0 if np.ndim(alpha) else alpha for alpha in drifts])
    matrix = np.zeros((5, len(e)))
    matrix[:, :n_agents] = np.ones(n_agents), inv, rho, const, const * inv
    matrix[3, n_agents:] = 1.0
    matrix[4, n_agents:] = inv[varying]
    s, su, srho, salpha, sau = np.dot(matrix, e.reshape(len(e), -1)).reshape(
        (5,) + np.shape(x))
    pd, a = su / s, sau / su
    abar, rhobar = salpha / s, srho / s
    sigma = spec.sigma
    r = rhobar + sigma * (spec.drift_adjustment + abar) - sigma * sigma
    kappa = sigma - abar
    if np.any(np.abs(a + kappa) < _SINGULAR_TOL):
        raise SingularMarketError("a + kappa = 0: stock volatility degenerate")
    return MarketState(rho, drifts, m, l, s, pd, a, r, kappa, abar)


@dataclass
class EquilibriumPath:
    """One simulated equilibrium trajectory on a uniform grid: the driver,
    the log dividend and the market state along them.

    pd_ratio, rate and kappa read the state; dividend, stock,
    stock_vol and zeta are derived on first access and then kept.  The
    per-agent fields drifts, q, wealth, consumption, holdings and trade
    are (n+1, J) views of the agent-major (J, n+1) arrays of one
    derivation, ``_agents``, made on the first read of any of them from
    what the kernel computed: alpha from the state's drifts and q_j = e_j /
    s from its e = exp(l - m) and s, so a written path calls each belief's
    ``drift_at`` and ``log_ratio`` once, in the kernel.  With u = q / rho,
    b = alpha + kappa and N = u b, the holdings are pi = N / sum N, w =
    delta u and c = delta q, and trade is theta_j = d pi_j / dX, exact for
    every market.
    """

    spec: MarketSpec
    times: np.ndarray
    x: np.ndarray
    log_dividend: np.ndarray
    state: MarketState
    dt: float

    pd_ratio = property(lambda self: self.state.pd_ratio)
    rate = property(lambda self: self.state.rate)
    kappa = property(lambda self: self.state.kappa)

    @cached_property
    @np.errstate(over="ignore")  # w = delta u, where delta is huge
    def _agents(self):
        """Agent-major (alpha, q, w, c, pi, theta), each (J, n+1).

        With g = d alpha / dX (each belief's ``drift_slope``), v = sum q
        (alpha - alphabar)^2 and gbar = sum q g, N' = u (alpha b + g - v -
        gbar) is dN / dX up to a multiple of N, and theta = N' / D - pi
        (sum N' / D) with D = sum N."""
        k = self.state
        alpha = np.stack(np.broadcast_arrays(self.x, *k.drifts)[1:])
        q = k.weights / k.weight_sum
        slope = np.array([a.belief.drift_slope(self.times)
                          for a in self.spec.agents])
        u = q / k.impatience[:, None]
        b = alpha + k.kappa
        n = u * b
        d = n.sum(axis=0)
        # unit net supply: each agent's share of sum N = PD (a + kappa),
        # normalized by that sum itself, so the holdings add up to 1 even
        # where a + kappa is small
        pi = n / d
        v = (q * (alpha - k.mean_drift) ** 2).sum(axis=0)
        dn = u * (alpha * b + slope - v - (q * slope).sum(axis=0))
        theta = dn / d - pi * (dn.sum(axis=0) / d)
        return alpha, q, self.dividend * u, self.dividend * q, pi, theta

    drifts = property(lambda self: self._agents[0].T)  # alpha^j_t
    q = property(lambda self: self._agents[1].T)  # consumption shares
    wealth = property(lambda self: self._agents[2].T)
    consumption = property(lambda self: self._agents[3].T)
    holdings = property(lambda self: self._agents[4].T)  # units of the asset
    trade = property(lambda self: self._agents[5].T)  # d holdings / dX

    dividend = cached_property(lambda self: np.exp(self.log_dividend))

    @cached_property
    def stock(self):
        return self.dividend * self.state.pd_ratio

    @cached_property
    def stock_vol(self):
        return self.state.kappa + self.state.wealth_drift

    @cached_property
    def zeta(self):
        k = self.state
        return np.exp(k.log_max + np.log(k.weight_sum) - self.log_dividend)

    @np.errstate(over="ignore", invalid="ignore")
    def write_csv(self, fp):
        """The header row, then one row per grid point.  Raises
        SaturationError (``numerics.check_finite``), having written
        nothing, when a value is not finite or a level (delta, zeta, S) is
        0: numpy does not warn of a level that overflows or underflows, as
        that error names it."""
        columns = dict(t=self.times, X=self.x, delta=self.dividend,
                       zeta=self.zeta, S=self.stock, PD=self.pd_ratio,
                       r=self.rate, kappa=self.kappa, sigmaS=self.stock_vol)
        for name, block in zip(("q", "w", "c", "pi", "theta"),
                               self._agents[1:]):
            columns.update((f"{name}_{j}", v) for j, v in enumerate(block, 1))
        table = np.column_stack(tuple(columns.values()))
        check_finite(list(columns), table)
        fp.write(",".join(columns) + "\n")
        write_rows(fp, table)


def simulate_path(spec: MarketSpec, horizon: float, dt: float, seed: int,
                  path_index: int = 0) -> EquilibriumPath:
    """Simulate one equilibrium path under the reference measure;
    deterministic given (seed, path_index).  Raises ConfigError unless
    dt cuts the horizon into whole steps (``errors.step_count``)."""
    times, x = _drivers(step_count(horizon, dt, "horizon"), dt, seed,
                        (path_index,))
    x = x[0]
    return EquilibriumPath(spec, times, x, log_dividend_path(spec, times, x),
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
