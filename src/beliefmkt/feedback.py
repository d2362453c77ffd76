"""Discrete-time simulator of price feedback from mistaken beliefs.

A population of log investors prices a dividend stream at daily steps.
Every agent runs the conjugate gaussian learner of ``beliefs``; *diligent*
agents feed it the true log-dividend increments, the rest mistake the
stock price for a constant multiple of the dividend and feed it log-price
increments instead.  Because the price itself aggregates the beliefs,
each step requires solving a scalar fixed point for the log price move

    xi:  S_t e^xi / delta_{t+1}  =  PD_{t+1}(xi),

where PD_{t+1} depends on xi through the non-diligent agents' density
updates.  Alongside the actual price S the simulator maintains the ideal
price S* that would obtain if every agent observed the dividend, so
log(S/S*) isolates the effect of the mistaken observation channel.

When every agent is diligent the population is the one that sets S*, so
the price is S* by definition and nothing is solved.  Otherwise xi enters
PD and the fixed point is solved by 200-point scans of widening brackets
(``solve_step``; they also detect multiple roots, ties broken toward the
previous step's xi) and Brent refinement in the chosen cell.  The residual
of every accepted step is recorded and bounded at run time.

The arrays are small (one entry per agent), so the number of numpy calls,
not arithmetic, sets the cost.  The dynamics amplify any rounding change,
so every kernel below but the root scan, whose values are read only for
their signs, runs the same operations on the same doubles as the
step-by-step, one-vector-at-a-time form that the tests keep as their
oracle, and the outputs are the same to the bit.

* ``_lse`` is the one log-sum-exp.  It reduces each row of a C-ordered
  (rows, agents) array, which numpy sums exactly as it sums that row on
  its own, and takes each row's log with ``math.log``: ``np.log`` differs
  from it in the last bit for a few inputs in 10,000.
* What does not depend on xi is computed outside the step.  Diligent
  agents hold the S* population's beliefs, so the S* pass also gives their
  per-step PD terms for each diligence count of a sweep.  ``_Observers``
  holds the agents that observe the price: their learner state, trait
  terms and step-index terms, the last filled 128 steps at a time.
* The diligence counts of one seed step together: ``_Observers`` holds
  every count's observers, count after count, as contiguous blocks of
  rows.  Each step fills the step terms, runs the first scan's product
  and exp passes and absorbs the solved moves once for all of them; every
  maximum and every sum over rows runs on one block, so no count's scan
  reads another's rows, and Brent and the update give each count the
  bits it gets on its own.  ``solve_step`` then solves the counts in turn,
  and the first failure stops the seed, so its error is that of the count
  whose own run fails at the earliest step (at a tied step, the first
  count in order).
* Brent's residual stacks the PD numerator and denominator as the two rows
  of one array, so each call makes one exp pass; it joins the diligent
  term in Python floats (``_logaddexp``, numpy's own steps).  The two ends
  of the chosen cell, which Brent evaluates first, come from one pass over
  2 points x 2 rows.
* The scan needs only the residual's signs.  Agent j's exponent at the
  point x, c_j - q_j (x - mu_j)^2, is a quadratic in x, so one
  (rows x 3) @ (3 x 200) product of the coefficients [c_j - q_j mu_j^2,
  2 q_j mu_j, -q_j] with [1, x, x^2] gives every exponent of the
  bracket, and per count one product with the weights [1/expm1(rho_j); 1]
  gives the PD numerator and denominator.  Each point of a count is
  shifted by the larger of its largest exponent and the count's diligent
  denominator term, so the largest term of every denominator is exactly
  1.  Exponents below -700 are floored: many terms lie far below the
  shift, numpy's exp of an underflowing argument is about 100 times
  slower, and a term under e^-700 changes no sum of at least 1 beyond its
  rounding.
* S* comes from blocks of steps: the posterior means keep their per-step
  recursion, the log-weight increments of a block come from one pass and
  accumulate with ``np.cumsum`` along time, and ``log_price_dividend``
  prices the block's rows at once.

A diligence sweep's unit of work is one master seed, whose S* pass and
stepper serve all its diligence counts.  ``numerics.fork_map`` splits the
seeds across the usable CPUs, never one seed's counts: those would each
redo the S* pass, and two feedback processes on two CPUs slow each other,
so such a split costs more CPU time than it saves wall time.
"""

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from .beliefs import _LOG_TWO_PI, log_density_increment, posterior_mean_step
from .errors import ConfigError, FixedPointError
from .numerics import (brentq, check_finite, fork_map, scan_sign_changes,
                       write_rows)
from .rngtools import agent_rng, path_rng

# residual bound every accepted step must satisfy (relative, on PD scale)
RESIDUAL_TOL = 1e-10
_BISECT_WIDTH = 1e-13
_SCAN_POINTS = 200
_FIRST_HALF_WIDTH = 10.0  # per-step sds either side of the true increment
# floor on the scan's shifted exponents: e^-700 is far below half an ulp of
# the sums (each at least 1) that it joins, and it keeps numpy's exp off its
# slow path for underflowing arguments
_EXP_FLOOR = -700.0
_SCAN_INDEX = np.arange(_SCAN_POINTS, dtype=float)
# steps per block of S* and of the step terms: larger blocks save little
# and hold more memory
_IDEAL_BLOCK = 128
_LOG_TWO = math.log(2.0)
# the exact bracket is widened past log PD's rounding by the larger of
# _EXACT_PAD and _PAD_ULPS ulps of the largest exponent at its ends: log PD
# from those exponents rounds to within about one such ulp
_EXACT_PAD = 1e-9
_PAD_ULPS = 4.0


@dataclass(frozen=True)
class FeedbackConfig:
    """Simulation setup.  Rates and volatilities are annualized; they are
    converted to per-step units with dt (rates scale by dt, volatility by
    sqrt(dt)).  The first ``n_diligent`` agents are the diligent ones, so
    runs differing only in n_diligent compare identical populations."""

    n_agents: int
    n_diligent: int
    n_steps: int
    seed: int
    sigma_true: float = 0.25
    growth_true: float = 0.015
    dt: float = 1.0 / 252.0
    rho_range: Tuple[float, float] = (0.04, 0.33)
    tau_factor_range: Tuple[float, float] = (0.4, 1.05)
    prior_mean_range: Tuple[float, float] = (-0.05, 0.15)
    prior_weight: float = 252.0

    def __post_init__(self):
        if self.n_agents < 1:
            raise ConfigError("n_agents must be >= 1")
        if not 0 <= self.n_diligent <= self.n_agents:
            raise ConfigError("need 0 <= n_diligent <= n_agents")
        for name in ("sigma_true", "growth_true", "dt", "prior_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not self.sigma_true > 0.0:
            raise ConfigError("sigma_true must be > 0")
        if not self.dt > 0.0:
            raise ConfigError("dt must be > 0")
        try:
            variance = self.sigma_true**2 * self.dt
        except OverflowError:  # a float ** raises where numpy gives inf
            variance = math.inf
        if not (0.0 < variance < math.inf and math.isfinite(1 / variance)):
            raise ConfigError("sigma_true, dt: need a finite tau_true > 0")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if not self.prior_weight > 0.0:
            raise ConfigError("prior_weight must be > 0")
        for name in ("rho_range", "tau_factor_range", "prior_mean_range"):
            low, high = getattr(self, name)
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ConfigError(f"{name}: need finite bounds")
            if not low <= high:
                raise ConfigError(f"{name}: need low <= high")
            if name != "prior_mean_range" and not low > 0.0:
                raise ConfigError(f"{name}: need low > 0")

    @property
    def tau_true(self) -> float:
        return 1.0 / (self.sigma_true**2 * self.dt)

    @property
    def sigma_step(self) -> float:
        """The true volatility of one step's log-dividend increment."""
        return self.sigma_true * math.sqrt(self.dt)


@dataclass(frozen=True)
class AgentTraits:
    """Per-agent characteristics in per-step units."""

    rho_step: np.ndarray      # impatience per step
    tau: np.ndarray           # assumed precision of one increment
    prior_mean_step: np.ndarray

    @cached_property
    def log_expm1(self) -> np.ndarray:
        """log(expm1(rho_step)): minus the log of each agent's PD weight,
        computed once for the seed's S* pass and its stepper."""
        return np.log(np.expm1(self.rho_step))


def draw_agents(config: FeedbackConfig) -> AgentTraits:
    """Draw characteristics agent by agent from per-agent substreams.

    Agent j's draws depend only on (seed, j), never on the agent count, so
    enlarging the population reproduces the existing agents exactly.  Draw
    order per agent: impatience, precision factor, prior mean.
    """
    J = config.n_agents
    rho = np.empty(J)
    tau = np.empty(J)
    mu0 = np.empty(J)
    for j in range(J):
        rng = agent_rng(config.seed, j)
        rho[j] = rng.uniform(*config.rho_range)
        tau[j] = rng.uniform(*config.tau_factor_range) * config.tau_true
        mu0[j] = rng.uniform(*config.prior_mean_range)
    return AgentTraits(rho_step=rho * config.dt, tau=tau,
                       prior_mean_step=mu0 * config.dt)


def _lse(v, out=None):
    """log sum exp of each row of a C-ordered matrix, shifted by the row's
    maximum: a list with one float per row.  exp(v - max) is written to
    ``out`` (pass v itself to work in place).  Entries may be -inf as long
    as no row is all -inf.

    A row gives the bits it gives on its own: numpy sums each contiguous
    row as it sums a vector, and the log is ``math.log`` row by row.
    """
    m = np.maximum.reduce(v, axis=-1, keepdims=True)
    e = np.subtract(v, m, out=out)
    s = np.add.reduce(np.exp(e, out=e), axis=-1)
    return [a + math.log(b) for (a,), b in zip(m.tolist(), s.tolist())]


def _logaddexp(x, y):
    """``np.logaddexp`` of two floats, by the steps of numpy's
    ``npy_logaddexp``, whose exp and log1p are libm's, as ``math``'s are:
    the same double (a NaN for a NaN, though maybe not the same NaN).
    With x = -inf (a count without diligent agents) that is y + log1p(0)."""
    if x == -math.inf:
        return y + 0.0
    if x == y:
        return x + _LOG_TWO
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    return y + math.log1p(math.exp(d))


def log_price_dividend(traits: AgentTraits, log_weight, step):
    """log PD at the given step from per-agent log densities.

    PD = [sum_j e^{-rho_j t} w_j / (e^{rho_j} - 1)] / [sum_j e^{-rho_j t} w_j],
    all in log space.  Every agent has the same equilibrium weight, which
    scales both sums alike and so cancels.

    ``log_weight`` holds B states as (B, J) rows and ``step`` their steps
    as a (B, 1) column (or one step for all): gives the B values at once.
    """
    base = -traits.rho_step * step + log_weight
    return np.subtract(_lse(base - traits.log_expm1), _lse(base))


@dataclass
class FeedbackResult:
    """Full trajectory of one feedback run plus summary metrics.

    The record stores what the run computed: the log series and the
    per-step solver outputs.  The grid times, the levels delta, S and S*,
    log(S*/delta) and log(S/S*) are derived from them on first access and
    then kept, so a sweep that keeps only the metrics builds none of
    them."""

    dt: float
    log_dividend: np.ndarray
    log_stock: np.ndarray        # log S, feedback price
    log_stock_ideal: np.ndarray  # log S*, all-diligent price
    xi: np.ndarray               # log(S_t/S_{t-1}); NaN at t=0
    solver_warnings: np.ndarray  # per-step multi-root count
    residuals: np.ndarray        # per-step relative fixed-point residual
    metrics: Dict[str, float]

    # step index * dt (years)
    times = cached_property(
        lambda self: np.arange(len(self.log_dividend)) * self.dt)
    dividend = cached_property(lambda self: np.exp(self.log_dividend))
    stock = cached_property(lambda self: np.exp(self.log_stock))
    stock_ideal = cached_property(lambda self: np.exp(self.log_stock_ideal))
    log_pd_ideal = cached_property(  # log(S*/delta)
        lambda self: self.log_stock_ideal - self.log_dividend)
    log_ratio = cached_property(  # log(S/S*)
        lambda self: self.log_stock - self.log_stock_ideal)

    @np.errstate(over="ignore")
    def write_csv(self, fp):
        """One row per step; xi is an empty field at t = 0, where it is NaN.
        Raises SaturationError (``numerics.check_finite``), having written
        nothing, when any other value is not finite or a level (delta, S*,
        S) is 0: numpy does not warn of a level that overflows or
        underflows, as that error names it.

        The warning counts are whole numbers >= 0, which ``%.17g`` prints
        as ``%d`` does."""
        header = "t,delta,S_star,S,log_PD_star,log_ratio,xi,solver_warnings"
        table = np.column_stack((
            self.times, self.dividend, self.stock_ideal, self.stock,
            self.log_pd_ideal, self.log_ratio, self.xi, self.solver_warnings))
        r = table[0].tolist()
        table[0, 6] = 0.0   # the check passes the empty xi of row 0
        check_finite(header.split(","), table)
        fp.write((header + "\n" + "%.17g," * 6 + ",%d\n") % (*r[:6], r[7]))
        write_rows(fp, table[1:])


def _scan_grid(lo, hi, out):
    """``np.linspace(lo, hi, _SCAN_POINTS)`` written into ``out``, by
    numpy's own steps (index * ((hi - lo) / (n - 1)) + lo, then hi at the
    end), so the points are the same doubles."""
    np.multiply(_SCAN_INDEX, (hi - lo) / (_SCAN_POINTS - 1), out=out)
    out += lo
    out[-1] = hi
    return out


class _Observers:
    """A run's agents that observe the price, for one diligence count or
    for several stepped together: the agents ``rows`` of ``traits`` (all
    by default), count after count, each count's agents a contiguous block
    of rows (``sizes`` rows each; one block by default).  Holds their
    learner state (``mu`` and ``log_weight``), the terms of their traits
    and of the step index, and scratch buffers that every step overwrites.
    What runs on all rows at once is elementwise; every reduction runs on
    one block's rows, as on that count alone."""

    def __init__(self, traits: AgentTraits, prior_weight: float,
                 rows=slice(None), sizes=None):
        self.tau = traits.tau[rows]
        n = len(self.tau)
        self.sizes = [n] if sizes is None else list(sizes)
        self.bounds = np.cumsum([0, *self.sizes]).tolist()
        self.blocks = [slice(a, b)
                       for a, b in zip(self.bounds, self.bounds[1:])]
        self.mu = traits.prior_mean_step[rows].copy()
        self.log_weight = np.zeros(n)
        self.neg_rho = -traits.rho_step[rows]
        self.log_expm1 = traits.log_expm1[rows]
        self.k0 = prior_weight
        self.start = -_IDEAL_BLOCK   # first step of the filled block (none)
        # rows: PD numerator, PD denominator
        self.consts = np.empty((2, n))
        # the scan's coefficients c - q mu^2, 2 q mu and -q (one row per
        # agent), its basis rows 1, x and x^2 for the first bracket and for
        # a widened one, its exponents and the PD weights [1/expm1(rho); 1]
        self.coefs = np.empty((n, 3))
        self.basis = np.ones((3, _SCAN_POINTS))
        self.wide_basis = np.ones((3, _SCAN_POINTS))
        self.grid = self.basis[1]
        self.scan_v = np.empty((n, _SCAN_POINTS))
        weights = np.vstack((np.exp(-self.log_expm1), np.ones(n)))
        # per block: each point's shift, the PD numerator and denominator,
        # and its rows of the exponents and the PD weights
        self.scan_shift = np.empty((len(self.sizes), 1, _SCAN_POINTS))
        self.scan_pd = np.empty((len(self.sizes), 2, _SCAN_POINTS))
        self.scan_blocks = [(self.scan_v[b], weights[:, b])
                            for b in self.blocks]

    def absorb(self, x, step: int):
        """Consume observations x (scalar or per row) seen at step+1."""
        k = self.k0 + step
        self.log_weight += log_density_increment(self.mu, k, self.tau, x)
        self.mu = posterior_mean_step(self.mu, k, x)

    def step_terms(self, step: int):
        """-rho (step + 1), the density increment's log normalizer and its
        negated quadratic coefficient: rows of a block of steps, refilled
        when ``step`` leaves it."""
        i = step - self.start
        if not 0 <= i < _IDEAL_BLOCK:
            self.start, i = step, 0
            t = np.arange(step, step + _IDEAL_BLOCK)[:, None]
            k = self.k0 + t
            ratio = k / (k + 1.0)
            self.neg_rho_k = self.neg_rho * (t + 1)
            self.log_norm = 0.5 * (np.log(self.tau * ratio) - _LOG_TWO_PI)
            self.neg_quad_k = -(0.5 * self.tau * ratio)
        return self.neg_rho_k[i], self.log_norm[i], self.neg_quad_k[i]

    def start_step(self, step: int, true_increment: float, sigma_step: float,
                   dil):
        """Fill the step's xi-independent terms for every row, and scan the
        first bracket, the true increment +/- ``_FIRST_HALF_WIDTH``
        per-step standard deviations, for the first ``len(dil)`` blocks:
        returns log PD at each point of ``grid``, one row per block.

        The terms split beliefs.log_density_increment into the constants
        of the PD numerator and denominator rows (``consts``) and the
        negated quadratic coefficient (``neg_quad``).  ``dil`` is as in
        ``scan``.
        """
        neg_rho_k, log_norm, self.neg_quad = self.step_terms(step)
        consts = self.consts
        np.add(neg_rho_k, self.log_weight, out=consts[1])
        np.add(consts[1], log_norm, out=consts[1])
        np.subtract(consts[1], self.log_expm1, out=consts[0])
        half_width = _FIRST_HALF_WIDTH * sigma_step
        _scan_grid(true_increment - half_width, true_increment + half_width,
                   self.grid)
        return self.scan(self.basis, 0, dil)

    def scan(self, basis, first: int, dil):
        """log PD at each point x of the grid ``basis[1]`` for the
        ``len(dil)`` blocks from block ``first`` on, one row per block.
        ``basis`` is a (3, points) array whose row 0 holds ones; its row 2
        is overwritten with x^2.  ``dil`` holds each block's log-sum-exps
        of its diligent agents' PD numerator and denominator terms, a
        (blocks, 2, 1) array.

        Only the signs of the residual that these give are read.  Row j's
        exponent c_j - q_j (x - mu_j)^2 is the product of
        [c_j - q_j mu_j^2, 2 q_j mu_j, -q_j] with [1, x, x^2], so one
        (rows x 3) @ (3 x points) product gives them all.  Each point of a
        block is shifted by the larger of its largest exponent and the
        block's diligent denominator term, so the largest term of every
        PD denominator is exactly 1.  Then one exp pass, with exponents
        floored at ``_EXP_FLOOR``, and one (2 x rows) @ (rows x points)
        product per block with the weights [1/expm1(rho_j); 1] give its PD
        numerator and denominator.
        """
        stop = first + len(dil)
        rows = slice(self.bounds[first], self.bounds[stop])
        grid = basis[1]
        np.multiply(grid, grid, out=basis[2])
        c, mu, neg_quad = self.consts[1, rows], self.mu[rows], \
            self.neg_quad[rows]
        coefs = self.coefs[rows]
        constant, linear, quadratic = coefs.T
        np.multiply(neg_quad, mu, out=linear)
        np.multiply(linear, mu, out=constant)
        np.add(constant, c, out=constant)
        np.multiply(linear, -2.0, out=linear)
        quadratic[:] = neg_quad
        blocks = self.scan_blocks[first:stop]
        v = np.matmul(coefs, basis, out=self.scan_v[rows])
        shift = self.scan_shift[first:stop]
        for (v_block, _), den_dil, (shift_row,) in zip(
                blocks, dil[:, 1, 0].tolist(), shift):
            np.maximum.reduce(v_block, axis=0, out=shift_row,
                              initial=den_dil)
            np.subtract(v_block, shift_row, out=v_block)
        np.exp(np.maximum(v, _EXP_FLOOR, out=v), out=v)
        pd = self.scan_pd[first:stop]
        for (e_block, weights), out in zip(blocks, pd):
            np.matmul(weights, e_block, out=out)
        pd += np.exp(dil - shift)
        num, den = pd[:, 0], pd[:, 1]
        num /= den
        return np.log(num)


def solve_step(observers: _Observers, block: int, step: int,
               log_stock: float, log_div_next: float, true_increment: float,
               prev_xi: float, sigma_step: float, dil, first_scan,
               log_pd_bounds):
    """Solve one count's per-step fixed point for xi.

    Returns (xi, n_roots_found, relative_residual).  Raises
    ``FixedPointError`` when no scan finds a sign change, when the chosen
    cell's end residuals share a sign, or when the root's relative residual
    exceeds ``RESIDUAL_TOL``: where Brent's absolute ``_BISECT_WIDTH``
    leaves it above, Brent refines the same cell once more with only its
    relative tolerance binding, and that root's residual decides.

    ``observers.start_step`` has filled the step's terms and scanned the
    first bracket: ``first_scan`` is this count's log PD at the points of
    ``observers.grid``.  While a scan finds no sign change, this count alone
    scans a bracket that doubles up to +/- 1 around the true increment, and
    then the exact one: PD is a weighted mean of every agent's
    1/expm1(rho_j), so the residual offset + xi - log PD changes sign in
    [L - offset, U - offset], with (L, U) = ``log_pd_bounds``, padded by
    the larger of ``_EXACT_PAD`` and ``_PAD_ULPS`` ulps of the largest
    exponent at those ends.

    Which root is taken: the brackets are tried in that order, +/- 10
    per-step sds (``_FIRST_HALF_WIDTH``) around the dividend move, that
    width doubled up to +/- 1, then the exact bracket, and the first whose
    ``_SCAN_POINTS``-point scan shows a sign change is used.  Brent refines
    the cell whose midpoint is nearest ``prev_xi`` (at step 0 the dividend
    move).  Two roots in one cell cancel in the scan.  n_roots_found counts
    the sign changes of that bracket only: ``solver_warnings`` records it
    less one, and ``n_multiroot_steps`` counts the steps where that is
    above zero.  So the root and both counts depend on the brackets.

    Each residual is evaluated once: the cell's two ends in one pass
    before Brent starts, and the relative residual is that of the point
    Brent returns, read back from its own calls.

    Block ``block`` of ``observers`` holds the count's non-diligent agents
    (at least one).  The diligent ones' terms do not depend on xi: ``dil``
    is a (2, 1) array of the log-sum-exps of their PD numerator and
    denominator terms at step + 1 (-inf without any).
    """
    s = observers
    (num_dil,), (den_dil,) = dil.tolist()
    rows = s.blocks[block]
    consts, mu, neg_quad = s.consts[:, rows], s.mu[rows], s.neg_quad[rows]
    offset = log_stock - log_div_next

    def combine(xi, log_num, log_den):
        return offset + xi - (_logaddexp(num_dil, log_num)
                              - _logaddexp(den_dil, log_den))

    def residual(xi: float) -> float:
        # Brent evaluates every point it may return (an endpoint where the
        # residual is exactly 0 included), so the root's residual is read
        # back from ``seen``
        value = seen.get(xi)
        if value is None:
            dev = xi - mu
            log_num, log_den = _lse(consts + neg_quad * dev * dev)
            seen[xi] = value = combine(xi, log_num, log_den)
        return value

    def exponents(lo, hi):
        # the PD numerator and denominator exponents at lo and at hi, as
        # 2 points x 2 rows
        dev = np.array([[lo], [hi]]) - mu
        return (consts + (neg_quad * dev * dev)[:, None]).reshape(4, -1)

    def ends(lo, hi):
        # the residual at lo and at hi from one pass
        num_lo, den_lo, num_hi, den_hi = _lse(exponents(lo, hi))
        return combine(lo, num_lo, den_lo), combine(hi, num_hi, den_hi)

    grid, log_pd = s.grid, first_scan
    half_width = _FIRST_HALF_WIDTH * sigma_step
    exact = False
    while True:
        cells = scan_sign_changes(offset + grid - log_pd, grid)
        if cells:
            break
        if exact:
            residual_lo, residual_hi = ends(lo, hi)
            raise FixedPointError(
                f"step {step}: no sign change in the scan of the exact "
                f"bracket [{float(lo)!r}, {float(hi)!r}]", step=step,
                diagnostics={"lo": float(lo), "hi": float(hi),
                             "residual_lo": float(residual_lo),
                             "residual_hi": float(residual_hi)})
        if half_width < 1.0:
            half_width = min(2.0 * half_width, 1.0)
            lo, hi = true_increment - half_width, true_increment + half_width
        else:
            exact = True
            lo, hi = log_pd_bounds[0] - offset, log_pd_bounds[1] - offset
            largest = np.abs(exponents(lo, hi)).max()
            pad = max(_EXACT_PAD, _PAD_ULPS * math.ulp(largest))
            lo, hi = lo - pad, hi + pad
        grid = _scan_grid(lo, hi, s.wide_basis[1])
        log_pd = s.scan(s.wide_basis, block, dil[None])[0]

    if len(cells) > 1:
        cells.sort(key=lambda c: abs(0.5 * (c[0] + c[1]) - prev_xi))
    lo, hi = cells[0]
    residual_lo, residual_hi = ends(lo, hi)
    if residual_lo != 0 and residual_hi != 0 \
            and (residual_lo < 0) == (residual_hi < 0):
        # the scan rounds apart from the residual, so a grid point within
        # rounding of a root can end such a cell
        raise FixedPointError(
            f"step {step}: scan cell [{float(lo)!r}, {float(hi)!r}] does "
            "not bracket a root", step=step, diagnostics={
                "lo": float(lo), "hi": float(hi),
                "residual_lo": float(residual_lo),
                "residual_hi": float(residual_hi)})
    seen = {lo: residual_lo, hi: residual_hi}
    xi = brentq(residual, lo, hi, xtol=_BISECT_WIDTH, rtol=8.9e-16)
    rel = abs(math.expm1(float(seen[xi])))
    if rel > RESIDUAL_TOL:
        # a residual too steep for _BISECT_WIDTH (small sigma: large
        # precisions)
        xi = brentq(residual, lo, hi, xtol=1e-300, rtol=8.9e-16)
        rel = abs(math.expm1(float(seen[xi])))
    if rel > RESIDUAL_TOL:
        raise FixedPointError(
            f"step {step}: fixed-point residual {rel:.3e} above "
            f"{RESIDUAL_TOL:g}", step=step, diagnostics={"xi": xi})
    return xi, len(cells), rel


@dataclass(frozen=True)
class _SeedInputs:
    """What runs on one master seed share whatever their diligence count:
    the agents, the dividend path, the ideal price S* and the diligent
    agents' terms: for each step t and each stepping count c, the
    log-sum-exps of the first c agents' PD numerator and denominator terms
    at step t + 1, a (steps, counts, 2, 1) array (-inf for c = 0); and
    the bounds (L, U) of every log PD, ``solve_step``'s exact bracket."""

    traits: AgentTraits
    increments: np.ndarray
    log_div: np.ndarray
    log_stock_ideal: np.ndarray
    diligent: np.ndarray
    log_pd_bounds: Tuple[float, float]


def _seed_inputs(config: FeedbackConfig, stepping) -> _SeedInputs:
    """The inputs of ``config``'s seed for the diligence counts
    ``stepping``, each below n_agents."""
    J = config.n_agents
    traits = draw_agents(config)
    rng = path_rng(config.seed, 0)
    n = config.n_steps
    increments = config.growth_true * config.dt \
        + config.sigma_step * rng.standard_normal(n)
    log_div = np.concatenate([[0.0], np.cumsum(increments)])
    diligent = np.full((n, len(stepping), 2, 1), -math.inf)
    widest = max(stepping, default=0)
    log_expm1 = traits.log_expm1

    # the ideal population, a block of steps at a time: the same
    # operations, in the same order, as _Observers.absorb step by step
    mu = traits.prior_mean_step.copy()
    log_weight = np.zeros(J)
    sample_size = config.prior_weight + np.arange(n)
    log_stock_ideal = np.empty(n + 1)
    log_stock_ideal[:1] = (
        log_price_dividend(traits, log_weight[None], 0) + log_div[:1])
    means = np.empty((min(n, _IDEAL_BLOCK), J))
    for start in range(0, n, _IDEAL_BLOCK):
        stop = min(start + _IDEAL_BLOCK, n)
        for i, t in enumerate(range(start, stop)):
            means[i] = mu
            mu = posterior_mean_step(mu, sample_size[t], increments[t])
        block, after = slice(start, stop), slice(start + 1, stop + 1)
        weights = log_density_increment(
            means[:stop - start], sample_size[block, None], traits.tau,
            increments[block, None])
        steps = np.arange(start + 1, stop + 1)[:, None]
        dlog_weight = weights[:, :widest].copy()
        # w_t = w_{t-1} + increment_t, added in that order along time
        weights[0] += log_weight
        np.cumsum(weights, axis=0, out=weights)
        # the diligent agents' terms at step + 1, as the step-by-step form
        # builds them: (-rho (t+1) + w_t) + dlog_weight_t
        before = np.vstack((log_weight[:widest], weights[:-1, :widest]))
        for i, c in enumerate(stepping):
            if c:
                terms = -traits.rho_step[:c] * steps + before[:, :c]
                terms += dlog_weight[:, :c]
                diligent[block, i, 0, 0] = _lse(terms - log_expm1[:c])
                diligent[block, i, 1, 0] = _lse(terms, out=terms)
        log_weight = weights[-1]
        log_pd = log_price_dividend(traits, weights, steps)
        log_stock_ideal[after] = log_pd + log_div[after]
    return _SeedInputs(traits, increments, log_div, log_stock_ideal, diligent,
                       (-log_expm1.max(), -log_expm1.min()))


def run_feedback(config: FeedbackConfig) -> FeedbackResult:
    """Run one feedback trajectory; deterministic given the config.  A
    step that cannot be solved raises its ``FixedPointError``, as ``_run``
    gives it."""
    return _run(config, [config.n_diligent])[0]


def _run(config: FeedbackConfig, counts) -> List[FeedbackResult]:
    """Run ``config``'s seed at each of the distinct diligence ``counts``:
    one ``FeedbackResult`` per count, in order.

    Every count starts at S*, and the all-diligent count, the population
    that sets S*, stays there: its price is S* by definition.  The others
    are stepped together: each step fills the step terms, scans the first
    bracket and absorbs the solved moves once for all of them
    (``_Observers``), and ``solve_step`` solves each count in turn.  The
    first failure stops the run: it raises the ``FixedPointError`` of the
    count whose own run fails at the earliest step (at a tied step, the
    first count in order), its message prefixed by ``seed S, n_diligent
    C: `` and both values first in its diagnostics.
    """
    J, n = config.n_agents, config.n_steps
    stepped = [i for i, c in enumerate(counts) if c < J]
    stepping = [counts[i] for i in stepped]
    inputs = _seed_inputs(config, stepping)
    sigma_step = config.sigma_step
    increments, log_div, dil, log_pd_bounds = inputs.increments, \
        inputs.log_div, inputs.diligent, inputs.log_pd_bounds
    # only the agents that observe the price: the diligent ones enter
    # through their per-step terms from the S* pass
    rows = [j for c in stepping for j in range(c, J)]
    observers = _Observers(inputs.traits, config.prior_weight, rows,
                           [J - c for c in stepping])

    # every count starts at S*, since before any observation the population
    # holds its priors; the all-diligent count stays there, and the stepped
    # counts overwrite each step they solve
    log_stock = np.tile(inputs.log_stock_ideal, (len(counts), 1))
    xi_series = np.full((len(counts), n + 1), np.nan)
    xi_series[:, 1:] = np.diff(inputs.log_stock_ideal)
    warnings = np.zeros((len(counts), n + 1))
    residuals = np.zeros((len(counts), n + 1))
    observed = np.zeros(len(rows))   # each row's count's xi
    # each stepped count's series, and its rows in observed
    runs = [(log_stock[i], xi_series[i], warnings[i], residuals[i], block)
            for i, block in zip(stepped, observers.blocks)]
    for t in range(n if runs else 0):
        d = increments[t]
        first_scan = observers.start_step(t, d, sigma_step, dil[t])
        for i, (stock, xis, warn, resid, block) in enumerate(runs):
            prev = xis[t] if t > 0 else d
            try:
                xi, n_roots, rel = solve_step(
                    observers, i, t, stock[t], log_div[t + 1], d, prev,
                    sigma_step, dil[t, i], first_scan[i], log_pd_bounds)
            except FixedPointError as exc:
                seed, count = config.seed, stepping[i]
                raise FixedPointError(
                    f"seed {seed}, n_diligent {count}: {exc}", step=exc.step,
                    diagnostics={"seed": seed, "n_diligent": count,
                                 **exc.diagnostics}) from exc
            observed[block] = xi
            xis[t + 1] = xi
            warn[t + 1] = n_roots - 1
            resid[t + 1] = rel
            stock[t + 1] = stock[t] + xi
        observers.absorb(observed, t)
    return [_result(config, inputs, *series)
            for series in zip(log_stock, xi_series, warnings, residuals)]


def _result(config: FeedbackConfig, inputs: _SeedInputs, log_stock,
            xi_series, warnings, residuals) -> FeedbackResult:
    """One run's trajectory and its summary metrics."""
    result = FeedbackResult(config.dt, inputs.log_div, log_stock,
                            inputs.log_stock_ideal, xi_series, warnings,
                            residuals, {})
    log_ratio = result.log_ratio
    moves = xi_series[1:] - inputs.increments
    result.metrics.update({
        "log_ratio_max": float(log_ratio.max()),
        "log_ratio_min": float(log_ratio.min()),
        "log_ratio_range": float(log_ratio.max() - log_ratio.min()),
        "n_jumps": int(np.sum(np.abs(moves) > 5.0 * config.sigma_step)),
        "n_multiroot_steps": int(np.sum(warnings > 0)),
        "max_residual": float(residuals.max()),
        "final_log_ratio": float(log_ratio[-1]),
    })
    return result


def _sweep_seed(task) -> List[Dict[str, float]]:
    """The metrics of one seed's counts, in order."""
    return [result.metrics for result in _run(*task)]


def diligence_counts(config: FeedbackConfig, values) -> List[int]:
    """The distinct diligence counts of ``values``, in order, as ints.
    Raises ``ConfigError``, starting ``diligence_values: ``, on no value or
    naming the first value that is not an integer (``operator.index``; a
    bool is not one) between 0 and n_agents."""
    counts = []
    for v in values:
        try:
            counts.append(-1 if isinstance(v, bool) else operator.index(v))
        except TypeError:
            counts.append(-1)
        if not 0 <= counts[-1] <= config.n_agents:
            raise ConfigError(f"diligence_values: {v!r} is not a diligence "
                              f"count: need an int in 0..{config.n_agents}")
    if not counts:
        raise ConfigError("diligence_values: expected at least one count")
    return list(dict.fromkeys(counts))


def diligence_sweep(config: FeedbackConfig, n_diligent_values,
                    master_seeds) -> Dict[int, List[Dict[str, float]]]:
    """Metrics of runs over a grid of diligence counts and master seeds.

    Results are keyed by diligence count, each distinct count once, each
    holding one metrics dict per seed in the order given.  The unit of
    work is one master seed: its agents, dividend path and ideal price S*
    do not depend on the diligence count, so they are computed once, and
    its counts are stepped together (``_run``).  Seeds are independent,
    so ``numerics.fork_map`` splits more than one of them across the
    usable CPUs; a seed's counts are never split.  Its results come back
    in seed order, so the table never depends on the split.  A failing
    seed stops at its first failure and raises the ``FixedPointError`` of
    the count whose own run fails at the earliest step, the first count in
    order at a tied step (``_run``); of several failing seeds, the first
    in order gives the error.  The counts are checked first
    (``diligence_counts``).
    """
    counts = diligence_counts(config, n_diligent_values)
    tasks = [(replace(config, seed=seed), counts) for seed in master_seeds]
    per_seed = list(fork_map(_sweep_seed, tasks))
    return {c: [rows[i] for rows in per_seed] for i, c in enumerate(counts)}
