"""Moment computation, historical data ingestion, and parameter search.

Estimator conventions (these matter and are easy to get subtly wrong, so
they are fixed here once):

* PD and the riskless rate are pooled over every grid point of every path.
* The equity return is the per-step total return
      R_k = (S_{k+1} + delta_k * dt - S_k) / S_k,
  annualized by 1/dt on the mean and 1/sqrt(dt) on the std.
* equity premium = mean equity return - mean riskless rate, and
  Sharpe = premium / std equity return, exactly as computed.

Pooled statistics keep one (count, sum, sum of squares) per path and
reduce them with math.fsum, which rounds once whatever the order, so the
report is invariant to the order of the path set.  That is what lets
``compute_moments`` take each path's sums from ``numerics.fork_map``, which
splits a sequence of paths (``simulate_paths``, a list) across the usable
CPUs, and merge them into a report identical to the bit to the in-order
one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from . import beliefs, equilibrium
from .errors import (MAX_COUNT, ConfigError, NumericError, SaturationError,
                     step_count)
from .numerics import fork_map, nelder_mead

#: Moment name -> label of the comparison table, in report order.
MOMENT_LABELS = {
    "mean_pd": "Mean price/dividend ratio",
    "std_pd": "Standard deviation of price/dividend ratio",
    "mean_equity_return": "Mean return on equity",
    "std_equity_return": "Standard deviation of return on equity",
    "mean_riskless": "Mean riskless rate",
    "std_riskless": "Standard deviation of riskless rate",
    "equity_premium": "Equity premium",
    "sharpe": "Sharpe ratio",
}
MOMENT_NAMES = tuple(MOMENT_LABELS)


@dataclass(frozen=True)
class MomentReport:
    """The eight moments, of a model or of data; ``provenance`` says where
    a set of empirical targets came from.  A NaN moment is unavailable."""

    mean_pd: float
    std_pd: float
    mean_equity_return: float
    std_equity_return: float
    mean_riskless: float
    std_riskless: float
    equity_premium: float
    sharpe: float
    provenance: str = ""

    def as_dict(self) -> Dict[str, float]:
        return {k: getattr(self, k) for k in MOMENT_NAMES}


def _moment_report(mean_pd, std_pd, mean_ret, std_ret, mean_r, std_r,
                   provenance=""):
    """Six moments and the premium and Sharpe ratio derived from them."""
    premium = mean_ret - mean_r
    return MomentReport(
        mean_pd=mean_pd, std_pd=std_pd, mean_equity_return=mean_ret,
        std_equity_return=std_ret, mean_riskless=mean_r, std_riskless=std_r,
        equity_premium=premium,
        sharpe=premium / std_ret if std_ret > 0.0 else math.nan,
        provenance=provenance)


#: Long-sample US stock-market targets (S&P real price and dividend,
#: 1871-1998, monthly): the default calibration target set.
DEFAULT_TARGETS = MomentReport(
    mean_pd=25.0, std_pd=7.1,
    mean_equity_return=0.07, std_equity_return=0.18,
    mean_riskless=0.018, std_riskless=0.057,
    equity_premium=0.06, sharpe=0.33,
    provenance="built-in long-sample US targets",
)


class _Pool:
    """Streaming mean/std over pooled samples, fsum-reduced across paths.
    Values may carry leading path axes: each row along the last axis is one
    path's samples."""

    def __init__(self):
        self.n = []
        self.s = []
        self.s2 = []

    def add(self, values):
        v = np.asarray(values, dtype=float)
        sums = v.sum(axis=-1).ravel()
        self.n.extend([float(v.shape[-1])] * sums.size)
        self.s.extend(sums.tolist())
        self.s2.extend((v * v).sum(axis=-1).ravel().tolist())

    def mean(self):
        return math.fsum(self.s) / math.fsum(self.n)

    def std(self):
        n = math.fsum(self.n)
        m = math.fsum(self.s) / n
        var = math.fsum(self.s2) / n - m * m
        return math.sqrt(max(var, 0.0))


class _Moments:
    """The pooled samples behind a MomentReport, on grid spacing dt."""

    def __init__(self, dt=None):
        self.dt = dt
        self.pd, self.rate, self.ret = _Pool(), _Pool(), _Pool()

    def add(self, state, dividend):
        """The MarketState and dividend of one path, or of a batch with one
        path per row along the last axis."""
        self.pd.add(state.pd_ratio)
        self.rate.add(state.rate)
        stock = dividend * state.pd_ratio
        self.ret.add((stock[..., 1:] + dividend[..., :-1] * self.dt
                      - stock[..., :-1]) / stock[..., :-1])

    def sums(self):
        """The per-path (n, s, s2) lists of the three pools."""
        return [(p.n, p.s, p.s2) for p in (self.pd, self.rate, self.ret)]

    def extend(self, sums):
        """Append the per-path sums of later paths."""
        for pool, (n, s, s2) in zip((self.pd, self.rate, self.ret), sums):
            pool.n += n
            pool.s += s
            pool.s2 += s2

    def report(self) -> MomentReport:
        return _moment_report(
            self.pd.mean(), self.pd.std(), self.ret.mean() / self.dt,
            self.ret.std() / math.sqrt(self.dt), self.rate.mean(),
            self.rate.std())


def compute_moments(paths) -> MomentReport:
    """Pooled moment report over an iterable of EquilibriumPath objects.

    Paths must share their grid spacing.  Raises ConfigError on empty input,
    and SaturationError naming each pooled mean and std (of P/D, of the
    equity return and of the riskless rate) that is not finite, as when a
    path's levels overflow.  A NaN Sharpe ratio, from a return std of 0,
    is reported.

    Each path's (count, sum, sum of squares) come from ``numerics.fork_map``,
    which splits a sequence of more than one path (a list, or
    ``simulate_paths``) across the usable CPUs, and consumes any other
    input, such as a generator, in order in this process.  The pools
    reduce the per-path sums with ``math.fsum``, which rounds exactly once
    whatever the order, so a split report equals the in-order one to the
    bit.  An error that reading or adding a path raises is raised here as
    an in-order loop would raise it, the lowest path's first.
    """
    moments = _Moments()
    for dt, sums in fork_map(_path_sums, paths):
        if moments.dt is None:
            moments.dt = dt
        elif dt != moments.dt:
            raise ConfigError("paths do not share a common grid spacing")
        moments.extend(sums)
    if moments.dt is None:
        raise ConfigError("compute_moments needs at least one path")
    report = moments.report()
    bad = [name for name in MOMENT_NAMES[:6]   # premium and Sharpe derive
           if not math.isfinite(getattr(report, name))]
    if bad:
        raise SaturationError(f"moment report: {', '.join(bad)} not finite")
    return report


def _path_sums(path):
    """The grid spacing and the per-path sums of one path."""
    moments = _Moments(path.dt)
    moments.add(path.state, path.dividend)
    return path.dt, moments.sums()


# ---------------------------------------------------------------------------
# historical price/dividend ingestion


@dataclass(frozen=True)
class IngestReport:
    targets: MomentReport
    n_rows: int
    first_date: str
    last_date: str


def ingest_price_dividend_csv(path, min_years: float = 10.0) -> IngestReport:
    """Empirical targets from a monthly price/dividend CSV.

    The file needs a header with columns named (case-insensitively) date,
    price and dividend; price is the real index level and dividend the
    annualized real dividend rate, monthly rows.  An optional riskless
    column (annualized rate, decimal) enables the rate moments; otherwise
    those moments are NaN.

    Annualization: monthly total returns scaled by 12 (mean) and sqrt(12)
    (std); PD is price over the annualized dividend, pooled monthly.
    """
    rows = []
    with open(path, newline="") as fp:
        reader = csv.reader(fp)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        cols = {name.strip().lower(): i for i, name in enumerate(header)}
        for required in ("date", "price", "dividend"):
            if required not in cols:
                raise ConfigError(f"{path}: missing column '{required}'")
        has_rate = "riskless" in cols
        bad_lines = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                date = row[cols["date"]].strip()
                price = float(row[cols["price"]])
                dividend = float(row[cols["dividend"]])
                rate = float(row[cols["riskless"]]) if has_rate else 0.0
                if not all(map(math.isfinite, (price, dividend, rate))):
                    raise ValueError("non-finite value")
                if price <= 0.0 or dividend <= 0.0:
                    raise ValueError("nonpositive price or dividend")
            except (ValueError, IndexError) as exc:
                bad_lines.append((lineno, str(exc)))
                continue
            rows.append((date, price, dividend, rate))
        if bad_lines:
            listing = "; ".join(f"line {n}: {msg}" for n, msg in bad_lines[:5])
            raise ConfigError(f"{path}: {len(bad_lines)} unparseable row(s): {listing}")
    # a return needs two months; no int(): the product may be inf
    if len(rows) < 2 or len(rows) <= min_years * 12:
        raise ConfigError(
            f"{path}: span too short ({len(rows)} monthly rows; need at "
            f"least 2 and more than {min_years:g} years)")

    price = np.array([r[1] for r in rows])
    dividend = np.array([r[2] for r in rows])

    pd_ratio = price / dividend
    # monthly total return: next price plus one month of dividend flow
    ret_m = (price[1:] + dividend[:-1] / 12.0 - price[:-1]) / price[:-1]
    mean_ret = 12.0 * float(ret_m.mean())
    std_ret = math.sqrt(12.0) * float(ret_m.std())
    if has_rate:
        rate = np.array([r[3] for r in rows])
        mean_r, std_r = float(rate.mean()), float(rate.std())
    else:
        mean_r = std_r = math.nan
    targets = _moment_report(
        float(pd_ratio.mean()), float(pd_ratio.std()), mean_ret, std_ret,
        mean_r, std_r, provenance=f"ingested:{path}")
    return IngestReport(targets=targets, n_rows=len(rows),
                        first_date=rows[0][0], last_date=rows[-1][0])


# ---------------------------------------------------------------------------
# moment-matching search


@dataclass(frozen=True)
class FreeParameter:
    """A parameter the search may move, on a bounded box; the problem that
    holds it checks it."""

    name: str          # sigma | drift_adjustment | alpha_<j> | rho_<j> | nu_<j>
    lower: float
    upper: float
    start: float


@dataclass(frozen=True)
class CalibrationProblem:
    """Search setup: which parameters move, on what Monte Carlo budget."""

    n_agents: int
    free: Tuple[FreeParameter, ...]
    fixed: Dict[str, float] = field(default_factory=dict)
    n_paths: int = 200
    horizon: float = 50.0
    dt: float = 1.0 / 252.0
    seed: int = 0
    max_iterations: int = 200

    def __post_init__(self):
        if self.n_agents < 1:
            raise ConfigError("n_agents must be >= 1")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        # a search keeps all of its driver paths, so their points are a count
        steps = step_count(self.horizon, self.dt, "horizon_years")
        if self.n_paths * (steps + 1) > MAX_COUNT:
            raise ConfigError(f"n_paths: n_paths x (horizon/dt + 1) grid "
                              f"points must be at most {MAX_COUNT}")
        # each error starts with the config path of the field it rejects
        names = [p.name for p in self.free]
        if not names:
            raise ConfigError("free: need at least one free parameter")
        for i, p in enumerate(self.free):
            positive = _parameter(p.name, self.n_agents, f"free[{i}].name")[1]
            if p.name in names[:i]:
                raise ConfigError(f"free[{i}].name: duplicate of an earlier "
                                  f"free parameter")
            if not p.lower < p.upper:
                raise ConfigError(f"free[{i}].upper: need lower < upper")
            if not p.lower <= p.start <= p.upper:
                raise ConfigError(f"free[{i}].start: need lower <= start "
                                  f"<= upper")
            if positive and not p.lower > 0.0:
                raise ConfigError(f"free[{i}].lower: bounds must keep "
                                  f"{p.name} > 0")
        for name, value in self.fixed.items():
            path = f"fixed.{name}"
            positive = _parameter(name, self.n_agents, path)[1]
            if name in names:
                raise ConfigError(f"{path}: both free and fixed")
            if positive and not value > 0.0:
                raise ConfigError(f"{path}: must be > 0")


#: Fit parameter -> (default, whether it must be > 0).  alpha, rho and nu
#: are per agent: agent j's are named alpha_<j>, rho_<j> and nu_<j>.
_PARAMETERS = {"sigma": (0.2, True), "drift_adjustment": (0.0, False),
               "alpha": (0.0, False), "rho": (0.05, True), "nu": (1.0, True)}


def _parameter(name: str, n_agents: int, path: str):
    """The (default, must be > 0) of the fit parameter ``name``, read at
    the config ``path``.  An agent's name must be the exact string that
    ``build_market`` looks up: j in decimal ASCII digits, no leading zero,
    below n_agents (the length bound keeps ``int`` off a huge string)."""
    kind, _, j = name.rpartition("_")
    if kind in ("alpha", "rho", "nu") and j.isdecimal() \
            and len(j) <= len(str(n_agents)) \
            and name == f"{kind}_{int(j)}" and int(j) < n_agents:
        return _PARAMETERS[kind]
    if name in ("sigma", "drift_adjustment"):
        return _PARAMETERS[name]
    raise ConfigError(f"{path}: unknown parameter name '{name}'")


def build_market(values: Dict[str, float],
                 n_agents: int) -> equilibrium.MarketSpec:
    """MarketSpec from a flat parameter dict (constant-drift agents)."""
    agents = []
    for j in range(n_agents):
        agents.append(equilibrium.AgentSpec(
            impatience=values.get(f"rho_{j}", _PARAMETERS["rho"][0]),
            belief=beliefs.ConstantDrift(
                values.get(f"alpha_{j}", _PARAMETERS["alpha"][0])),
            weight=values.get(f"nu_{j}", _PARAMETERS["nu"][0]),
        ))
    return equilibrium.MarketSpec(
        sigma=values.get("sigma", _PARAMETERS["sigma"][0]),
        drift_adjustment=values.get("drift_adjustment",
                                    _PARAMETERS["drift_adjustment"][0]),
        agents=tuple(agents),
    )


def moment_loss(report: MomentReport, targets: MomentReport) -> float:
    """Relative squared error, sum_k ((m_k - t_k)/t_k)^2.

    Moments whose target is NaN are skipped; a non-finite moment makes the
    loss infinite.
    """
    total = 0.0
    for name in MOMENT_NAMES:
        target = getattr(targets, name)
        if math.isnan(target):
            continue
        m = getattr(report, name)
        if not math.isfinite(m):
            return math.inf
        total += ((m - target) / target) ** 2
    return total


#: Grid points (agents x paths x steps) per batch of the fit objective,
#: which bounds each agent-major array of a batch at 512 KiB.
_BATCH_POINTS = 1 << 16


def draw_drivers(problem: CalibrationProblem):
    """The problem's common random numbers: its driver paths, as a list of
    (times, X) batches of whole paths, each of at most ``_BATCH_POINTS``
    grid points (at least one path).  A search draws them once."""
    n_steps = step_count(problem.horizon, problem.dt, "horizon_years")
    size = max(1, _BATCH_POINTS // problem.n_agents // (n_steps + 1))
    return [equilibrium._drivers(
        n_steps, problem.dt, problem.seed,
        range(start, min(start + size, problem.n_paths)))
        for start in range(0, problem.n_paths, size)]


def evaluate_point(problem: CalibrationProblem, values: Dict[str, float],
                   targets: MomentReport,
                   drivers=None) -> Tuple[float, MomentReport]:
    """Loss and moment report at one parameter point, with common random
    numbers (the same path seeds on every call).  Each batch of ``drivers``
    (default: ``draw_drivers(problem)``) is evaluated as one array."""
    if drivers is None:
        drivers = draw_drivers(problem)
    spec = build_market(values, problem.n_agents)
    moments = _Moments(problem.dt)
    ic = False
    for times, x in drivers:
        state = equilibrium.market_state(spec, times, x)
        ic = ic or state.ic_suspect
        moments.add(state, equilibrium.dividend_path(spec, times, x))
    report = moments.report()
    loss = math.inf if ic else moment_loss(report, targets)
    return loss, report


def _to_box(u, lower, upper):
    # smooth bijection R -> (lower, upper); keeps the simplex unconstrained
    return lower + (upper - lower) / (1.0 + np.exp(-u))


def _from_box(x, lower, upper):
    frac = np.clip((x - lower) / (upper - lower), 1e-12, 1.0 - 1e-12)
    return np.log(frac / (1.0 - frac))


@dataclass
class FitResult:
    values: Dict[str, float]
    report: MomentReport
    loss: float
    n_evaluations: int
    converged: bool


def fit_parameters(problem: CalibrationProblem,
                   targets: MomentReport) -> FitResult:
    """Derivative-free moment matching.

    Nelder-Mead simplex (``numerics.nelder_mead``, bit-identical to scipy's
    with xatol 1e-4 and fatol 1e-6) on logistic-transformed coordinates
    keeps every trial point inside its box; non-finite losses (e.g.
    transversality violations) reject the point.  Deterministic given
    problem.seed.  Raises NumericError when no trial point has a finite loss.
    """
    names = [p.name for p in problem.free]
    lower = np.array([p.lower for p in problem.free])
    upper = np.array([p.upper for p in problem.free])
    start = np.array([p.start for p in problem.free])
    drivers = draw_drivers(problem)
    n_eval = 0

    def values_at(u):
        x = _to_box(u, lower, upper)
        vals = dict(problem.fixed)
        vals.update(zip(names, x))
        return vals

    def objective(u):
        nonlocal n_eval
        n_eval += 1
        loss, _ = evaluate_point(problem, values_at(u), targets, drivers)
        return loss

    u0 = _from_box(start, lower, upper)
    u_best, converged = nelder_mead(objective, u0, problem.max_iterations,
                                    xatol=1e-4, fatol=1e-6)
    best = values_at(u_best)
    loss, report = evaluate_point(problem, best, targets, drivers)
    if not math.isfinite(loss):
        raise NumericError(
            f"fit found no finite loss in {n_eval} evaluations: at every "
            f"trial point the price/dividend ratio passed the transversality "
            f"guard PD_DIVERGENCE_LIMIT = {equilibrium.PD_DIVERGENCE_LIMIT:g} "
            f"or a moment was not finite")
    return FitResult(values=best, report=report, loss=loss,
                     n_evaluations=n_eval, converged=converged)


def comparison_table(report: MomentReport, targets: MomentReport) -> str:
    """Aligned two-column moment table (model vs target)."""
    width = max(map(len, MOMENT_LABELS.values()))
    lines = [f"{'':{width}}  {'Model':>10}  {'Target':>10}"]
    for name, label in MOMENT_LABELS.items():
        lines.append(f"{label:{width}}  {getattr(report, name):10.4g}"
                     f"  {getattr(targets, name):10.4g}")
    return "\n".join(lines)
