"""Moment computation, historical data ingestion, and parameter search.

Estimator conventions (these matter and are easy to get subtly wrong, so
they are fixed here once):

* PD and the riskless rate are pooled over every grid point of every path.
* The equity return is the per-step total return (``total_return``)
      R_k = exp(log delta_{k+1} - log delta_k) PD_{k+1} / PD_k
            + dt / PD_k - 1,
  which is (S_{k+1} + delta_k * dt - S_k) / S_k with S = delta PD, built
  from the log dividend and PD, so no moment reads a level: R is finite
  wherever PD is, unless a step's log-dividend move overflows exp.  It is
  annualized by 1/dt on the mean and 1/sqrt(dt) on the std.
* equity premium = mean equity return - mean riskless rate, and
  Sharpe = premium / std equity return, exactly as computed.

Pooling is per-path rows: ``_path_sums`` gives each path one row of nine
floats, the (count, sum, sum of squares) of P/D, of the riskless rate and
of the return, and ``_report`` reduces each column with math.fsum, which
rounds once whatever the order, so the report is invariant to the order
of the path set.  The pooled std is sqrt(E[x^2] - m^2) of those sums.
A batch of paths priced as one array gives each path the row it has
alone, so ``compute_moments`` prices the paths of ``simulate_paths`` in
batches, as the fit objective prices its drivers (``_batch_sums``), and
takes the rows of those batches, or of the paths of a list, from
``numerics.fork_map``, which splits them across the usable CPUs; the
report is identical to the bit to the in-order loop over the paths.

Numpy's overflow warning is ignored by whoever calls the pricing pass:
``compute_moments`` once per batch or path, and ``evaluate_point`` once
per fit evaluation; an overflow gives inf, which the report or the loss
names.
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
    """The eight moments, of a model or of data.  A NaN moment is
    unavailable."""

    mean_pd: float
    std_pd: float
    mean_equity_return: float
    std_equity_return: float
    mean_riskless: float
    std_riskless: float
    equity_premium: float
    sharpe: float

    def as_dict(self) -> Dict[str, float]:
        return {k: getattr(self, k) for k in MOMENT_NAMES}


def _moment_report(mean_pd, std_pd, mean_ret, std_ret, mean_r, std_r):
    """Six moments and the premium and Sharpe ratio derived from them."""
    premium = mean_ret - mean_r
    return MomentReport(
        mean_pd=mean_pd, std_pd=std_pd, mean_equity_return=mean_ret,
        std_equity_return=std_ret, mean_riskless=mean_r, std_riskless=std_r,
        equity_premium=premium,
        sharpe=premium / std_ret if std_ret > 0.0 else math.nan)


#: Long-sample US stock-market targets (S&P real price and dividend,
#: 1871-1998, monthly): the default calibration target set.
DEFAULT_TARGETS = MomentReport(
    mean_pd=25.0, std_pd=7.1,
    mean_equity_return=0.07, std_equity_return=0.18,
    mean_riskless=0.018, std_riskless=0.057,
    equity_premium=0.06, sharpe=0.33)


def total_return(dlog_dividend, pd, pd_next, dt):
    """The per-step total return exp(dlog_dividend) pd_next / pd + dt / pd
    - 1 of a stock S = delta PD that pays the dividend flow delta dt, which
    is (S' + delta dt - S) / S.  It reads no level, so it is finite wherever
    PD is; a log-dividend move that overflows exp gives inf, which the
    moment report names (its callers ignore numpy's overflow warning)."""
    ret = np.exp(dlog_dividend)
    ret *= pd_next / pd
    ret += dt / pd
    ret -= 1.0
    return ret


def _path_sums(state, log_dividend, dt):
    """One row of nine floats per path of a MarketState and its log
    dividend, on grid spacing dt: the (count, sum, sum of squares) of P/D,
    of the riskless rate and of the per-step total return.  A batch, with
    one path per row along the last axis, gives a list of one row per path,
    in order; each sum is the row's own numpy reduction, so it has the bits
    of the path's sum taken alone.  A sum that overflows is inf, which the
    moment report names; the caller holds the ``np.errstate`` that ignores
    numpy's overflow warning."""
    pd = state.pd_ratio
    columns = []
    for v in (pd, state.rate, total_return(np.diff(log_dividend),
                                           pd[..., :-1], pd[..., 1:], dt)):
        sums = v.sum(axis=-1).ravel().tolist()
        columns += [[float(v.shape[-1])] * len(sums), sums,
                    (v * v).sum(axis=-1).ravel().tolist()]
    return list(zip(*columns))


def _fsum(column):
    """math.fsum of ``column``, or inf where the finite terms add past the
    largest float, which fsum raises as OverflowError.  No column's total
    can overflow to -inf: P/D > 0, a return is > -1 and the rate is
    bounded."""
    try:
        return math.fsum(column)
    except OverflowError:
        return math.inf


def _report(rows, dt) -> MomentReport:
    """The MomentReport of ``_path_sums`` rows on grid spacing dt.  Each
    column is reduced with math.fsum, which rounds once whatever the order
    of the rows; the std is E[x^2] - m^2 of those sums.  The return's mean
    is annualized by 1/dt and its std by 1/sqrt(dt)."""
    sums = [_fsum(column) for column in zip(*rows)]
    moments = []
    for n, s, s2 in (sums[0:3], sums[3:6], sums[6:9]):
        m = s / n
        moments += [m, math.sqrt(max(s2 / n - m * m, 0.0))]
    mean_pd, std_pd, mean_r, std_r, mean_ret, std_ret = moments
    return _moment_report(mean_pd, std_pd, mean_ret / dt,
                          std_ret / math.sqrt(dt), mean_r, std_r)


def _batch_sums(spec, times, x, dt):
    """The ``_path_sums`` rows of a batch of driver paths x (P, n+1) on the
    grid ``times`` of spacing dt, one per path in order: the pricing pass
    of ``compute_moments`` and ``evaluate_point``.  The log dividend comes
    first, as in ``simulate_path``, so a batch raises what its paths raise
    one at a time.  The caller holds the ``np.errstate``."""
    log_dividend = equilibrium.log_dividend_path(spec, times, x)
    return _path_sums(equilibrium.market_state(spec, times, x), log_dividend,
                      dt)


def _batches(n_paths, n_agents, n_steps):
    """Path indices 0 .. n_paths-1 cut into ranges of whole paths, each of
    at most ``_BATCH_POINTS`` agent-major grid points (at least one
    path)."""
    size = max(1, _BATCH_POINTS // n_agents // (n_steps + 1))
    return [range(start, min(start + size, n_paths))
            for start in range(0, n_paths, size)]


def compute_moments(paths) -> MomentReport:
    """Pooled moment report over an iterable of EquilibriumPath objects.

    Paths must share their grid spacing.  Raises ConfigError on empty input,
    and SaturationError naming each pooled mean and std (of P/D, of the
    equity return and of the riskless rate) that is not finite, as when a
    step's log-dividend move overflows exp.  A NaN Sharpe ratio, from a
    return std of 0, is reported.

    The paths of ``simulate_paths`` (a ``PathSequence``) are never built:
    their indices are cut into batches of whole paths by the rule of
    ``draw_drivers``, and each batch's drivers are drawn and priced as one
    array (``_batch_sums``), whose rows are those of its paths priced one
    at a time.  Any other input is read path by path.  Either way
    ``numerics.fork_map`` splits a sequence of more than one item (batch or
    path) across the usable CPUs, and consumes any other input, such as a
    generator, in order in this process.  The rows come back in path
    order, and ``_report`` reduces each column with ``math.fsum``, which
    rounds exactly once whatever the order, so a split or batched report
    equals the in-order one to the bit.  An error that reading or pricing
    a path raises is raised here as an in-order loop would raise it, the
    lowest batch's or path's first.
    """
    if isinstance(paths, equilibrium.PathSequence):
        spec, dt, seed = paths.spec, paths.dt, paths.seed
        n_steps = step_count(paths.horizon, dt, "horizon")

        def sums(indices):
            with np.errstate(over="ignore"):
                return dt, _batch_sums(spec, *equilibrium._drivers(
                    n_steps, dt, seed, indices), dt)

        items = _batches(len(paths), len(spec.agents), n_steps)
    else:
        def sums(path):
            with np.errstate(over="ignore"):
                return path.dt, _path_sums(path.state, path.log_dividend,
                                           path.dt)

        items = paths
    spacing, rows = None, []
    for item_dt, item_rows in fork_map(sums, items):
        if spacing is None:
            spacing = item_dt
        elif item_dt != spacing:
            raise ConfigError("paths do not share a common grid spacing")
        rows += item_rows
    if spacing is None:
        raise ConfigError("compute_moments needs at least one path")
    report = _report(rows, spacing)
    bad = [name for name in MOMENT_NAMES[:6]   # premium and Sharpe derive
           if not math.isfinite(getattr(report, name))]
    if bad:
        raise SaturationError(f"moment report: {', '.join(bad)} not finite")
    return report


# ---------------------------------------------------------------------------
# historical price/dividend ingestion


@dataclass(frozen=True)
class IngestReport:
    targets: MomentReport
    provenance: str      # ingested:<path>
    n_rows: int
    first_date: str
    last_date: str


def ingest_price_dividend_csv(path, min_years: float = 10.0) -> IngestReport:
    """Empirical targets from a monthly price/dividend CSV.

    The file needs a header with columns named (case-insensitively) date,
    price and dividend; price is the real index level and dividend the
    annualized real dividend rate, monthly rows.  An optional riskless
    column (annualized rate, decimal) enables the rate moments; otherwise
    those moments are NaN.  The file is read as UTF-8, whatever the
    locale, skipping a leading byte-order mark.

    Annualization: monthly total returns (``total_return`` at dt = 1/12,
    which is P' / P + dividend / (12 P) - 1) scaled by 12 (mean) and
    sqrt(12) (std); PD is price over the annualized dividend, pooled
    monthly.

    Raises ConfigError on a file it cannot use, such as one that names a
    column it reads twice, and SaturationError naming each moment that is
    not finite (the rate moments only with a riskless column).
    """
    with open(path, newline="", encoding="utf-8-sig") as fp:
        reader = csv.reader(fp)
        try:
            table = list(reader)
        except csv.Error as exc:   # e.g. a field past csv's size limit
            raise ConfigError(f"{path}: line {reader.line_num}: {exc}") \
                from None
    if not table:
        raise ConfigError(f"{path}: empty file")
    names = [name.strip().lower() for name in table[0]]
    cols = {name: i for i, name in enumerate(names)}
    # other names may repeat, such as the empty headers of a spreadsheet
    for name in ("date", "price", "dividend", "riskless"):
        if names.count(name) > 1:
            raise ConfigError(f"{path}: duplicate column '{name}'")
    for required in ("date", "price", "dividend"):
        if required not in cols:
            raise ConfigError(f"{path}: missing column '{required}'")
    has_rate = "riskless" in cols
    rows, bad_lines = [], []
    for lineno, row in enumerate(table[1:], start=2):
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

    _, price, dividend, rate = map(np.array, zip(*rows))
    with np.errstate(over="ignore", invalid="ignore"):
        pd_ratio = price / dividend
        ret_m = total_return(np.diff(np.log(dividend)), pd_ratio[:-1],
                             pd_ratio[1:], 1.0 / 12.0)
        mean_r, std_r = (float(rate.mean()), float(rate.std())) \
            if has_rate else (math.nan, math.nan)
        targets = _moment_report(
            float(pd_ratio.mean()), float(pd_ratio.std()),
            12.0 * float(ret_m.mean()), math.sqrt(12.0) * float(ret_m.std()),
            mean_r, std_r)
    # premium and Sharpe derive; the rate moments are NaN without riskless
    bad = [name for name in MOMENT_NAMES[:6 if has_rate else 4]
           if not math.isfinite(getattr(targets, name))]
    if bad:
        raise SaturationError(f"{path}: {', '.join(bad)} not finite")
    return IngestReport(targets=targets, provenance=f"ingested:{path}",
                        n_rows=len(rows), first_date=rows[0][0],
                        last_date=rows[-1][0])


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

    Moments whose target is NaN are skipped; a non-finite moment, or a
    term that overflows, makes the loss infinite.
    """
    total = 0.0
    for name in MOMENT_NAMES:
        target = getattr(targets, name)
        if math.isnan(target):
            continue
        m = getattr(report, name)
        try:
            total += ((m - target) / target) ** 2
        except OverflowError:  # float ** raises where * would give inf
            return math.inf
    return total if math.isfinite(total) else math.inf


#: Grid points (agents x paths x steps) per batch of driver paths, of the
#: fit objective and of a moment report, which bounds each agent-major
#: array of a batch at 1 MiB: three 50-year daily paths of a three-agent
#: market.  Larger batches fall out of the cache: on a 2-core Xeon (4 MiB
#: L2), such paths took about 2.0 ms each at eight to a batch, against
#: 0.63-0.80 ms at three or four and 0.76-1.0 ms alone.
_BATCH_POINTS = 1 << 17


def draw_drivers(problem: CalibrationProblem):
    """The problem's common random numbers: its driver paths, as a list of
    (times, X) batches of whole paths, each of at most ``_BATCH_POINTS``
    grid points (at least one path).  A search draws them once."""
    n_steps = step_count(problem.horizon, problem.dt, "horizon_years")
    return [equilibrium._drivers(n_steps, problem.dt, problem.seed, indices)
            for indices in _batches(problem.n_paths, problem.n_agents,
                                    n_steps)]


def evaluate_point(problem: CalibrationProblem, values: Dict[str, float],
                   targets: MomentReport,
                   drivers) -> Tuple[float, MomentReport]:
    """Loss and moment report at one parameter point, with common random
    numbers: ``drivers`` are ``draw_drivers(problem)``, drawn once per
    search, and each of their batches is evaluated as one array, whose
    ``_path_sums`` rows, one per path, are concatenated in path order for
    ``_report``."""
    spec = build_market(values, problem.n_agents)
    rows = []
    # a trial point's numpy floats give inf or nan where they overflow,
    # which makes its loss infinite and rejects it, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for times, x in drivers:
            rows += _batch_sums(spec, times, x, problem.dt)
    report = _report(rows, problem.dt)
    return moment_loss(report, targets), report


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
    keeps every trial point inside its box; a non-finite loss rejects the
    point.  Deterministic given problem.seed.  Raises NumericError when no
    trial point has a finite loss.
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
            f"trial point a moment or its loss term was not finite")
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
