import collections.abc
import ctypes
import dataclasses
import math
import os
import resource
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import beliefmkt
from beliefmkt import calibration, config, equilibrium, numerics
from beliefmkt.beliefs import ConstantDrift
from beliefmkt.calibration import (CalibrationProblem, DEFAULT_TARGETS,
                                   MOMENT_NAMES, FreeParameter, MomentReport,
                                   build_market,
                                   comparison_table, compute_moments,
                                   draw_drivers, evaluate_point,
                                   fit_parameters,
                                   ingest_price_dividend_csv, moment_loss)
from beliefmkt.equilibrium import AgentSpec, MarketSpec, simulate_path
from beliefmkt.errors import ConfigError, SaturationError, SingularMarketError
from conftest import benchmark_market, driver_path, learner_market, no_fork


def single_agent_market(sigma=0.2, alpha=0.0, rho=0.05):
    return MarketSpec(sigma=sigma, agents=(
        AgentSpec(impatience=rho, belief=ConstantDrift(alpha), weight=1.0),))


# ---------------------------------------------------------------------------
# moment report


def test_internal_identities_hold_exactly():
    paths = [simulate_path(benchmark_market(), 2.0, 1 / 52, 3, p)
             for p in range(4)]
    report = compute_moments(paths)
    assert report.equity_premium == report.mean_equity_return - report.mean_riskless
    assert report.sharpe == report.equity_premium / report.std_equity_return


def test_single_agent_pd_is_deterministic():
    paths = [simulate_path(single_agent_market(), 3.0, 1 / 52, 1, p)
             for p in range(3)]
    report = compute_moments(paths)
    assert report.std_pd < 1e-12
    assert report.mean_pd == pytest.approx(20.0, rel=1e-12)
    assert report.std_riskless < 1e-12


def test_compute_moments_rejects_empty_and_mixed_grids():
    with pytest.raises(ConfigError):
        compute_moments([])
    a = simulate_path(single_agent_market(), 2.0, 1 / 52, 1, 0)
    b = simulate_path(single_agent_market(), 2.0, 1 / 26, 1, 0)
    with pytest.raises(ConfigError):
        compute_moments([a, b])


def test_compute_moments_raises_when_levels_overflow():
    # sigma 30 and alpha* 100 at dt 1: each step's log-dividend move (about
    # 2550) overflows exp, so the returns are inf and their moments are not
    # finite; P/D and the rate stay finite
    spec = MarketSpec(sigma=30.0, drift_adjustment=100.0, agents=(
        AgentSpec(impatience=0.05, belief=ConstantDrift(0.1), weight=1.0),))
    paths = equilibrium.simulate_paths(spec, 10.0, 1.0, 0, 2)
    with pytest.raises(SaturationError, match="^moment report: "
                       "mean_equity_return, std_equity_return not finite$"):
        compute_moments(paths)


def test_compute_moments_names_a_pooled_sum_that_overflows():
    # one agent at rho 1.5e-153: P/D = 1/rho, so each path's sum of P/D**2
    # (101 points of 4.4e305) is finite, but the 8 paths' total is not,
    # which math.fsum raises as OverflowError
    paths = equilibrium.simulate_paths(single_agent_market(rho=1.5e-153),
                                       2.0, 0.02, 1, 8)
    with pytest.raises(SaturationError,
                       match="^moment report: std_pd not finite$"):
        compute_moments(paths)


def test_total_return_is_the_return_of_the_levels():
    # where the levels are finite, R = exp(d log delta) PD' / PD + dt / PD - 1
    # is (S' + delta dt - S) / S to rounding
    dt = 1 / 252
    path = simulate_path(benchmark_market(), 50.0, dt, 20260811, 0)
    stock, dividend, pd = path.stock, path.dividend, path.pd_ratio
    levels = (stock[1:] + dividend[:-1] * dt - stock[:-1]) / stock[:-1]
    got = calibration.total_return(np.diff(path.log_dividend), pd[:-1],
                                   pd[1:], dt)
    assert np.abs(got - levels).max() <= 8 * np.spacing(1.0)
    # one agent: PD = 1 / rho at every step, so R = exp(d log delta) + rho dt
    # - 1; and the report builds no level
    lone = simulate_path(single_agent_market(), 20.0, 1 / 52, 3, 0)
    compute_moments([lone])
    assert "dividend" not in vars(lone) and "stock" not in vars(lone)
    want = np.exp(np.diff(lone.log_dividend)) + 0.05 / 52 - 1.0
    got = calibration.total_return(np.diff(lone.log_dividend),
                                   lone.pd_ratio[:-1], lone.pd_ratio[1:],
                                   1 / 52)
    assert np.abs(got - want).max() <= 2 * np.spacing(1.0)


def test_an_overflowing_dividend_leaves_the_objective_finite():
    # sigma 3 and alpha* 5: the dividend level overflows within 100 years,
    # but the return reads no level, so neither the loss nor the report
    # overflows, and numpy does not warn (warnings fail the test)
    problem = CalibrationProblem(
        n_agents=1, free=(FreeParameter("sigma", 0.1, 4.0, 3.0),),
        n_paths=4, horizon=100.0, dt=0.1)
    values = {"sigma": 3.0, "drift_adjustment": 5.0, "alpha_0": 0.1,
              "rho_0": 0.05}
    loss, report = evaluate_point(problem, values, DEFAULT_TARGETS,
                                  draw_drivers(problem))
    assert all(map(math.isfinite, report.as_dict().values()))
    assert loss == pytest.approx(573312.0, rel=1e-6)
    assert report.mean_pd == 20.0
    assert report.mean_equity_return == pytest.approx(33.79, abs=5e-3)


def test_moments_permutation_invariant():
    paths = [simulate_path(benchmark_market(), 2.0, 1 / 52, 5, p)
             for p in range(6)]
    forward = compute_moments(paths)
    backward = compute_moments(paths[::-1])
    assert forward == backward


def test_doubling_paths_shrinks_standard_error():
    # standard error of the mean PD across paths scales like 1/sqrt(paths)
    spec = benchmark_market()

    def se_of_mean_pd(n_paths, seed):
        means = [simulate_path(spec, 5.0, 1 / 52, seed, p).pd_ratio.mean()
                 for p in range(n_paths)]
        return np.std(means, ddof=1) / math.sqrt(n_paths)

    se_small = np.mean([se_of_mean_pd(40, s) for s in (1, 2, 3)])
    se_big = np.mean([se_of_mean_pd(80, s) for s in (1, 2, 3)])
    assert se_big / se_small == pytest.approx(1.0 / math.sqrt(2.0), rel=0.2)


# ---------------------------------------------------------------------------
# the report of a sequence split across forked children


def in_order_report(paths):
    """The report of the plain loop over the paths: the split's oracle."""
    rows = []
    for path in paths:
        rows += calibration._path_sums(path.state, path.log_dividend,
                                       path.dt)
    return calibration._report(rows, paths[0].dt)


@pytest.mark.parametrize("market", [benchmark_market, learner_market])
def test_a_batch_gives_the_rows_of_its_paths_one_at_a_time(market):
    # rows longer than numpy's 8192-element reduction block
    spec, dt, n_steps = market(), 1 / 252, 10080
    times, x = equilibrium._drivers(n_steps, dt, 8, range(4))

    def rows(x):
        return calibration._path_sums(
            equilibrium.market_state(spec, times, x),
            equilibrium.log_dividend_path(spec, times, x), dt)

    batch = rows(x)
    assert len(batch) == 4 and all(len(row) == 9 for row in batch)
    assert batch == [row for path in x for row in rows(path)]


@pytest.mark.parametrize("market", [benchmark_market, learner_market])
@pytest.mark.parametrize("cpus", [1, 2, 3, 9])
def test_split_report_equals_the_in_order_loop(forks, market, cpus):
    spec, n = market(), 5
    forks.cpus(cpus)
    lazy = equilibrium.simulate_paths(spec, 2.0, 1 / 52, 31, n)
    want = in_order_report(lazy)
    as_list = list(lazy)
    for paths in (lazy, as_list):
        forks.count = 0
        assert compute_moments(paths) == want
        assert forks.count == min(cpus, n) - 1
    forks.count = 0
    assert compute_moments(iter(as_list)) == want
    assert forks.count == 0


class FailingPaths(collections.abc.Sequence):
    """Paths whose item k raises SingularMarketError("path k") for each k
    in ``failing``."""

    def __init__(self, paths, failing):
        self.paths, self.failing = paths, failing

    def __len__(self):
        return len(self.paths)

    def __getitem__(self, k):
        if k in self.failing:
            raise SingularMarketError(f"path {k}")
        return self.paths[k]


@pytest.mark.parametrize("cpus, failing, raised", [
    (2, {4}, 4),            # the child's range fails
    (2, {1, 4}, 1),         # this process's range fails first
    (2, {4, 5}, 4),         # the first failing path of a range
    (3, {3, 5}, 3),         # two children's ranges: the lower one wins
    (3, {5, 2}, 2),
    (3, {0}, 0),            # this process's first path
])
def test_split_raises_the_first_error_in_path_order(forks, cpus, failing,
                                                     raised):
    paths = [simulate_path(benchmark_market(), 1.0, 1 / 52, 2, p)
             for p in range(6)]
    forks.cpus(cpus)
    with pytest.raises(SingularMarketError, match=f"^path {raised}$"):
        compute_moments(FailingPaths(paths, failing))
    assert forks.count == cpus - 1


class TwoPartError(Exception):
    def __init__(self, a, b):  # pickles, but does not load back
        super().__init__(f"{a} and {b}")


def test_split_sends_an_error_it_cannot_pickle_by_name(forks):
    paths = [simulate_path(benchmark_market(), 1.0, 1 / 52, 2, p)
             for p in range(4)]

    class Raising(FailingPaths):
        def __getitem__(self, k):
            if k == 3:
                raise TwoPartError("this", "that")
            return self.paths[k]

    forks.cpus(2)
    with pytest.raises(RuntimeError, match="^TwoPartError: this and that$"):
        compute_moments(Raising(paths, ()))


def test_split_needs_a_sequence_and_a_single_thread(monkeypatch):
    spec = benchmark_market()
    paths = [simulate_path(spec, 1.0, 1 / 52, 6, p) for p in range(4)]
    want = in_order_report(paths)
    monkeypatch.setattr(numerics, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    assert compute_moments(p for p in paths) == want
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert compute_moments(paths) == want
        assert compute_moments(
            equilibrium.simulate_paths(spec, 1.0, 1 / 52, 6, 4)) == want
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# ---------------------------------------------------------------------------
# ingestion


def write_csv(tmp_path, rows, header="date,price,dividend"):
    f = tmp_path / "data.csv"
    f.write_text(header + "\n" + "\n".join(rows) + "\n")
    return f


def test_ingest_constant_growth_series(tmp_path):
    rows = []
    price = 100.0
    for month in range(12 * 20):
        rows.append(f"{1900 + month // 12}-{month % 12 + 1:02d},"
                    f"{price:.17g},{price / 25.0:.17g}")
        price *= 1.002
    report = ingest_price_dividend_csv(write_csv(tmp_path, rows))
    assert report.n_rows == 240
    assert report.targets.mean_pd == pytest.approx(25.0, rel=1e-12)
    assert report.targets.std_pd == pytest.approx(0.0, abs=1e-9)
    assert math.isnan(report.targets.mean_riskless)


def test_ingest_recovers_lognormal_return_moments(tmp_path):
    rng = np.random.default_rng(17)
    n = 12 * 100
    m_monthly, s_monthly = 0.004, 0.03
    growth = np.exp(rng.normal(m_monthly, s_monthly, size=n - 1))
    price = 100.0 * np.concatenate([[1.0], np.cumprod(growth)])
    rows = [f"d{i},{p:.12g},{p / 20.0:.12g}" for i, p in enumerate(price)]
    report = ingest_price_dividend_csv(write_csv(tmp_path, rows))
    simple = np.exp(m_monthly + 0.5 * s_monthly**2) - 1.0 + 1.0 / (20.0 * 12.0)
    se = 12.0 * s_monthly / math.sqrt(n - 1)
    assert abs(report.targets.mean_equity_return - 12.0 * simple) < 3.0 * se


def test_ingest_with_riskless_column_fills_rate_moments(tmp_path):
    rows = [f"d{i},100.0,4.0,0.02" for i in range(200)]
    report = ingest_price_dividend_csv(
        write_csv(tmp_path, rows, header="date,price,dividend,riskless"))
    assert report.targets.mean_riskless == pytest.approx(0.02)
    assert report.targets.std_riskless == pytest.approx(0.0, abs=1e-15)


def test_ingest_missing_column(tmp_path):
    f = write_csv(tmp_path, ["1900-01,1.0"], header="date,price")
    with pytest.raises(ConfigError, match="dividend"):
        ingest_price_dividend_csv(f)


def test_ingest_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with one; read as plain UTF-8,
    # the first header would be "\ufeffdate" and the file would miss "date"
    sample = Path(__file__).resolve().parents[1] / "configs" \
        / "sample_price_dividend.csv"
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + sample.read_bytes())
    want = ingest_price_dividend_csv(sample)
    got = ingest_price_dividend_csv(marked)
    assert (got.n_rows, got.first_date, got.last_date) \
        == (want.n_rows, want.first_date, want.last_date)
    assert got.targets.as_dict() == want.targets.as_dict()


def test_ingest_bad_rows_reported_with_line_numbers(tmp_path):
    rows = [f"d{i},100.0,4.0" for i in range(150)]
    rows[7] = "d7,not_a_number,4.0"
    with pytest.raises(ConfigError, match="line 9"):
        ingest_price_dividend_csv(write_csv(tmp_path, rows))


@pytest.mark.parametrize("row", ["d7,nan,4.0,0.02", "d7,100.0,inf,0.02",
                                 "d7,100.0,4.0,nan"])
def test_ingest_non_finite_row_reported_with_line_number(tmp_path, row):
    rows = [f"d{i},100.0,4.0,0.02" for i in range(150)]
    rows[7] = row
    with pytest.raises(ConfigError, match="line 9: non-finite value"):
        ingest_price_dividend_csv(
            write_csv(tmp_path, rows, header="date,price,dividend,riskless"))


def test_ingest_short_span_rejected(tmp_path):
    rows = [f"d{i},100.0,4.0" for i in range(24)]
    with pytest.raises(ConfigError, match="too short"):
        ingest_price_dividend_csv(write_csv(tmp_path, rows))


@pytest.mark.parametrize("n_rows, min_years, accepted", [
    (121, 10.0, True), (120, 10.0, False), (121, 10.05, True),
    (120, 10.05, False), (200, 1e308, False), (1, 0.05, False)])
def test_ingest_span_needs_more_than_min_years(tmp_path, n_rows, min_years,
                                               accepted):
    # 1e308 years is 12 * 1e308 = inf months, still a short span; one row
    # gives no return, however short the span asked for
    path = write_csv(tmp_path, [f"d{i},100.0,4.0" for i in range(n_rows)])
    if accepted:
        assert ingest_price_dividend_csv(path, min_years).n_rows == n_rows
    else:
        with pytest.raises(ConfigError, match="too short"):
            ingest_price_dividend_csv(path, min_years)


@pytest.mark.skipif("BELIEFMKT_SHILLER_CSV" not in os.environ,
                    reason="set BELIEFMKT_SHILLER_CSV to the monthly "
                           "price/dividend file to enable")
def test_ingest_long_sample_us_file_matches_known_moments():
    # opt-in: point the env var at a monthly real price/dividend export
    # covering 1871-1998 to check against the built-in targets (±10%,
    # since the original estimator conventions are not pinned down)
    report = ingest_price_dividend_csv(os.environ["BELIEFMKT_SHILLER_CSV"])
    assert report.targets.mean_pd == pytest.approx(25.0, rel=0.10)
    if not math.isnan(report.targets.sharpe):
        assert report.targets.sharpe == pytest.approx(0.33, rel=0.10)


# ---------------------------------------------------------------------------
# loss and search


def test_moment_loss_skips_nan_targets_and_rejects_nonfinite():
    report = MomentReport(20.0, 5.0, 0.08, 0.2, 0.02, 0.05, 0.06, 0.3)
    targets = MomentReport(25.0, float("nan"), 0.07, 0.18, 0.018, 0.057,
                           0.06, 0.33)
    loss = moment_loss(report, targets)
    assert math.isfinite(loss)
    by_hand = ((20 - 25) / 25) ** 2 + ((0.08 - 0.07) / 0.07) ** 2 \
        + ((0.2 - 0.18) / 0.18) ** 2 + ((0.02 - 0.018) / 0.018) ** 2 \
        + ((0.05 - 0.057) / 0.057) ** 2 + ((0.06 - 0.06) / 0.06) ** 2 \
        + ((0.3 - 0.33) / 0.33) ** 2
    assert loss == pytest.approx(by_hand, rel=1e-12)
    bad = MomentReport(20.0, 5.0, math.inf, 0.2, 0.02, 0.05, 0.06, 0.3)
    assert moment_loss(bad, targets) == math.inf


def test_problem_validation():
    with pytest.raises(ConfigError):
        CalibrationProblem(n_agents=1, free=(
            FreeParameter("sigma", 0.5, 0.1, 0.3),))
    with pytest.raises(ConfigError):
        CalibrationProblem(n_agents=1, free=(
            FreeParameter("alpha_3", -1.0, 1.0, 0.0),))
    with pytest.raises(ConfigError):
        CalibrationProblem(n_agents=1, free=(
            FreeParameter("rho_0", -0.1, 1.0, 0.5),))
    with pytest.raises(ConfigError):
        CalibrationProblem(n_agents=1, free=(
            FreeParameter("sigma", 0.1, 0.5, 0.2),
            FreeParameter("sigma", 0.1, 0.5, 0.2)))
    with pytest.raises(ConfigError, match="nu_0"):
        CalibrationProblem(n_agents=1, free=(
            FreeParameter("nu_0", 0.5, 2.0, 1.0),), fixed={"nu_0": 1.0})


_BOX = (0.1, 0.5, 0.2)   # lower, upper, start


@pytest.mark.parametrize("free, fixed, message", [
    ((("alpha_00", *_BOX),), {},
     "free[0].name: unknown parameter name 'alpha_00'"),
    ((("rho_\u00b2", *_BOX),), {},
     "free[0].name: unknown parameter name 'rho_\u00b2'"),
    ((("sigma", *_BOX), ("sigma", *_BOX)), {}, "free[1].name: duplicate"),
    ((("rho_0", -0.1, 0.5, 0.2),), {}, "free[0].lower: bounds must keep"),
    ((("sigma", *_BOX),), {"alpha_00": 0.0},
     "fixed.alpha_00: unknown parameter name 'alpha_00'"),
    ((("sigma", *_BOX),), {"sigma": 0.2}, "fixed.sigma: both free and fixed"),
    ((("sigma", *_BOX),), {"rho_0": 0.0}, "fixed.rho_0: must be > 0")],
    ids=["leading-zero", "superscript", "duplicate", "lower", "fixed-name",
         "free-and-fixed", "fixed-value"])
def test_problem_errors_name_their_config_path(free, fixed, message):
    # each message starts with the path that config.parse_fit reads, and a
    # per-agent name must be the exact string that build_market looks up
    with pytest.raises(ConfigError) as exc:
        CalibrationProblem(n_agents=1, fixed=fixed,
                           free=tuple(FreeParameter(*p) for p in free))
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("budget, field", [
    ({"n_paths": 0}, "n_paths"), ({"max_iterations": 0}, "max_iterations"),
    ({"horizon": 0.0}, "horizon"), ({"horizon": -1.0}, "horizon"),
    ({"dt": 0.0}, "dt"), ({"dt": 30.0, "horizon": 20.0}, "dt"),
    ({"dt": math.nan}, "dt"), ({"seed": -3}, "seed"),
    ({"horizon": math.inf}, "horizon"),
    # each count within MAX_COUNT, but not the driver points a search keeps
    ({"n_paths": 10**9, "horizon": 20.0, "dt": 1 / 52}, "n_paths"),
    # horizon/dt overflows
    ({"horizon": 1e300, "dt": 1e-10}, "dt"),
    # 2 / 0.3 = 6.67 steps: the search would fit 1.8 years, not 2
    ({"horizon": 2.0, "dt": 0.3}, "dt")])
def test_problem_validates_monte_carlo_budget(budget, field):
    with pytest.raises(ConfigError, match=f"^{field}"):
        CalibrationProblem(n_agents=1, free=(
            FreeParameter("sigma", 0.1, 0.5, 0.2),), **budget)


def test_problem_accepts_driver_points_at_the_ceiling():
    # 10**6 paths of 999 steps: exactly MAX_COUNT grid points
    problem = CalibrationProblem(n_agents=1, free=(
        FreeParameter("sigma", 0.1, 0.5, 0.2),), n_paths=10**6,
        horizon=1.0, dt=1 / 999)
    assert problem.n_paths * 1000 == config.MAX_COUNT


def test_build_market_roundtrip():
    spec = build_market({"sigma": 0.3, "alpha_0": 0.1, "rho_0": 0.04,
                         "nu_0": 2.0, "alpha_1": -0.2, "rho_1": 0.2,
                         "nu_1": 1.0}, n_agents=2)
    assert spec.sigma == 0.3
    assert spec.agents[0].belief.drift == 0.1
    assert spec.agents[1].impatience == 0.2


def test_common_random_numbers_identical_losses():
    problem = CalibrationProblem(
        n_agents=2,
        free=(FreeParameter("sigma", 0.1, 0.5, 0.3),),
        fixed={"alpha_0": 0.1, "alpha_1": -0.1, "rho_0": 0.05, "rho_1": 0.1},
        n_paths=4, horizon=4.0, dt=1 / 52, seed=11)
    values = {"sigma": 0.27, **problem.fixed}
    loss_a, report_a = evaluate_point(problem, values, DEFAULT_TARGETS,
                                      draw_drivers(problem))
    loss_b, report_b = evaluate_point(problem, values, DEFAULT_TARGETS,
                                      draw_drivers(problem))
    assert loss_a == loss_b
    assert report_a == report_b


# ---------------------------------------------------------------------------
# the batched objective against the per-path oracle


def per_path_objective(problem, values, targets):
    """The objective path by path, through simulate_path and
    compute_moments: the oracle for the batched evaluate_point."""
    spec = build_market(values, problem.n_agents)
    paths = [simulate_path(spec, problem.horizon, problem.dt, problem.seed, p)
             for p in range(problem.n_paths)]
    report = compute_moments(paths)
    return moment_loss(report, targets), report


def assert_same_objective(got, want):
    """Equality by ==, with a NaN moment equal to a NaN moment."""
    assert got[0] == want[0]
    assert np.array_equal(list(got[1].as_dict().values()),
                          list(want[1].as_dict().values()), equal_nan=True)


def random_point(rng, n_agents, common_rho):
    rhos = np.full(n_agents, rng.uniform(0.01, 0.5)) if common_rho \
        else rng.uniform(0.01, 0.5, n_agents)
    values = {"sigma": rng.uniform(0.05, 0.6),
              "drift_adjustment": rng.normal(0.0, 0.05)}
    for j in range(n_agents):
        values[f"alpha_{j}"] = rng.uniform(-0.8, 0.8)
        values[f"rho_{j}"] = rhos[j]
        values[f"nu_{j}"] = math.exp(rng.uniform(-3.0, 3.0))
    return values


def oracle_problem(n_agents, **budget):
    return CalibrationProblem(
        n_agents=n_agents, free=(FreeParameter("sigma", 0.05, 0.6, 0.2),),
        **{"n_paths": 5, "horizon": 6.0, "dt": 1 / 52, "seed": 17, **budget})


@pytest.mark.parametrize("n_agents", [1, 2, 3])
@pytest.mark.parametrize("common_rho", [False, True])
def test_batched_objective_equals_per_path_oracle(n_agents, common_rho):
    rng = np.random.default_rng(31 * n_agents + common_rho)
    problem = oracle_problem(n_agents, seed=int(rng.integers(1000)))
    drivers = draw_drivers(problem)
    for _ in range(20):
        values = random_point(rng, n_agents, common_rho)
        want = per_path_objective(problem, values, DEFAULT_TARGETS)
        assert_same_objective(
            evaluate_point(problem, values, DEFAULT_TARGETS, drivers), want)


@pytest.mark.parametrize("values", [
    {"sigma": 0.2, "rho_0": 1e-7},
    {"sigma": 0.3, "rho_0": 1e-8, "rho_1": 0.05, "alpha_1": 0.3,
     "nu_0": 0.01, "nu_1": 1.0}])
def test_batched_objective_equals_oracle_at_extreme_pd(values):
    # a tiny rho_0 puts P/D near 1/rho_0, and the loss stays finite
    n_agents = 1 + ("rho_1" in values)
    problem = oracle_problem(n_agents)
    want = per_path_objective(problem, values, DEFAULT_TARGETS)
    assert want[1].mean_pd > 1e6 and math.isfinite(want[0])
    assert_same_objective(evaluate_point(problem, values, DEFAULT_TARGETS,
                                         draw_drivers(problem)), want)


def test_batched_objective_raises_as_oracle_on_singular_market():
    # a + kappa = 0 exactly at t = 0 on every path
    values = {"sigma": 0.5, "alpha_0": 1.0, "alpha_1": -1.0, "rho_0": 1.0,
              "rho_1": 1.0 / 3.0, "nu_0": 1.0, "nu_1": 1.0}
    problem = oracle_problem(2)
    with pytest.raises(SingularMarketError) as want:
        per_path_objective(problem, values, DEFAULT_TARGETS)
    with pytest.raises(SingularMarketError) as got:
        evaluate_point(problem, values, DEFAULT_TARGETS, draw_drivers(problem))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n_agents", [1, 3])
def test_batched_objective_equals_oracle_across_batches(n_agents):
    # rows longer than numpy's 8192-element reduction block, in several
    # batches, the last one short
    problem = oracle_problem(n_agents, n_paths=13, horizon=40.0,
                             dt=1 / 252, seed=5)
    drivers = draw_drivers(problem)
    assert len(drivers) >= 2
    assert sum(len(x) for _, x in drivers) == problem.n_paths
    rng = np.random.default_rng(n_agents)
    for _ in range(3):
        values = random_point(rng, n_agents, False)
        assert_same_objective(
            evaluate_point(problem, values, DEFAULT_TARGETS, drivers),
            per_path_objective(problem, values, DEFAULT_TARGETS))


def test_drawn_drivers_are_the_per_path_drivers():
    # common random numbers and the prefix property: path p is
    # path_rng(seed, p)'s walk whatever the batch or the path count
    problem = oracle_problem(1, n_paths=70, horizon=20.0, dt=1 / 52, seed=9)
    drivers = draw_drivers(problem)
    assert len(drivers) >= 2
    rows = np.concatenate([x for _, x in drivers])
    spec = single_agent_market()
    for p, row in enumerate(rows):
        times, x, _ = driver_path(spec, problem.horizon, problem.dt,
                                  problem.seed, p)
        assert np.array_equal(row, x)
        assert np.array_equal(drivers[0][0], times)
    fewer = draw_drivers(oracle_problem(1, n_paths=7, horizon=20.0,
                                        dt=1 / 52, seed=9))
    assert np.array_equal(np.concatenate([x for _, x in fewer]), rows[:7])


def _shipped_fit():
    cfg = config.load_config(str(Path(__file__).resolve().parents[1]
                                 / "configs" / "fit_default_targets.json"))
    return config.parse_fit(cfg), config.parse_targets(cfg)


# where importing beliefmkt set the heap thresholds; checked without
# setting them, so the guard fails if the import stops doing it
_HEAP_KEPT = (not any(name.startswith("MALLOC_") for name in os.environ)
              and hasattr(ctypes.CDLL(None), "mallopt"))


@pytest.mark.skipif(not _HEAP_KEPT,
                    reason="needs glibc's mallopt and no MALLOC_* setting")
def test_warm_evaluation_takes_no_page_faults():
    # the objective frees and re-allocates about 1 MB of arrays on every
    # evaluation of the shipped fit; kept by the heap, they are not faulted
    # in again (about 130 minor faults per evaluation when handed back)
    problem, targets = _shipped_fit()
    drivers = draw_drivers(problem)
    values = {p.name: p.start for p in problem.free}
    values.update(problem.fixed)
    evaluate_point(problem, values, targets, drivers)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        evaluate_point(problem, values, targets, drivers)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 50


@pytest.mark.parametrize("environ, has_mallopt, calls", [
    ({}, True, [(-1, 256 << 20), (-3, 32 << 20)]),
    ({"MALLOC_ARENA_MAX": "2"}, True, []),
    ({"MALLOC_TRIM_THRESHOLD_": "0"}, True, []),
    ({}, False, [])])
def test_heap_setting_keeps_a_users_malloc_setting(monkeypatch, environ,
                                                   has_mallopt, calls):
    # a user's MALLOC_* variable wins, and a C library without mallopt
    # (not glibc) is left alone
    made = []

    def mallopt(param, value):
        made.append((param, value))

    libc = SimpleNamespace(mallopt=mallopt) if has_mallopt else object()
    monkeypatch.setattr(beliefmkt.ctypes, "CDLL", lambda name: libc)
    for name in [n for n in os.environ if n.startswith("MALLOC_")]:
        monkeypatch.delenv(name)
    for name, value in environ.items():
        monkeypatch.setenv(name, value)
    assert beliefmkt._keep_freed_heap() == bool(calls)
    assert made == calls


def test_a_loss_term_that_overflows_makes_the_loss_infinite():
    # ((m - t) / t) ** 2 overflows a float for t = 1e-200
    problem = CalibrationProblem(
        n_agents=1, free=(FreeParameter("sigma", 0.1, 0.5, 0.2),),
        fixed={"rho_0": 0.05}, n_paths=1, horizon=1.0, dt=0.5, seed=0)
    loss, _ = evaluate_point(problem, {"sigma": 0.2, "rho_0": 0.05},
                             dataclasses.replace(DEFAULT_TARGETS,
                                                 mean_pd=1e-200),
                             draw_drivers(problem))
    assert loss == math.inf


def test_one_parameter_sigma_recovery():
    # generate "data" moments at sigma = 0.3 and fit sigma back, matching
    # only the return volatility
    true_values = {"sigma": 0.3, "alpha_0": 0.05, "rho_0": 0.05}
    problem = CalibrationProblem(
        n_agents=1,
        free=(FreeParameter("sigma", 0.1, 0.6, 0.15),),
        fixed={"alpha_0": 0.05, "rho_0": 0.05},
        n_paths=6, horizon=10.0, dt=1 / 52, seed=5, max_iterations=60)
    _, generated = evaluate_point(problem, true_values, DEFAULT_TARGETS,
                                  draw_drivers(problem))
    # a NaN target drops its moment from the loss
    targets = MomentReport(**dict(
        dict.fromkeys(MOMENT_NAMES, float("nan")),
        std_equity_return=generated.std_equity_return))
    result = fit_parameters(problem, targets)
    assert result.values["sigma"] == pytest.approx(0.3, rel=0.05)


def test_self_consistency_from_nearby_start():
    fixed = {"sigma": 0.25, "rho_0": 0.05, "rho_1": 0.15,
             "alpha_1": -0.1, "nu_0": 1.0, "nu_1": 1.0}
    problem = CalibrationProblem(
        n_agents=2,
        free=(FreeParameter("alpha_0", -0.5, 0.8, 0.25),),
        fixed=fixed, n_paths=6, horizon=8.0, dt=1 / 52, seed=9,
        max_iterations=80)
    truth = dict(fixed, alpha_0=0.2)
    drivers = draw_drivers(problem)
    _, generated = evaluate_point(problem, truth, DEFAULT_TARGETS, drivers)
    targets = MomentReport(**generated.as_dict())
    start_loss, _ = evaluate_point(problem, dict(fixed, alpha_0=0.25), targets,
                                   drivers)
    result = fit_parameters(problem, targets)
    assert result.loss < start_loss
    assert result.loss < 1e-6  # common random numbers make the fit exact


def test_fit_search_equals_scipy_nelder_mead(monkeypatch):
    # the search scipy.optimize.minimize ran before the port, with the same
    # options, gives the same fit to the last bit; the start rho_0 = 5e-7
    # puts P/D near 2e6, and none of the 107 trial points has an infinite
    # loss
    from scipy.optimize import minimize

    problem = CalibrationProblem(
        n_agents=2,
        free=(FreeParameter("sigma", 0.05, 0.6, 0.2),
              FreeParameter("alpha_1", -0.8, 0.8, 0.1),
              FreeParameter("rho_0", 1e-9, 0.3, 5e-7)),
        n_paths=2, horizon=5.0, dt=1 / 52, seed=11, max_iterations=60)
    result = fit_parameters(problem, DEFAULT_TARGETS)

    def scipy_search(f, x0, maxiter, xatol, fatol):
        assert (maxiter, xatol, fatol) == (60, 1e-4, 1e-6)
        res = minimize(f, x0, method="Nelder-Mead",
                       options={"maxiter": 60, "xatol": 1e-4,
                                "fatol": 1e-6})
        return res.x, res.success

    monkeypatch.setattr(calibration, "nelder_mead", scipy_search)
    assert repr(fit_parameters(problem, DEFAULT_TARGETS)) == repr(result)


def test_diverse_beliefs_fit_at_least_as_good_as_homogeneous():
    # a three-agent search seeded at the homogeneous optimum can only
    # improve on it: the richer model nests the homogeneous one
    mc = dict(n_paths=4, horizon=10.0, dt=1 / 52, seed=3)
    homo = fit_parameters(CalibrationProblem(
        n_agents=1,
        free=(FreeParameter("sigma", 0.05, 0.6, 0.2),
              FreeParameter("alpha_0", -0.8, 0.8, 0.0),
              FreeParameter("rho_0", 0.01, 0.5, 0.05)),
        max_iterations=120, **mc), DEFAULT_TARGETS)
    sigma0 = homo.values["sigma"]
    alpha0 = homo.values["alpha_0"]
    rho0 = homo.values["rho_0"]
    rich = fit_parameters(CalibrationProblem(
        n_agents=3,
        free=(FreeParameter("alpha_1", -0.8, 0.8, alpha0),
              FreeParameter("alpha_2", -0.8, 0.8, alpha0),
              FreeParameter("rho_1", 0.01, 0.5, rho0),
              FreeParameter("nu_1", 0.05, 20.0, 1.0)),
        fixed={"sigma": sigma0, "alpha_0": alpha0, "rho_0": rho0,
               "rho_2": rho0, "nu_0": 1.0, "nu_2": 1.0},
        max_iterations=60, **mc), DEFAULT_TARGETS)
    assert rich.loss <= homo.loss + 1e-9


def test_comparison_table_lists_all_moments():
    report = MomentReport(20.0, 5.0, 0.08, 0.2, 0.02, 0.05, 0.06, 0.3)
    text = comparison_table(report, DEFAULT_TARGETS)
    assert "Mean price/dividend ratio" in text
    assert "Sharpe ratio" in text
    assert text.count("\n") == 8
