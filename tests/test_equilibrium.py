import collections.abc
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from beliefmkt.beliefs import BayesianGaussian, ConstantDrift
from beliefmkt import equilibrium
from beliefmkt.calibration import compute_moments
from beliefmkt.equilibrium import (AgentSpec, EquilibriumPath, MarketSpec,
                                   log_ratio_paths, market_state,
                                   simulate_path, simulate_paths,
                                   solve_market_clearing, trade_volume,
                                   wealth_and_portfolios)
from beliefmkt.errors import MAX_COUNT, ConfigError, SingularMarketError
from conftest import (assert_same_text, benchmark_market, driver_path,
                      learner_market)


def two_agent_market(alphas=(0.2, -0.2), rhos=(0.05, 0.05), nus=(1.0, 1.0),
                     sigma=0.3, astar=0.0):
    agents = tuple(AgentSpec(impatience=r, belief=ConstantDrift(a), weight=n)
                   for a, r, n in zip(alphas, rhos, nus))
    return MarketSpec(sigma=sigma, drift_adjustment=astar, agents=agents)


def random_market(rng, n_agents=3):
    agents = tuple(
        AgentSpec(impatience=rng.uniform(0.01, 0.5),
                  belief=ConstantDrift(rng.normal(0.0, 0.4)),
                  weight=rng.uniform(0.1, 10.0))
        for _ in range(n_agents))
    return MarketSpec(sigma=rng.uniform(0.05, 0.6),
                      drift_adjustment=rng.normal(0.0, 0.05), agents=agents)


def zero_drift_market(rho, nu, log_lam=0.0, sigma=0.3):
    """Agents who believe the reference drift 0, so log Lambda^j = 0 on
    every path; a log Lambda value L_j at the point of interest enters
    through the weight nu_j exp(-L_j), as l_j = -rho_j t + L_j - log nu_j."""
    weights = np.asarray(nu) * np.exp(-np.asarray(log_lam))
    return MarketSpec(sigma=sigma, agents=tuple(
        AgentSpec(impatience=r, belief=ConstantDrift(0.0), weight=w)
        for r, w in zip(rho, weights)))


def grid_path(spec, times, x, dividend, dt):
    """The equilibrium along a given driver and dividend path."""
    return EquilibriumPath(spec, times, x, dividend,
                           market_state(spec, times, x), dt)


def at_point(spec, t=0.0, x=0.0, dividend=1.0):
    """The equilibrium on the one-point grid (t, X_t = x)."""
    return grid_path(spec, np.array([t]), np.array([x]),
                     np.array([dividend]), 1.0)


# ---------------------------------------------------------------------------
# specs and weights


def test_agent_needs_a_weight():
    with pytest.raises(TypeError, match="weight"):
        AgentSpec(impatience=0.1, belief=ConstantDrift(0.0))
    for weight in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError, match="weight must be > 0"):
            AgentSpec(impatience=0.1, belief=ConstantDrift(0.0),
                      weight=weight)


def test_wealth_to_weight_conversion():
    # single agent consuming the whole dividend: w0 = delta0 / rho makes
    # nu = 1 / (rho * w0) = 1/delta0 and normalizes zeta_0 to 1
    delta0, rho = 2.0, 0.25
    agent = AgentSpec(impatience=rho, belief=ConstantDrift(0.0),
                      weight=1.0 / delta0)
    spec = MarketSpec(sigma=0.2, agents=(agent,), initial_dividend=delta0)
    zeta0 = at_point(spec, dividend=delta0).zeta[0]
    assert zeta0 == pytest.approx(1.0, rel=1e-14)


def test_sigma_must_be_positive():
    with pytest.raises(ConfigError):
        MarketSpec(sigma=0.0, agents=(
            AgentSpec(impatience=0.1, belief=ConstantDrift(0.0), weight=1.0),))


_NON_FINITE_SPECS = [
    ("sigma", {}, dict(sigma=math.inf)),
    ("drift_adjustment", {}, dict(drift_adjustment=math.nan)),
    ("initial_dividend", {}, dict(initial_dividend=math.inf)),
    ("impatience", dict(impatience=math.inf), {}),
    ("weight", dict(weight=math.inf), {}),
    ("belief.drift", dict(belief=ConstantDrift(math.nan)), {}),
    ("belief.prior_mean", dict(belief=BayesianGaussian(math.nan, 2.0)), {}),
    ("belief.prior_precision",
     dict(belief=BayesianGaussian(0.0, math.inf)), {})]


@pytest.mark.parametrize("field, agent, market", _NON_FINITE_SPECS,
                         ids=[c[0] for c in _NON_FINITE_SPECS])
def test_specs_reject_non_finite_numbers(field, agent, market):
    # a non-finite number would otherwise give a report of NaNs, no error
    with pytest.raises(ConfigError, match=f"^{field} must be finite$"):
        a = AgentSpec(**{"impatience": 0.1, "belief": ConstantDrift(0.0),
                         "weight": 1.0, **agent})
        MarketSpec(**{"sigma": 0.2, "agents": (a,), **market})


# ---------------------------------------------------------------------------
# driver simulation


def test_driver_is_deterministic():
    spec = two_agent_market()
    a = driver_path(spec, 2.0, 1 / 252, seed=42)
    b = driver_path(spec, 2.0, 1 / 252, seed=42)
    for left, right in zip(a, b):
        np.testing.assert_array_equal(left, right)


def test_driver_log_growth_moment():
    spec = two_agent_market(sigma=0.4, astar=0.12)
    dt = 1 / 252
    _, _, dividend = driver_path(spec, 1_000_000 * dt, dt, seed=9)
    dlog = np.diff(np.log(dividend))
    target = (spec.sigma * spec.drift_adjustment - 0.5 * spec.sigma**2) * dt
    se = dlog.std(ddof=1) / math.sqrt(len(dlog))
    assert abs(dlog.mean() - target) < 3.0 * se


# ---------------------------------------------------------------------------
# pointwise formulas


def test_state_price_benchmark_initial_value():
    spec = benchmark_market()
    rho, nu = spec.arrays()
    path = at_point(spec)
    level = np.exp(path.state.log_max + np.log(path.state.weight_sum))[0]
    zeta = path.zeta[0]
    hand = 1 / 14.47 + 1 / 1.00 + 1 / 0.174
    assert level == pytest.approx(hand, rel=1e-14)
    assert zeta == pytest.approx(hand, rel=1e-14)
    # consumption from the marginal-utility inversion clears the market
    consumption = np.exp(0.0) / (nu * zeta)
    assert consumption.sum() == pytest.approx(1.0, rel=1e-14)


def test_homogeneous_beliefs_deterministic_state_price():
    rho = np.array([0.05, 0.2])
    nu = np.array([2.0, 3.0])
    t = 7.0
    state = at_point(zero_drift_market(rho, nu), t, dividend=1.5).state
    level = np.exp(state.log_max + np.log(state.weight_sum))[0]
    hand = math.exp(-0.05 * t) / 2.0 + math.exp(-0.2 * t) / 3.0
    assert level == pytest.approx(hand, rel=1e-14)


def test_pd_equal_impatience_is_inverse_rho():
    rho = np.array([0.04, 0.04, 0.04])
    nu = np.array([1.0, 2.0, 3.0])
    log_lam = np.array([0.3, -0.2, 1.0])
    pd = at_point(zero_drift_market(rho, nu, log_lam), 5.0).pd_ratio[0]
    assert pd == pytest.approx(25.0, rel=1e-14)


def test_pd_homogeneous_beliefs_deterministic():
    rho = np.array([0.02, 0.3])
    nu = np.array([1.0, 4.0])
    t = 3.0
    pd = at_point(zero_drift_market(rho, nu), t).pd_ratio[0]
    num = math.exp(-0.02 * t) / (0.02 * 1.0) + math.exp(-0.3 * t) / (0.3 * 4.0)
    den = math.exp(-0.02 * t) / 1.0 + math.exp(-0.3 * t) / 4.0
    assert pd == pytest.approx(num / den, rel=1e-14)


def test_pd_never_depends_on_dividend():
    spec = benchmark_market()
    times, x, dividend = driver_path(spec, 5.0, 1 / 252, seed=3)
    path_a = grid_path(spec, times, x, dividend, 1 / 252)
    path_b = grid_path(spec, times, x, dividend * 17.3, 1 / 252)
    np.testing.assert_array_equal(path_a.pd_ratio, path_b.pd_ratio)


def test_rate_and_kappa_single_agent():
    rho = np.array([0.07])
    nu = np.array([1.0])
    sigma = 0.3
    state = at_point(zero_drift_market(rho, nu, sigma=sigma), 2.0).state
    r, kappa, q, abar, rhobar = (state.rate[0], state.kappa[0], state.q[:, 0],
                                 state.mean_drift[0], state.mean_impatience[0])
    assert kappa == pytest.approx(sigma)
    assert r == pytest.approx(0.07 - sigma**2)
    assert q[0] == 1.0 and abar == 0.0 and rhobar == pytest.approx(0.07)


def test_rate_homogeneous_beliefs_deterministic():
    # same drift for everyone: r depends only on t, not on the path
    alphas = (0.1, 0.1)
    spec = two_agent_market(alphas=alphas, rhos=(0.05, 0.3), nus=(1.0, 2.0),
                            sigma=0.25)
    t = 4.0
    for x in (0.0, 17.0):  # common Lambda = exp(0.1 x - 0.005 t) cancels
        state = at_point(spec, t, x).state
        r, rhobar = state.rate[0], state.mean_impatience[0]
        expected_rhobar = (
            (math.exp(-0.05 * t) * 0.05 / 1.0 + math.exp(-0.3 * t) * 0.3 / 2.0)
            / (math.exp(-0.05 * t) / 1.0 + math.exp(-0.3 * t) / 2.0))
        assert rhobar == pytest.approx(expected_rhobar, rel=1e-13)
        assert r == pytest.approx(-spec.sigma**2 + expected_rhobar
                                  + spec.sigma * 0.1, rel=1e-13)


def test_stock_volatility_equal_impatience_reduces_to_sigma():
    spec = two_agent_market(alphas=(0.3, -0.1), rhos=(0.08, 0.08))
    # log Lambda = (1.2, -0.44) at t = 2, X = 4.3
    sigma_s = at_point(spec, 2.0, 4.3).stock_vol[0]
    assert sigma_s == pytest.approx(spec.sigma, rel=1e-13)


def test_stock_volatility_single_agent_is_sigma():
    spec = MarketSpec(sigma=0.4, agents=(
        AgentSpec(impatience=0.1, belief=ConstantDrift(0.25), weight=1.0),))
    sigma_s = at_point(spec, 1.0).stock_vol[0]
    assert sigma_s == pytest.approx(0.4, rel=1e-14)


def test_single_agent_portfolio_and_wealth():
    path = simulate_path(MarketSpec(sigma=0.2, agents=(
        AgentSpec(impatience=0.1, belief=ConstantDrift(0.05), weight=1.0),)),
        horizon=1.0, dt=1 / 52, seed=1)
    np.testing.assert_allclose(path.holdings[:, 0], 1.0, rtol=1e-13)
    np.testing.assert_allclose(path.wealth[:, 0], path.stock, rtol=1e-13)
    np.testing.assert_allclose(path.consumption[:, 0], path.dividend, rtol=1e-13)


def test_two_agent_portfolio_hand_substitution():
    # equal rho/nu, opposite drifts, t = 0 (Lambda = 1, alphabar = 0):
    # pi_1 = Lambda (alpha_1 + sigma) / (sigma * sum Lambda/nu) with the
    # common normalization, evaluated directly
    sigma, a = 0.3, 0.2
    spec = two_agent_market(alphas=(a, -a), rhos=(0.05, 0.05), sigma=sigma)
    holdings = at_point(spec).holdings[0]
    assert holdings[0] == pytest.approx((a + sigma) / (2 * sigma), rel=1e-13)
    assert holdings.sum() == pytest.approx(1.0, rel=1e-13)


def test_degenerate_stock_volatility_raises():
    # constructed so a + kappa = 0 exactly at t = 0: there q = (1/2, 1/2),
    # so alphabar = 0 and kappa = sigma, and the wealth weights q_j / rho_j
    # are (1/2, 3/2), so a = (1/2 - 3/2) / 2 = -1/2 = -sigma
    sigma = 0.5
    spec = two_agent_market(alphas=(1.0, -1.0), rhos=(1.0, 1.0 / 3.0),
                            nus=(1.0, 1.0), sigma=sigma)
    rho, _ = spec.arrays()
    alpha = np.array([1.0, -1.0])
    with pytest.raises(SingularMarketError):
        wealth_and_portfolios(rho, np.array([0.5, 0.5]), alpha, 1.0,
                              sigma, -sigma)
    with pytest.raises(SingularMarketError):
        market_state(spec, np.zeros(1), np.zeros(1))
    # the path kernel hits the same point at t = 0 and must raise too
    with pytest.raises(SingularMarketError):
        simulate_path(spec, 1.0, 1 / 52, seed=0)
    times, x, dividend = driver_path(spec, 1.0, 1 / 52, seed=0)
    with pytest.raises(SingularMarketError):
        grid_path(spec, times, x, dividend, 1 / 52)


def test_negative_seed_raises_config_error():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -2"):
        simulate_path(benchmark_market(), 1.0, 1 / 52, seed=-2)
    for index in (-1, 1.5):
        with pytest.raises(ConfigError, match=f"path_index .* got {index}$"):
            simulate_path(benchmark_market(), 1.0, 1 / 52, seed=0,
                          path_index=index)


def test_infinite_horizon_raises_config_error():
    with pytest.raises(ConfigError, match="finite horizon"):
        simulate_path(benchmark_market(), math.inf, 1 / 52, seed=0)


@pytest.mark.parametrize("horizon, dt, message", [
    # 1e15 steps: the ceiling's ConfigError, not numpy's MemoryError
    (1e12, 1e-3, f"^horizon: horizon/dt must be at most {MAX_COUNT} steps$"),
    # 3.33 steps would give the grid [0, 0.3, 0.6, 0.9]
    (1.0, 0.3, r"^dt: must cut horizon into whole steps, not horizon/dt = 3\.3")],
    ids=["ceiling", "odd-span"])
def test_step_rule_raises_config_error(horizon, dt, message):
    # simulate_paths checks at once, not when the first path is read
    with pytest.raises(ConfigError, match=message):
        simulate_path(benchmark_market(), horizon, dt, 1)
    with pytest.raises(ConfigError, match=message):
        simulate_paths(benchmark_market(), horizon, dt, 1, n_paths=2)


# ---------------------------------------------------------------------------
# the path kernel against an independent (n, J) reference


def reference_grid(spec, times, x, dividend):
    """The module-docstring formulas on time-major (n, J) arrays, with
    scipy's softmax and logsumexp doing every aggregation over agents."""
    rho, nu = spec.arrays()
    sigma, astar = spec.sigma, spec.drift_adjustment
    alpha = np.array([a.belief.drift for a in spec.agents]) * np.ones((len(times), 1))
    log_lam = alpha * x[:, None] - 0.5 * alpha**2 * times[:, None]
    l = -rho * times[:, None] + log_lam - np.log(nu)
    q = softmax(l, axis=1)
    zeta = np.exp(logsumexp(l, axis=1) - np.log(dividend))
    pd = q @ (1.0 / rho)
    stock = dividend * pd
    abar = (q * alpha).sum(axis=1)
    rhobar = q @ rho
    r = rhobar + sigma * (astar + abar) - sigma**2
    kappa = sigma - abar
    a = (softmax(l - np.log(rho), axis=1) * alpha).sum(axis=1)
    wealth = dividend[:, None] * q / rho
    holdings = wealth * (alpha + kappa[:, None]) / (stock * (a + kappa))[:, None]
    dev = alpha - abar[:, None]
    v = (q * dev * dev).sum(axis=1)
    theta = q * (dev * dev / sigma - v[:, None] / sigma + dev)
    return dict(zeta=zeta, stock=stock, pd_ratio=pd, q=q, wealth=wealth,
                consumption=dividend[:, None] * q, mean_drift=abar,
                mean_impatience=rhobar, wealth_drift=a, rate=r, kappa=kappa,
                stock_vol=kappa + a, holdings=holdings, trade=theta)


# strictly positive fields, compared relative to their size
_POSITIVE = ("zeta", "stock", "pd_ratio", "q", "wealth", "consumption",
             "mean_impatience")
# fields that can cross zero, where a relative bound means nothing.  Their
# terms are O(1) and holdings stay O(10) on the markets below
# (a + kappa >= 0.1), so rounding leaves about 1e-15 of absolute error
_SIGNED = ("mean_drift", "wealth_drift", "rate", "kappa", "stock_vol",
           "holdings", "trade")
_SIGNED_ATOL = 1e-14


@pytest.mark.parametrize("n_agents", [1, 3, 30])
@pytest.mark.parametrize("common_rho", [True, False])
@pytest.mark.parametrize("offset", [0.0, 700.0, -700.0, "split"])
def test_evaluate_grid_matches_reference(n_agents, common_rho, offset):
    rng = np.random.default_rng(100 * n_agents + 7 * common_rho)
    rhos = np.full(n_agents, 0.07) if common_rho \
        else rng.uniform(0.01, 0.5, n_agents)
    # log nu shifts every log weight l_j; "split" puts half the agents
    # 1400 apart from the other half, whose shares underflow to 0
    if offset == "split":
        shift = np.where(np.arange(n_agents) % 2 == 0, 700.0, -700.0)
    else:
        shift = np.full(n_agents, offset)
    log_nu = -shift + rng.uniform(-0.5, 0.5, n_agents)
    agents = tuple(
        AgentSpec(impatience=r, belief=ConstantDrift(a), weight=math.exp(n))
        for r, a, n in zip(rhos, rng.uniform(-0.1, 0.1, n_agents), log_nu))
    spec = MarketSpec(sigma=rng.uniform(0.3, 0.6),
                      drift_adjustment=rng.normal(0.0, 0.05), agents=agents)
    times, x, dividend = driver_path(spec, 2.0, 1 / 52, seed=n_agents)
    path = grid_path(spec, times, x, dividend, 1 / 52)
    want = reference_grid(spec, times, x, dividend)
    if not common_rho and n_agents > 1:
        # the reference's theta is the common-impatience closed form; the
        # general case is checked against the holdings' X-derivative below
        del want["trade"]

    # the q- and wealth-weighted averages only the market state holds
    def got(name):
        return getattr(path if hasattr(path, name) else path.state, name)

    for name in _POSITIVE:
        np.testing.assert_allclose(got(name), want[name],
                                   rtol=1e-12, atol=0, err_msg=name)
    for name in _SIGNED:
        if name in want:
            np.testing.assert_allclose(got(name), want[name],
                                       rtol=1e-12, atol=_SIGNED_ATOL,
                                       err_msg=name)


# ---------------------------------------------------------------------------
# clearing identities along simulated paths


@given(st.integers(min_value=0, max_value=2**31 - 1))
@example(291086945)  # holdings near +-1e3, where a + kappa is small
@example(935967012)  # sum_j |pi_j| = 1.6e5, so sum_j pi_j misses 1 by 7e-12
@settings(max_examples=15, deadline=None)
def test_identities_hold_on_random_markets(seed):
    rng = np.random.default_rng(seed)
    spec = random_market(rng)
    path = simulate_path(spec, 4.0, 1 / 52, seed=seed)
    assert np.all(path.q > 0)
    np.testing.assert_allclose(path.q.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(path.consumption.sum(axis=1), path.dividend,
                               rtol=1e-12)
    np.testing.assert_allclose(path.wealth.sum(axis=1), path.stock, rtol=1e-12)
    np.testing.assert_allclose(path.consumption,
                               path.wealth * np.array([a.impatience for a in spec.agents]),
                               rtol=1e-12)
    # holdings of either sign cancel in the sum: bound its rounding error
    # per row by 4 J eps sum_j |pi_j|, not by a fixed absolute tolerance
    J = len(spec.agents)
    bound = 4 * J * np.finfo(float).eps * np.abs(path.holdings).sum(axis=1)
    assert np.all(np.abs(path.holdings.sum(axis=1) - 1.0) <= bound)


def test_equal_impatience_pd_has_no_volatility():
    spec = two_agent_market(alphas=(0.4, -0.3), rhos=(0.1, 0.1))
    path = simulate_path(spec, 3.0, 1 / 252, seed=8)
    log_pd = np.log(path.stock) - np.log(path.dividend)
    assert np.std(np.diff(log_pd)) < 1e-13
    theta_sum = path.trade.sum(axis=1)
    np.testing.assert_allclose(theta_sum, 0.0, atol=1e-12)


def test_nu_scaling_leaves_equilibrium_unchanged():
    spec = benchmark_market()
    scaled = MarketSpec(
        sigma=spec.sigma, drift_adjustment=spec.drift_adjustment,
        agents=tuple(AgentSpec(impatience=a.impatience, belief=a.belief,
                               weight=a.weight * 37.0) for a in spec.agents))
    a = simulate_path(spec, 2.0, 1 / 52, seed=4)
    b = simulate_path(scaled, 2.0, 1 / 52, seed=4)
    np.testing.assert_allclose(a.pd_ratio, b.pd_ratio, rtol=1e-12)
    np.testing.assert_allclose(a.rate, b.rate, rtol=1e-12)
    np.testing.assert_allclose(a.kappa, b.kappa, rtol=1e-12)
    np.testing.assert_allclose(a.q, b.q, rtol=1e-12)
    np.testing.assert_allclose(a.holdings, b.holdings, rtol=1e-12)


def test_zeta_regression_single_agent_exact():
    # single constant-drift agent: d log zeta = -kappa dX - (r + kappa^2/2) dt
    # holds exactly step by step under the log-space discretization
    alpha, sigma, rho_j, astar = 0.15, 0.3, 0.08, 0.02
    spec = MarketSpec(sigma=sigma, drift_adjustment=astar, agents=(
        AgentSpec(impatience=rho_j, belief=ConstantDrift(alpha), weight=1.0),))
    path = simulate_path(spec, 40.0, 1 / 252, seed=21)
    dlz = np.diff(np.log(path.zeta))
    dx = np.diff(path.x)
    slope, intercept = np.polyfit(dx, dlz, 1)
    kappa = sigma - alpha
    r = rho_j + sigma * (astar + alpha) - sigma**2
    assert slope == pytest.approx(-kappa, abs=1e-10)
    assert intercept == pytest.approx(-(r + 0.5 * kappa**2) / 252, rel=1e-6)


def test_homogeneous_beliefs_holdings_follow_smooth_schedule():
    # common beliefs: agent j holds (e^{-rho_j t}/nu_j rho_j) / sum(...),
    # a deterministic function of time regardless of the path
    rhos, nus = (0.05, 0.25), (1.0, 3.0)
    spec = two_agent_market(alphas=(0.1, 0.1), rhos=rhos, nus=nus)
    path = simulate_path(spec, 6.0, 1 / 52, seed=10)
    raw = np.exp(-np.outer(path.times, rhos)) / (np.array(nus) * np.array(rhos))
    expected = raw / raw.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(path.holdings, expected, rtol=1e-12)


def test_bayesian_agent_path_runs_and_clears():
    agents = (
        AgentSpec(impatience=0.05, belief=BayesianGaussian(0.1, 2.0), weight=1.0),
        AgentSpec(impatience=0.2, belief=ConstantDrift(-0.1), weight=0.5),
    )
    spec = MarketSpec(sigma=0.25, agents=agents)
    path = simulate_path(spec, 5.0, 1 / 252, seed=13)
    np.testing.assert_allclose(path.consumption.sum(axis=1), path.dividend,
                               rtol=1e-12)
    # learner drift moves over time, constant agent's does not
    assert np.std(path.drifts[:, 0]) > 0.0
    assert np.all(path.drifts[:, 1] == -0.1)


def test_learner_log_ratio_is_the_closed_form():
    learner = BayesianGaussian(-0.05, 2.0)
    spec = MarketSpec(sigma=0.517, agents=(
        AgentSpec(impatience=0.131, belief=ConstantDrift(0.21), weight=14.47),
        AgentSpec(impatience=0.443, belief=learner, weight=0.174)))
    path = simulate_path(spec, 50.0, 1 / 252, seed=5)
    closed = learner.log_ratio(path.times, path.x)
    np.testing.assert_allclose(path.log_ratios[:, 1], closed, rtol=0,
                               atol=1e-12)
    # the constant-drift agent's exponential martingale
    np.testing.assert_allclose(
        path.log_ratios[:, 0], 0.21 * path.x - 0.5 * 0.21**2 * path.times,
        rtol=0, atol=1e-12)


def test_batch_of_paths_equals_row_by_row():
    # one (P, n+1) batch of drivers, learners included, against each row
    # on its own: log_ratio_paths and the kernel agree by ==
    spec = MarketSpec(sigma=0.517, drift_adjustment=-0.01, agents=(
        AgentSpec(impatience=0.131, belief=ConstantDrift(0.21), weight=14.47),
        AgentSpec(impatience=0.443, belief=BayesianGaussian(-0.05, 2.0),
                  weight=0.174),
        AgentSpec(impatience=0.01, belief=BayesianGaussian(0.3, 0.5),
                  weight=1.0)))
    drivers = [driver_path(spec, 3.0, 1 / 52, seed=4, path_index=p)
               for p in range(5)]
    times = drivers[0][0]
    x = np.stack([d[1] for d in drivers])
    log_lam, alpha = log_ratio_paths(spec, times, x)
    assert log_lam.shape == alpha.shape == (3, 5, len(times))
    batch = market_state(spec, times, x)
    for p, (_, row, dividend) in enumerate(drivers):
        row_lam, row_alpha = log_ratio_paths(spec, times, row)
        assert np.array_equal(log_lam[:, p], row_lam)
        assert np.array_equal(alpha[:, p], row_alpha)
        path = grid_path(spec, times, row, dividend, 1 / 52)
        assert np.array_equal(batch.q[:, p], path.q.T)
        for name in ("pd_ratio", "rate", "kappa", "wealth_drift",
                     "mean_drift", "mean_impatience"):
            assert np.array_equal(getattr(batch, name)[p],
                                  getattr(path.state, name)), name


def test_simulate_paths_is_a_lazy_sequence_of_simulate_path(monkeypatch):
    spec = benchmark_market()
    paths = simulate_paths(spec, 1.0, 1 / 52, seed=4, n_paths=3)
    assert isinstance(paths, collections.abc.Sequence) and len(paths) == 3
    for p, (got, item) in enumerate(zip(paths, [paths[0], paths[-2],
                                                paths[2]])):
        want = simulate_path(spec, 1.0, 1 / 52, 4, p)
        for path in (got, item):
            assert np.array_equal(path.x, want.x)
            assert np.array_equal(path.pd_ratio, want.pd_ratio)
    for index in (3, -4):
        with pytest.raises(IndexError):
            paths[index]
    # an item goes through the module's simulate_path as it is at read time
    calls = []
    monkeypatch.setattr(equilibrium, "simulate_path",
                        lambda *args: calls.append(args))
    paths[1]
    assert calls == [(spec, 1.0, 1 / 52, 4, 1)]
    assert len(simulate_paths(spec, 1.0, 1 / 52, 4, 0)) == 0


@pytest.mark.parametrize("n_paths", [-1, 2.5, 2.0, "3", None])
def test_simulate_paths_rejects_a_bad_path_count(n_paths):
    with pytest.raises(ConfigError, match="n_paths"):
        simulate_paths(benchmark_market(), 1.0, 1 / 52, 4, n_paths)


def test_simulated_paths_share_no_memory():
    spec = benchmark_market()
    paths = list(simulate_paths(spec, 2.0, 1 / 52, seed=8, n_paths=3))
    for i, a in enumerate(paths):
        for b in paths[i + 1:]:
            for name in ("pd_ratio", "q", "stock", "rate", "dividend", "x"):
                assert not np.shares_memory(getattr(a, name),
                                            getattr(b, name)), name
    # successive kernel calls on one batch return arrays of their own
    times, x = equilibrium._drivers(104, 1 / 52, 8, range(3))
    first, second = (market_state(spec, times, x) for _ in range(2))
    for name, a, b in zip(first._fields[:-1], first, second):
        assert not np.shares_memory(a, b), name
    assert not np.shares_memory(equilibrium.dividend_path(spec, times, x),
                                equilibrium.dividend_path(spec, times, x))


def test_moments_build_no_portfolio_arrays(monkeypatch):
    def forbidden(*args):
        raise AssertionError("portfolio arrays built for the moments")

    monkeypatch.setattr(equilibrium, "wealth_and_portfolios", forbidden)
    monkeypatch.setattr(equilibrium, "trade_volume", forbidden)
    paths = list(simulate_paths(two_agent_market(rhos=(0.1, 0.1)), 2.0,
                                1 / 52, seed=6, n_paths=3))
    report = compute_moments(paths)
    assert math.isfinite(report.mean_pd) and math.isfinite(report.sharpe)
    for path in paths:
        assert not {"zeta", "_portfolios", "trade"} & set(vars(path))


def test_portfolios_built_once_on_first_access(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return wealth_and_portfolios(*args)

    monkeypatch.setattr(equilibrium, "wealth_and_portfolios", counted)
    path = simulate_path(benchmark_market(), 1.0, 1 / 52, seed=2)
    assert not calls
    holdings = path.holdings
    assert path.holdings is holdings and path.wealth is path.wealth
    assert path.trade is path.trade and path.zeta is path.zeta
    assert len(calls) == 1


def test_ic_violation_flagged_for_divergent_pd():
    spec = MarketSpec(sigma=0.2, agents=(
        AgentSpec(impatience=1e-7, belief=ConstantDrift(0.0), weight=1.0),))
    path = simulate_path(spec, 1.0, 0.5, seed=0)
    assert path.ic_suspect


# ---------------------------------------------------------------------------
# trade volume


def mean_drift_and_kappa(q, alpha, sigma):
    """(alphabar, kappa) at consumption shares q, as the market state
    holds them."""
    alphabar = (q * alpha).sum(axis=0)
    return alphabar, sigma - alphabar


def test_no_trade_with_homogeneous_beliefs():
    rho = np.array([0.1, 0.1, 0.1])
    q = np.array([0.2, 0.5, 0.3])
    alpha = np.array([0.07, 0.07, 0.07])
    theta, total = trade_volume(rho, q, alpha, *mean_drift_and_kappa(
        q, alpha, 0.3))
    np.testing.assert_allclose(theta, 0.0, atol=1e-16)
    assert total == pytest.approx(0.0, abs=1e-16)


def test_two_agent_trade_symbolic_value():
    # q = (1/2, 1/2), alpha = (a, -a): alphabar = 0, v = a^2, so
    # theta_1 = (a^2/sigma - a^2/sigma + a) / 2 = a / 2
    a, sigma = 0.2, 0.3
    q, alpha = np.array([0.5, 0.5]), np.array([a, -a])
    theta, total = trade_volume(np.array([0.1, 0.1]), q, alpha,
                                *mean_drift_and_kappa(q, alpha, sigma))
    assert theta[0] == pytest.approx(a / 2.0, rel=1e-14)
    assert theta.sum() == pytest.approx(0.0, abs=1e-16)
    assert total == pytest.approx(a / math.sqrt(2.0), rel=1e-14)


def test_wider_drift_spread_raises_volume():
    q = np.array([0.3, 0.7])
    base = np.array([0.25, -0.15])
    _, small = trade_volume(np.array([0.1, 0.1]), q, base,
                            *mean_drift_and_kappa(q, base, 0.3))
    _, big = trade_volume(np.array([0.1, 0.1]), q, 2.0 * base,
                          *mean_drift_and_kappa(q, 2.0 * base, 0.3))
    assert big > small


def trade_market(kind, common_rho):
    """benchmark3's weights and sigma with constant drifts, gaussian
    learners or both, at one impatience or at benchmark3's three."""
    spec = benchmark_market()
    beliefs = {
        "constant": [a.belief for a in spec.agents],
        "learner": [BayesianGaussian(a.belief.drift, eps) for a, eps in
                    zip(spec.agents, (0.5, 2.0, 8.0))],
        "mixed": [a.belief for a in learner_market().agents]}[kind]
    return replace(spec, agents=tuple(
        replace(a, belief=b, impatience=0.05 if common_rho else a.impatience)
        for a, b in zip(spec.agents, beliefs)))


def common_rho_learner_market():
    """Two agents at one impatience, the second a gaussian learner: the
    market where the common-impatience closed form, applied to a learner,
    gave theta_1 = +0.0218 at (t, X) = (1, 0.3) against -0.2034."""
    return MarketSpec(sigma=0.3, agents=(
        AgentSpec(impatience=0.05, belief=ConstantDrift(0.2), weight=1.0),
        AgentSpec(impatience=0.05, belief=BayesianGaussian(-0.05, 2.0),
                  weight=2.0)))


@pytest.mark.parametrize("kind", ["constant", "learner", "mixed"])
@pytest.mark.parametrize("common_rho", [True, False])
def test_trade_is_the_holdings_derivative_in_x(kind, common_rho):
    # the state is Markov in (t, X), so theta_j = d pi_j / dX: a central
    # difference with h = 1e-5 has truncation and rounding errors near
    # 1e-11 here, for holdings and their derivatives of order 1
    spec = trade_market(kind, common_rho)
    t = np.repeat(np.arange(1.0, 41.0), 9)
    x = np.tile(np.linspace(-2.0, 2.0, 9), 40) * np.sqrt(t)
    h = 1e-5
    theta = grid_path(spec, t, x, np.ones_like(t), 1.0).trade
    up, down = (grid_path(spec, t, x + d, np.ones_like(t), 1.0).holdings
                for d in (h, -h))
    np.testing.assert_allclose(theta, (up - down) / (2 * h), rtol=0,
                               atol=1e-10)
    np.testing.assert_allclose(theta.sum(axis=1), 0.0, rtol=0, atol=1e-14)
    # a lone agent holds the whole asset and never trades
    lone = replace(spec, agents=spec.agents[2:])
    assert np.all(grid_path(lone, t, x, np.ones_like(t), 1.0).trade == 0.0)


def test_trade_of_a_learner_market_at_common_impatience():
    # central differences of the holdings, rounded to 4 places; the closed
    # form gave +0.0218, +0.0347 and +0.0100 here
    path = grid_path(common_rho_learner_market(), np.array([1.0, 5.0, 20.0]),
                     np.array([0.3, -1.0, 2.0]), np.ones(3), 1.0)
    np.testing.assert_allclose(path.trade[:, 0], [-0.2034, -0.0616, -0.0083],
                               rtol=0, atol=5e-5)


def test_trade_matches_the_common_impatience_closed_form():
    # with one impatience and constant drifts, theta reduces to
    # q_j ((alpha_j - alphabar)^2 / sigma - v / sigma + alpha_j - alphabar)
    rng = np.random.default_rng(29)
    for _ in range(50):
        n_agents, rho = int(rng.integers(1, 6)), rng.uniform(0.01, 0.5)
        spec = MarketSpec(sigma=rng.uniform(0.3, 0.6), agents=tuple(
            AgentSpec(impatience=rho, belief=ConstantDrift(a),
                      weight=rng.uniform(0.1, 10.0))
            for a in rng.uniform(-0.1, 0.1, n_agents)))
        times, x, dividend = driver_path(spec, 40.0, 1 / 52,
                                         seed=int(rng.integers(1000)))
        path = grid_path(spec, times, x, dividend, 1 / 52)
        want = reference_grid(spec, times, x, dividend)["trade"]
        np.testing.assert_allclose(path.trade, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("spec", [learner_market(),
                                  common_rho_learner_market()],
                         ids=["learner", "common_rho_learner"])
def test_trade_is_the_holdings_quadratic_variation(spec):
    # along each daily path the realized quadratic variation of pi_j
    # estimates the integral of theta_j^2 dt, so their ratio scatters
    # about 1 (standard deviation 0.05-0.07 per 10-year path); its mean
    # over the paths must lie within 4 standard errors of 1, the error
    # measured from that scatter (the means here lie within 0.9 of them)
    ratios = np.array([
        (np.diff(p.holdings, axis=0) ** 2).sum(axis=0)
        / ((p.trade[:-1] ** 2).sum(axis=0) * p.dt)
        for p in simulate_paths(spec, 10.0, 1 / 252, seed=5, n_paths=200)])
    se = ratios.std(axis=0, ddof=1) / math.sqrt(len(ratios))
    assert np.all(np.abs(ratios.mean(axis=0) - 1.0) <= 4.0 * se)


# ---------------------------------------------------------------------------
# general market clearing


def test_clearing_log_utilities_match_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = rng.uniform(0.01, 0.5, size=3)
        nu = rng.uniform(0.1, 5.0, size=3)
        lam = np.exp(rng.normal(0.0, 1.0, size=3))
        delta = rng.uniform(0.2, 5.0)
        t = rng.uniform(0.0, 30.0)
        inverses = [
            (lambda rho_j: lambda s, y: math.exp(-rho_j * s) / y)(r)
            for r in rho]
        zeta = solve_market_clearing(inverses, lam, nu, delta, t)
        closed = np.sum(np.exp(-rho * t) * lam / nu) / delta
        assert zeta == pytest.approx(closed, rel=1e-12)


def test_clearing_two_log_agents_hand_value():
    inverses = [lambda t, y: 1.0 / y, lambda t, y: 1.0 / y]  # rho = 0
    zeta = solve_market_clearing(inverses, np.array([2.0, 1.0]),
                                 np.array([1.0, 1.0]), 3.0, 0.0)
    assert zeta == pytest.approx(1.0, rel=1e-13)


def test_clearing_cara_style_interior_point():
    gamma, lam, nu, delta = 2.0, 1.5, 0.8, 1.1

    def inverse(t, y):
        return max(-math.log(y) / gamma, 1e-300)

    zeta = solve_market_clearing([inverse], np.array([lam]), np.array([nu]),
                                 delta, 0.0)
    hand = lam / nu * math.exp(-gamma * delta)
    assert zeta == pytest.approx(hand, rel=1e-12)


# ---------------------------------------------------------------------------
# CSV output


def csv_by_value(path):
    """The path CSV written one ``format(v, ".17g")`` per value."""
    header = ["t", "X", "delta", "zeta", "S", "PD", "r", "kappa", "sigmaS"]
    header += [f"{name}_{j}" for name in ("q", "w", "c", "pi", "theta")
               for j in range(1, path.q.shape[1] + 1)]
    lines = [",".join(header)]
    blocks = (path.q, path.wealth, path.consumption, path.holdings, path.trade)
    base = (path.times, path.x, path.dividend, path.zeta, path.stock,
            path.pd_ratio, path.rate, path.kappa, path.stock_vol)
    for i in range(len(path.times)):
        row = [format(col[i], ".17g") for col in base]
        for block in blocks:
            row += [format(v, ".17g") for v in block[i]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def csv_text(path):
    fp = io.StringIO()
    path.write_csv(fp)
    return fp.getvalue()


@pytest.mark.parametrize("case", ["benchmark3", "equal_rho", "learner"])
def test_write_csv_matches_per_value_format(case):
    spec = {"benchmark3": benchmark_market,
            "equal_rho": lambda: two_agent_market(rhos=(0.1, 0.1)),
            "learner": learner_market}[case]()
    # 3 years of daily steps: longer than one chunk of rows
    path = simulate_path(spec, 3.0, 1 / 252, seed=17)
    assert np.all(np.isfinite(path.trade))
    assert_same_text(csv_text(path), csv_by_value(path))


def test_write_csv_special_values_match_per_value_format():
    path = simulate_path(two_agent_market(rhos=(0.1, 0.1)), 0.5, 1 / 52,
                         seed=3)
    special = np.array([-0.0, np.inf, -np.inf, 1e-300, -1e-300, np.nan,
                        5e-324, 0.1, -1.7976931348623157e308])

    # every array written is the path's own, kept across accesses, so
    # the values are spiked in place
    for a in (path.zeta, path.rate, path.x, path.holdings, path.trade):
        a.flat[:len(special)] = special
    text = csv_text(path)
    assert_same_text(text, csv_by_value(path))
    assert ",-0," in text and ",inf," in text and ",1e-300," in text
