import io
import math
import os
import re
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from beliefmkt import feedback, numerics
from beliefmkt.beliefs import (BayesianGaussian, log_density_increment,
                               posterior_mean_step)
from beliefmkt.config import load_config, parse_feedback
from beliefmkt.equilibrium import AgentSpec, MarketSpec, market_state
from beliefmkt.errors import ConfigError, FixedPointError
from beliefmkt.feedback import (AgentTraits, FeedbackConfig, _lse, _Observers,
                                _result, _run, _scan_grid, _seed_inputs,
                                diligence_sweep, draw_agents,
                                log_price_dividend, run_feedback, solve_step)
from beliefmkt.numerics import brentq, scan_sign_changes
from beliefmkt.rngtools import agent_rng, path_rng
from conftest import assert_same_text, no_fork

REPO = Path(__file__).resolve().parents[1]


def small_config(**kwargs):
    defaults = dict(n_agents=5, n_diligent=2, n_steps=120, seed=7)
    defaults.update(kwargs)
    return FeedbackConfig(**defaults)


# ---------------------------------------------------------------------------
# configuration and agent draws


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(n_diligent=6)
    with pytest.raises(ConfigError):
        small_config(sigma_true=0.0)
    with pytest.raises(ConfigError):
        small_config(n_steps=0)
    with pytest.raises(ConfigError):
        small_config(prior_weight=0.0)
    for bad in (dict(rho_range=(-0.1, 0.2)), dict(rho_range=(0.0, 0.0)),
                dict(rho_range=(0.3, 0.1)), dict(tau_factor_range=(-1.0, 0.5)),
                dict(tau_factor_range=(1.05, 0.4)),
                dict(prior_mean_range=(0.15, -0.05))):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            small_config(**bad)
    # a degenerate but usable range is accepted
    small_config(rho_range=(0.1, 0.1), prior_mean_range=(-0.1, -0.1))
    # JSON booleans are not numbers, in a range as in a scalar field
    with pytest.raises(ConfigError, match="rho_range"):
        parse_feedback({"n_agents": 5, "rho_range": [True, True]})


@pytest.mark.parametrize("field, value", [
    ("dt", math.inf), ("sigma_true", math.inf), ("dt", math.nan),
    ("prior_weight", math.inf), ("growth_true", math.nan),
    ("rho_range", (0.04, math.inf)), ("tau_factor_range", (0.4, math.inf)),
    ("prior_mean_range", (-math.inf, 0.1))])
def test_config_rejects_non_finite_numbers(field, value):
    # library callers get a ConfigError naming the field, not numpy
    # warnings and a failed fixed point or an OverflowError
    with pytest.raises(ConfigError, match=f"^{field}"):
        FeedbackConfig(n_agents=3, n_diligent=0, n_steps=5, seed=0,
                       **{field: value})


@pytest.mark.parametrize("field, value", [
    ("sigma_true", 1e-200), ("sigma_true", 1e-160), ("dt", 1e-320)])
def test_config_rejects_unusable_true_precision(field, value):
    # sigma_true^2 dt underflows to 0 or to a number whose inverse, the
    # true precision tau_true, overflows: a ZeroDivisionError or warnings
    # and a misleading "no root" error before this check
    with pytest.raises(ConfigError,
                       match="^sigma_true, dt: need a finite tau_true > 0$"):
        FeedbackConfig(n_agents=3, n_diligent=0, n_steps=5, seed=0,
                       **{field: value})


def test_negative_seed_raises_config_error():
    # library callers get a ConfigError naming the seed, not numpy's
    # ValueError from inside SeedSequence
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        run_feedback(FeedbackConfig(n_agents=4, n_diligent=0, n_steps=5,
                                    seed=-1))
    for substream, name in ((path_rng, "path_index"),
                            (agent_rng, "agent_index")):
        with pytest.raises(ConfigError, match="got -7"):
            substream(-7, 0)
        # so does an index that is negative or not an integer
        for index in (-1, 1.5, "2"):
            with pytest.raises(ConfigError, match=f"^{name} must be an "
                               f"integer >= 0, got {index!r}$"):
                substream(3, index)
    assert path_rng(3, np.int64(2)).random() == path_rng(3, 2).random()


def test_agent_draws_prefix_property():
    small = draw_agents(small_config(n_agents=12, n_diligent=0))
    big = draw_agents(small_config(n_agents=40, n_diligent=0))
    np.testing.assert_array_equal(small.rho_step, big.rho_step[:12])
    np.testing.assert_array_equal(small.tau, big.tau[:12])
    np.testing.assert_array_equal(small.prior_mean_step, big.prior_mean_step[:12])


def test_agent_draws_within_ranges():
    cfg = small_config(n_agents=200)
    traits = draw_agents(cfg)
    rho_annual = traits.rho_step / cfg.dt
    assert rho_annual.min() >= 0.04 and rho_annual.max() <= 0.33
    factors = traits.tau / cfg.tau_true
    assert factors.min() >= 0.4 and factors.max() <= 1.05
    mu_annual = traits.prior_mean_step / cfg.dt
    assert mu_annual.min() >= -0.05 and mu_annual.max() <= 0.15


# ---------------------------------------------------------------------------
# discrete price


def test_single_agent_pd_is_level_perpetuity():
    rho_step = np.array([0.003])
    for t in (0, 100, 5000):
        log_pd, = log_price_dividend(traits_of(rho_step), np.array([[0.0]]),
                                     t)
        assert math.exp(log_pd) == pytest.approx(1.0 / math.expm1(0.003), rel=1e-12)


def traits_of(rho_step):
    """AgentTraits with the impatience that ``log_price_dividend`` reads."""
    return AgentTraits(rho_step=rho_step, tau=None, prior_mean_step=None)


def log_pd_with_common_weight(rho_step, nu, log_weight, step):
    """``log_price_dividend`` as it was with a weight nu shared by every
    agent: -log nu in each agent's term."""
    base = -rho_step * step + log_weight - np.log(nu)
    return np.subtract(_lse(base - np.log(np.expm1(rho_step))), _lse(base))


def test_common_weight_cancels_from_pd():
    # a weight shared by every agent scales PD's numerator and denominator
    # alike; at nu = 1, log nu is 0.0 exactly and every double is kept
    rng = np.random.default_rng(23)
    for _ in range(300):
        J = int(rng.integers(1, 31))
        rho_step = rng.uniform(0.04, 0.33, J) / 252.0
        blocks = int(rng.integers(1, 4))
        log_weight = rng.normal(0.0, 5.0, (blocks, J))
        steps = rng.integers(0, 5000, (blocks, 1))
        # one state at one step, and every state at its own step
        for w, t in ((log_weight[:1], int(steps[0, 0])), (log_weight, steps)):
            got = np.asarray(log_price_dividend(traits_of(rho_step), w, t))
            same = log_pd_with_common_weight(rho_step, np.ones(J), w, t)
            assert got.tobytes() == np.asarray(same).tobytes()
            scaled = log_pd_with_common_weight(rho_step, np.full(J, 1.3), w, t)
            np.testing.assert_allclose(scaled, got, rtol=0.0, atol=1e-13)


def test_identical_agents_pd_constant():
    rho_step = np.full(4, 0.002)
    values = [log_price_dividend(traits_of(rho_step), np.full((1, 4), w),
                                 t)[0]
              for t, w in [(0, 0.0), (50, -3.0), (900, 11.0)]]
    assert max(values) - min(values) < 1e-13


def test_two_agent_pd_hand_sum_and_npv_oracle():
    rho_step = np.array([0.001, 0.002])
    t = 37
    log_pd, = log_price_dividend(traits_of(rho_step), np.zeros((1, 2)), t)
    # direct arithmetic on the two sums
    num = sum(math.exp(-r * t) / math.expm1(r) for r in rho_step)
    den = sum(math.exp(-r * t) for r in rho_step)
    assert log_pd == pytest.approx(math.log(num / den), rel=1e-12)
    # brute-force net present value: sum discounted unit payments to 1e6 steps
    horizon = np.arange(t + 1, t + 1_000_001)
    npv = sum(np.exp(-r * horizon).sum() for r in rho_step)
    assert math.exp(log_pd) == pytest.approx(npv / den, rel=1e-9)


# ---------------------------------------------------------------------------
# per-step fixed point


def test_all_diligent_step_reproduces_ideal_price():
    cfg = small_config(n_agents=4, n_diligent=4, n_steps=40)
    res = run_feedback(cfg)
    np.testing.assert_array_equal(res.stock, res.stock_ideal)
    assert np.abs(res.log_ratio).max() == 0.0


def test_single_nondiligent_agent_sees_dividend_growth():
    # with one agent the PD ratio is constant whatever the beliefs do, so
    # the solved log price move equals the log dividend move
    cfg = small_config(n_agents=1, n_diligent=0, n_steps=60,
                      prior_weight=1e12)
    res = run_feedback(cfg)
    dlog_div = np.diff(np.log(res.dividend))
    np.testing.assert_allclose(res.xi[1:], dlog_div, atol=1e-12)
    np.testing.assert_allclose(res.log_ratio, 0.0, atol=1e-10)


def test_generic_step_agrees_with_dense_grid_scan():
    # independently reimplement the residual and scan 1e5 points
    cfg = small_config(n_agents=3, n_diligent=1, n_steps=30, seed=3)
    res = run_feedback(cfg)
    traits = draw_agents(cfg)
    diligent = np.arange(cfg.n_agents) < cfg.n_diligent

    # replay the run to recover the belief state just before the last step
    population = _Observers(traits, cfg.prior_weight)
    increments = np.diff(np.log(res.dividend))
    t_last = cfg.n_steps - 1
    for t in range(t_last):
        observed = np.where(diligent, increments[t], res.xi[t + 1])
        population.absorb(observed, t)

    d = increments[t_last]
    log_stock = math.log(res.stock[t_last])
    log_div_next = math.log(res.dividend[t_last + 1])
    k = population.k0 + t_last

    def residual(xi):
        # one row per candidate xi, one column per agent
        x = np.where(diligent, d, xi[:, None])
        dl = log_density_increment(population.mu, k, population.tau, x)
        base = -traits.rho_step * (t_last + 1) + population.log_weight + dl
        log_pd = logsumexp(base - np.log(np.expm1(traits.rho_step)), axis=1) \
            - logsumexp(base, axis=1)
        return log_stock + xi - log_div_next - log_pd

    grid = np.linspace(d - 0.1, d + 0.1, 100_001)
    values = residual(grid)
    cells = scan_sign_changes(values, grid)
    assert cells, "oracle found no root near the dividend move"
    centers = [0.5 * (lo + hi) for lo, hi in cells]
    nearest = min(centers, key=lambda c: abs(c - res.xi[t_last + 1]))
    assert abs(nearest - res.xi[t_last + 1]) <= (grid[1] - grid[0])


def _lse_rows(v):
    """Row-wise log-sum-exp, shifted by each row's maximum."""
    m = v.max(axis=1, keepdims=True)
    return np.log(np.exp(v - m).sum(axis=1)) + m[:, 0]


def diligent_terms_oracle(rho_step, population, diligent_mask, step,
                          true_increment):
    """The log-sum-exps of the diligent agents' PD numerator and
    denominator terms at step + 1, as the former ``solve_step`` built them
    at every step (-inf without diligent agents)."""
    if not diligent_mask.any():
        return -np.inf, -np.inf
    k = population.k0 + step
    base = -rho_step * (step + 1) + population.log_weight
    fixed = base[diligent_mask] + log_density_increment(
        population.mu[diligent_mask], k, population.tau[diligent_mask],
        true_increment)
    return (lse_vector(fixed - np.log(np.expm1(rho_step[diligent_mask]))),
            lse_vector(fixed))


def solve_step_oracle(rho_step, population, diligent_mask, step, log_stock,
                      log_div_next, true_increment, prev_xi, sigma_step):
    """The former ``solve_step``: a scan through two row-major log-sum-exps
    with unfloored exps, and endpoint checks before Brent.  Its brackets
    double up to +/- 1 around the true increment, then are the exact one:
    log PD lies between the least and the largest -log expm1(rho_j), so
    the residual changes sign between those less the offset, padded by
    1e-9.  Returns (xi, n_roots, relative residual, scan cells)."""
    nd = ~diligent_mask
    k = population.k0 + step
    log_expm1 = np.log(np.expm1(rho_step))
    base = -rho_step * (step + 1) + population.log_weight
    num_dil, den_dil = diligent_terms_oracle(
        rho_step, population, diligent_mask, step, true_increment)
    offset = log_stock - log_div_next
    mu_nd = population.mu[nd]
    ratio = k / (k + 1.0)
    const_nd = base[nd] + 0.5 * (np.log(population.tau[nd] * ratio)
                                 - math.log(2.0 * math.pi))
    quad_nd = 0.5 * population.tau[nd] * ratio
    const_num_nd = const_nd - log_expm1[nd]

    def residual(xi):
        dev = xi - mu_nd
        dl = -quad_nd * dev * dev
        log_num = np.logaddexp(num_dil, lse_vector(const_num_nd + dl))
        log_den = np.logaddexp(den_dil, lse_vector(const_nd + dl))
        return offset + xi - (log_num - log_den)

    def residual_grid(xi):
        dev = xi[:, None] - mu_nd
        varying = -quad_nd * dev * dev
        log_num = np.logaddexp(num_dil, _lse_rows(const_num_nd + varying))
        log_den = np.logaddexp(den_dil, _lse_rows(const_nd + varying))
        return offset + xi - (log_num - log_den)

    half_width = 10.0 * sigma_step
    lo, hi = true_increment - half_width, true_increment + half_width
    while True:
        grid = np.linspace(lo, hi, 200)
        cells = scan_sign_changes(residual_grid(grid), grid)
        if cells:
            break
        if half_width < 1.0:
            half_width = min(2.0 * half_width, 1.0)
            lo, hi = true_increment - half_width, true_increment + half_width
        elif half_width == math.inf:
            raise FixedPointError("no sign change", step=step)
        else:
            half_width = math.inf
            lo = -log_expm1.max() - offset - 1e-9
            hi = -log_expm1.min() - offset + 1e-9
    scanned = list(cells)
    if len(cells) > 1:
        cells.sort(key=lambda c: abs(0.5 * (c[0] + c[1]) - prev_xi))
    lo, hi = cells[0]
    f_lo, f_hi = residual(lo), residual(hi)
    if f_lo == 0.0:
        xi = lo
    elif f_hi == 0.0:
        xi = hi
    else:
        xi = brentq(residual, lo, hi, xtol=1e-13, rtol=8.9e-16)
    rel_residual = abs(math.expm1(float(residual(xi))))
    return xi, len(cells), rel_residual, scanned


def log_pd_bounds(rho_step):
    """The least and the largest -log expm1(rho_j), between which log PD
    lies, as the stepper takes them from all of a seed's agents."""
    log_expm1 = np.log(np.expm1(rho_step))
    return -log_expm1.max(), -log_expm1.min()


def solve_alone(observers, step, log_stock, log_div_next, true_increment,
                prev_xi, sigma_step, num_dil, den_dil, rho_step=None):
    """One count's step as the stepper takes it: the step's terms and first
    scan for the one block of ``observers``, then ``solve_step``, with the
    log PD bounds of ``rho_step``, all the agents' impatience (by default,
    those of ``observers``)."""
    dil = np.array([[[num_dil], [den_dil]]])
    first_scan = observers.start_step(step, true_increment, sigma_step, dil)
    bounds = log_pd_bounds(-observers.neg_rho if rho_step is None
                           else rho_step)
    return solve_step(observers, 0, step, log_stock, log_div_next,
                      true_increment, prev_xi, sigma_step, dil[0],
                      first_scan[0], bounds)


def test_solve_step_matches_oracle_on_random_steps(monkeypatch):
    # random belief states with log-weight spreads up to 2000, so that many
    # scan exponents fall below the kernel's floor
    scans = []

    def recording_scan(values, grid):
        cells = scan_sign_changes(values, grid)
        scans.append(list(cells))
        return cells

    monkeypatch.setattr(feedback, "scan_sign_changes", recording_scan)
    rng = np.random.default_rng(909)
    dt = 1.0 / 252.0
    sigma_step = 0.25 * math.sqrt(dt)
    solved = exact = multiroot = floored = entries = 0
    for _ in range(400):
        J = int(rng.integers(1, 31))
        diligent = np.zeros(J, dtype=bool)
        diligent[rng.permutation(J)[:rng.integers(0, J)]] = True
        traits = AgentTraits(
            rho_step=rng.uniform(0.04, 0.33, J) * dt,
            tau=rng.uniform(0.4, 1.05, J) / (0.0625 * dt),
            prior_mean_step=rng.uniform(-0.05, 0.15, J) * dt)
        # an agent's own equilibrium weight nu_j enters PD only as
        # -log nu_j beside its log weight, so it is drawn into that
        log_nu = np.log(rng.uniform(0.5, 2.0, J))
        step = int(rng.integers(0, 2000))
        population = _Observers(traits, 252.0)
        population.mu += rng.normal(0.0, 0.01, J)
        population.log_weight = rng.uniform(-0.5, 0.5, J) \
            * rng.uniform(0.0, 2000.0) - log_nu
        k = population.k0 + step
        d = rng.normal(0.0, sigma_step)
        base = -traits.rho_step * (step + 1) + population.log_weight

        # the scan exponents of the first bracket, shifted by their maximum
        grid = np.linspace(d - 10.0 * sigma_step, d + 10.0 * sigma_step, 200)
        nd = ~diligent
        v = base[nd, None] + log_density_increment(
            population.mu[nd, None], k, traits.tau[nd, None], grid)
        floored += int(np.sum(v - v.max(axis=0) < feedback._EXP_FLOOR))
        entries += v.size

        # a price near the one that clears at xi = d, give or take a few
        # daily moves; some steps then have their only roots beyond +/- 1
        # of d, which the exact bracket finds
        at_d = base + log_density_increment(population.mu, k, traits.tau, d)
        log_pd = lse_vector(at_d - np.log(np.expm1(traits.rho_step))) \
            - lse_vector(at_d)
        log_div_next = rng.normal(0.0, 1.0)
        log_stock = log_div_next + log_pd - d \
            + rng.normal(0.0, 5.0) * sigma_step
        prev_xi = d + rng.normal(0.0, sigma_step)
        args = (traits.rho_step, population, diligent, step, log_stock,
                log_div_next, d, prev_xi, sigma_step)
        # solve_step sees the non-diligent agents and the diligent terms
        mistaken = _Observers(traits, 252.0, nd)
        mistaken.mu = population.mu[nd]
        mistaken.log_weight = population.log_weight[nd]
        step_args = (
            mistaken, step, log_stock, log_div_next, d, prev_xi, sigma_step,
            *diligent_terms_oracle(traits.rho_step, population, diligent,
                                   step, d))
        want = solve_step_oracle(*args)
        scans.clear()
        got = solve_alone(*step_args, rho_step=traits.rho_step)
        assert scans[-1] == want[3]
        assert got == want[:3]
        solved += 1
        exact += abs(got[0] - d) > 1.0
        multiroot += got[1] > 1
    assert solved == 400 and exact >= 1 and multiroot >= 1
    assert floored > 0.1 * entries


def scan_oracle(observers, step, grid, num_dil, den_dil):
    """log PD at each point of ``grid`` from its exact, unfloored terms:
    one log-sum-exp per point over every agent's term and the diligent
    one, each shifted by that point's own maximum."""
    k = observers.k0 + step
    base = observers.neg_rho * (step + 1) + observers.log_weight
    terms = base[:, None] + log_density_increment(
        observers.mu[:, None], k, observers.tau[:, None], grid)
    log_num = logsumexp(np.vstack((terms - observers.log_expm1[:, None],
                                   np.full(len(grid), num_dil))), axis=0)
    log_den = logsumexp(np.vstack((terms, np.full(len(grid), den_dil))),
                        axis=0)
    return log_num - log_den


def random_scan_states(rng, n):
    """(observers, step, true increment, sigma_step, dil) of one count:
    random belief states with log-weight spreads up to 2000, means spread
    by up to 0.3, and diligent terms that are absent, below the agents'
    largest constant or above it, by up to 2000."""
    dt = 1.0 / 252.0
    sigma_step = 0.25 * math.sqrt(dt)
    for _ in range(n):
        J = int(rng.integers(1, 31))
        traits = AgentTraits(
            rho_step=rng.uniform(0.04, 0.33, J) * dt,
            tau=rng.uniform(0.4, 1.05, J) / (0.0625 * dt),
            prior_mean_step=rng.uniform(-0.05, 0.15, J) * dt)
        observers = _Observers(traits, 252.0)
        observers.mu += rng.normal(0.0, rng.choice([0.01, 0.3]), J)
        observers.log_weight = rng.uniform(-0.5, 0.5, J) \
            * rng.uniform(0.0, 2000.0)
        step = int(rng.integers(0, 2000))
        d = rng.normal(0.0, sigma_step)
        no_dil = np.array([[[-np.inf], [-np.inf]]])
        observers.start_step(step, d, sigma_step, no_dil)
        top = observers.consts[1].max()
        den_dil = {0: -np.inf, 1: top - rng.uniform(0.0, 2000.0),
                   2: top + rng.uniform(0.0, 2000.0)}[int(rng.integers(3))]
        num_dil = den_dil - math.log(math.expm1(rng.uniform(0.04, 0.33) * dt))
        yield observers, step, d, sigma_step, \
            np.array([[[num_dil], [den_dil]]])


def test_scan_matches_the_exact_oracle(monkeypatch):
    # the scan's log PD, and so the cells of every residual built from it,
    # match the exact per-point oracle on random states (first brackets,
    # widened ones up to +/- 1) and on states whose top agent's term falls
    # just above, just below or far below e^-600 at the bracket's end; the
    # largest term of each point's PD denominator is 1, and the scan's exp
    # passes never see an exponent below the floor
    lowest = []
    real_exp = np.exp

    def check(observers, step, basis, dil):
        def recording_exp(x, *args, **kwargs):
            if np.may_share_memory(x, observers.scan_v):   # (rows, points)
                lowest.append(float(np.min(x)))
            return real_exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", recording_exp)
        try:
            got = observers.scan(basis, 0, dil)[0]
        finally:
            monkeypatch.setattr(np, "exp", real_exp)
        assert observers.scan_pd[0, 1].min() >= 1.0
        grid = basis[1]
        want = scan_oracle(observers, step, grid, *dil[0, :, 0])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
        # prices that clear at each of a few points of the bracket
        for i in (3, 100, 196):
            offset = want[i] - grid[i] + 1e-7 * (grid[1] - grid[0])
            exact = offset + grid - want
            if np.abs(exact).min() > 1e-9:
                assert scan_sign_changes(offset + grid - got, grid) \
                    == scan_sign_changes(exact, grid)

    rng = np.random.default_rng(4242)
    checked = 0
    for observers, step, d, sigma_step, dil in random_scan_states(rng, 150):
        check(observers, step, observers.basis, dil)
        basis = observers.wide_basis
        for half_width in (min(10.0 * sigma_step * 2 ** int(rng.integers(1, 4)),
                               1.0), 1.0):
            _scan_grid(d - half_width, d + half_width, basis[1])
            check(observers, step, basis, dil)
        checked += 3
        # the agent with the largest quadratic coefficient on top, far from
        # the others' means: brackets at whose end its term, q (x - mu)^2
        # below its largest, is just above, just below and far below e^-600
        top = int(np.argmax(observers.tau))
        observers.log_weight[top] += 3000.0
        observers.mu[top] = d + rng.choice([-1.0, 1.0]) \
            * rng.uniform(0.1, 0.3)
        observers.start_step(step, d, sigma_step, dil)
        quad_max = -observers.neg_quad[top]
        far = max(d - observers.mu.min(), observers.mu.max() - d)
        for reach in (600.0 * (1 - 1e-9), 600.0 * (1 + 1e-9), 900.0):
            half_width = math.sqrt(reach / quad_max) - far
            if half_width > 0.0:
                _scan_grid(d - half_width, d + half_width, basis[1])
                check(observers, step, basis, dil)
                checked += 1
    assert checked >= 500
    assert min(lowest) >= feedback._EXP_FLOOR


def test_root_beyond_the_cap_is_solved_in_the_exact_bracket(monkeypatch):
    # log S - log delta = 10 lies above every agent's log PD, so the price
    # clears only beyond +/- 1 of the dividend move, in the exact bracket
    cfg = small_config(n_agents=2, n_diligent=0)
    traits = draw_agents(cfg)
    observers = _Observers(traits, cfg.prior_weight)
    args = (observers, 0, 10.0, 0.0, 0.0, 0.0, 0.015, -math.inf, -math.inf)
    xi, n_roots, rel = solve_alone(*args)
    low, high = log_pd_bounds(traits.rho_step)
    lo, hi = low - 10.0 - 1e-9, high - 10.0 + 1e-9
    assert lo <= xi <= hi and xi < -1.0
    assert n_roots == 1 and rel <= feedback.RESIDUAL_TOL
    # a scan that finds no sign change there either names that bracket
    monkeypatch.setattr(feedback, "scan_sign_changes", lambda values, grid: [])
    with pytest.raises(FixedPointError) as err:
        solve_alone(*args)
    assert err.value.step == 0
    assert str(err.value) == ("step 0: no sign change in the scan of the "
                              f"exact bracket [{float(lo)!r}, {float(hi)!r}]")
    diagnostics = err.value.diagnostics
    assert (diagnostics["lo"], diagnostics["hi"]) == (lo, hi)
    assert diagnostics["residual_lo"] < 0.0 < diagnostics["residual_hi"]


def test_exact_bracket_pad_grows_with_the_exponents(monkeypatch):
    # at log S - log delta = 2000 the exponents at the exact bracket's ends
    # are near -8.3e9, and log PD rounds by about an ulp of them, 9.5e-7: a
    # pad of 1e-9 left the end cell's residuals on one side ("does not
    # bracket a root"); 4 such ulps do not
    cfg = small_config(n_agents=2, n_diligent=0)
    traits = draw_agents(cfg)
    observers = _Observers(traits, cfg.prior_weight)
    args = (observers, 0, 2000.0, 0.0, 0.0, 0.0, 0.015, -math.inf, -math.inf)
    xi, n_roots, rel = solve_alone(*args)
    low, high = log_pd_bounds(traits.rho_step)
    largest = max(np.abs(observers.consts + observers.neg_quad
                         * (x - observers.mu) ** 2).max()
                  for x in (low - 2000.0, high - 2000.0))
    assert math.ulp(largest) > 1e-7
    pad = feedback._PAD_ULPS * math.ulp(largest)
    lo, hi = low - 2000.0 - pad, high - 2000.0 + pad
    assert lo <= xi <= hi
    assert n_roots == 1 and rel <= feedback.RESIDUAL_TOL
    monkeypatch.setattr(feedback, "scan_sign_changes", lambda values, grid: [])
    with pytest.raises(FixedPointError) as err:
        solve_alone(*args)
    assert (err.value.diagnostics["lo"], err.value.diagnostics["hi"]) \
        == (lo, hi)


def test_cell_that_does_not_bracket_a_root_raises(monkeypatch):
    # the scan rounds apart from the exact residual, so a grid point within
    # rounding of a root can end a cell whose exact ends share a sign;
    # solve_step raises FixedPointError then, not brentq's ValueError
    cfg = small_config(n_agents=3, n_diligent=0)
    inputs = _seed_inputs(cfg, [cfg.n_diligent])
    traits = inputs.traits
    observers = _Observers(traits, cfg.prior_weight)
    d = inputs.increments[0]
    args = (observers, 0, inputs.log_stock_ideal[0], inputs.log_div[1], d, d,
            cfg.sigma_true * math.sqrt(cfg.dt), -math.inf, -math.inf)
    xi = solve_alone(*args)[0]
    assert xi == run_feedback(cfg).xi[1]
    # the first cell of the scan grid, far below the root
    monkeypatch.setattr(feedback, "scan_sign_changes",
                        lambda values, grid: [(grid[0], grid[1])])
    with pytest.raises(FixedPointError) as err:
        solve_alone(*args)
    lo, hi = observers.grid[0], observers.grid[1]
    assert hi < xi
    assert str(err.value) == (f"step 0: scan cell [{float(lo)!r}, "
                              f"{float(hi)!r}] does not bracket a root")
    assert err.value.step == 0
    diagnostics = err.value.diagnostics
    assert (diagnostics["lo"], diagnostics["hi"]) == (lo, hi)
    assert diagnostics["residual_lo"] < 0 and diagnostics["residual_hi"] < 0
    # a run stops with that error at the step where it happens, naming its
    # seed and count
    with pytest.raises(FixedPointError, match="^seed 7, n_diligent 0: "
                       r"step 0: scan cell \[") as err:
        run_feedback(cfg)
    assert err.value.step == 0
    assert list(err.value.diagnostics)[:2] == ["seed", "n_diligent"]


def test_all_diligent_price_follows_a_jump_past_the_cap(monkeypatch):
    # the price of an all-diligent population is S*, whatever its move
    cfg = small_config(n_agents=2, n_diligent=2, n_steps=30)
    inputs = _seed_inputs(cfg, [])
    log_stock_ideal = inputs.log_stock_ideal.copy()
    log_stock_ideal[18:] += 1.5   # S* jumps at step 17
    monkeypatch.setattr(
        feedback, "_seed_inputs", lambda config, stepping: replace(
            inputs, log_stock_ideal=log_stock_ideal))
    got = run_feedback(cfg)
    assert got.xi[18] == log_stock_ideal[18] - log_stock_ideal[17]
    assert got.xi[18] - inputs.increments[17] > 1.0
    np.testing.assert_array_equal(got.stock, np.exp(log_stock_ideal))


def test_shipped_sweep_seed_22_crashes_at_step_670(monkeypatch):
    # the crash that the former +/- 1 bracket cap turned into an error: the
    # price falls by 68 % in a day, to the root that the exact bracket
    # holds, which the oracle finds to the bit
    cfg = replace(shipped_sweep_config(), seed=22, n_diligent=0)
    real_solve, seen = feedback.solve_step, {}

    def solve(observers, block, step, *args):
        if step == 670:
            seen.update(mu=observers.mu.copy(),
                        log_weight=observers.log_weight.copy(), args=args)
        return real_solve(observers, block, step, *args)

    monkeypatch.setattr(feedback, "solve_step", solve)
    res = run_feedback(cfg)
    assert res.metrics["max_residual"] <= feedback.RESIDUAL_TOL
    log_stock, log_div_next, d, prev_xi, sigma_step, _, _, bounds = \
        seen["args"]
    xi = res.xi[671]
    assert math.exp(xi) == pytest.approx(0.3226, abs=1e-4)
    assert xi < d - 1.0
    traits = draw_agents(cfg)
    assert bounds == log_pd_bounds(traits.rho_step)
    offset = log_stock - log_div_next
    assert bounds[0] - offset <= xi <= bounds[1] - offset
    population = _Observers(traits, cfg.prior_weight)
    population.mu, population.log_weight = seen["mu"], seen["log_weight"]
    want = solve_step_oracle(traits.rho_step, population,
                             np.zeros(cfg.n_agents, dtype=bool), 670,
                             log_stock, log_div_next, d, prev_xi, sigma_step)
    assert (xi, res.solver_warnings[671] + 1, res.residuals[671]) == want[:3]


@pytest.mark.parametrize("offset", [0.0, 700.0, -700.0])
def test_lse_kernel_matches_scipy(rng, offset):
    v = rng.normal(0.0, 5.0, size=(200, 30)) + offset
    v[7, 3] = -np.inf
    got = _lse(v)
    assert len(got) == len(v)
    for row, value in zip(v, got):
        assert value == pytest.approx(logsumexp(row), rel=1e-14)


def lse_vector(v):
    """The former ``_lse``: log sum exp of a vector, shifted by its max."""
    m = v.max()
    return m + math.log(np.exp(v - m).sum())


def test_two_row_lse_equals_each_row_on_its_own():
    # Brent's residual reduces the PD numerator and denominator as the two
    # rows of one array, in place; each row must keep its own bits.  Rows
    # whose maximum is 0 keep the log's last bit, so np.log in place of
    # math.log changes some of them
    rng = np.random.default_rng(15)
    for J in range(1, 31):
        for k in range(300):
            v = rng.normal(0.0, 5.0, size=(2, J))
            if k % 2:
                v += rng.uniform(-700.0, 700.0, size=(2, 1))
            else:
                v -= v.max(axis=1, keepdims=True)
            if J > 1:
                v[rng.integers(0, 2), rng.integers(0, J)] = -np.inf
            scratch = v.copy()
            rows = _lse(scratch, out=scratch)
            for i in range(2):
                assert rows[i] == _lse(v[i:i + 1])[0] == lse_vector(v[i])


def test_scan_grid_equals_linspace():
    rng = np.random.default_rng(16)
    grid = np.empty(feedback._SCAN_POINTS)
    centers = rng.normal(0.0, 0.05, 10_000) \
        * 10.0 ** rng.integers(-6, 2, 10_000)
    half_widths = rng.uniform(1e-4, 1.0, 10_000)
    for c, w in zip(centers.tolist(), half_widths.tolist()):
        lo, hi = c - w, c + w
        np.testing.assert_array_equal(
            _scan_grid(lo, hi, grid), np.linspace(lo, hi, 200))


def ideal_log_stock_oracle(config):
    """The former per-step S* loop of ``_seed_inputs``."""
    traits = draw_agents(config)
    rng = path_rng(config.seed, 0)
    increments = config.growth_true * config.dt + config.sigma_true \
        * math.sqrt(config.dt) * rng.standard_normal(config.n_steps)
    log_div = np.concatenate([[0.0], np.cumsum(increments)])

    def log_pd(log_weight, step):
        base = -traits.rho_step * step + log_weight
        return lse_vector(base - np.log(np.expm1(traits.rho_step))) \
            - lse_vector(base)

    ideal = _Observers(traits, config.prior_weight)
    out = np.empty(config.n_steps + 1)
    out[0] = log_pd(ideal.log_weight, 0) + log_div[0]
    for t, d in enumerate(increments):
        ideal.absorb(d, t)
        out[t + 1] = log_pd(ideal.log_weight, t + 1) + log_div[t + 1]
    return out


@pytest.mark.parametrize("n_agents", [1, 2, 30])
@pytest.mark.parametrize("n_steps", [1, 127, 128, 129, 300])
def test_blocked_ideal_price_equals_step_by_step(n_agents, n_steps):
    for seed in (0, 1, 9):
        cfg = small_config(n_agents=n_agents, n_diligent=0, n_steps=n_steps,
                           seed=seed)
        got = _seed_inputs(cfg, [cfg.n_diligent]).log_stock_ideal
        assert got.tobytes() == ideal_log_stock_oracle(cfg).tobytes()


@pytest.mark.parametrize("n_steps", [252, 1260, 2520])
@pytest.mark.parametrize("n_agents", [1, 5, 30])
def test_ideal_price_is_the_continuous_learners_equilibrium(n_agents,
                                                            n_steps):
    # With tau at the true precision, agent j is the continuous engine's
    # gaussian learner on X = log(delta) / sigma with prior mean
    # beta = mu0 / sigma and prior precision eps = K0 dt, sampled daily:
    # conjugate updating is exact on a grid, so the feedback log weights
    # are log Lambda_j(t, X_t) plus a term every agent shares, and
    # log(S*/delta) = log sum_j q_j / expm1(rho_j dt) with q from
    # equilibrium.market_state at unit weights.
    #
    # What differs is rounding, mostly in each agent's running sum of log
    # density increments: step t adds an error of up to eps/2 |w_t|, and
    # |w_t| grows as L t, L = log(tau / 2 pi) / 2 (the per-step normalizer).
    # Summed over n steps, these errors grow about as eps L n^1.5; the
    # largest differences over 12 seeds were 0.005-0.10 of that at 252,
    # 1260 and 2520 steps (3.0e-13, 2.3e-12 and 4.6e-12), so the tolerance
    # is eps L n^1.5 itself.
    for seed in range(4):
        cfg = FeedbackConfig(n_agents=n_agents, n_diligent=0,
                             n_steps=n_steps, seed=seed,
                             tau_factor_range=(1.0, 1.0))
        inputs = _seed_inputs(cfg, [cfg.n_diligent])
        traits = inputs.traits
        sigma, dt = cfg.sigma_true, cfg.dt
        spec = MarketSpec(sigma=sigma, agents=tuple(
            AgentSpec(impatience=rho_step / dt, weight=1.0,
                      belief=BayesianGaussian(mu0_step / dt / sigma,
                                              cfg.prior_weight * dt))
            for rho_step, mu0_step in zip(traits.rho_step,
                                          traits.prior_mean_step)))
        state = market_state(spec, np.arange(n_steps + 1) * dt,
                             inputs.log_div / sigma)
        want = inputs.log_div + np.log(np.sum(
            state.q / np.expm1(traits.rho_step)[:, None], axis=0))
        growth = 0.5 * math.log(cfg.tau_true / (2.0 * math.pi))
        tol = np.finfo(float).eps * growth * n_steps ** 1.5
        assert np.max(np.abs(inputs.log_stock_ideal - want)) <= tol


@pytest.mark.parametrize("n_steps", [1, 127, 128, 129, 300])
def test_blocked_diligent_terms_equal_step_by_step(n_steps):
    # the S* pass gives each count's diligent terms as solve_step built
    # them at every step, from the population that observes the dividend
    J = 30
    counts = (1, J // 2, J - 1)
    for seed in (0, 9):
        cfg = small_config(n_agents=J, n_diligent=0, n_steps=n_steps,
                           seed=seed)
        inputs = _seed_inputs(cfg, (0, *counts))
        assert inputs.diligent.shape == (n_steps, 1 + len(counts), 2, 1)
        # count 0 has no diligent agents
        assert np.all(inputs.diligent[:, 0] == -np.inf)
        traits = inputs.traits
        population = _Observers(traits, cfg.prior_weight)
        want = {c: [] for c in counts}
        for t, d in enumerate(inputs.increments):
            for c in counts:
                want[c].append(diligent_terms_oracle(
                    traits.rho_step, population, np.arange(J) < c, t, d))
            population.absorb(d, t)
        for i, c in enumerate(counts, start=1):
            assert inputs.diligent[:, i, :, 0].tobytes() == \
                np.array(want[c]).tobytes()


def test_step_terms_equal_step_by_step():
    # the blocks of step terms hold the doubles of the per-step formulas,
    # at every offset in a block, across block boundaries and after a jump
    rng = np.random.default_rng(19)
    J, k0 = 7, 252.0
    rho_step = rng.uniform(0.04, 0.33, J) / 252.0
    tau = rng.uniform(0.4, 1.05, J) * 252.0 / 0.0625
    observers = _Observers(AgentTraits(rho_step, tau, np.zeros(J)), k0)
    for step in [*range(300), 1000, 1001, 5]:
        k = k0 + step
        ratio = k / (k + 1.0)
        want = (-rho_step * (step + 1),
                0.5 * (np.log(tau * ratio) - math.log(2.0 * math.pi)),
                -(0.5 * tau * ratio))
        got = observers.step_terms(step)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_logaddexp_matches_numpy():
    rng = np.random.default_rng(20)
    x = rng.normal(0.0, 1.0, 100_000) * 10.0 ** rng.integers(-3, 4, 100_000)
    # about half the pairs close together, where log1p does the work
    y = np.where(rng.random(100_000) < 0.5,
                 x + rng.normal(0.0, 1e-3, 100_000),
                 rng.normal(0.0, 1.0, 100_000) * 10.0 ** rng.integers(
                     -3, 4, 100_000))
    inf = math.inf
    special = [(a, a) for a in (0.0, -1.5, 700.0, -inf, inf)] + [
        (-inf, b) for b in (0.0, -0.0, 3.25, -745.0, 1e300, inf)] + [
        (inf, -inf), (3.25, -inf), (inf, 3.25), (3.25, inf)]
    pairs = list(zip(x.tolist(), y.tolist())) + special
    got = np.array([feedback._logaddexp(a, b) for a, b in pairs])
    want = np.logaddexp(*np.array(pairs).T)
    assert got.tobytes() == want.tobytes()


def test_scan_sign_changes_finds_all_roots():
    grid = np.linspace(-2.0, 2.0, 400)
    values = (grid - 1.0) * grid * (grid + 1.0)
    cells = scan_sign_changes(values, grid)
    roots = sorted(0.5 * (lo + hi) for lo, hi in cells)
    np.testing.assert_allclose(roots, [-1.0, 0.0, 1.0], atol=0.02)


@pytest.mark.parametrize("values, starts", [
    ([-1, 0, 1], [1]),
    ([-1, 0, 0, 1], [1, 2]),
    ([1, 0, 1], [1]),
    ([1, 0, -1, 2], [1, 2]),
    ([0, 1, 2], [0]),
    ([1, 2, 0], [1]),
    ([1, 0, 0], [1]),
    ([0, -1, 0], [0, 1]),
    ([0, 0], [0]),
    ([1, 2, 3], []),
])
def test_scan_sign_changes_puts_a_zero_in_the_following_cell(values,
                                                             starts):
    # a zero at a grid point opens one cell, not also the one before it;
    # a zero at the last point closes the last cell
    grid = np.arange(len(values)) * 0.5
    cells = scan_sign_changes(np.array(values, dtype=float), grid)
    assert cells == [(grid[i], grid[i + 1]) for i in starts]


# ---------------------------------------------------------------------------
# whole-run behavior


def test_all_diligent_equivalence_various_sizes():
    for n_agents in (3, 11):
        cfg = small_config(n_agents=n_agents, n_diligent=n_agents,
                          n_steps=252, seed=2)
        res = run_feedback(cfg)
        assert np.abs(res.log_ratio).max() < 1e-10


def test_dividend_path_independent_of_population_size():
    a = run_feedback(small_config(n_agents=3, n_diligent=3, n_steps=50))
    b = run_feedback(small_config(n_agents=9, n_diligent=9, n_steps=50))
    np.testing.assert_array_equal(a.dividend, b.dividend)


def test_replay_determinism():
    cfg = small_config(n_steps=80)
    a = run_feedback(cfg)
    b = run_feedback(cfg)
    assert a.metrics == b.metrics
    np.testing.assert_array_equal(a.stock, b.stock)
    np.testing.assert_array_equal(a.xi[1:], b.xi[1:])


def test_residuals_within_tolerance_and_metrics_present():
    res = run_feedback(small_config(n_agents=8, n_diligent=2, n_steps=200))
    assert res.metrics["max_residual"] < 1e-10
    for key in ("log_ratio_max", "log_ratio_min", "log_ratio_range",
                "n_jumps", "n_multiroot_steps", "final_log_ratio"):
        assert key in res.metrics
    assert res.metrics["log_ratio_range"] == pytest.approx(
        res.log_ratio.max() - res.log_ratio.min())


def test_steep_residual_is_refined_until_rtol_binds():
    # at sigma 0.001 the precisions are large and the residual steep, so
    # Brent's absolute xtol left a residual of 1.527e-10 at step 74
    cfg = FeedbackConfig(n_agents=30, n_diligent=0, n_steps=1260, seed=1,
                         sigma_true=0.001)
    res = run_feedback(cfg)
    assert np.isfinite(res.xi[1:]).all()
    assert 0.0 < res.residuals[75] <= res.metrics["max_residual"] \
        <= feedback.RESIDUAL_TOL


def test_mistaken_agents_make_prices_deviate():
    # population size in the simulated-experiment range; tiny populations
    # can legitimately abort when the surviving root is a crash larger
    # than the bracket cap
    res = run_feedback(small_config(n_agents=30, n_diligent=0, n_steps=252,
                                    seed=1))
    assert np.abs(res.log_ratio).max() > 1e-3


def test_inline_residual_update_matches_canonical_increment(rng):
    # solve_step folds the density update into a quadratic form; it must
    # agree with the canonical increment for any posterior state
    mu = rng.normal(0.0, 0.01, size=6)
    tau = rng.uniform(100.0, 5000.0, size=6)
    k = 37.0
    x = rng.normal(0.0, 0.02)
    ratio = k / (k + 1.0)
    const = 0.5 * (np.log(tau * ratio) - math.log(2.0 * math.pi))
    quad = 0.5 * tau * ratio
    inline = const - quad * (x - mu) ** 2
    np.testing.assert_allclose(inline, log_density_increment(mu, k, tau, x),
                               rtol=1e-12)


def test_diligence_sweep_shapes_and_order():
    cfg = small_config(n_agents=4, n_steps=40)
    table = diligence_sweep(cfg, [0, 4], [5, 6, 7])
    assert set(table) == {0, 4}
    assert len(table[0]) == 3
    # all-diligent rows show no deviation at all
    for row in table[4]:
        assert row["log_ratio_range"] < 1e-10


@pytest.mark.parametrize("counts, bad", [
    ([0, 5], 5), ([-1], -1), ([True], True), ([1.5], 1.5),
    ([np.float64(2.0)], np.float64(2.0)), ([np.True_], np.True_),
    (np.array([0, 5]), np.int64(5))])
def test_diligence_sweep_checks_its_counts(counts, bad):
    # a count outside 0..n_agents, a bool or a float, numpy's included, is
    # named in a ConfigError before anything runs
    with pytest.raises(ConfigError,
                       match=f"^diligence_values: {re.escape(repr(bad))} is "
                             "not a diligence count: need an int in 0..4$"):
        diligence_sweep(small_config(n_agents=4), counts, [5])


@pytest.mark.parametrize("counts", [[], iter([]), np.array([], dtype=int)])
def test_diligence_sweep_needs_a_count(counts):
    with pytest.raises(ConfigError, match="^diligence_values: expected at "
                       "least one count$"):
        diligence_sweep(small_config(n_agents=4), counts, [5])


def test_diligence_sweep_accepts_iterators():
    cfg = small_config(n_agents=4, n_steps=40)
    want = diligence_sweep(cfg, [0, 4], [5, 6])
    assert len(want[0]) == 2
    assert diligence_sweep(cfg, [0, 4], iter([5, 6])) == want
    assert diligence_sweep(cfg, iter([0, 4]), range(5, 7)) == want


def test_diligence_sweep_accepts_numpy_integers():
    cfg = small_config(n_agents=4, n_steps=40)
    table = diligence_sweep(cfg, np.arange(0, 5, 2), [5])
    assert table == diligence_sweep(cfg, [0, 2, 4], [5])
    assert [type(c) for c in table] == [int, int, int]


def test_diligence_sweep_rows_equal_single_runs():
    # the sweep shares each seed's ideal price between diligence counts;
    # that must not change a single bit of any row
    cfg = small_config(n_agents=4, n_steps=40)
    seeds = [5, 6]
    table = diligence_sweep(cfg, [0, 2, 4], seeds)
    for i, seed in enumerate(seeds):
        runs = {n: run_feedback(replace(cfg, n_diligent=n, seed=seed))
                for n in (0, 2, 4)}
        for n, res in runs.items():
            assert table[n][i] == res.metrics
            np.testing.assert_array_equal(res.stock_ideal,
                                          runs[0].stock_ideal)


# ---------------------------------------------------------------------------
# a sweep's seeds split across forked children


def in_order_table(cfg, counts, seeds):
    """The sweep's table from one run per cell: the split's oracle."""
    return {n: [run_feedback(replace(cfg, n_diligent=n, seed=seed)).metrics
                for seed in seeds] for n in counts}


@pytest.mark.parametrize("cpus", [1, 2, 3, 9])
def test_sweep_split_equals_the_in_order_table(forks, cpus):
    cfg, seeds = small_config(n_agents=4, n_steps=40), [5, 6, 7, 8, 9]
    want = in_order_table(cfg, [0, 2], seeds)
    forks.cpus(cpus)
    assert diligence_sweep(cfg, [0, 2], seeds) == want
    assert forks.count == min(cpus, len(seeds)) - 1


def test_sweep_of_one_seed_runs_in_this_process(monkeypatch):
    # the benchmark's feedback-sweep item: one seed's counts are never split
    cfg = small_config(n_agents=4, n_steps=40)
    want = in_order_table(cfg, [0, 4], [5])
    monkeypatch.setattr(numerics, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    assert diligence_sweep(cfg, [0, 4], [5]) == want
    assert diligence_sweep(cfg, [0, 4], []) == {0: [], 4: []}


@pytest.mark.parametrize("cpus, failing, raised", [
    (2, {8}, 8),            # the child's range fails
    (2, {6, 9}, 6),         # this process's range fails first
    (2, {8, 9}, 8),         # the first failing seed of a range
    (3, {7, 9}, 7),         # two children's ranges: the lower one wins
    (3, {9, 5}, 5),
])
def test_sweep_raises_the_lowest_seeds_error(forks, monkeypatch, cpus,
                                             failing, raised):
    real_unit = feedback._sweep_seed

    def unit(task):
        seed = task[0].seed
        if seed in failing:
            raise FixedPointError(f"seed {seed}", step=seed,
                                  diagnostics={"xi": seed / 2})
        return real_unit(task)

    monkeypatch.setattr(feedback, "_sweep_seed", unit)
    forks.cpus(cpus)
    with pytest.raises(FixedPointError, match=f"^seed {raised}$") as err:
        diligence_sweep(small_config(n_agents=4, n_steps=40), [0, 4],
                        [5, 6, 7, 8, 9])
    assert err.value.step == raised
    assert err.value.diagnostics == {"xi": raised / 2}
    assert forks.count == cpus - 1


def test_sweep_stays_in_process_beside_a_second_thread(monkeypatch):
    cfg, seeds = small_config(n_agents=4, n_steps=40), [5, 6, 7]
    want = in_order_table(cfg, [0, 4], seeds)
    monkeypatch.setattr(numerics, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert diligence_sweep(cfg, [0, 4], seeds) == want
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# ---------------------------------------------------------------------------
# one seed's diligence counts stepped together


class OneCountObservers:
    """The former ``_Observers``: the agents of one count that observe the
    price, with their step-index terms computed at every step."""

    def __init__(self, rho_step, tau, prior_mean_step, prior_weight):
        n = len(tau)
        self.mu = prior_mean_step.copy()
        self.log_weight = np.zeros(n)
        self.neg_rho = -rho_step
        self.log_expm1 = np.log(np.expm1(rho_step))
        self.inv_expm1 = np.exp(-self.log_expm1)
        self.tau, self.half_tau = tau, 0.5 * tau
        self.k0 = prior_weight
        self.consts = np.empty((2, n))
        self.rows = np.empty((2, n))
        self.dev = np.empty(n)
        self.dl = np.empty(n)
        self.grid = np.empty(feedback._SCAN_POINTS)
        self.scan_dev = np.empty((n, feedback._SCAN_POINTS))
        self.scan_v = np.empty((n, feedback._SCAN_POINTS))

    def absorb(self, x, step):
        k = self.k0 + step
        self.log_weight += log_density_increment(self.mu, k, self.tau, x)
        self.mu = posterior_mean_step(self.mu, k, x)

    def step_terms(self, step):
        k = self.k0 + step
        ratio = k / (k + 1.0)
        quad = self.half_tau * ratio
        return (self.neg_rho * (step + 1),
                0.5 * (np.log(self.tau * ratio) - math.log(2.0 * math.pi)),
                quad, -quad)


def one_count_solve_step(observers, step, log_stock, log_div_next,
                         true_increment, prev_xi, sigma_step, num_dil,
                         den_dil):
    """The former ``solve_step``: one count's own scan, then Brent from
    its two ends, each residual evaluated on its own."""
    s = observers
    neg_rho_k, log_norm, quad, neg_quad = s.step_terms(step)
    mu = s.mu
    consts = s.consts
    np.add(neg_rho_k, s.log_weight, out=consts[1])
    np.add(consts[1], log_norm, out=consts[1])
    np.subtract(consts[1], s.log_expm1, out=consts[0])
    offset = log_stock - log_div_next
    dev, dl, rows = s.dev, s.dl, s.rows

    def residual(xi):
        np.subtract(xi, mu, out=dev)
        np.multiply(neg_quad, dev, out=dl)
        np.multiply(dl, dev, out=dl)
        log_num, log_den = _lse(np.add(consts, dl, out=rows), out=rows)
        return offset + xi - (feedback._logaddexp(num_dil, log_num)
                              - feedback._logaddexp(den_dil, log_den))

    mu_col, const_col, quad_col = mu[:, None], consts[1][:, None], \
        quad[:, None]

    def residual_grid(xi):
        dev = np.subtract(xi, mu_col, out=s.scan_dev)
        v = np.multiply(quad_col, dev, out=s.scan_v)
        np.multiply(v, dev, out=v)
        np.subtract(const_col, v, out=v)
        m = np.maximum.reduce(v, axis=0)
        np.maximum(m, den_dil, out=m)
        np.subtract(v, m, out=v)
        e = np.exp(np.maximum(v, feedback._EXP_FLOOR, out=v), out=v)
        pd = s.inv_expm1 @ e + np.exp(num_dil - m)
        pd /= np.add.reduce(e, axis=0) + np.exp(den_dil - m)
        return offset + xi - np.log(pd)

    grid = s.grid
    half_width = 10.0 * sigma_step
    while True:
        lo = true_increment - half_width
        hi = true_increment + half_width
        _scan_grid(lo, hi, grid)
        cells = feedback.scan_sign_changes(residual_grid(grid), grid)
        if cells:
            break
        if half_width >= 1.0:   # the seeds run here never get so far
            raise FixedPointError(f"step {step}: no root within +/- 1",
                                  step=step)
        half_width = min(2.0 * half_width, 1.0)
    if len(cells) > 1:
        cells.sort(key=lambda c: abs(0.5 * (c[0] + c[1]) - prev_xi))
    lo, hi = cells[0]
    seen = {}

    def remembered(xi):
        seen[xi] = value = residual(xi)
        return value

    xi = brentq(remembered, lo, hi, xtol=1e-13, rtol=8.9e-16)
    return xi, len(cells), abs(math.expm1(float(seen[xi])))


def one_count_run(config, inputs, dil):
    """The former ``_run``: one diligence count stepped on its own, with
    ``dil`` its (steps, 2, 1) diligent terms (None for the all-diligent
    count), its result or its error.  Returns (log S, xi, warnings,
    residuals)."""
    c, n = config.n_diligent, config.n_steps
    traits = inputs.traits
    sigma_step = config.sigma_true * math.sqrt(config.dt)
    xi_series = np.full(n + 1, np.nan)
    warnings = np.zeros(n + 1)
    residuals = np.zeros(n + 1)
    if c == config.n_agents:
        xi_series[1:] = np.diff(inputs.log_stock_ideal)
        return inputs.log_stock_ideal, xi_series, warnings, residuals
    observers = OneCountObservers(traits.rho_step[c:], traits.tau[c:],
                                  traits.prior_mean_step[c:],
                                  config.prior_weight)
    num_dil, den_dil = dil[:, 0, 0].tolist(), dil[:, 1, 0].tolist()
    log_stock = np.empty(n + 1)
    log_stock[0] = inputs.log_stock_ideal[0]
    for t in range(n):
        d = inputs.increments[t]
        prev = xi_series[t] if t > 0 else d
        xi, n_roots, rel = one_count_solve_step(
            observers, t, log_stock[t], inputs.log_div[t + 1], d, prev,
            sigma_step, num_dil[t], den_dil[t])
        if rel > feedback.RESIDUAL_TOL:
            raise FixedPointError(f"step {t}: residual", step=t)
        xi_series[t + 1] = xi
        warnings[t + 1] = n_roots - 1
        residuals[t + 1] = rel
        log_stock[t + 1] = log_stock[t] + xi
        observers.absorb(xi, t)
    return log_stock, xi_series, warnings, residuals


def shipped_sweep_config():
    return parse_feedback(load_config(
        str(REPO / "configs" / "feedback_diligence_sweep.json")))


ALL_COUNTS = [0, 1, 5, 25, 29, 30]


def tracking_solve_step(monkeypatch):
    """Patch ``feedback.solve_step`` to record each call's (block, step)
    and how many scans it ran."""
    calls = []
    scans = []
    real_scan, real_solve = feedback.scan_sign_changes, feedback.solve_step

    def scan(values, grid):
        scans.append(1)
        return real_scan(values, grid)

    def solve(observers, block, step, *args):
        before = len(scans)
        try:
            return real_solve(observers, block, step, *args)
        finally:
            calls.append((block, step, len(scans) - before))

    monkeypatch.setattr(feedback, "scan_sign_changes", scan)
    monkeypatch.setattr(feedback, "solve_step", solve)
    return calls


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_lockstep_equals_each_count_stepped_alone(monkeypatch, seed):
    # every count of the lockstep gives the bits of the former one-count
    # stepper; at seed 3 a count widens its bracket while the others do not
    cfg = replace(shipped_sweep_config(), seed=seed)
    stepping = [c for c in ALL_COUNTS if c < cfg.n_agents]
    inputs = _seed_inputs(cfg, stepping)
    calls = tracking_solve_step(monkeypatch)
    outcomes = _run(cfg, ALL_COUNTS)
    assert len(outcomes) == len(ALL_COUNTS)
    for c, got in zip(ALL_COUNTS, outcomes):
        dil = inputs.diligent[:, stepping.index(c)] if c in stepping else None
        log_stock, xi, warnings, residuals = one_count_run(
            replace(cfg, n_diligent=c), inputs, dil)
        want = {"stock": np.exp(log_stock),
                "stock_ideal": np.exp(inputs.log_stock_ideal), "xi": xi,
                "solver_warnings": warnings, "residuals": residuals,
                "log_ratio": log_stock - inputs.log_stock_ideal}
        for name, values in want.items():
            assert getattr(got, name).tobytes() == values.tobytes(), (c, name)
        assert got.metrics == _result(replace(cfg, n_diligent=c), inputs,
                                      log_stock, xi, warnings,
                                      residuals).metrics
    # one solve_step per stepping count and step, in count order
    assert [(b, t) for b, t, _ in calls] == [
        (b, t) for t in range(cfg.n_steps) for b in range(len(stepping))]
    widened = [(stepping[b], t) for b, t, scans in calls if scans > 1]
    if seed == 3:
        assert (25, 63) in widened
        assert [t for c, t in widened if c == 0] == [291, 456, 744, 983, 1146]
        assert [c for c, t in widened if t == 63] == [25]


def failing_at(monkeypatch, cells):
    """Patch ``feedback`` so that the run of each (seed, count, step) of
    ``cells`` fails there: ``solve_step`` solves the step, then raises a
    ``FixedPointError`` with the solved xi as its diagnostics.  Patched
    before a sweep forks, it holds in the forked children too."""
    real_inputs, real_solve = feedback._seed_inputs, feedback.solve_step
    run = {}

    def seed_inputs(config, stepping):
        run.update(seed=config.seed, n_agents=config.n_agents)
        return real_inputs(config, stepping)

    def solve(observers, block, step, *args):
        got = real_solve(observers, block, step, *args)
        count = run["n_agents"] - observers.sizes[block]
        if (run["seed"], count, step) in cells:
            raise FixedPointError(f"step {step}: forced", step=step,
                                  diagnostics={"xi": got[0]})
        return got

    monkeypatch.setattr(feedback, "_seed_inputs", seed_inputs)
    monkeypatch.setattr(feedback, "solve_step", solve)


def test_error_from_a_forked_child_keeps_its_step_and_diagnostics(
        forks, monkeypatch):
    cfg = replace(shipped_sweep_config(), n_steps=700)
    failing_at(monkeypatch, {(22, 0, 670)})
    with pytest.raises(FixedPointError,
                       match="^seed 22, n_diligent 0: step 670: forced$") \
            as err:
        run_feedback(replace(cfg, seed=22, n_diligent=0))
    assert err.value.step == 670
    diagnostics = err.value.diagnostics
    assert list(diagnostics) == ["seed", "n_diligent", "xi"]
    assert (diagnostics["seed"], diagnostics["n_diligent"]) == (22, 0)
    # raised in a forked child of a sweep, it keeps its message, its step
    # and its diagnostics
    forks.cpus(2)
    with pytest.raises(FixedPointError) as split_err:
        diligence_sweep(cfg, [0], [21, 22])
    assert forks.count == 1
    assert str(split_err.value) == str(err.value)
    assert split_err.value.step == 670
    assert split_err.value.diagnostics == diagnostics


def test_lockstep_raises_the_in_order_error(monkeypatch):
    # seed 10, count 1 failing at step 61 and count 5 at step 73: one after
    # another, [0, 1, 5] stops at count 1 once count 0 has run to the end,
    # and [5, 1] at count 5
    cfg = replace(shipped_sweep_config(), seed=10)
    failing_at(monkeypatch, {(10, 1, 61), (10, 5, 73), (34, 25, 59),
                             (34, 29, 71)})
    single = {}
    for c in (1, 5):
        with pytest.raises(FixedPointError) as err:
            run_feedback(replace(cfg, n_diligent=c))
        single[c] = err.value
    assert (single[1].step, single[5].step) == (61, 73)
    for c in (1, 5):
        assert str(single[c]).startswith(f"seed 10, n_diligent {c}: step ")
        assert list(single[c].diagnostics)[:2] == ["seed", "n_diligent"]
    calls = tracking_solve_step(monkeypatch)
    for counts, c in (([0, 1, 5], 1), ([5, 1], 5), ([1, 30], 1)):
        calls.clear()
        with pytest.raises(FixedPointError) as err:
            diligence_sweep(cfg, counts, [10])
        assert str(err.value) == str(single[c])
        assert err.value.step == single[c].step
        assert err.value.diagnostics == single[c].diagnostics
        if counts[0] == 0:
            assert [t for b, t, _ in calls if b == 0] == list(range(1260))
        # no count after the failing one is stepped past its failure
        assert max(t for b, t, _ in calls if b >= counts.index(c)) \
            == single[c].step
    # seed 34: counts 25 and 29 failing at steps 59 and 71
    cfg = replace(cfg, seed=34)
    with pytest.raises(FixedPointError, match="^seed 34, n_diligent 25: "
                       "step 59: forced") as err:
        diligence_sweep(cfg, [25, 29], [34])
    assert err.value.step == 59


def test_count_running_on_after_a_later_count_fails_keeps_its_bits(
        monkeypatch):
    # seed 10, count 1 failing at step 61 and count 0 at step 1000: count 0
    # runs on while count 1's rows stay in the stepper, and reaches its
    # failure with the bits of its own run, whose solved xi the error holds
    cfg = replace(shipped_sweep_config(), seed=10)
    failing_at(monkeypatch, {(10, 0, 1000)})
    with pytest.raises(FixedPointError) as alone:
        run_feedback(replace(cfg, n_diligent=0))
    monkeypatch.undo()
    failing_at(monkeypatch, {(10, 0, 1000), (10, 1, 61)})
    with pytest.raises(FixedPointError) as err:
        _run(cfg, [0, 1])
    assert err.value.step == alone.value.step == 1000
    assert err.value.diagnostics == alone.value.diagnostics
    assert err.value.diagnostics["n_diligent"] == 0
    assert repr(err.value.diagnostics["xi"]) \
        == repr(alone.value.diagnostics["xi"])


def test_all_diligent_count_keeps_its_place_in_order(monkeypatch):
    # the all-diligent count is not stepped: its price is S*, and before or
    # after a count that fails it changes nothing of that count's error
    cfg = small_config(n_agents=2, n_diligent=2, n_steps=30)
    want, = _run(cfg, [2])
    ideal = _seed_inputs(cfg, []).log_stock_ideal
    assert want.stock.tobytes() == np.exp(ideal).tobytes()
    assert want.xi[1:].tobytes() == np.diff(ideal).tobytes()
    assert not want.log_ratio.any() and not want.solver_warnings.any()
    failing_at(monkeypatch, {(cfg.seed, 0, 17)})
    for counts in ([2, 0], [0, 2]):
        with pytest.raises(FixedPointError) as err:
            _run(cfg, counts)
        assert err.value.step == 17
        assert err.value.diagnostics["n_diligent"] == 0


def test_duplicated_count_runs_once(monkeypatch):
    cfg = small_config(n_agents=4, n_steps=40)
    want = diligence_sweep(cfg, [0, 2], [5])
    calls = tracking_solve_step(monkeypatch)
    got = diligence_sweep(cfg, [0, 2, 0, 2, 2], [5])
    assert got == want and list(got) == [0, 2]
    assert len(calls) == 2 * cfg.n_steps


# ---------------------------------------------------------------------------
# CSV output


def test_csv_round_trip(tmp_path):
    res = run_feedback(small_config(n_steps=30))
    out = tmp_path / "series.csv"
    with open(out, "w") as fp:
        res.write_csv(fp)
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "t,delta,S_star,S,log_PD_star,log_ratio,xi,solver_warnings"
    assert len(rows) == 32
    first = rows[1].split(",")
    assert first[6] == ""  # no xi at t = 0
    parsed = float(rows[-1].split(",")[3])
    assert parsed == res.stock[-1]


def series_by_value(res):
    """series.csv written one ``format(v, ".17g")`` per value."""
    lines = ["t,delta,S_star,S,log_PD_star,log_ratio,xi,solver_warnings"]
    for i in range(len(res.times)):
        xi = "" if math.isnan(res.xi[i]) else format(res.xi[i], ".17g")
        lines.append(",".join([
            format(res.times[i], ".17g"),
            format(res.dividend[i], ".17g"),
            format(res.stock_ideal[i], ".17g"),
            format(res.stock[i], ".17g"),
            format(res.log_pd_ideal[i], ".17g"),
            format(res.log_ratio[i], ".17g"),
            xi,
            str(int(res.solver_warnings[i])),
        ]))
    return "\n".join(lines) + "\n"


def test_csv_matches_per_value_format():
    res = run_feedback(small_config(n_diligent=0, n_steps=300))
    xi = res.xi.copy()
    xi[[6, 7]] = [-0.0, 1e-300]
    warnings = res.solver_warnings.copy()
    warnings[9] = 3.0
    edited = replace(res, xi=xi, solver_warnings=warnings,
                     log_ratio=np.where(np.arange(len(xi)) == 8, -np.inf,
                                        res.log_ratio))
    for r in (res, edited):
        fp = io.StringIO()
        r.write_csv(fp)
        assert_same_text(fp.getvalue(), series_by_value(r))
