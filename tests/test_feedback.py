import io
import math
import os
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from beliefmkt.beliefs import log_density_increment
from beliefmkt import feedback, numerics
from beliefmkt.config import load_config, parse_feedback
from beliefmkt.errors import ConfigError, FixedPointError
from beliefmkt.feedback import (AgentTraits, FeedbackConfig, _lse, _Observers,
                                _run, _scan_grid, _seed_inputs,
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
    for substream in (path_rng, agent_rng):
        with pytest.raises(ConfigError, match="got -7"):
            substream(-7, 0)


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
        log_pd = log_price_dividend(rho_step, np.array([0.0]), t)
        assert math.exp(log_pd) == pytest.approx(1.0 / math.expm1(0.003), rel=1e-12)


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
        for w, t in ((log_weight[0], int(steps[0, 0])), (log_weight, steps)):
            got = np.asarray(log_price_dividend(rho_step, w, t))
            same = log_pd_with_common_weight(rho_step, np.ones(J), w, t)
            assert got.tobytes() == np.asarray(same).tobytes()
            scaled = log_pd_with_common_weight(rho_step, np.full(J, 1.3), w, t)
            np.testing.assert_allclose(scaled, got, rtol=0.0, atol=1e-13)


def test_identical_agents_pd_constant():
    rho_step = np.full(4, 0.002)
    values = [log_price_dividend(rho_step, np.full(4, w), t)
              for t, w in [(0, 0.0), (50, -3.0), (900, 11.0)]]
    assert max(values) - min(values) < 1e-13


def test_two_agent_pd_hand_sum_and_npv_oracle():
    rho_step = np.array([0.001, 0.002])
    t = 37
    log_pd = log_price_dividend(rho_step, np.zeros(2), t)
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
    population = _Observers(traits.rho_step, traits.tau,
                            traits.prior_mean_step, cfg.prior_weight)
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
    return (_lse(fixed - np.log(np.expm1(rho_step[diligent_mask]))),
            _lse(fixed))


def solve_step_oracle(rho_step, population, diligent_mask, step, log_stock,
                      log_div_next, true_increment, prev_xi, sigma_step):
    """The former ``solve_step``: a scan through two row-major log-sum-exps
    with unfloored exps, and endpoint checks before Brent.  Returns
    (xi, n_roots, relative residual, scan cells)."""
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
        log_num = np.logaddexp(num_dil, _lse(const_num_nd + dl))
        log_den = np.logaddexp(den_dil, _lse(const_nd + dl))
        return offset + xi - (log_num - log_den)

    def residual_grid(xi):
        dev = xi[:, None] - mu_nd
        varying = -quad_nd * dev * dev
        log_num = np.logaddexp(num_dil, _lse_rows(const_num_nd + varying))
        log_den = np.logaddexp(den_dil, _lse_rows(const_nd + varying))
        return offset + xi - (log_num - log_den)

    half_width = 10.0 * sigma_step
    while True:
        grid = np.linspace(true_increment - half_width,
                           true_increment + half_width, 200)
        cells = scan_sign_changes(residual_grid(grid), grid)
        if cells:
            break
        if half_width >= 1.0:
            raise FixedPointError("no root", step=step, diagnostics={
                "residual_lo": float(residual(true_increment - half_width)),
                "residual_hi": float(residual(true_increment + half_width))})
        half_width = min(2.0 * half_width, 1.0)
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
    solved = failed = multiroot = floored = entries = 0
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
        population = _Observers(traits.rho_step, traits.tau,
                                traits.prior_mean_step, 252.0)
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
        # daily moves; some steps then have no root within the cap
        at_d = base + log_density_increment(population.mu, k, traits.tau, d)
        log_pd = _lse(at_d - np.log(np.expm1(traits.rho_step))) - _lse(at_d)
        log_div_next = rng.normal(0.0, 1.0)
        log_stock = log_div_next + log_pd - d \
            + rng.normal(0.0, 5.0) * sigma_step
        prev_xi = d + rng.normal(0.0, sigma_step)
        args = (traits.rho_step, population, diligent, step, log_stock,
                log_div_next, d, prev_xi, sigma_step)
        # solve_step sees the non-diligent agents and the diligent terms
        mistaken = _Observers(traits.rho_step[nd], traits.tau[nd],
                              population.mu[nd], 252.0)
        mistaken.log_weight = population.log_weight[nd]
        step_args = (
            mistaken, step, log_stock, log_div_next, d, prev_xi, sigma_step,
            *diligent_terms_oracle(traits.rho_step, population, diligent,
                                   step, d))
        try:
            want = solve_step_oracle(*args)
        except FixedPointError as exc:
            with pytest.raises(FixedPointError) as err:
                solve_step(*step_args)
            for key in ("residual_lo", "residual_hi"):
                assert err.value.diagnostics[key] == exc.diagnostics[key]
            failed += 1
            continue
        scans.clear()
        got = solve_step(*step_args)
        assert scans[-1] == want[3]
        assert got == want[:3]
        solved += 1
        multiroot += got[1] > 1
    assert solved >= 300 and failed >= 1 and multiroot >= 1
    assert floored > 0.1 * entries


def test_no_root_within_cap_raises_with_step_index():
    cfg = small_config(n_agents=2, n_diligent=0)
    traits = draw_agents(cfg)
    observers = _Observers(traits.rho_step, traits.tau,
                           traits.prior_mean_step, cfg.prior_weight)
    with pytest.raises(FixedPointError) as err:
        solve_step(observers, 0, log_stock=50.0, log_div_next=0.0,
                   true_increment=0.0, prev_xi=0.0, sigma_step=0.015,
                   num_dil=-math.inf, den_dil=-math.inf)
    assert err.value.step == 0
    assert str(err.value).startswith("step 0: no root for xi within")
    assert "residual_lo" in err.value.diagnostics


def test_all_diligent_root_above_cap_raises():
    cfg = small_config(n_agents=2, n_diligent=2, n_steps=30)
    inputs = _seed_inputs(cfg)
    log_stock_ideal = inputs.log_stock_ideal.copy()
    log_stock_ideal[18:] += 1.5   # S* jumps at step 17
    with pytest.raises(FixedPointError) as err:
        _run(cfg, replace(inputs, log_stock_ideal=log_stock_ideal))
    assert err.value.step == 17
    assert str(err.value).startswith("step 17: no root for xi within")
    assert err.value.diagnostics["xi"] == pytest.approx(
        log_stock_ideal[18] - log_stock_ideal[17])
    assert err.value.diagnostics["true_increment"] == inputs.increments[17]


def test_shipped_sweep_seed_22_fails_at_step_670(forks):
    # a crash larger than the bracket cap in the shipped sweep's population
    cfg = parse_feedback(load_config(
        str(REPO / "configs" / "feedback_diligence_sweep.json")))
    with pytest.raises(FixedPointError) as err:
        run_feedback(replace(cfg, seed=22, n_diligent=0))
    assert err.value.step == 670
    assert str(err.value).startswith("step 670: no root for xi within")
    # raised in a forked child of a sweep, it keeps its step and diagnostics
    forks.cpus(2)
    with pytest.raises(FixedPointError) as split_err:
        diligence_sweep(cfg, [0], [21, 22])
    assert forks.count == 1
    assert str(split_err.value) == str(err.value)
    assert split_err.value.step == 670
    assert split_err.value.diagnostics == err.value.diagnostics


@pytest.mark.parametrize("offset", [0.0, 700.0, -700.0])
def test_lse_kernel_matches_scipy(rng, offset):
    v = rng.normal(0.0, 5.0, size=(200, 30)) + offset
    v[7, 3] = -np.inf
    for row in v:
        assert _lse(row) == pytest.approx(logsumexp(row), rel=1e-14)


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
                assert rows[i] == _lse(v[i]) == lse_vector(v[i])


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

    ideal = _Observers(traits.rho_step, traits.tau, traits.prior_mean_step,
                       config.prior_weight)
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
        got = _seed_inputs(cfg).log_stock_ideal
        assert got.tobytes() == ideal_log_stock_oracle(cfg).tobytes()


@pytest.mark.parametrize("n_steps", [1, 127, 128, 129, 300])
def test_blocked_diligent_terms_equal_step_by_step(n_steps):
    # the S* pass gives each count's diligent terms as solve_step built
    # them at every step, from the population that observes the dividend
    J = 30
    counts = (1, J // 2, J - 1)
    for seed in (0, 9):
        cfg = small_config(n_agents=J, n_diligent=0, n_steps=n_steps,
                           seed=seed)
        inputs = _seed_inputs(cfg, (0, *counts, J))
        assert sorted(inputs.diligent) == list(counts)
        traits = inputs.traits
        population = _Observers(traits.rho_step, traits.tau,
                                traits.prior_mean_step, cfg.prior_weight)
        want = {c: [] for c in counts}
        for t, d in enumerate(inputs.increments):
            for c in counts:
                want[c].append(diligent_terms_oracle(
                    traits.rho_step, population, np.arange(J) < c, t, d))
            population.absorb(d, t)
        for c in counts:
            num, den = inputs.diligent[c]
            assert np.array(num).tobytes() == \
                np.array([w[0] for w in want[c]]).tobytes()
            assert np.array(den).tobytes() == \
                np.array([w[1] for w in want[c]]).tobytes()


def test_step_terms_equal_step_by_step():
    # the blocks of step terms hold the doubles of the per-step formulas,
    # at every offset in a block, across block boundaries and after a jump
    rng = np.random.default_rng(19)
    J, k0 = 7, 252.0
    rho_step = rng.uniform(0.04, 0.33, J) / 252.0
    tau = rng.uniform(0.4, 1.05, J) * 252.0 / 0.0625
    observers = _Observers(rho_step, tau, np.zeros(J), k0)
    for step in [*range(300), 1000, 1001, 5]:
        k = k0 + step
        ratio = k / (k + 1.0)
        quad = 0.5 * tau * ratio
        want = (-rho_step * (step + 1),
                0.5 * (np.log(tau * ratio) - math.log(2.0 * math.pi)),
                quad, -quad)
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


def test_diligence_sweep_accepts_iterators():
    cfg = small_config(n_agents=4, n_steps=40)
    want = diligence_sweep(cfg, [0, 4], [5, 6])
    assert len(want[0]) == 2
    assert diligence_sweep(cfg, [0, 4], iter([5, 6])) == want
    assert diligence_sweep(cfg, iter([0, 4]), range(5, 7)) == want


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
    xi[[5, 6, 7]] = [np.nan, -0.0, 1e-300]
    warnings = res.solver_warnings.copy()
    warnings[9] = 3.0
    edited = replace(res, xi=xi, solver_warnings=warnings,
                     log_ratio=np.where(np.arange(len(xi)) == 8, -np.inf,
                                        res.log_ratio))
    for r in (res, edited):
        fp = io.StringIO()
        r.write_csv(fp)
        assert_same_text(fp.getvalue(), series_by_value(r))
