"""End-to-end acceptance checks, one test per criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

These run at full stated sizes: the module takes 13-15 s on a 2-core
Xeon, about half of it in ``test_diligence_damping``, whose 20 seeds
``diligence_sweep`` splits across the CPUs.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from beliefmkt.beauty import (ContestSpec, clearing_weights,
                              pareto_faked_equilibrium, truthful_equilibrium,
                              welfare_comparison)
from beliefmkt.beliefs import posterior_mean_step
from beliefmkt.calibration import compute_moments
from beliefmkt.cli import main
from beliefmkt.equilibrium import (AgentSpec, MarketSpec, simulate_path,
                                   simulate_paths, solve_market_clearing)
from beliefmkt.beliefs import ConstantDrift
from beliefmkt.feedback import FeedbackConfig, diligence_sweep, run_feedback
from conftest import benchmark_market
from test_beauty import best_response, gain_sides, identity_gap
from test_beliefs import fold


def report_line(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}" + (f"  ({detail})" if detail else ""))
    return ok


# ---------------------------------------------------------------------------
# 1. benchmark three-agent calibration reproduces its reference moments


def test_benchmark_moment_reproduction():
    spec = benchmark_market()
    report = compute_moments(simulate_paths(spec, 50.0, 1.0 / 252.0,
                                            seed=20260811, n_paths=200))
    checks = [
        ("mean PD within 5% of 26.06",
         abs(report.mean_pd - 26.06) <= 0.05 * 26.06,
         f"observed {report.mean_pd:.3f}"),
        ("mean riskless within 0.018 +/- 0.003",
         abs(report.mean_riskless - 0.018) <= 0.003,
         f"observed {report.mean_riskless:.4f}"),
        ("equity premium within 0.059 +/- 0.01",
         abs(report.equity_premium - 0.059) <= 0.01,
         f"observed {report.equity_premium:.4f}"),
        ("Sharpe within 0.326 +/- 0.05",
         abs(report.sharpe - 0.326) <= 0.05,
         f"observed {report.sharpe:.4f}"),
    ]
    failures = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
    all_ok = not failures
    report_line("criterion 1: benchmark moment reproduction", all_ok,
                "; ".join(f"{d}" for _, _, d in checks))
    for label, ok, detail in checks:
        report_line(f"  - {label}", ok, detail)
    assert all_ok, (
        "benchmark moments do not match their reference values "
        "under the documented estimators: " + "; ".join(failures))


# ---------------------------------------------------------------------------
# 2. all-diligent runs reproduce the ideal price exactly


def test_all_diligent_equivalence():
    worst = 0.0
    n_steps = 5 * 252
    for n_agents in (30, 50):
        for seed in range(10):
            cfg = FeedbackConfig(n_agents=n_agents, n_diligent=n_agents,
                                 n_steps=n_steps, seed=seed)
            res = run_feedback(cfg)
            worst = max(worst, float(np.abs(res.log_ratio).max()))
    ok = worst < 1e-9
    report_line("criterion 2: all-diligent equivalence", ok,
                f"max |log S/S*| = {worst:.2e} over 10 seeds x (30, 50) agents")
    assert ok


# ---------------------------------------------------------------------------
# 3. diligence damps the bubbles


def test_diligence_damping():
    base = FeedbackConfig(n_agents=30, n_diligent=0, n_steps=5 * 252, seed=0)
    table = diligence_sweep(base, [0, 25], list(range(20)))
    mean_none = np.mean([r["log_ratio_range"] for r in table[0]])
    mean_most = np.mean([r["log_ratio_range"] for r in table[25]])
    ok = mean_none > mean_most
    report_line("criterion 3: diligence damping", ok,
                f"mean range 0 diligent {mean_none:.3f} > 25 diligent {mean_most:.3f}")
    assert ok


# ---------------------------------------------------------------------------
# 4. incremental belief updates match the batch density formulas


def test_belief_update_oracle_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        mu0, k0, tau = (rng.normal(0.0, 0.1), rng.uniform(0.5, 50.0),
                        rng.uniform(0.1, 100.0))
        xs = rng.normal(0.0, 1.0 / math.sqrt(tau), size=100)
        _, log_density = fold(xs, mu0, k0, tau)
        # against the mean-zero reference density of the same precision
        log_ratio = log_density - (-0.5 * tau * (xs * xs).sum()
                                   + 50.0 * math.log(tau / (2.0 * math.pi)))
        kt = k0 + 100
        mut = (k0 * mu0 + xs.sum()) / kt
        batch_density = (-0.5 * tau * (xs * xs).sum()
                         + 0.5 * tau * (kt * mut**2 - k0 * mu0**2)
                         + 50.0 * math.log(tau / (2.0 * math.pi))
                         + 0.5 * math.log(k0 / kt))
        batch_ratio = 0.5 * tau * (kt * mut**2 - k0 * mu0**2) \
            + 0.5 * math.log(k0 / kt)
        err_density = abs(log_density - batch_density) \
            / max(1.0, abs(batch_density))
        err_ratio = abs(log_ratio - batch_ratio) \
            / max(1.0, abs(batch_ratio))
        worst = max(worst, err_density, err_ratio)
    ok = worst < 1e-10
    report_line("criterion 4: incremental vs batch belief updates", ok,
                f"worst relative error {worst:.2e} over 1000 sequences")
    assert ok


# ---------------------------------------------------------------------------
# 5. likelihood ratios average to one under the reference measure


def test_martingale_means():
    rng = np.random.default_rng(55)
    n = 100_000
    ok_all = True
    details = []
    for alpha, horizon in ((0.5, 0.5), (1.0, 1.0)):
        x_t = rng.normal(0.0, math.sqrt(horizon), size=n)
        lam = np.exp(alpha * x_t - 0.5 * alpha**2 * horizon)
        se = lam.std(ddof=1) / math.sqrt(n)
        dev = abs(lam.mean() - 1.0) / se
        ok_all &= dev < 3.0
        details.append(f"constant drift {alpha}/{horizon}: {dev:.2f} SE")
    mu0, k0, tau = 0.02, 3.0, 16.0
    t_steps = 25
    xs = rng.normal(0.0, 0.25, size=(n, t_steps))
    mu = np.full(n, mu0)
    for t in range(t_steps):
        mu = posterior_mean_step(mu, k0 + t, xs[:, t])
    kt = k0 + t_steps
    log_lam = 0.5 * tau * (kt * mu**2 - k0 * mu0**2) + 0.5 * math.log(k0 / kt)
    # one path's folded log density less the mean-zero reference density
    _, log_density = fold(xs[0], mu0, k0, tau)
    assert log_density - (-0.5 * tau * (xs[0] * xs[0]).sum()
                          + 0.5 * t_steps * math.log(tau / (2.0 * math.pi))) \
        == pytest.approx(float(log_lam[0]), rel=1e-12)
    lam = np.exp(log_lam)
    se = lam.std(ddof=1) / math.sqrt(n)
    dev = abs(lam.mean() - 1.0) / se
    ok_all &= dev < 3.0
    details.append(f"discrete learner: {dev:.2f} SE")
    report_line("criterion 5: martingale means", bool(ok_all),
                "; ".join(details))
    assert ok_all


# ---------------------------------------------------------------------------
# 6. clearing identities on every grid point


def test_equilibrium_identities():
    specs = [benchmark_market()]
    rng = np.random.default_rng(66)
    for _ in range(3):
        agents = tuple(AgentSpec(impatience=rng.uniform(0.02, 0.4),
                                 belief=ConstantDrift(rng.normal(0, 0.3)),
                                 weight=rng.uniform(0.2, 5.0))
                       for _ in range(4))
        specs.append(MarketSpec(sigma=rng.uniform(0.1, 0.5), agents=agents))
    worst = 0.0
    for i, spec in enumerate(specs):
        for seed in (1, 2):
            path = simulate_path(spec, 10.0, 1.0 / 252.0, seed)
            worst = max(
                worst,
                float(np.abs(path.consumption.sum(1) / path.dividend - 1).max()),
                float(np.abs(path.wealth.sum(1) / path.stock - 1).max()),
                float(np.abs(path.q.sum(1) - 1).max()),
                float(np.abs(path.holdings.sum(1) - 1).max()),
                float(np.abs(path.consumption
                             - path.wealth * np.array(
                                 [a.impatience for a in spec.agents])).max()
                      / path.consumption.max()),
            )
    # equal impatience: no trade diffusion, no PD volatility
    equal_rho = MarketSpec(sigma=0.3, agents=(
        AgentSpec(impatience=0.1, belief=ConstantDrift(0.3), weight=1.0),
        AgentSpec(impatience=0.1, belief=ConstantDrift(-0.2), weight=2.0)))
    path = simulate_path(equal_rho, 10.0, 1.0 / 252.0, 7)
    theta_gap = float(np.abs(path.trade.sum(1)).max())
    pd_vol = float(np.std(np.diff(np.log(path.stock / path.dividend))))
    ok = worst < 1e-12 and theta_gap < 1e-12 and pd_vol < 1e-13
    report_line("criterion 6: equilibrium identities", ok,
                f"worst identity gap {worst:.2e}, sum(theta) {theta_gap:.2e}, "
                f"PD log-vol {pd_vol:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 7. state-price dynamics: regression recovers -kappa


def test_zeta_dynamics_regression():
    ok_all = True
    details = []
    # single agent and homogeneous-beliefs pair: kappa is constant
    configs = [
        ("single agent", MarketSpec(sigma=0.3, drift_adjustment=0.02, agents=(
            AgentSpec(impatience=0.08, belief=ConstantDrift(0.15), weight=1.0),)),
         0.3 - 0.15),
        ("homogeneous pair", MarketSpec(sigma=0.25, agents=(
            AgentSpec(impatience=0.05, belief=ConstantDrift(0.1), weight=1.0),
            AgentSpec(impatience=0.2, belief=ConstantDrift(0.1), weight=3.0))),
         0.25 - 0.1),
    ]
    n_steps = 100_000
    dt = 1.0 / 252.0
    for label, spec, kappa in configs:
        path = simulate_path(spec, n_steps * dt, dt, seed=77)
        dlz = np.diff(np.log(path.zeta))
        dx = np.diff(path.x)
        slope, intercept = np.polyfit(dx, dlz, 1)
        resid = dlz - slope * dx - intercept
        se = math.sqrt(resid.var(ddof=2) / ((dx - dx.mean()) ** 2).sum())
        dev = abs(slope + kappa) / se if se > 0 else abs(slope + kappa) / 1e-15
        ok = dev < 3.0 or abs(slope + kappa) < 1e-10
        ok_all &= ok
        details.append(f"{label}: slope {slope:.6f} vs -kappa {-kappa:.6f}")
    report_line("criterion 7: state-price regression", bool(ok_all),
                "; ".join(details))
    assert ok_all


# ---------------------------------------------------------------------------
# 8. contest: residuals, oracle agreement, identity, flags, and welfare sweep


def test_beauty_contest_suite():
    rng = np.random.default_rng(88)
    worst_residual = 0.0
    worst_identity = 0.0
    worst_oracle = 0.0
    all_improve_count = 0
    flag_flips = 0
    for i in range(10_000):
        n = int(rng.integers(2, 7))
        spec = ContestSpec(risk_aversion=rng.uniform(0.2, 5.0, n),
                           mean_belief=rng.normal(0.0, 2.0, n),
                           belief_variance=rng.uniform(0.2, 5.0, n))
        p = clearing_weights(spec)
        faked = pareto_faked_equilibrium(spec)
        residual = np.abs(faked.professed - ((1 - p) * spec.mean_belief
                                             + p * faked.price)).max()
        worst_residual = max(worst_residual, float(residual))
        rep = welfare_comparison(spec)
        worst_identity = max(worst_identity, abs(identity_gap(spec, rep)))
        all_improve_count += int(rep.all_improved)
        lhs, rhs = gain_sides(spec, rep)
        flag_flips += int((rep.improved != (lhs < rhs)).sum()) \
            + int(rep.all_worse != bool((lhs > rhs).all()))
        if i < 50:
            j = int(rng.integers(n))
            professed = spec.mean_belief + rng.normal(0, 0.5, n)

            def negated(a_j):
                trial = professed.copy()
                trial[j] = a_j
                price = float(p @ trial)
                u = a_j - price
                return -(u * (spec.mean_belief[j] - a_j) + 0.5 * u * u)

            closed = best_response(spec, professed, j)
            x0 = closed + 0.37  # start away from the solution
            h = 1e-3 * (1.0 + abs(x0))
            f_lo, f_mid, f_hi = negated(x0 - h), negated(x0), negated(x0 + h)
            vertex = x0 + 0.5 * h * (f_lo - f_hi) / (f_lo - 2 * f_mid + f_hi)
            worst_oracle = max(worst_oracle, abs(closed - vertex))
    frozen = ContestSpec(risk_aversion=np.array([1.0, 1.0]),
                         mean_belief=np.array([0.0, 1.0]),
                         belief_variance=np.array([1.0, 1.0]))
    frozen_report = welfare_comparison(frozen)
    ok = (worst_residual < 1e-12 and worst_identity < 1e-12
          and worst_oracle < 1e-8 and all_improve_count == 0
          and flag_flips == 0 and frozen_report.all_worse)
    report_line(
        "criterion 8: contest suite", ok,
        f"residual {worst_residual:.1e}, identity {worst_identity:.1e}, "
        f"oracle gap {worst_oracle:.1e}, all-improve events "
        f"{all_improve_count}/10000, flags against the inequality "
        f"{flag_flips}, frozen all-worse fixture "
        f"{frozen_report.all_worse}")
    assert ok


# ---------------------------------------------------------------------------
# 9. general clearing solver against the log closed form


def test_market_clearing_solver():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        rho = rng.uniform(0.01, 0.5, n)
        nu = rng.uniform(0.05, 10.0, n)
        lam = np.exp(rng.normal(0.0, 2.0, n))
        delta = rng.uniform(0.1, 10.0)
        t = rng.uniform(0.0, 50.0)
        inverses = [(lambda r: lambda s, y: math.exp(-r * s) / y)(r)
                    for r in rho]
        zeta = solve_market_clearing(inverses, lam, nu, delta, t)
        closed = float(np.sum(np.exp(-rho * t) * lam / nu) / delta)
        worst = max(worst, abs(zeta - closed) / closed)
    ok = worst < 1e-12
    report_line("criterion 9: clearing solver vs closed form", ok,
                f"worst relative error {worst:.2e} over 1000 states")
    assert ok


# ---------------------------------------------------------------------------
# 10. manifests replay byte for byte


def test_manifest_reproducibility(tmp_path):
    configs = {
        "simulate-log": {
            "market": {"sigma": 0.3, "agents": [
                {"impatience": 0.05, "weight": 1.0,
                 "belief": {"type": "constant", "drift": 0.1}},
                {"impatience": 0.2, "weight": 2.0,
                 "belief": {"type": "bayesian", "prior_mean": 0.0,
                            "prior_precision": 2.0}}]},
            "horizon_years": 1.0, "dt": 1.0 / 52.0, "n_paths": 2, "seed": 4},
        "feedback": {"n_agents": 5, "n_diligent": 2, "n_steps": 76, "seed": 2},
        "beauty": {"agents": [
            {"risk_aversion": 1.0, "mean_belief": 0.2, "belief_variance": 1.0},
            {"risk_aversion": 2.0, "mean_belief": -0.4, "belief_variance": 0.5}],
            "csv": True},
        "fit": {"n_agents": 1,
                "free": [{"name": "sigma", "lower": 0.1, "upper": 0.5,
                          "start": 0.2}],
                "fixed": {"alpha_0": 0.0, "rho_0": 0.05},
                "n_paths": 2, "horizon_years": 1.0, "dt": 0.05, "seed": 1,
                "max_iterations": 5},
        "ingest": {"csv": str(Path(__file__).resolve().parents[1]
                              / "configs" / "sample_price_dividend.csv")},
    }
    ok_all = True
    details = []
    for sub, cfg in configs.items():
        cfg_path = tmp_path / f"{sub}.json"
        cfg_path.write_text(json.dumps(cfg))
        out_a = tmp_path / f"{sub}_a"
        out_b = tmp_path / f"{sub}_b"
        assert main([sub, "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main([sub, "--config", str(out_a / "manifest.json"),
                     "--out", str(out_b)]) == 0
        tree_a = {p.relative_to(out_a).as_posix(): p.read_bytes()
                  for p in sorted(out_a.rglob("*")) if p.is_file()}
        tree_b = {p.relative_to(out_b).as_posix(): p.read_bytes()
                  for p in sorted(out_b.rglob("*")) if p.is_file()}
        same = tree_a == tree_b
        ok_all &= same
        details.append(f"{sub}: {'identical' if same else 'DIFFERS'}")
    report_line("criterion 10: manifest reproducibility", bool(ok_all),
                "; ".join(details))
    assert ok_all
