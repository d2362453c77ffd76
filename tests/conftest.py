import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from beliefmkt import equilibrium, numerics
from beliefmkt.beliefs import BayesianGaussian, ConstantDrift
from beliefmkt.equilibrium import AgentSpec, MarketSpec
from beliefmkt.errors import step_count

# The three-agent benchmark calibration used throughout: a fitted
# configuration for long-sample US price/dividend data.
BENCHMARK_SIGMA = 0.517
BENCHMARK_ALPHA_STAR = -0.01
BENCHMARK_ALPHAS = (0.210, 0.727, -0.05)
BENCHMARK_RHOS = (0.131, 0.01, 0.443)
BENCHMARK_NUS = (14.47, 1.00, 0.174)


def benchmark_market() -> MarketSpec:
    agents = tuple(
        AgentSpec(impatience=r, belief=ConstantDrift(a), weight=n)
        for a, r, n in zip(BENCHMARK_ALPHAS, BENCHMARK_RHOS, BENCHMARK_NUS)
    )
    return MarketSpec(sigma=BENCHMARK_SIGMA,
                      drift_adjustment=BENCHMARK_ALPHA_STAR, agents=agents)


def learner_market() -> MarketSpec:
    """benchmark3 with its third agent a gaussian learner."""
    spec = benchmark_market()
    third = replace(spec.agents[2], belief=BayesianGaussian(-0.05, 2.0))
    return replace(spec, agents=spec.agents[:2] + (third,))


def driver_path(spec, horizon, dt, seed, path_index=0):
    """(times, X, delta) of one path, drawn as simulate_path draws them."""
    times, x = equilibrium._drivers(step_count(horizon, dt, "horizon"), dt,
                                    seed, (path_index,))
    return times, x[0], np.exp(equilibrium.log_dividend_path(spec, times,
                                                             x[0]))


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, running or not."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped (pid {pid or '?'})")


@pytest.fixture
def forks(monkeypatch):
    """Patches the usable CPU count through ``forks.cpus`` and counts the
    forks that ``numerics.fork_map`` makes."""
    real_fork = os.fork
    counter = SimpleNamespace(count=0)

    def fork():
        counter.count += 1
        return real_fork()

    def cpus(n):
        monkeypatch.setattr(numerics, "_usable_cpus", lambda: n)

    monkeypatch.setattr(os, "fork", fork)
    counter.cpus = cpus
    return counter


def no_fork():
    """Patched in for ``os.fork`` where nothing may fork."""
    raise AssertionError("os.fork called")


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def assert_same_text(got: str, want: str):
    """Exact equality of two texts, reported at the first line that differs
    (pytest's own diff of two long strings takes minutes)."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        assert a == b, f"line {i}"
    assert len(got_lines) == len(want_lines)
