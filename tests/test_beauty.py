import math
import warnings
from typing import Dict, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from beliefmkt.beauty import (ContestSpec, _equilibrium, clearing_weights,
                              format_solution, pareto_faked_equilibrium,
                              truthful_equilibrium, welfare_comparison)
from beliefmkt.errors import ConfigError, SaturationError


def spec_from(gammas, alphas, variances):
    return ContestSpec(risk_aversion=np.asarray(gammas, dtype=float),
                       mean_belief=np.asarray(alphas, dtype=float),
                       belief_variance=np.asarray(variances, dtype=float))


def random_spec(rng, n=None):
    n = n or rng.integers(2, 7)
    return spec_from(rng.uniform(0.2, 5.0, n), rng.normal(0.0, 2.0, n),
                     rng.uniform(0.2, 5.0, n))


def identity_gap(spec, report):
    """Residual of the q-weighted variance identity
        sum q_j (alpha_j - S)^2 = sum q_j (alpha_j - F)^2 + (S - F)^2,
    q_j prop. to p_j(1-p_j), with S, F the truthful/faked prices."""
    a, s, f = spec.mean_belief, report.truthful.price, report.faked.price
    p = report.truthful.weights
    q = p * (1.0 - p)
    q = q / q.sum()
    return float(q @ (a - s) ** 2 - q @ (a - f) ** 2 - (s - f) ** 2)


def gain_sides(spec, report):
    """Both sides of the hand-derived rule: agent j strictly improves iff
        (alpha_j - S)^2 < (a_j - F)^2 + 2 (a_j - F)(alpha_j - a_j),
    a_j its faked mean; each side is 2 v_j times one of its exponents."""
    a, faked = spec.mean_belief, report.faked
    lhs = (a - report.truthful.price) ** 2
    rhs = (faked.professed - faked.price) ** 2 \
        + 2.0 * (faked.professed - faked.price) * (a - faked.professed)
    return lhs, rhs


def assert_flags_follow_the_inequality(spec, report):
    lhs, rhs = gain_sides(spec, report)
    np.testing.assert_array_equal(report.improved, lhs < rhs)
    assert report.all_worse == bool((lhs > rhs).all())


# ---------------------------------------------------------------------------
# oracles: unilateral deviations from a professed profile


def best_response(spec: ContestSpec, professed: np.ndarray, j: int) -> float:
    """Agent j's optimal professed mean holding the others fixed.

    Maximizes (a_j - F)(alpha_j - a_j) + (a_j - F)^2 / 2 over a_j, where
    F = sum_i p_i a_i moves with a_j.  Strictly concave, so the first-order
    condition a_j = [(1-p_j) alpha_j + p_j sum_{i != j} p_i a_i] / (1-p_j^2)
    is the maximizer.
    """
    p = clearing_weights(spec)
    others = float(p @ professed - p[j] * professed[j])
    return ((1.0 - p[j]) * spec.mean_belief[j] + p[j] * others) \
        / (1.0 - p[j] ** 2)


def deviation_gains(spec: ContestSpec,
                    faking: Sequence[int]) -> Dict[int, float]:
    """Gain available to each truthful agent, given that the agents in
    ``faking`` play the Pareto profile values and everyone else is truthful.

    For each agent outside ``faking``, reports the objective improvement
    from unilaterally switching to the best response.
    """
    faking = set(faking)
    pareto = pareto_faked_equilibrium(spec)
    p = clearing_weights(spec)
    professed = spec.mean_belief.copy()
    for j in faking:
        professed[j] = pareto.professed[j]
    gains = {}
    for j in range(spec.n_agents):
        if j in faking:
            continue
        price = float(p @ professed)
        base_obj = _equilibrium(spec, p, price, professed).objectives
        trial = professed.copy()
        trial[j] = best_response(spec, professed, j)
        trial_price = float(p @ trial)
        trial_obj = _equilibrium(spec, p, trial_price, trial).objectives
        gains[j] = float(trial_obj[j] - base_obj[j])
    return gains


# ---------------------------------------------------------------------------
# validation


def test_spec_validation():
    with pytest.raises(ConfigError):
        spec_from([1.0], [0.0], [1.0])  # single agent is degenerate
    with pytest.raises(ConfigError):
        spec_from([1.0, -1.0], [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ConfigError):
        spec_from([1.0, 1.0], [0.0, 1.0], [1.0, 0.0])


@pytest.mark.parametrize("field", ["risk_aversion", "mean_belief",
                                   "belief_variance"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_spec_rejects_non_finite_numbers(field, bad):
    numbers = {"risk_aversion": [1.0, 1.0], "mean_belief": [0.0, 1.0],
               "belief_variance": [1.0, 1.0]}
    numbers[field][0] = bad
    with pytest.raises(ConfigError, match=f"^{field} must be finite$"):
        ContestSpec(**numbers)


# ---------------------------------------------------------------------------
# truthful equilibrium


def test_identical_agents_do_not_trade():
    spec = spec_from([2.0, 2.0, 2.0], [0.7, 0.7, 0.7], [1.5, 1.5, 1.5])
    eq = truthful_equilibrium(spec)
    assert eq.price == pytest.approx(0.7)
    np.testing.assert_allclose(eq.holdings, 0.0, atol=1e-16)
    np.testing.assert_allclose(eq.objectives, -1.0 / 2.0, rtol=1e-14)


def test_two_agent_hand_arithmetic():
    spec = spec_from([1.0, 1.0], [0.0, 1.0], [1.0, 1.0])
    eq = truthful_equilibrium(spec)
    np.testing.assert_allclose(eq.weights, [0.5, 0.5])
    assert eq.price == pytest.approx(0.5)
    np.testing.assert_allclose(eq.holdings, [-0.5, 0.5], rtol=1e-14)
    assert eq.holdings.sum() == pytest.approx(0.0, abs=1e-15)


def test_variance_scaling_leaves_price_unchanged():
    spec = spec_from([1.0, 2.0, 0.5], [0.1, -0.4, 1.2], [1.0, 0.7, 2.0])
    scaled = spec_from([1.0, 2.0, 0.5], [0.1, -0.4, 1.2],
                       [3.0, 2.1, 6.0])
    np.testing.assert_allclose(clearing_weights(spec),
                               clearing_weights(scaled), rtol=1e-14)
    assert truthful_equilibrium(spec).price == pytest.approx(
        truthful_equilibrium(scaled).price, rel=1e-14)


_SUM = "clearing weights not finite: the sum of " \
    "1/(risk_aversion * belief_variance) is "


@pytest.mark.parametrize("gammas, alphas, variances, message", [
    # gamma v underflows to 0
    pytest.param([1e-200, 1.0], [0.0, 1.0], [1e-200, 1.0],
                 f"agent 0: {_SUM}inf", id="gammas0-variances0-0-inf"),
    # 1/(gamma v) overflows
    pytest.param([1.0, 1.0], [0.0, 1.0], [1e-320, 1.0],
                 f"agent 0: {_SUM}inf", id="gammas1-variances1-0-inf"),
    # the sum overflows
    pytest.param([1.0, 1.0], [0.0, 1.0], [1e-308, 1e-308],
                 f"agent 1: {_SUM}inf", id="gammas2-variances2-1-inf"),
    # every term is 0
    pytest.param([1e200, 1e200], [0.0, 1.0], [1e200, 1e200],
                 f"agent 0: {_SUM}0.0", id="gammas3-variances3-0-0.0"),
    # gamma v overflows for one agent, whose weight is 0
    pytest.param([1e200, 1.0], [0.0, 1.0], [1e200, 1.0],
                 "agent 0: clearing weight is 0: its 1/(risk_aversion * "
                 "belief_variance) is 0.0 of a sum of 1.0",
                 id="weight-0-product-overflows"),
    # one agent's share of the sum underflows
    pytest.param([1e-150, 1e20], [0.0, 1.0], [1e-150, 1e20],
                 "agent 1: clearing weight is 0: its 1/(risk_aversion * "
                 "belief_variance) is 1e-40 of a sum of "
                 "9.999999999999999e+299", id="weight-0-share-underflows"),
    # (alpha_j - price)^2 overflows in the truthful objective
    pytest.param([1.0, 1.0], [-1e200, 1e200], [1.0, 1.0],
                 "agent 0: objective or holding not finite: exponent inf, "
                 "objective -0.0, holding -1e+200", id="exponent-overflows"),
    # a holding overflows
    pytest.param([1e-300, 1e-300], [-1e10, 1e10], [1.0, 1.0],
                 "agent 0: objective or holding not finite: exponent 5e+19, "
                 "objective -0.0, holding -inf", id="holding-overflows"),
    # an objective overflows
    pytest.param([1e-310, 1e-310], [0.0, 1.0], [1e10, 1e10],
                 "agent 0: objective or holding not finite: exponent "
                 "1.25e-11, objective -inf, holding -5.000000000000016e+299",
                 id="objective-overflows")])
def test_clearing_weights_that_are_not_finite_raise(gammas, alphas,
                                                    variances, message):
    # each contest passes ContestSpec, but its normalized weights would be
    # NaN or 0, or an objective's exponent would not be finite: an error
    # naming the first agent at fault, and no warning
    spec = spec_from(gammas, alphas, variances)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SaturationError) as err:
            welfare_comparison(spec)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# professed-beliefs equilibrium


def test_identical_agents_have_nothing_to_fake():
    spec = spec_from([1.0, 1.0], [0.3, 0.3], [2.0, 2.0])
    faked = pareto_faked_equilibrium(spec)
    assert faked.price == pytest.approx(0.3)
    np.testing.assert_allclose(faked.professed, 0.3, rtol=1e-14)


def test_two_agent_faked_hand_arithmetic():
    spec = spec_from([1.0, 1.0], [0.0, 1.0], [1.0, 1.0])
    faked = pareto_faked_equilibrium(spec)
    assert faked.price == pytest.approx(0.5)
    np.testing.assert_allclose(faked.professed, [0.25, 0.75], rtol=1e-14)
    assert faked.holdings.sum() == pytest.approx(0.0, abs=1e-15)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_fixed_point_residual(seed):
    spec = random_spec(np.random.default_rng(seed))
    faked = pareto_faked_equilibrium(spec)
    p = clearing_weights(spec)
    residual = faked.professed - ((1.0 - p) * spec.mean_belief
                                  + p * faked.price)
    assert np.abs(residual).max() < 1e-12
    # the professed means must clear at the reported price
    assert float(p @ faked.professed) == pytest.approx(faked.price, rel=1e-12)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_best_response_matches_numeric_maximizer(seed):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng)
    p = clearing_weights(spec)
    professed = spec.mean_belief + rng.normal(0.0, 0.5, spec.n_agents)
    j = int(rng.integers(spec.n_agents))

    def negated(a_j):
        trial = professed.copy()
        trial[j] = a_j
        price = float(p @ trial)
        u = a_j - price
        return -(u * (spec.mean_belief[j] - a_j) + 0.5 * u * u)

    closed = best_response(spec, professed, j)
    span = 10.0 * (1.0 + np.abs(spec.mean_belief).max())
    numeric = minimize_scalar(negated, bounds=(-span, span), method="bounded",
                              options={"xatol": 1e-12})
    # bounded search stalls at sqrt(eps) on a flat quadratic; finish with a
    # parabolic-vertex step, which is exact for this objective
    x0 = numeric.x
    h = 1e-3 * (1.0 + abs(x0))
    f_lo, f_mid, f_hi = negated(x0 - h), negated(x0), negated(x0 + h)
    vertex = x0 + 0.5 * h * (f_lo - f_hi) / (f_lo - 2.0 * f_mid + f_hi)
    assert closed == pytest.approx(vertex, abs=1e-8)


def test_pareto_profile_is_mutual_best_response():
    spec = spec_from([1.0, 2.0, 0.7], [0.3, -0.8, 1.1], [1.4, 0.6, 2.2])
    faked = pareto_faked_equilibrium(spec)
    for j in range(spec.n_agents):
        assert best_response(spec, faked.professed, j) == pytest.approx(
            faked.professed[j], abs=1e-12)


# ---------------------------------------------------------------------------
# welfare


def test_identical_agents_show_no_strict_improvement():
    spec = spec_from([1.0, 1.0], [0.5, 0.5], [1.0, 1.0])
    report = welfare_comparison(spec)
    assert not report.improved.any()
    assert not report.all_worse  # ties, not strict losses


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_never_all_agents_improve(seed):
    spec = random_spec(np.random.default_rng(seed))
    report = welfare_comparison(spec)
    assert not report.all_improved
    assert abs(identity_gap(spec, report)) < 1e-12
    assert_flags_follow_the_inequality(spec, report)


def test_everyone_strictly_worse_fixture():
    # two agents with equal gamma*v: p = (1/2, 1/2) forces the faked price
    # onto the truthful one while halving each deviation, so both exponents
    # shrink by the factor 3/4 and both agents strictly lose
    spec = spec_from([1.0, 1.0], [0.0, 1.0], [1.0, 1.0])
    report = welfare_comparison(spec)
    assert report.all_worse
    assert_flags_follow_the_inequality(spec, report)
    truthful = truthful_equilibrium(spec)
    faked = pareto_faked_equilibrium(spec)
    assert np.all(faked.objectives < truthful.objectives)


def test_everyone_worse_where_the_objectives_underflow():
    # the fixture above with beliefs 100 apart: exponents 1250 (truthful)
    # and 937.5 (faked), so every objective rounds to -0.0, yet both agents
    # still strictly lose
    spec = spec_from([1.0, 1.0], [0.0, 100.0], [1.0, 1.0])
    report = welfare_comparison(spec)
    assert not report.truthful.objectives.any()
    assert not report.faked.objectives.any()
    np.testing.assert_array_equal(report.truthful.exponents, [1250.0, 1250.0])
    np.testing.assert_array_equal(report.faked.exponents, [937.5, 937.5])
    assert report.all_worse
    assert not report.improved.any()
    assert_flags_follow_the_inequality(spec, report)


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_translation_equivariance(seed, shift):
    spec = random_spec(np.random.default_rng(seed))
    moved = spec_from(spec.risk_aversion, spec.mean_belief + shift,
                      spec.belief_variance)
    base_t, base_f = truthful_equilibrium(spec), pareto_faked_equilibrium(spec)
    move_t, move_f = truthful_equilibrium(moved), pareto_faked_equilibrium(moved)
    assert move_t.price == pytest.approx(base_t.price + shift, rel=1e-10, abs=1e-10)
    assert move_f.price == pytest.approx(base_f.price + shift, rel=1e-10, abs=1e-10)
    np.testing.assert_allclose(move_f.professed, base_f.professed + shift,
                               rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(move_t.holdings, base_t.holdings,
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(move_t.objectives, base_t.objectives,
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(move_f.objectives, base_f.objectives,
                               rtol=1e-9, atol=1e-12)


def test_objectives_match_direct_expectation_formula():
    # spot check the faked objective against the definition
    spec = spec_from([2.0, 0.5], [0.4, -0.6], [1.1, 0.9])
    faked = pareto_faked_equilibrium(spec)
    g, a, v = spec.risk_aversion, spec.mean_belief, spec.belief_variance
    theta = faked.holdings
    expected = -np.exp(-g * theta * (a - faked.professed)
                       - (faked.professed - faked.price) ** 2 / (2.0 * v)) / g
    np.testing.assert_allclose(faked.objectives, expected, rtol=1e-13)


def test_truthful_deviation_is_always_tempting():
    # with a strict subset faking, every truthful agent has a profitable
    # unilateral deviation on sampled specs
    rng = np.random.default_rng(12)
    for _ in range(25):
        spec = random_spec(rng, n=4)
        gains = deviation_gains(spec, faking=[0, 1])
        assert set(gains) == {2, 3}
        assert all(g > -1e-15 for g in gains.values())
        assert any(g > 1e-12 for g in gains.values())


def test_format_solution_mentions_all_agents():
    spec = spec_from([1.0, 1.0], [0.0, 1.0], [1.0, 1.0])
    text = format_solution(spec, welfare_comparison(spec))
    assert "truthful price 0.5" in text
    assert text.count("\n") >= 4


def test_welfare_report_holds_both_equilibria():
    # one welfare pass gives the equilibria that the contest output prints
    rng = np.random.default_rng(21)
    for _ in range(20):
        spec = random_spec(rng)
        report = welfare_comparison(spec)
        for got, want in ((report.truthful, truthful_equilibrium(spec)),
                          (report.faked, pareto_faked_equilibrium(spec))):
            assert got.price == want.price
            for name in ("weights", "professed", "holdings", "objectives"):
                assert getattr(got, name).tobytes() == \
                    getattr(want, name).tobytes()
