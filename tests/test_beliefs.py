import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from beliefmkt.beliefs import (BayesianGaussian, ConstantDrift,
                               bayesian_log_ratio_closed_form, drift_at,
                               drift_slope, log_density_increment,
                               posterior_mean_step)
from beliefmkt.errors import ConfigError

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# independent oracles


def batch_log_density(xs, mu0, k0, tau):
    """Joint log density of the observations, evaluated from the batch
    formula instead of the incremental update."""
    xs = np.asarray(xs, dtype=float)
    t = len(xs)
    kt = k0 + t
    mut = (k0 * mu0 + xs.sum()) / kt
    return (-0.5 * tau * (xs * xs).sum()
            + 0.5 * tau * (kt * mut * mut - k0 * mu0 * mu0)
            + 0.5 * t * math.log(tau / TWO_PI)
            + 0.5 * math.log(k0 / kt))


def batch_log_ratio(xs, mu0, k0, tau):
    """Likelihood ratio against the mean-zero reference, batch form."""
    xs = np.asarray(xs, dtype=float)
    t = len(xs)
    kt = k0 + t
    mut = (k0 * mu0 + xs.sum()) / kt
    return 0.5 * tau * (kt * mut * mut - k0 * mu0 * mu0) + 0.5 * math.log(k0 / kt)


def quadrature_joint_density(xs, mu0, k0, tau):
    """Joint density by integrating the gaussian likelihood against the
    prior on the unknown mean with adaptive quadrature."""
    prior_sd = 1.0 / math.sqrt(k0 * tau)

    def integrand(mu):
        like = np.prod([math.sqrt(tau / TWO_PI)
                        * math.exp(-0.5 * tau * (x - mu) ** 2) for x in xs])
        prior = math.exp(-0.5 * (mu - mu0) ** 2 / prior_sd**2) \
            / (prior_sd * math.sqrt(TWO_PI))
        return like * prior

    value, _ = quad(integrand, mu0 - 12 * prior_sd, mu0 + 12 * prior_sd,
                    limit=200)
    return value


def fold(xs, mu0, k0, tau):
    """(posterior mean, accumulated log density) of a learner with prior
    N(mu0, 1/(k0 tau)) after the observations xs, taken one step of the
    first axis at a time through the feedback engine's two kernels; a
    (steps, paths) array folds every path at once."""
    mean, log_density = mu0, 0.0
    for t, x in enumerate(xs):
        k = k0 + t
        log_density = log_density + log_density_increment(mean, k, tau, x)
        mean = posterior_mean_step(mean, k, x)
    return mean, log_density


# ---------------------------------------------------------------------------
# continuous-time drift


def test_constant_drift_is_unconditional():
    belief = ConstantDrift(0.21)
    assert drift_at(belief, 0.0, 0.0) == 0.21
    assert drift_at(belief, 7.3, -4.0) == 0.21


def test_bayesian_prior_mean_at_time_zero():
    assert drift_at(BayesianGaussian(0.0, 1.0), 0.0, 0.0) == 0.0


def test_bayesian_drift_hand_value():
    # (0.5 + 0.1 * 2) / (2 + 3) = 0.14
    assert drift_at(BayesianGaussian(0.1, 2.0), 3.0, 0.5) == pytest.approx(0.14, abs=1e-15)


def test_bayesian_drift_matches_posterior_quadrature():
    # posterior mean of the drift b given Y_t = x with prior N(beta, 1/eps):
    # integrate b against exp(-eps (b-beta)^2 / 2) * exp(-(x - b t)^2 / (2 t))
    beta, eps, t, x = 0.07, 1.7, 4.2, 1.3

    def weight(b):
        return math.exp(-0.5 * eps * (b - beta) ** 2
                        - 0.5 * (x - b * t) ** 2 / t)

    num, _ = quad(lambda b: b * weight(b), -20, 20, limit=200)
    den, _ = quad(weight, -20, 20, limit=200)
    assert drift_at(BayesianGaussian(beta, eps), t, x) == pytest.approx(num / den, rel=1e-9)


@pytest.mark.parametrize("belief", [ConstantDrift(0.21),
                                    BayesianGaussian(0.1, 2.0),
                                    BayesianGaussian(-0.05, 0.3)])
def test_drift_slope_is_the_drift_derivative_in_x(belief):
    t = np.array([0.0, 0.5, 3.0, 40.0])
    x = np.array([0.0, -1.2, 0.7, 9.0])
    slope = drift_slope(belief, t)
    assert slope.shape == t.shape
    h = 1e-3  # drift_at is affine in x, so the difference is exact to rounding
    np.testing.assert_allclose(
        slope, (drift_at(belief, t, x + h) - drift_at(belief, t, x - h))
        / (2 * h), rtol=0, atol=1e-12)
    assert drift_slope(belief, 3.0) == slope[2]


def test_bayesian_drift_consistency():
    # observing Y_t = X_t + b t long enough pins the posterior mean down:
    # median error at t = 1e4 must be far below the t = 1e2 value
    rng = np.random.default_rng(3)
    b = 0.04
    belief = BayesianGaussian(prior_mean=-0.1, prior_precision=2.0)
    errors = {}
    for t in (1e2, 1e4):
        x_t = rng.normal(0.0, math.sqrt(t), size=400) + b * t
        errors[t] = np.median(np.abs(drift_at(belief, t, x_t) - b))
    assert errors[1e4] < 0.25 * errors[1e2]


def test_prior_precision_must_be_positive():
    with pytest.raises(ConfigError):
        BayesianGaussian(0.0, 0.0)


@pytest.mark.parametrize("make, field", [
    (lambda: BayesianGaussian(0.0, math.nan), "prior_precision"),
])
def test_belief_rejects_nan_naming_the_field(make, field):
    with pytest.raises(ConfigError, match=f"^{field} must be > 0$"):
        make()


# ---------------------------------------------------------------------------
# continuous-time likelihood ratio


def test_bayesian_sde_matches_closed_form_as_dt_shrinks():
    belief = BayesianGaussian(prior_mean=0.1, prior_precision=1.5)
    rng = np.random.default_rng(11)
    n_fine = 4096
    horizon = 1.0
    dw = rng.normal(0.0, math.sqrt(horizon / n_fine), size=n_fine)
    x_fine = np.concatenate([[0.0], np.cumsum(dw)])
    errors = []
    for factor in (16, 4, 1):
        x = x_fine[::factor]
        dt = horizon * factor / n_fine
        t = np.arange(len(x)) * dt
        log_lam = 0.0
        for i in range(len(x) - 1):
            alpha = drift_at(belief, t[i], x[i])
            # Euler step of d log Lambda = alpha dX - alpha^2 dt / 2
            log_lam += alpha * (x[i + 1] - x[i]) - 0.5 * alpha * alpha * dt
        target = bayesian_log_ratio_closed_form(belief, horizon, x_fine[-1])
        errors.append(abs(log_lam - target))
    assert errors[2] < errors[0]
    assert errors[2] < 5e-3


def test_continuous_martingale_mean_constant_drift(rng):
    # exact form: mean of exp(alpha X_T - alpha^2 T / 2) over reference draws
    alpha, horizon, n = 0.8, 1.0, 30_000
    x_t = rng.normal(0.0, math.sqrt(horizon), size=n)
    lam = np.exp(alpha * x_t - 0.5 * alpha**2 * horizon)
    se = lam.std(ddof=1) / math.sqrt(n)
    assert abs(lam.mean() - 1.0) < 3.0 * se


# ---------------------------------------------------------------------------
# discrete updating


def test_update_zero_surprise_keeps_mean():
    mean, _ = fold([0.5], 0.5, 1.0, 1.0)
    assert mean == 0.5


def test_update_zero_observation_log_density():
    tau = 2.7
    mean, log_density = fold([0.0], 0.0, 1.0, tau)
    assert mean == 0.0
    expected = 0.5 * (math.log(0.5) + math.log(tau / TWO_PI))
    assert log_density == pytest.approx(expected, rel=1e-14)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_incremental_matches_batch_density(seed):
    rng = np.random.default_rng(seed)
    mu0, k0, tau = (rng.normal(0, 0.1), rng.uniform(0.5, 30.0),
                    rng.uniform(0.2, 50.0))
    xs = rng.normal(0.0, 1.0 / math.sqrt(tau), size=100)
    _, log_density = fold(xs, mu0, k0, tau)
    batch = batch_log_density(xs, mu0, k0, tau)
    assert abs(log_density - batch) <= 1e-10 * max(1.0, abs(batch))
    # against the mean-zero reference density of the same precision
    ratio = log_density - (-0.5 * tau * (xs * xs).sum()
                           + 0.5 * len(xs) * math.log(tau / TWO_PI))
    batch_ratio = batch_log_ratio(xs, mu0, k0, tau)
    assert abs(ratio - batch_ratio) <= 1e-10 * max(1.0, abs(batch_ratio))


def test_log_density_matches_quadrature_oracle():
    prior = (0.3, 2.0, 4.0)
    xs = [0.1, -0.4, 0.8, 0.25]
    _, log_density = fold(xs, *prior)
    oracle = quadrature_joint_density(xs, *prior)
    assert log_density == pytest.approx(math.log(oracle), rel=1e-9)


def test_likelihood_ratio_one_step_hand_value():
    # mu0 = 0, K0 = 1, one observation x: the posterior mean is x/2 and
    # Lambda_1 = exp(tau (x/2)^2 * 2 / 2) * sqrt(1/2)
    tau, x = 1.8, 0.9
    mean, log_density = fold([x], 0.0, 1.0, tau)
    assert mean == x / 2.0
    expected = math.exp(0.5 * tau * 2.0 * (x / 2.0) ** 2) * math.sqrt(0.5)
    # the density ratio lambda_t / lambda0_t against the mean-zero reference
    ref_log_density = -0.5 * tau * x * x + 0.5 * math.log(tau / TWO_PI)
    log_ratio = log_density - ref_log_density
    assert math.exp(log_ratio) == pytest.approx(expected, rel=1e-13)
    assert log_ratio == pytest.approx(math.log(expected), rel=1e-13)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_likelihood_ratio_order_invariant(seed):
    rng = np.random.default_rng(seed)
    tau = 5.0
    xs = rng.normal(0.0, 0.4, size=12)

    def log_ratio(order):
        _, log_density = fold(order, 0.05, 2.0, tau)
        return log_density - (-0.5 * tau * (order * order).sum()
                              + 0.5 * len(order) * math.log(tau / TWO_PI))

    assert log_ratio(xs) == pytest.approx(log_ratio(xs[::-1]), rel=1e-12,
                                          abs=1e-12)


def test_discrete_martingale_mean(rng):
    # E[Lambda_T] = 1 under the reference measure (mean zero, precision tau).
    # A prior weight of 40 keeps Lambda's spread small (a standard error of
    # about 0.015), so a density off by a constant factor fails the test
    tau, t_steps, n_paths = 4.0, 15, 20_000
    xs = rng.normal(0.0, 1.0 / math.sqrt(tau), size=(n_paths, t_steps))
    _, log_density = fold(xs.T, 0.1, 40.0, tau)
    lam = np.exp(log_density - (-0.5 * tau * (xs * xs).sum(axis=1)
                                + 0.5 * t_steps * math.log(tau / TWO_PI)))
    se = lam.std(ddof=1) / math.sqrt(n_paths)
    assert abs(lam.mean() - 1.0) < 3.0 * se


def test_log_density_increment_vectorizes():
    means = np.array([0.0, 0.1, -0.2])
    out = log_density_increment(means, 2.0, 3.0, 0.05)
    scalar = [log_density_increment(m, 2.0, 3.0, 0.05) for m in means]
    np.testing.assert_allclose(out, scalar, rtol=1e-15)
