"""One-period CARA market where agents may profess beliefs they don't hold.

J agents trade a single risky asset in zero net supply whose payoff agent
j truly believes is N(alpha_j, v_j); agent j has CARA utility with risk
aversion gamma_j.  Demands are linear, so the market-clearing price is the
p-weighted average of professed means with p_j proportional to
1/(gamma_j v_j).  If every agent may misstate their mean, the Nash
equilibrium of that professing game, where each stated mean is its
agent's best response to the others', shifts each stated mean part way
toward the resulting price; the closed forms are below.  Professing is
individually tempting yet collectively harmful: it is never the case that
every agent gains, and parameter sets exist where every agent strictly
loses, so that truthful reporting Pareto-dominates the equilibrium.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SaturationError


@dataclass(frozen=True)
class ContestSpec:
    """Per-agent risk aversion, true mean belief, and believed variance."""

    risk_aversion: np.ndarray
    mean_belief: np.ndarray
    belief_variance: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.risk_aversion, dtype=float))
        a = np.atleast_1d(np.asarray(self.mean_belief, dtype=float))
        v = np.atleast_1d(np.asarray(self.belief_variance, dtype=float))
        if not (g.shape == a.shape == v.shape) or g.ndim != 1:
            raise ConfigError("risk_aversion, mean_belief, belief_variance "
                              "must be 1-d arrays of equal length")
        for name, x in (("risk_aversion", g), ("mean_belief", a),
                        ("belief_variance", v)):
            if not np.all(np.isfinite(x)):
                raise ConfigError(f"{name} must be finite")
        if len(g) < 2:
            raise ConfigError("need at least 2 agents")
        if not np.all(g > 0.0):
            raise ConfigError("risk_aversion must be > 0")
        if not np.all(v > 0.0):
            raise ConfigError("belief_variance must be > 0")
        object.__setattr__(self, "risk_aversion", g)
        object.__setattr__(self, "mean_belief", a)
        object.__setattr__(self, "belief_variance", v)

    @property
    def n_agents(self):
        return len(self.risk_aversion)


def clearing_weights(spec: ContestSpec) -> np.ndarray:
    """p_j proportional to 1/(gamma_j v_j), normalized to sum to 1.

    Raises SaturationError where a weight would not be finite or would be
    0, naming the first agent at which the running sum of the 1/(gamma_j
    v_j) overflows (gamma_j v_j underflows, or its inverse overflows),
    agent 0 when every term is 0, or else the first agent whose weight is
    0 (its gamma_j v_j overflows, or its share of the sum underflows).
    """
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        raw = 1.0 / (spec.risk_aversion * spec.belief_variance)
        total = raw.sum()
        if not 0.0 < total < np.inf:
            j = int(np.argmax(np.cumsum(raw) == np.inf))
            raise SaturationError(
                f"agent {j}: clearing weights not finite: the sum of "
                f"1/(risk_aversion * belief_variance) is {float(total)!r}")
        p = raw / total
    if not p.all():
        j = int(np.argmin(p))
        raise SaturationError(
            f"agent {j}: clearing weight is 0: its 1/(risk_aversion * "
            f"belief_variance) is {float(raw[j])!r} of a sum of "
            f"{float(total)!r}")
    return p


def _objective(spec, professed, price):
    """Per-agent expected-utility value when trading on ``professed`` means
    at the given clearing price, evaluated under the true beliefs, and the
    holdings.  Raises SaturationError naming the first agent whose
    exponent, objective or holding is not finite."""
    g, a, v = spec.risk_aversion, spec.mean_belief, spec.belief_variance
    with np.errstate(over="ignore", invalid="ignore"):
        holdings = (professed - price) / (g * v)
        exponent = (professed - price) * (a - professed) / v \
            + 0.5 * (professed - price) ** 2 / v
        objectives = -np.exp(-exponent) / g
    finite = np.isfinite([exponent, objectives, holdings]).all(axis=0)
    if not finite.all():
        j = int(np.argmin(finite))
        raise SaturationError(
            f"agent {j}: objective or holding not finite: exponent "
            f"{float(exponent[j])!r}, objective {float(objectives[j])!r}, "
            f"holding {float(holdings[j])!r}")
    return objectives, holdings


@dataclass(frozen=True)
class ContestEquilibrium:
    weights: np.ndarray      # p_j
    price: float
    professed: np.ndarray    # means the demands are based on
    holdings: np.ndarray
    objectives: np.ndarray   # true-belief expected utility values


def truthful_equilibrium(spec: ContestSpec) -> ContestEquilibrium:
    """Equilibrium when everyone states their true mean.

    price = sum_j p_j alpha_j; holdings theta_j = (alpha_j - price) /
    (gamma_j v_j); objective -exp(-(alpha_j - price)^2 / (2 v_j)) / gamma_j.
    """
    p = clearing_weights(spec)
    price = float(p @ spec.mean_belief)
    objectives, holdings = _objective(spec, spec.mean_belief, price)
    return ContestEquilibrium(weights=p, price=price,
                              professed=spec.mean_belief.copy(),
                              holdings=holdings, objectives=objectives)


def pareto_faked_equilibrium(spec: ContestSpec) -> ContestEquilibrium:
    """The Nash equilibrium of professed means: each agent's stated mean
    is its best response to the others' (first-order condition
    stated_j - price = (1-p_j)(alpha_j - price)).  It is not
    Pareto-efficient: wherever ``WelfareReport.all_worse`` holds,
    truthful reporting gives every agent more.

    price = sum_j p_j(1-p_j) alpha_j / sum_j p_j(1-p_j), and each agent
    states (1-p_j) alpha_j + p_j price.  sum_j p_j(1-p_j) > 0, since
    ContestSpec has two agents or more and every p_j > 0
    (``clearing_weights``).
    """
    p = clearing_weights(spec)
    pq = p * (1.0 - p)
    price = float(pq @ spec.mean_belief / pq.sum())
    professed = (1.0 - p) * spec.mean_belief + p * price
    objectives, holdings = _objective(spec, professed, price)
    return ContestEquilibrium(weights=p, price=price, professed=professed,
                              holdings=holdings, objectives=objectives)


@dataclass(frozen=True)
class WelfareReport:
    truthful: ContestEquilibrium
    faked: ContestEquilibrium
    improved: np.ndarray          # strict per-agent improvement flags
    all_improved: bool            # never True (checked property)
    all_worse: bool
    identity_gap: float           # residual of the q-weighted variance identity


def welfare_comparison(spec: ContestSpec) -> WelfareReport:
    """Both equilibria, compared agent by agent.

    Agent j strictly improves iff
        (alpha_j - S)^2 < (a_j - F)^2 + 2 (a_j - F)(alpha_j - a_j)
    with S, F the truthful/faked prices and a_j the faked mean; ties count
    as no improvement.  Also evaluates the identity
        sum q_j (alpha_j - S)^2 = sum q_j (alpha_j - F)^2 + (S - F)^2,
    q_j prop. to p_j(1-p_j), whose residual is returned.
    """
    truthful = truthful_equilibrium(spec)
    faked = pareto_faked_equilibrium(spec)
    a = spec.mean_belief
    lhs = (a - truthful.price) ** 2
    rhs = (faked.professed - faked.price) ** 2 \
        + 2.0 * (faked.professed - faked.price) * (a - faked.professed)
    improved = lhs < rhs
    worse = lhs > rhs
    p = truthful.weights
    q = p * (1.0 - p)
    q = q / q.sum()
    identity_gap = float(
        q @ (a - truthful.price) ** 2
        - q @ (a - faked.price) ** 2
        - (truthful.price - faked.price) ** 2
    )
    return WelfareReport(
        truthful=truthful, faked=faked, improved=improved,
        all_improved=bool(improved.all()), all_worse=bool(worse.all()),
        identity_gap=identity_gap)


def format_solution(spec: ContestSpec, report: WelfareReport) -> str:
    """Aligned text table of ``welfare_comparison(spec)``'s report."""
    truthful, faked = report.truthful, report.faked
    lines = [
        f"truthful price {truthful.price:.6g}    "
        f"faked price {faked.price:.6g}",
        f"{'agent':>5} {'gamma':>9} {'alpha':>9} {'var':>9} {'p':>9} "
        f"{'theta':>10} {'alpha~':>10} {'theta~':>10} {'improved':>9}",
    ]
    for j in range(spec.n_agents):
        lines.append(
            f"{j:5d} {spec.risk_aversion[j]:9.4g} {spec.mean_belief[j]:9.4g} "
            f"{spec.belief_variance[j]:9.4g} {truthful.weights[j]:9.4g} "
            f"{truthful.holdings[j]:10.4g} {faked.professed[j]:10.4g} "
            f"{faked.holdings[j]:10.4g} {str(bool(report.improved[j])):>9}"
        )
    lines.append(f"all improved: {report.all_improved}    "
                 f"all worse: {report.all_worse}")
    return "\n".join(lines)
