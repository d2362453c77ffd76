"""Run configuration files: JSON schema, validation, manifests.

One JSON file fully describes a run.  Validation errors always name the
offending field with its dotted path.  A run's output directory receives a
``manifest.json`` echoing the resolved configuration, the subcommand and
the package version; a manifest is itself a valid ``--config`` argument,
which is what makes every run replayable byte for byte.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict

from . import __version__, beauty, beliefs, calibration, equilibrium, feedback
from .errors import MAX_COUNT, ConfigError


class _Node(dict):
    """A JSON object that records the keys read from it with ``[]``."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def check_read(node, path=""):
    """Raise a ConfigError naming the first key under ``node`` not read."""
    if isinstance(node, list):
        for i, value in enumerate(node):
            check_read(value, f"{path}[{i}]")
    elif isinstance(node, _Node):
        for key, value in node.items():
            name = f"{path}.{key}" if path else key
            if key not in node.read:
                raise ConfigError(f"{name}: key not read by this run")
            check_read(value, name)


def load_config(path: str) -> Dict[str, Any]:
    try:
        with open(path) as fp:
            cfg = json.load(fp, object_hook=_Node)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    # a manifest wraps the original config; accept it directly
    if "config" in cfg and "subcommand" in cfg:
        inner = cfg["config"]
        if not isinstance(inner, dict):
            raise ConfigError(f"{path}: config: must be an object")
        inner.setdefault("subcommand", cfg["subcommand"])
        return inner
    return cfg


def _number(value, path) -> float:
    """A finite float from a JSON number; ``json`` also reads ``NaN``,
    ``Infinity`` and integers too large for a float, all rejected here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be a finite number")
    return value


_EXPECTED = {str: "a string", bool: "true or false", list: "a list",
             dict: "an object"}


def _get(cfg, path, kind, default=..., positive=False):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is not ...:
                return default
            raise ConfigError(f"{path}: missing required field")
        node = node[part]
    if kind is float:
        node = _number(node, path)
        if positive and not node > 0.0:
            raise ConfigError(f"{path}: must be > 0")
    elif kind is int:
        if isinstance(node, bool) or not isinstance(node, int):
            raise ConfigError(f"{path}: expected an integer")
        if positive and node <= 0:
            raise ConfigError(f"{path}: must be > 0")
        if positive and node > MAX_COUNT:  # a positive integer is a count
            raise ConfigError(f"{path}: must be at most {MAX_COUNT}")
    elif not isinstance(node, kind):
        raise ConfigError(f"{path}: expected {_EXPECTED[kind]}")
    return node


def _step_count(span, dt, path):
    """The number of steps of length dt in span, named after ``path``."""
    steps = span / dt
    if not (math.isfinite(steps) and round(steps) <= MAX_COUNT):
        raise ConfigError(f"{path}: {path}/dt must be at most {MAX_COUNT} "
                          f"steps")
    if round(steps) < 1:
        raise ConfigError(f"{path}: {path}/dt must give at least 1 step")
    return int(round(steps))


def _pair(cfg, path, default):
    val = _get(cfg, path, list, default=list(default))
    if len(val) != 2:
        raise ConfigError(f"{path}: expected [low, high]")
    return _number(val[0], f"{path}[0]"), _number(val[1], f"{path}[1]")


def parse_belief(agent):
    """The belief of an agent node; errors name the field from ``belief.``"""
    _get(agent, "belief", dict)
    kind = _get(agent, "belief.type", str)
    if kind == "constant":
        return beliefs.ConstantDrift(drift=_get(agent, "belief.drift", float))
    if kind == "bayesian":
        return beliefs.BayesianGaussian(
            prior_mean=_get(agent, "belief.prior_mean", float),
            prior_precision=_get(agent, "belief.prior_precision", float,
                                 positive=True))
    raise ConfigError(f"belief.type: unknown belief type '{kind}'")


def _seed(cfg) -> int:
    seed = _get(cfg, "seed", int, default=0)
    if seed < 0:
        raise ConfigError("seed: must be >= 0")
    return seed


def parse_market(cfg) -> equilibrium.MarketSpec:
    market = _get(cfg, "market", dict)
    agents_node = _get(market, "agents", list)
    if not agents_node:
        raise ConfigError("market.agents: need at least one agent")
    agents = []
    for i, node in enumerate(agents_node):
        path = f"market.agents[{i}]"
        if not isinstance(node, dict):
            raise ConfigError(f"{path}: expected an object")
        try:
            belief = parse_belief(node)
            impatience = _get(node, "impatience", float, positive=True)
            weight = _get(node, "weight", float, default=None)
            wealth = _get(node, "initial_wealth", float, default=None)
        except ConfigError as exc:
            raise ConfigError(f"{path}.{exc}") from None
        try:
            agents.append(equilibrium.AgentSpec(
                impatience=impatience, belief=belief, weight=weight,
                initial_wealth=wealth))
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    sigma = _get(cfg, "market.sigma", float, positive=True)
    drift_adjustment = _get(cfg, "market.drift_adjustment", float,
                            default=0.0)
    initial_dividend = _get(cfg, "market.initial_dividend", float,
                            default=1.0, positive=True)
    try:
        return equilibrium.MarketSpec(
            sigma=sigma, drift_adjustment=drift_adjustment,
            initial_dividend=initial_dividend, agents=tuple(agents))
    except ConfigError as exc:
        raise ConfigError(f"market: {exc}") from None


def parse_simulate(cfg):
    spec = parse_market(cfg)
    horizon = _get(cfg, "horizon_years", float, default=128.0, positive=True)
    dt = _get(cfg, "dt", float, default=1.0 / 252.0, positive=True)
    n_paths = _get(cfg, "n_paths", int, default=1, positive=True)
    seed = _seed(cfg)
    write_paths = _get(cfg, "write_paths", int, default=1)
    if write_paths < 0 or write_paths > n_paths:
        raise ConfigError("write_paths: must be between 0 and n_paths")
    if dt > horizon:
        raise ConfigError("dt: must not exceed horizon_years")
    _step_count(horizon, dt, "horizon_years")
    return spec, horizon, dt, n_paths, seed, write_paths


def parse_feedback(cfg) -> feedback.FeedbackConfig:
    dt = _get(cfg, "dt", float, default=1.0 / 252.0, positive=True)
    if "n_steps" in cfg:
        n_steps = _get(cfg, "n_steps", int, positive=True)
    else:
        years = _get(cfg, "years", float, default=5.0, positive=True)
        n_steps = _step_count(years, dt, "years")
    return feedback.FeedbackConfig(
        n_agents=_get(cfg, "n_agents", int, positive=True),
        n_diligent=_get(cfg, "n_diligent", int, default=0),
        n_steps=n_steps,
        seed=_seed(cfg),
        sigma_true=_get(cfg, "sigma_true", float, default=0.25, positive=True),
        growth_true=_get(cfg, "growth_true", float, default=0.015),
        dt=dt,
        rho_range=_pair(cfg, "rho_range", (0.04, 0.33)),
        tau_factor_range=_pair(cfg, "tau_factor_range", (0.4, 1.05)),
        prior_mean_range=_pair(cfg, "prior_mean_range", (-0.05, 0.15)),
        prior_weight=_get(cfg, "prior_weight", float, default=252.0,
                          positive=True))


def parse_contest(cfg) -> beauty.ContestSpec:
    agents = _get(cfg, "agents", list)
    gammas, alphas, variances = [], [], []
    for i, node in enumerate(agents):
        path = f"agents[{i}]"
        if not isinstance(node, dict):
            raise ConfigError(f"{path}: expected an object")
        try:
            gammas.append(_get(node, "risk_aversion", float, positive=True))
            alphas.append(_get(node, "mean_belief", float))
            variances.append(_get(node, "belief_variance", float,
                                  positive=True))
        except ConfigError as exc:
            raise ConfigError(f"{path}.{exc}") from None
    try:
        return beauty.ContestSpec(risk_aversion=gammas, mean_belief=alphas,
                                  belief_variance=variances)
    except ConfigError as exc:
        raise ConfigError(f"agents: {exc}") from None


def parse_targets(cfg) -> calibration.MomentReport:
    node = cfg["targets"] if "targets" in cfg else "default"
    if node == "default":
        return calibration.DEFAULT_TARGETS
    if not isinstance(node, dict):
        raise ConfigError("targets: expected 'default' or an object")
    kwargs = {name: _get(cfg, f"targets.{name}", float, default=float("nan"))
              for name in calibration.MOMENT_NAMES}
    if all(map(math.isnan, kwargs.values())):
        raise ConfigError("targets: need at least one moment")
    for name, value in kwargs.items():
        if value == 0.0:   # the loss divides by each target
            raise ConfigError(f"targets.{name}: must not be 0")
    return calibration.MomentReport(provenance="config targets", **kwargs)


def parse_fit(cfg) -> calibration.CalibrationProblem:
    free_nodes = _get(cfg, "free", list)
    free = []
    for i, node in enumerate(free_nodes):
        path = f"free[{i}]"
        if not isinstance(node, dict):
            raise ConfigError(f"{path}: expected an object")
        try:
            name = _get(node, "name", str)
            lower, upper, start = (_get(node, key, float)
                                   for key in ("lower", "upper", "start"))
        except ConfigError as exc:
            raise ConfigError(f"{path}.{exc}") from None
        try:
            free.append(calibration.FreeParameter(
                name=name, lower=lower, upper=upper, start=start))
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    fixed_node = _get(cfg, "fixed", dict, default={})
    fixed = {name: _number(fixed_node[name], f"fixed.{name}")
             for name in fixed_node}
    horizon = _get(cfg, "horizon_years", float, default=50.0, positive=True)
    dt = _get(cfg, "dt", float, default=1.0 / 252.0, positive=True)
    _step_count(horizon, dt, "horizon_years")
    return calibration.CalibrationProblem(
        n_agents=_get(cfg, "n_agents", int, positive=True),
        free=tuple(free),
        fixed=fixed,
        n_paths=_get(cfg, "n_paths", int, default=200, positive=True),
        horizon=horizon,
        dt=dt,
        seed=_seed(cfg),
        max_iterations=_get(cfg, "max_iterations", int, default=200,
                            positive=True))


def write_manifest(outdir, subcommand: str, cfg: Dict[str, Any]):
    manifest = {
        "package": "beliefmkt",
        "version": __version__,
        "subcommand": subcommand,
        "config": cfg,
    }
    path = outdir / "manifest.json"
    with open(path, "w") as fp:
        json.dump(manifest, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return path
