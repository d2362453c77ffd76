"""Run configuration files: JSON schema, validation, manifests.

One JSON file fully describes a run.  Validation errors always name the
offending field with its dotted path.  A run's output directory receives a
``manifest.json`` echoing the resolved configuration, the subcommand and
the package version; a manifest is itself a valid ``--config`` argument,
which is what makes every run replayable byte for byte.  ``write_json``
writes it, and the CLI's other JSON outputs, as strict JSON.

This is the one module that knows a run's keys: the CLI, its one reader,
reads a config with ``read_config``, a ``parse_*`` function per run mode
and ``check_read``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Any, Dict

from . import __version__, beauty, beliefs, calibration, equilibrium, feedback
from .errors import MAX_COUNT, ConfigError, step_count


class _Node(dict):
    """A JSON object that records the keys read from it with ``[]``, and
    the keys given in it more than once (the last value is kept)."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.read = set()
        self.repeated = {key for key, n in Counter(
            key for key, _ in pairs).items() if n > 1}

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def check_read(node, path=""):
    """Raise a ConfigError naming the first key under ``node`` given twice
    or not read."""
    if isinstance(node, list):
        for i, value in enumerate(node):
            check_read(value, f"{path}[{i}]")
    elif isinstance(node, _Node):
        for key, value in node.items():
            name = f"{path}.{key}" if path else key
            if key in node.repeated:
                raise ConfigError(f"{name}: duplicate key")
            if key not in node.read:
                raise ConfigError(f"{name}: key not read by this run")
            check_read(value, name)


def load_config(path: str) -> Dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as fp:
            cfg = json.load(fp, object_pairs_hook=_Node)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") \
            from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    # a manifest wraps the original config; accept it directly
    if "config" in cfg and "subcommand" in cfg:
        for key in cfg:
            if key in cfg.repeated:
                raise ConfigError(f"{path}: {key}: duplicate key")
            if key not in ("config", "subcommand", "package", "version"):
                raise ConfigError(f"{path}: {key}: not a manifest key")
        inner = cfg["config"]
        if not isinstance(inner, dict):
            raise ConfigError(f"{path}: config: must be an object")
        inner.setdefault("subcommand", cfg["subcommand"])
        return inner
    return cfg


def read_config(path: str, subcommand: str) -> Dict[str, Any]:
    """The config (or manifest) at ``path`` for a ``subcommand`` run, less
    its ``subcommand`` key, which, where given, must name that run."""
    cfg = load_config(path)
    declared = cfg.pop("subcommand", None)
    if declared is not None and declared != subcommand:
        raise ConfigError(
            f"config is for subcommand '{declared}', not '{subcommand}'")
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
    """The value at ``path`` from the root; ``key[i]`` is item i of ``key``."""
    value = cfg
    for part in path.replace("[", ".[").split("."):
        if part.startswith("["):
            value = value[int(part[1:-1])]
        elif isinstance(value, dict) and part in value:
            value = value[part]
        elif default is not ...:
            return default
        else:
            raise ConfigError(f"{path}: missing required field")
    if kind is float:
        value = _number(value, path)
        if positive and not value > 0.0:
            raise ConfigError(f"{path}: must be > 0")
    elif kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer")
        if positive and value <= 0:
            raise ConfigError(f"{path}: must be > 0")
        if positive and value > MAX_COUNT:  # a positive integer is a count
            raise ConfigError(f"{path}: must be at most {MAX_COUNT}")
    elif not isinstance(value, kind):
        raise ConfigError(f"{path}: expected {_EXPECTED[kind]}")
    return value


def _pair(cfg, path, default):
    val = _get(cfg, path, list, default=list(default))
    if len(val) != 2:
        raise ConfigError(f"{path}: expected [low, high]")
    return _number(val[0], f"{path}[0]"), _number(val[1], f"{path}[1]")


def parse_belief(cfg, path):
    """The belief at ``path``, such as ``market.agents[0].belief``."""
    _get(cfg, path, dict)
    kind = _get(cfg, f"{path}.type", str)
    if kind == "constant":
        return beliefs.ConstantDrift(drift=_get(cfg, f"{path}.drift", float))
    if kind == "bayesian":
        return beliefs.BayesianGaussian(
            prior_mean=_get(cfg, f"{path}.prior_mean", float),
            prior_precision=_get(cfg, f"{path}.prior_precision", float,
                                 positive=True))
    raise ConfigError(f"{path}.type: unknown belief type '{kind}'")


def _seed(cfg) -> int:
    seed = _get(cfg, "seed", int, default=0)
    if seed < 0:
        raise ConfigError("seed: must be >= 0")
    return seed


def parse_market(cfg) -> equilibrium.MarketSpec:
    _get(cfg, "market", dict)
    n_agents = len(_get(cfg, "market.agents", list))
    if not n_agents:
        raise ConfigError("market.agents: need at least one agent")
    agents = []
    for i in range(n_agents):
        path = f"market.agents[{i}]"
        _get(cfg, path, dict)
        belief = parse_belief(cfg, f"{path}.belief")
        impatience = _get(cfg, f"{path}.impatience", float, positive=True)
        if 1.0 / impatience == math.inf:   # P/D is a mean of the 1/rho_j
            raise ConfigError(f"{path}.impatience: 1/impatience overflows")
        agents.append(equilibrium.AgentSpec(
            belief=belief, impatience=impatience,
            weight=_get(cfg, f"{path}.weight", float, positive=True)))
    spec = equilibrium.MarketSpec
    sigma = _get(cfg, "market.sigma", float, positive=True)
    drift_adjustment = _get(cfg, "market.drift_adjustment", float,
                            default=spec.drift_adjustment)
    initial_dividend = _get(cfg, "market.initial_dividend", float,
                            default=spec.initial_dividend, positive=True)
    return spec(sigma=sigma, drift_adjustment=drift_adjustment,
                initial_dividend=initial_dividend, agents=tuple(agents))


def parse_simulate(cfg):
    spec = parse_market(cfg)
    horizon = _get(cfg, "horizon_years", float, default=128.0, positive=True)
    dt = _get(cfg, "dt", float, default=1.0 / 252.0, positive=True)
    n_paths = _get(cfg, "n_paths", int, default=1, positive=True)
    seed = _seed(cfg)
    write_paths = _get(cfg, "write_paths", int, default=1)
    if write_paths < 0 or write_paths > n_paths:
        raise ConfigError("write_paths: must be between 0 and n_paths")
    step_count(horizon, dt, "horizon_years")
    return spec, horizon, dt, n_paths, seed, write_paths


def parse_feedback(cfg) -> feedback.FeedbackConfig:
    spec = feedback.FeedbackConfig
    dt = _get(cfg, "dt", float, default=spec.dt, positive=True)
    if "n_steps" in cfg:
        n_steps = _get(cfg, "n_steps", int, positive=True)
    else:
        years = _get(cfg, "years", float, default=5.0, positive=True)
        n_steps = step_count(years, dt, "years")
    return spec(
        n_agents=_get(cfg, "n_agents", int, positive=True),
        n_diligent=_get(cfg, "n_diligent", int, default=0),
        n_steps=n_steps,
        seed=_seed(cfg),
        sigma_true=_get(cfg, "sigma_true", float, default=spec.sigma_true,
                        positive=True),
        growth_true=_get(cfg, "growth_true", float,
                         default=spec.growth_true),
        dt=dt,
        rho_range=_pair(cfg, "rho_range", spec.rho_range),
        tau_factor_range=_pair(cfg, "tau_factor_range",
                               spec.tau_factor_range),
        prior_mean_range=_pair(cfg, "prior_mean_range",
                               spec.prior_mean_range),
        prior_weight=_get(cfg, "prior_weight", float,
                          default=spec.prior_weight, positive=True))


def parse_sweep(cfg, setup: feedback.FeedbackConfig):
    """The master seeds ``seed`` .. ``seed + seed_sweep - 1`` and the
    distinct diligence counts of a feedback sweep, or two empty lists for a
    single run, which reads no counts, so it rejects ``diligence_values``."""
    sweep = _get(cfg, "seed_sweep", int, default=0, positive=True)
    if not sweep:
        return [], []
    counts = feedback.diligence_counts(setup, _get(
        cfg, "diligence_values", list, default=[0, setup.n_diligent]))
    return list(range(setup.seed, setup.seed + sweep)), counts


def parse_contest(cfg):
    """The contest and whether to write ``contest.csv``."""
    gammas, alphas, variances = [], [], []
    for i in range(len(_get(cfg, "agents", list))):
        path = f"agents[{i}]"
        _get(cfg, path, dict)
        gammas.append(_get(cfg, f"{path}.risk_aversion", float,
                           positive=True))
        alphas.append(_get(cfg, f"{path}.mean_belief", float))
        variances.append(_get(cfg, f"{path}.belief_variance", float,
                              positive=True))
    if len(gammas) < 2:
        raise ConfigError("agents: need at least 2 agents")
    spec = beauty.ContestSpec(risk_aversion=gammas, mean_belief=alphas,
                              belief_variance=variances)
    return spec, _get(cfg, "csv", bool, default=False)


def parse_ingest(cfg):
    """The price/dividend CSV's path and the fewest years it may span."""
    return _get(cfg, "csv", str), _get(cfg, "min_years", float,
                                       default=10.0, positive=True)


def parse_targets(cfg) -> calibration.MomentReport:
    if "targets" not in cfg or cfg["targets"] == "default":
        return calibration.DEFAULT_TARGETS
    if not isinstance(cfg["targets"], dict):
        raise ConfigError("targets: expected 'default' or an object")
    kwargs = {name: _get(cfg, f"targets.{name}", float, default=float("nan"))
              for name in calibration.MOMENT_NAMES}
    if all(map(math.isnan, kwargs.values())):
        raise ConfigError("targets: need at least one moment")
    for name, value in kwargs.items():
        if value == 0.0:   # the loss divides by each target
            raise ConfigError(f"targets.{name}: must not be 0")
    return calibration.MomentReport(**kwargs)


def parse_fit(cfg) -> calibration.CalibrationProblem:
    free = []
    for i in range(len(_get(cfg, "free", list))):
        path = f"free[{i}]"
        _get(cfg, path, dict)
        free.append(calibration.FreeParameter(
            _get(cfg, f"{path}.name", str),
            *(_get(cfg, f"{path}.{key}", float)
              for key in ("lower", "upper", "start"))))
    fixed_node = _get(cfg, "fixed", dict, default={})
    fixed = {name: _number(fixed_node[name], f"fixed.{name}")
             for name in fixed_node}
    spec = calibration.CalibrationProblem
    return spec(
        n_agents=_get(cfg, "n_agents", int, positive=True),
        free=tuple(free),
        fixed=fixed,
        n_paths=_get(cfg, "n_paths", int, default=spec.n_paths,
                     positive=True),
        horizon=_get(cfg, "horizon_years", float, default=spec.horizon,
                     positive=True),
        dt=_get(cfg, "dt", float, default=spec.dt, positive=True),
        seed=_seed(cfg),
        max_iterations=_get(cfg, "max_iterations", int,
                            default=spec.max_iterations, positive=True))


def _strict(value):
    """``value`` with each float that is not finite replaced by None."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) \
        else value


def write_json(path, obj):
    """Write ``obj`` to ``path`` as strict JSON: keys sorted, indented by
    2, a final newline, and null for a float that is not finite (``json``
    would write the non-JSON tokens NaN and Infinity)."""
    with open(path, "w") as fp:
        json.dump(_strict(obj), fp, indent=2, sort_keys=True, allow_nan=False)
        fp.write("\n")


def write_manifest(outdir, subcommand: str, cfg: Dict[str, Any]):
    path = outdir / "manifest.json"
    write_json(path, {"package": "beliefmkt", "version": __version__,
                      "subcommand": subcommand, "config": cfg})
    return path
