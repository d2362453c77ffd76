"""The benchmark's four workloads.

Each workload is a closed loop in one process: the next item starts when
the previous one ends.  Items are drawn from the workload seed out of a
fixed pool of inputs whose outputs were recorded at the seed commit
(``reference/``), so every item's output is checked against a reference
or, where no fixed reference fits, against invariants.

* ``feedback-sweep``: ``feedback.diligence_sweep`` over 30 agents and
  5-year daily runs, diligence counts {0, 25, 30}, one master seed per call.
* ``moments-report``: ``calibration.compute_moments`` over 200 streamed
  ``equilibrium.simulate_paths`` paths of 50 years on benchmark3.json.
* ``fit-search``: ``calibration.fit_parameters`` on
  fit_default_targets.json, one search per seed.
* ``cli-outputs``: sequential ``beliefmkt`` CLI subprocesses (simulate-log
  with a learner, feedback, beauty, ingest, manifest replay).
"""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import hostspeed

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

# tolerance on floating-point outputs: |a - b| <= TOL * max(1, |b|)
TOL = 1e-8


def load_reference(name):
    with open(REFERENCE / f"{name}.json") as fp:
        return json.load(fp)


def close(a, b, tol=TOL):
    if isinstance(b, float) and math.isnan(b):
        return isinstance(a, float) and math.isnan(a)
    return abs(a - b) <= tol * max(1.0, abs(b))


def compare_dicts(label, got, want, tol=TOL):
    """Error strings for keys of ``want`` that ``got`` does not match."""
    errors = []
    for key, value in want.items():
        if key not in got:
            errors.append(f"{label}: missing {key}")
        elif isinstance(value, int):   # counts and flags match exactly
            if got[key] != value:
                errors.append(f"{label}: {key}={got[key]!r}, want {value!r}")
        elif not close(got[key], value, tol):
            errors.append(f"{label}: {key}={got[key]!r}, want {value!r}")
    return errors


def choose(seed, pool, n, cost=None):
    """``n`` pool entries in a seed-determined order.

    Whole passes over the pool come first.  The remainder is drawn from as
    many strata of the pool, sorted by ``cost``, in mirrored pairs: the
    k-th cheapest entry of the j-th cheapest stratum goes with the k-th
    dearest entry of the j-th dearest stratum, and with a ``cost`` the
    middle stratum of an odd count is narrowed to its central half.  Runs
    on different seeds then do nearly the same amount of work.
    """
    rng = np.random.default_rng(seed)
    out = []
    while n - len(out) >= len(pool):
        out.extend(pool[i] for i in rng.permutation(len(pool)))
    if len(out) == n:
        return out
    ranked = sorted(pool, key=cost)
    strata = np.array_split(np.arange(len(pool)), n - len(out))
    picks = []
    for j in range(len(strata) // 2):
        low, high = strata[j], strata[-1 - j]
        k = rng.integers(len(low))
        picks += [low[k], high[max(0, len(high) - 1 - k)]]
    if len(strata) % 2:
        middle = strata[len(strata) // 2]
        quarter = len(middle) // 4 if cost is not None else 0
        picks.append(middle[quarter + rng.integers(len(middle) - 2 * quarter)])
    out.extend(ranked[picks[i]] for i in rng.permutation(len(picks)))
    return out


def clearing_errors(label, delta, stock, wealth, consumption, holdings):
    """Market-clearing identities sum c = delta, sum w = S, sum pi = 1."""
    errors = []
    checks = (("sum c = delta", consumption.sum(axis=1), delta, 1e-12),
              ("sum w = S", wealth.sum(axis=1), stock, 1e-12),
              ("sum pi = 1", holdings.sum(axis=1), np.ones_like(delta), 1e-9))
    for name, lhs, rhs, tol in checks:
        gap = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))
        if not gap <= tol:
            errors.append(f"{label}: {name} off by {gap:.3g}")
    return errors


class Workload:
    """One named workload: inputs generated in ``__init__`` (set-up),
    ``run`` performs one item, ``check`` compares its output."""

    name = ""
    unit = ""
    item_s = 1.0   # nominal seconds per item on the reference host
    round_size = 1   # items that only make sense together
    child_stats = ()   # per-subprocess import time and peak memory
    in_process = True   # False: items run in child processes

    def units(self, item, output):
        return 1

    def warm_up(self):
        """One untimed item, so that lazy imports and caches settle."""
        self.run(self.items[0])


class FeedbackSweep(Workload):
    name = "feedback-sweep"
    unit = "steps solved"
    item_s = 3.3
    counts = (0, 25, 30)
    pool_size = 24   # master seeds with recorded cell metrics

    def __init__(self, root, seed, n_items, workdir):
        from beliefmkt import config, feedback
        self.feedback = feedback
        self.base = config.parse_feedback(config.load_config(
            str(root / "configs" / "feedback_diligence_sweep.json")))
        if n_items:
            cost_s = load_reference("feedback_cells")["cost_s"]
            self.pool = tuple(int(s) for s in cost_s)
            self.items = choose(seed, self.pool, n_items,
                                lambda s: cost_s[str(s)])

    def run(self, item, tracer=None):
        return self.feedback.diligence_sweep(self.base, list(self.counts),
                                             [item])

    def units(self, item, output):
        return len(self.counts) * self.base.n_steps

    def warm_up(self):
        """One untimed cell with no diligent agents, the branch that loads
        the root finders."""
        self.feedback.diligence_sweep(self.base, [0], [self.items[0]])

    @staticmethod
    def serialize(output):
        return {str(n): rows[0] for n, rows in output.items()}

    def check(self, item, output):
        want = load_reference("feedback_cells")["cells"][str(item)]
        errors = []
        for n_dil, metrics in self.serialize(output).items():
            label = f"seed {item} n_diligent {n_dil}"
            if not metrics["max_residual"] <= self.feedback.RESIDUAL_TOL:
                errors.append(f"{label}: residual {metrics['max_residual']:g}")
            expected = {k: v for k, v in want[n_dil].items()
                        if k != "max_residual"}
            errors += compare_dicts(label, metrics, expected)
        return errors


class MomentsReport(Workload):
    name = "moments-report"
    unit = "grid points"
    item_s = 2.4
    n_paths = 200
    pool_size = 24   # master seeds (config seed + k) with recorded reports

    def __init__(self, root, seed, n_items, workdir):
        from beliefmkt import calibration, config, equilibrium
        self.calibration, self.equilibrium = calibration, equilibrium
        cfg = config.load_config(str(root / "configs" / "benchmark3.json"))
        self.spec, self.horizon, self.dt, _, base_seed, _ = \
            config.parse_simulate(cfg)
        self.pool = tuple(base_seed + k for k in range(self.pool_size))
        self.items = choose(seed, self.pool, n_items)

    def run(self, item, tracer=None):
        paths = self.equilibrium.simulate_paths(
            self.spec, self.horizon, self.dt, item, self.n_paths)
        return self.calibration.compute_moments(paths)

    def units(self, item, output):
        return self.n_paths * (round(self.horizon / self.dt) + 1)

    @staticmethod
    def serialize(output):
        return output.as_dict()

    def check(self, item, output):
        label = f"seed {item}"
        errors = compare_dicts(label, self.serialize(output),
                               load_reference("moments")[str(item)])
        path = self.equilibrium.simulate_path(self.spec, self.horizon,
                                              self.dt, item, 0)
        errors += clearing_errors(f"{label} path 0", path.dividend,
                                  path.stock, path.wealth, path.consumption,
                                  path.holdings)
        return errors


class FitSearch(Workload):
    name = "fit-search"
    unit = "objective evaluations"
    item_s = 1.25
    pool_size = 48   # search seeds (config seed + k) with recorded fits

    def __init__(self, root, seed, n_items, workdir):
        from beliefmkt import calibration, config
        self.calibration = calibration
        cfg = config.load_config(str(root / "configs" /
                                     "fit_default_targets.json"))
        self.problem = config.parse_fit(cfg)
        self.targets = config.parse_targets(cfg)
        self.pool = tuple(self.problem.seed + k for k in range(self.pool_size))
        if n_items:
            evals = {int(s): fit["n_evaluations"]
                     for s, fit in load_reference("fits").items()}
            self.items = choose(seed, self.pool, n_items, evals.get)

    def run(self, item, tracer=None):
        return self.calibration.fit_parameters(
            dataclasses.replace(self.problem, seed=item), self.targets)

    def units(self, item, output):
        return output.n_evaluations

    @staticmethod
    def serialize(output):
        return {"values": {k: float(v) for k, v in output.values.items()},
                "loss": output.loss, "n_evaluations": output.n_evaluations,
                "converged": output.converged}

    def check(self, item, output):
        got = self.serialize(output)
        want = load_reference("fits")[str(item)]
        label = f"seed {item}"
        errors = compare_dicts(label, got["values"], want["values"])
        errors += compare_dicts(label, got, {k: v for k, v in want.items()
                                             if k != "values"})
        return errors


# ---------------------------------------------------------------------------
# CLI outputs


_TOKEN = re.compile(r'[\s,=:\[\]{}"]+')


def compare_text(label, got, want, tol=TOL):
    """Token-wise comparison: numbers within ``tol``, everything else equal."""
    a, b = _TOKEN.split(got), _TOKEN.split(want)
    if len(a) != len(b):
        return [f"{label}: {len(a)} tokens, want {len(b)}"]
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            ok = close(float(x), float(y), tol)
        except ValueError:
            ok = False
        if not ok:
            return [f"{label}: {x!r}, want {y!r}"]
    return []


def read_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def learner_market(cfg):
    """benchmark3's market with its third agent turned into a learner."""
    market = json.loads(json.dumps(cfg["market"]))
    market["agents"][2]["belief"] = {"type": "bayesian", "prior_mean": -0.05,
                                     "prior_precision": 2.0}
    return market


def contest_config(k):
    """Contest pool entry k: 2 to 4 agents with seeded characteristics."""
    rng = np.random.default_rng(1000 + k)
    return {"agents": [
        {"risk_aversion": float(rng.uniform(0.5, 3.0)),
         "mean_belief": float(rng.uniform(-1.0, 1.0)),
         "belief_variance": float(rng.uniform(0.3, 2.0))}
        for _ in range(2 + k % 3)], "csv": True}


def feedback_config(k):
    """Feedback pool entry k: 30 agents, one year of daily steps."""
    return {"n_agents": 30, "n_diligent": (0, 25)[k % 2], "n_steps": 252,
            "seed": k}


INGEST_CONFIG = {"csv": "configs/sample_price_dividend.csv", "min_years": 10}


class CliOutputs(Workload):
    name = "cli-outputs"
    unit = "invocations"
    item_s = 1.35
    round_kinds = ("simulate-log", "feedback", "beauty", "ingest", "replay")
    round_size = len(round_kinds)
    pool_size = 6   # feedback and contest inputs with recorded files
    in_process = False

    def __init__(self, root, seed, n_items, workdir):
        from beliefmkt import config
        self.root = root
        workdir.mkdir(parents=True, exist_ok=True)
        bench3 = config.load_config(str(root / "configs" / "benchmark3.json"))
        market = learner_market(bench3)
        rng = np.random.default_rng(seed)
        # whole rounds only, so that every run has the same mix of commands
        n_rounds = max(1, math.ceil(n_items / self.round_size))
        pool = choose(seed, tuple(range(self.pool_size)), n_rounds)
        self.items = []
        self.child_stats = []
        for r, k in enumerate(pool):
            configs = {
                "simulate-log": {
                    "market": market, "horizon_years": bench3["horizon_years"],
                    "dt": bench3["dt"], "n_paths": 2, "write_paths": 2,
                    "seed": int(rng.integers(2**31))},
                "feedback": feedback_config(k),
                "beauty": contest_config(k),
                "ingest": INGEST_CONFIG,
            }
            for kind in self.round_kinds:
                out = workdir / f"r{r:03d}-{kind}"
                if kind == "replay":
                    sub = "simulate-log"
                    cfg_path = workdir / f"r{r:03d}-simulate-log" / "manifest.json"
                else:
                    sub = kind
                    cfg_path = workdir / f"r{r:03d}-{kind}.json"
                    cfg_path.write_text(json.dumps(configs[kind]))
                self.items.append({"kind": kind, "pool": k, "round": r,
                                   "args": [sub, "--config", str(cfg_path),
                                            "--out", str(out)],
                                   "out": out})
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))

    def run(self, item, tracer=None):
        stats_path = item["out"].with_suffix(".stats.json")
        cmd = [sys.executable, str(HERE / "cli_child.py"),
               "--stats", str(stats_path)]
        if tracer is not None:
            cmd.append("--trace")
        proc = subprocess.run(cmd + ["--"] + item["args"], cwd=self.root,
                              env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(item['args'])}: exit "
                               f"{proc.returncode}: {proc.stderr.strip()}")
        with open(stats_path) as fp:
            stats = json.load(fp)
        if tracer is not None:
            tracer.merge(stats.pop("spans"), stats.pop("counters"),
                         tracer.item)
        self.child_stats.append(stats)
        return stats

    @staticmethod
    def child_reading(output):
        """The host-speed probes the child ran (see ``hostspeed``)."""
        if isinstance(output, dict) and "speed" in output:
            return hostspeed.Reading(*output["speed"])
        return None

    def warm_up(self):
        ingest = next(i for i in self.items if i["kind"] == "ingest")
        out = ingest["out"].with_name("warm-up")
        self.run({**ingest, "out": out, "args": ingest["args"][:-1]
                  + [str(out)]})
        self.child_stats.clear()

    def check(self, item, output):
        kind, out = item["kind"], item["out"]
        label = f"round {item['round']} {kind}"
        files = read_tree(out)
        if kind == "simulate-log":
            return self._check_paths(label, out, files)
        if kind == "replay":
            same = files == read_tree(out.parent / f"r{item['round']:03d}-simulate-log")
            return [] if same else [f"{label}: replay differs byte for byte"]
        if kind == "ingest":
            want = load_reference("cli")["ingest"]
        else:
            want = load_reference("cli")[kind][item["pool"]]["files"]
        if sorted(files) != sorted(want):
            return [f"{label}: files {sorted(files)}, want {sorted(want)}"]
        errors = []
        for name, text in want.items():
            errors += compare_text(f"{label} {name}", files[name].decode(),
                                   text)
        return errors

    @staticmethod
    def _check_paths(label, out, files):
        expected = {"manifest.json", "summary.txt", "path_000.csv",
                    "path_001.csv"}
        if set(files) != expected:
            return [f"{label}: files {sorted(files)}"]
        errors = []
        for name in ("path_000.csv", "path_001.csv"):
            header = files[name].split(b"\n", 1)[0].decode().split(",")
            data = np.loadtxt(out / name, delimiter=",", skiprows=1)
            cols = {c: data[:, i] for i, c in enumerate(header)}
            J = sum(1 for c in header if c.startswith("q_"))

            def block(prefix):
                return np.column_stack([cols[f"{prefix}_{j + 1}"]
                                        for j in range(J)])
            errors += clearing_errors(f"{label} {name}", cols["delta"],
                                      cols["S"], block("w"), block("c"),
                                      block("pi"))
        summary = files["summary.txt"].decode().strip().split("\n")[1:]
        for line in summary:
            key, value = line.split("=", 1)
            if not math.isfinite(float(value)):
                errors.append(f"{label}: summary {key}={value}")
        return errors


WORKLOADS = {w.name: w for w in (FeedbackSweep, MomentsReport, FitSearch,
                                 CliOutputs)}
