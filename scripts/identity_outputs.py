"""Write every output that a bit-identity check compares, to diff two
checkouts.

    python scripts/identity_outputs.py OUT

Imports beliefmkt from the src/ of the checkout this script is in and
writes under OUT:

* ``cli/<name>/``: the CLI outputs of each shipped ``configs/<name>.json``,
  plus two runs of 2 written paths of 50 years that reach the learner
  branch of the kernel: ``cli/learner/``, benchmark3's market with its
  third agent a Bayesian learner, and ``cli/learner-common-rho/``, a
  constant drift 0.2 at weight 1 and a learner with prior mean -0.05 and
  precision 2 at weight 2, both at impatience 0.05 and sigma 0.3;
* ``cli/<name>-replay/``: each of those runs replayed from its
  ``manifest.json``;
* ``moments.txt``: the ``repr`` of 24 moment reports, 200 paths of 50
  years of ``configs/benchmark3.json`` at master seeds seed .. seed+23;
* ``fits.txt``: the ``repr`` of 48 fits of
  ``configs/fit_default_targets.json`` at search seeds seed .. seed+47;
* ``feedback.txt``: one line per feedback run of
  ``configs/feedback_diligence_sweep.json`` (30 agents, 1260 daily steps)
  at master seeds 0 .. 39 and 0, 1, 5, 25, 29 and 30 diligent agents: a
  sha256 of the bytes of S, S*, xi, log(S/S*), the solver warnings and
  the residuals, and the ``repr`` of the metrics, or the error message of
  a run that fails;
* ``sweep.txt``: one line per master seed 0 .. 39 of the same config, from
  one ``diligence_sweep`` over those six counts, which steps them
  together: every count's metrics ``repr``, or the error's type, step and
  the failing run's diagnostics (leaving out the seed and count, and the
  message, which a sweep's error adds or prefixes).

Run it in both checkouts (copy it into the older one if it is missing
there), then ``diff -r OUT_A OUT_B``: no output means every output is
identical.  The 240 single feedback runs and the 40 sweeps go through
``numerics.fork_map``, one task per output line, so they are split across
the usable CPUs and their lines come out in order.  It takes 55-75 s on a
2-core Xeon whose speed drifts (100-111 s when those ran one after
another): the single runs take about 35 % of that, the sweeps, which step
their six counts together, about 25 %, the CLI runs about 25 %, and the
fits and the moment reports, which ``compute_moments`` splits across the
CPUs, about 4 s each.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from beliefmkt import (calibration, cli, config, equilibrium,  # noqa: E402
                       feedback, numerics)
from beliefmkt.errors import FixedPointError  # noqa: E402

# the diligence counts of feedback.txt and sweep.txt
SWEEP_COUNTS = [0, 1, 5, 25, 29, 30]


def run_cli(subcommand, cfg_path, out):
    if cli.main([subcommand, "--config", str(cfg_path),
                 "--out", str(out)]) != 0:
        raise SystemExit(f"{subcommand} --config {cfg_path} failed")


def cli_outputs(out):
    runs = {}
    for path in sorted((REPO / "configs").glob("*.json")):
        runs[path.stem] = (json.loads(path.read_text())["subcommand"], path)
    learner = json.loads((REPO / "configs" / "benchmark3.json").read_text())
    learner["market"]["agents"][2]["belief"] = {
        "type": "bayesian", "prior_mean": -0.05, "prior_precision": 2.0}
    learner.update(n_paths=2, write_paths=2)
    common_rho = dict(learner, market={"sigma": 0.3, "agents": [
        {"impatience": 0.05, "weight": 1.0,
         "belief": {"type": "constant", "drift": 0.2}},
        {"impatience": 0.05, "weight": 2.0,
         "belief": {"type": "bayesian", "prior_mean": -0.05,
                    "prior_precision": 2.0}}]})
    out.mkdir(parents=True)
    written = []
    for name, cfg in (("learner", learner), ("learner-common-rho", common_rho)):
        written.append(out / f"{name}.json")
        written[-1].write_text(json.dumps(cfg))
        runs[name] = ("simulate-log", written[-1])
    for name, (subcommand, cfg_path) in runs.items():
        run_cli(subcommand, cfg_path, out / name)
        run_cli(subcommand, out / name / "manifest.json",
                out / f"{name}-replay")
    for path in written:
        path.unlink()


def moment_reports(out):
    cfg = config.load_config(str(REPO / "configs" / "benchmark3.json"))
    spec, horizon, dt, _, seed, _ = config.parse_simulate(cfg)
    with open(out, "w") as fp:
        for k in range(24):
            report = calibration.compute_moments(equilibrium.simulate_paths(
                spec, horizon, dt, seed + k, 200))
            fp.write(f"{seed + k} {report!r}\n")


def fits(out):
    cfg = config.load_config(str(REPO / "configs" /
                                 "fit_default_targets.json"))
    problem, targets = config.parse_fit(cfg), config.parse_targets(cfg)
    with open(out, "w") as fp:
        for k in range(48):
            result = calibration.fit_parameters(
                dataclasses.replace(problem, seed=problem.seed + k), targets)
            fp.write(f"{problem.seed + k} {result!r}\n")


def feedback_line(task):
    cfg, seed, n_diligent = task
    try:
        res = feedback.run_feedback(dataclasses.replace(
            cfg, seed=seed, n_diligent=n_diligent))
    except FixedPointError as exc:
        line = f"error {exc}"
    else:
        digest = hashlib.sha256()
        for values in (res.stock, res.stock_ideal, res.xi, res.log_ratio,
                       res.solver_warnings, res.residuals):
            digest.update(values.tobytes())
        line = f"{digest.hexdigest()} {res.metrics!r}"
    return f"{seed} {n_diligent} {line}\n"


def sweep_line(task):
    cfg, seed = task
    try:
        table = feedback.diligence_sweep(cfg, SWEEP_COUNTS, [seed])
    except FixedPointError as exc:
        run = {k: v for k, v in exc.diagnostics.items()
               if k not in ("seed", "n_diligent")}
        line = f"error {type(exc).__name__} {exc.step} {run!r}"
    else:
        line = repr({c: rows[0] for c, rows in table.items()})
    return f"{seed} {line}\n"


def write_lines(out, fn, tasks):
    """fn(task) for each task, one output line each, in task order: the
    tasks are split across the usable CPUs by ``numerics.fork_map``."""
    with open(out, "w") as fp:
        fp.writelines(numerics.fork_map(fn, tasks))


def sweep_config():
    return config.parse_feedback(config.load_config(
        str(REPO / "configs" / "feedback_diligence_sweep.json")))


def feedback_runs(out):
    cfg = sweep_config()
    write_lines(out, feedback_line, [
        (cfg, seed, n_diligent) for seed in range(40)
        for n_diligent in SWEEP_COUNTS])


def sweeps(out):
    cfg = sweep_config()
    write_lines(out, sweep_line, [(cfg, seed) for seed in range(40)])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="output directory (must not exist)")
    out = Path(ap.parse_args().out).resolve()
    out.mkdir(parents=True, exist_ok=False)
    os.chdir(REPO)  # configs name their input files relative to the root
    cli_outputs(out / "cli")
    moment_reports(out / "moments.txt")
    fits(out / "fits.txt")
    feedback_runs(out / "feedback.txt")
    sweeps(out / "sweep.txt")


if __name__ == "__main__":
    main()
