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
  diagnostics, leaving out the seed, the count and the message, which
  read as in that count's single run in ``feedback.txt``;
* ``errors.txt``: one line per invalid run of ``ERROR_CASES`` (54 configs
  and flags, each with one fault: a non-object item, a missing field, a
  non-number, a non-finite number, a count past ``MAX_COUNT``, a span
  that dt does not cut into whole steps, a value <= 0, an unknown or
  misplaced fit parameter, an unread key or flag, and more), run through ``cli.main`` in this process: its name, exit code
  and last line of stderr, with the temporary directory shown as
  ``<tmp>``.  An input-layer change shows its messages byte for byte.

Run it in both checkouts (copy it into the older one if it is missing
there), then ``diff -r OUT_A OUT_B``: no output means every output is
identical.

    python scripts/identity_outputs.py OUT --digest FILE

also writes to FILE, as JSON, the sha256 of every output file (by its
path under OUT) and of each line of the top-level .txt files, with the
Python, numpy and scipy versions that produced them.
``tests/identity_digest.json`` is such a digest, and
``tests/test_scripts.py`` re-runs a subset of the outputs against it; a
change that alters an output records the digest again.

The 240 single feedback runs and the 40 sweeps go through
``numerics.fork_map``, one task per output line, so they are split across
the usable CPUs and their lines come out in order.  It takes 55-80 s on a
2-core Xeon whose speed drifts (100-111 s when those ran one after
another): the single runs take about 35 % of that, the sweeps, which step
their six counts together, about 25 %, the CLI runs about 25 %, and the
fits and the moment reports, which ``compute_moments`` splits across the
CPUs, about 4 s each, and the invalid runs of ``errors.txt`` about 1 s.
"""

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
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


_MARKET = {"market": {"sigma": 0.3, "agents": [
    {"impatience": 0.05, "weight": 1.0,
     "belief": {"type": "constant", "drift": 0.1}},
    {"impatience": 0.2, "weight": 2.0,
     "belief": {"type": "bayesian", "prior_mean": 0.0,
                "prior_precision": 2.0}}]},
    "horizon_years": 2.0, "dt": 1.0 / 52.0, "n_paths": 2, "seed": 5}
_FEEDBACK = {"n_agents": 4, "n_diligent": 0, "n_steps": 20, "seed": 1}
_CONTEST = {"agents": [
    {"risk_aversion": 1.0, "mean_belief": 0.05, "belief_variance": 0.04},
    {"risk_aversion": 2.0, "mean_belief": 0.02, "belief_variance": 0.09}]}
_FIT = {"n_agents": 1, "n_paths": 2, "horizon_years": 2.0, "dt": 1 / 52,
        "free": [{"name": "sigma", "lower": 0.1, "upper": 0.5,
                  "start": 0.2}]}
_INGEST = {"csv": "configs/sample_price_dividend.csv"}
_BIG = 10 ** 30   # past MAX_COUNT, and a JSON integer no array can hold


def _edit(base, path, value=None):
    """A deep copy of ``base`` with ``value`` at the ``path`` of keys and
    indexes, or without that key when ``value`` is None."""
    cfg = copy.deepcopy(base)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return cfg


_AGENT = ("market", "agents", 0)
#: name -> (subcommand, config, extra arguments): each an invalid run
ERROR_CASES = {
    "market-agent-not-object": ("simulate-log", _edit(_MARKET, _AGENT, 5), []),
    "beauty-agent-not-object": ("beauty", _edit(_CONTEST, ("agents", 1), "x"),
                                []),
    "fit-free-not-object": ("fit", _edit(_FIT, ("free", 0), 3), []),
    "market-missing": ("simulate-log", _edit(_MARKET, ("market",)), []),
    "market-agents-missing": ("simulate-log",
                              _edit(_MARKET, ("market", "agents")), []),
    "market-agents-not-list": ("simulate-log",
                               _edit(_MARKET, ("market", "agents"), "x"), []),
    "market-agents-empty": ("simulate-log",
                            _edit(_MARKET, ("market", "agents"), []), []),
    "market-sigma-missing": ("simulate-log",
                             _edit(_MARKET, ("market", "sigma")), []),
    "belief-type-missing": ("simulate-log",
                            _edit(_MARKET, _AGENT + ("belief", "type")), []),
    "belief-type-unknown": ("simulate-log", _edit(
        _MARKET, _AGENT + ("belief", "type"), "random"), []),
    "belief-not-object": ("simulate-log",
                          _edit(_MARKET, _AGENT + ("belief",), 1.0), []),
    "agent-weight-string": ("simulate-log",
                            _edit(_MARKET, _AGENT + ("weight",), "2.5"), []),
    "agent-weight-and-wealth": ("simulate-log", _edit(
        _MARKET, _AGENT + ("initial_wealth",), 3.0), []),
    "agent-impatience-negative": ("simulate-log", _edit(
        _MARKET, ("market", "agents", 1, "impatience"), -0.2), []),
    "prior-precision-zero": ("simulate-log", _edit(
        _MARKET, ("market", "agents", 1, "belief", "prior_precision"), 0.0),
        []),
    "market-sigma-infinite": ("simulate-log", _edit(
        _MARKET, ("market", "sigma"), float("inf")), []),
    "horizon-nan": ("simulate-log",
                    _edit(_MARKET, ("horizon_years",), float("nan")), []),
    "horizon-odd-span": ("simulate-log", _edit(_MARKET, ("dt",), 0.3), []),
    "paths-over-ceiling": ("simulate-log", _edit(_MARKET, ("n_paths",), _BIG),
                           []),
    "write-paths-over-paths": ("simulate-log",
                               _edit(_MARKET, ("write_paths",), 3), []),
    "agent-key-unread": ("simulate-log",
                         _edit(_MARKET, _AGENT + ("wieght",), 1.0), []),
    "seed-flag-negative": ("simulate-log", _MARKET, ["--seed", "-1"]),
    "simulate-paths-flag": ("simulate-log", _MARKET, ["--paths", "2"]),
    "simulate-flag-unread": ("simulate-log", _MARKET, ["--parallel", "2"]),
    "feedback-agents-missing": ("feedback", _edit(_FEEDBACK, ("n_agents",)),
                                []),
    "feedback-steps-over-ceiling": ("feedback",
                                    _edit(_FEEDBACK, ("n_steps",), _BIG), []),
    "feedback-growth-nan": ("feedback", _edit(
        _FEEDBACK, ("growth_true",), float("nan")), []),
    "feedback-sigma-zero": ("feedback", _edit(_FEEDBACK, ("sigma_true",), 0.0),
                            []),
    "feedback-range-string": ("feedback",
                              _edit(_FEEDBACK, ("rho_range",), [0.04, "x"]),
                              []),
    "feedback-years-unread": ("feedback", _edit(_FEEDBACK, ("years",), 3.0),
                              []),
    "feedback-years-odd-span": ("feedback", dict(
        _edit(_FEEDBACK, ("n_steps",)), years=0.1), []),
    "feedback-flag-unread": ("feedback", _FEEDBACK, ["--paths", "2"]),
    "feedback-single-diligence-values": ("feedback", _edit(
        _FEEDBACK, ("diligence_values",), [0, 2]), []),
    "beauty-mean-missing": ("beauty", _edit(
        _CONTEST, ("agents", 0, "mean_belief")), []),
    "beauty-variance-zero": ("beauty", _edit(
        _CONTEST, ("agents", 1, "belief_variance"), 0.0), []),
    "beauty-one-agent": ("beauty", {"agents": _CONTEST["agents"][:1]}, []),
    "beauty-flag-unread": ("beauty", _CONTEST, ["--seed", "2"]),
    "fit-start-missing": ("fit", _edit(_FIT, ("free", 0, "start")), []),
    "fit-lower-string": ("fit", _edit(_FIT, ("free", 0, "lower"), "a"), []),
    "fit-horizon-odd-span": ("fit", _edit(_FIT, ("dt",), 0.3), []),
    "fit-bounds-crossed": ("fit", _edit(_FIT, ("free", 0, "upper"), 0.05),
                           []),
    "fit-start-outside": ("fit", _edit(_FIT, ("free", 0, "start"), 0.6), []),
    "fit-bounds-not-positive": ("fit",
                                _edit(_FIT, ("free", 0, "lower"), -0.1), []),
    "fit-parameter-unknown": ("fit",
                              _edit(_FIT, ("free", 0, "name"), "kappa"), []),
    "fit-parameter-no-agent": ("fit",
                               _edit(_FIT, ("free", 0, "name"), "rho_1"), []),
    "fit-parameter-leading-zero": ("fit", _edit(
        _FIT, ("free", 0, "name"), "alpha_00"), []),
    "fit-parameter-superscript": ("fit", _edit(
        _FIT, ("free", 0, "name"), "rho_\u00b2"), []),
    "fit-free-and-fixed": ("fit", _edit(_FIT, ("fixed",), {"sigma": 0.2}), []),
    "fit-fixed-not-positive": ("fit", _edit(_FIT, ("fixed",), {"rho_0": 0.0}),
                               []),
    "fit-fixed-nan": ("fit",
                      _edit(_FIT, ("fixed",), {"alpha_0": float("nan")}), []),
    "fit-iterations-over-ceiling": ("fit", _edit(
        _FIT, ("max_iterations",), _BIG), []),
    "fit-target-zero": ("fit", _edit(_FIT, ("targets",), {"mean_pd": 0.0}),
                        []),
    "ingest-csv-missing": ("ingest", {}, []),
    "ingest-min-years-zero": ("ingest", dict(_INGEST, min_years=0.0), []),
}


def error_lines(out):
    with tempfile.TemporaryDirectory() as tmp, \
            open(out, "w", encoding="utf-8") as fp:
        for k, (name, (subcommand, cfg, extra)) in enumerate(
                ERROR_CASES.items()):
            cfg_path = Path(tmp) / f"{k}.json"
            cfg_path.write_text(json.dumps(cfg))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main([subcommand, "--config", str(cfg_path),
                                     "--out", str(Path(tmp) / f"out{k}"),
                                     *extra])
                except SystemExit as exc:  # argparse rejects a flag
                    code = exc.code
            last = (stderr.getvalue().strip().splitlines() or [""])[-1]
            fp.write(f"{name} {code} {last.replace(tmp, '<tmp>')}\n")


def moment_line(k):
    """Line k of moments.txt."""
    cfg = config.load_config(str(REPO / "configs" / "benchmark3.json"))
    spec, horizon, dt, _, seed, _ = config.parse_simulate(cfg)
    report = calibration.compute_moments(equilibrium.simulate_paths(
        spec, horizon, dt, seed + k, 200))
    return f"{seed + k} {report!r}\n"


def fit_line(k):
    """Line k of fits.txt."""
    cfg = config.load_config(str(REPO / "configs" /
                                 "fit_default_targets.json"))
    problem, targets = config.parse_fit(cfg), config.parse_targets(cfg)
    result = calibration.fit_parameters(
        dataclasses.replace(problem, seed=problem.seed + k), targets)
    return f"{problem.seed + k} {result!r}\n"


def moment_reports(out):
    with open(out, "w") as fp:
        fp.writelines(moment_line(k) for k in range(24))


def fits(out):
    with open(out, "w") as fp:
        fp.writelines(fit_line(k) for k in range(48))


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


def feedback_tasks(seeds):
    """The tasks of feedback.txt's lines for ``seeds``, in line order."""
    cfg = sweep_config()
    return [(cfg, seed, n_diligent) for seed in seeds
            for n_diligent in SWEEP_COUNTS]


def feedback_runs(out):
    write_lines(out, feedback_line, feedback_tasks(range(40)))


def sweeps(out):
    cfg = sweep_config()
    write_lines(out, sweep_line, [(cfg, seed) for seed in range(40)])


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def versions():
    """The versions of Python, numpy and scipy, which a digest records."""
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def digest(out):
    """The sha256 of every file under ``out`` by its relative path, of each
    line of its top-level .txt files, and the versions."""
    files = {path.relative_to(out).as_posix(): sha256(path.read_bytes())
             for path in sorted(out.rglob("*")) if path.is_file()}
    lines = {path.name: [sha256(line) for line in
                         path.read_bytes().splitlines(keepends=True)]
             for path in sorted(out.glob("*.txt"))}
    return {"versions": versions(), "files": files, "lines": lines}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="output directory (must not exist)")
    ap.add_argument("--digest", metavar="FILE",
                    help="also write the outputs' digest (JSON) to FILE")
    args = ap.parse_args()
    out = Path(args.out).resolve()
    digest_path = args.digest and Path(args.digest).resolve()
    out.mkdir(parents=True, exist_ok=False)
    os.chdir(REPO)  # configs name their input files relative to the root
    error_lines(out / "errors.txt")
    cli_outputs(out / "cli")
    moment_reports(out / "moments.txt")
    fits(out / "fits.txt")
    feedback_runs(out / "feedback.txt")
    sweeps(out / "sweep.txt")
    if digest_path:
        with open(digest_path, "w") as fp:
            json.dump(digest(out), fp, indent=1, sort_keys=True)
            fp.write("\n")


if __name__ == "__main__":
    main()
