"""Command-line front end.

Subcommands: simulate-log, feedback, beauty, fit, ingest.  Every run takes
a JSON config (--config), an output directory (--out) and writes there a
manifest.json that can itself be passed back as --config to replay the run
byte for byte.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

import argparse
import json
import sys
from pathlib import Path

from . import (__version__, beauty, calibration, config, equilibrium,
               feedback)
from .errors import MAX_COUNT, ConfigError, NumericError, SaturationError


def _start(args, cfg):
    """Make --out and its manifest.json once every config key is read."""
    config.check_read(cfg)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        config.write_manifest(out, args.subcommand, cfg)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from None
    return out


def cmd_simulate_log(cfg, args):
    spec, horizon, dt, n_paths, seed, write_paths = config.parse_simulate(cfg)
    out = _start(args, cfg)

    def paths():
        for p, path in enumerate(equilibrium.simulate_paths(
                spec, horizon, dt, seed, n_paths)):
            if p < write_paths:
                bad = path.first_non_finite()
                if bad:
                    raise SaturationError(
                        f"path_{p:03d}.csv: column {bad[0]} is not finite "
                        f"at t={bad[1]!r}; the file is not written")
                with open(out / f"path_{p:03d}.csv", "w") as fp:
                    path.write_csv(fp)
            yield path

    report = calibration.compute_moments(paths())
    with open(out / "summary.txt", "w") as fp:
        fp.write(f"paths={n_paths} horizon_years={horizon:.17g} dt={dt:.17g} "
                 f"seed={seed}\n")
        for name, value in report.as_dict().items():
            fp.write(f"{name}={value:.17g}\n")
    return 0


def cmd_feedback(cfg, args):
    setup = config.parse_feedback(cfg)
    sweep = config._get(cfg, "seed_sweep", int, default=0)
    if not 0 <= sweep <= MAX_COUNT:
        raise ConfigError(f"seed_sweep: must be >= 0 and at most {MAX_COUNT}")
    if sweep:  # a single run reads no counts, so it rejects diligence_values
        counts = feedback.diligence_counts(setup, config._get(
            cfg, "diligence_values", list, default=[0, setup.n_diligent]))
    out = _start(args, cfg)
    if sweep:
        seeds = list(range(setup.seed, setup.seed + sweep))
        # keyed by each distinct count once, in order: the default is [0]
        # when n_diligent is 0
        table = feedback.diligence_sweep(setup, counts, seeds)
        with open(out / "sweep.txt", "w") as fp:
            fp.write("n_diligent,seed,log_ratio_range,n_jumps\n")
            for n_dil, rows in table.items():
                for seed, row in zip(seeds, rows):
                    fp.write(f"{n_dil},{seed},{row['log_ratio_range']:.17g},"
                             f"{row['n_jumps']}\n")
            for n_dil, rows in table.items():
                mean_range = sum(r["log_ratio_range"] for r in rows) \
                    / len(seeds)
                fp.write(f"mean_range[n_diligent={n_dil}]={mean_range:.17g}\n")
        return 0
    result = feedback.run_feedback(setup)
    with open(out / "series.csv", "w") as fp:
        result.write_csv(fp)
    with open(out / "metrics.txt", "w") as fp:
        for key, value in result.metrics.items():
            fp.write(f"{key}={value:.17g}\n" if isinstance(value, float)
                     else f"{key}={value}\n")
    return 0


def cmd_beauty(cfg, args):
    spec = config.parse_contest(cfg)
    write_csv = config._get(cfg, "csv", bool, default=False)
    report = beauty.welfare_comparison(spec)
    out = _start(args, cfg)
    with open(out / "contest.txt", "w") as fp:
        fp.write(beauty.format_solution(spec, report) + "\n")
    if write_csv:
        truthful, faked = report.truthful, report.faked
        columns = (spec.risk_aversion, spec.mean_belief, spec.belief_variance,
                   truthful.weights, truthful.holdings, truthful.objectives,
                   faked.professed, faked.holdings, faked.objectives,
                   report.improved)
        row = "%d" + ",%.17g" * 9 + ",%s\n"
        with open(out / "contest.csv", "w") as fp:
            fp.write("agent,gamma,alpha,variance,p,theta,objective,"
                     "alpha_faked,theta_faked,objective_faked,improved\n")
            for j, values in enumerate(zip(*(c.tolist() for c in columns))):
                fp.write(row % (j, *values))
    return 0


def cmd_fit(cfg, args):
    problem = config.parse_fit(cfg)
    targets = config.parse_targets(cfg)
    out = _start(args, cfg)
    result = calibration.fit_parameters(problem, targets)
    with open(out / "fit_result.json", "w") as fp:
        json.dump({
            "values": {k: result.values[k] for k in sorted(result.values)},
            "loss": result.loss,
            "n_evaluations": result.n_evaluations,
            "converged": result.converged,
            "moments": result.report.as_dict(),
        }, fp, indent=2, sort_keys=True)
        fp.write("\n")
    with open(out / "comparison.txt", "w") as fp:
        fp.write(calibration.comparison_table(result.report, targets) + "\n")
        fp.write(f"\nloss={result.loss:.17g}\n")
    return 0


def cmd_ingest(cfg, args):
    csv_path = config._get(cfg, "csv", str)
    min_years = config._get(cfg, "min_years", float, default=10.0,
                            positive=True)
    try:
        report = calibration.ingest_price_dividend_csv(csv_path,
                                                       min_years=min_years)
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"csv: {exc}") from None
    out = _start(args, cfg)
    with open(out / "targets.json", "w") as fp:
        payload = report.targets.as_dict()
        payload["provenance"] = report.targets.provenance
        payload["n_rows"] = report.n_rows
        payload["first_date"] = report.first_date
        payload["last_date"] = report.last_date
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return 0


_COMMANDS = {
    "simulate-log": (cmd_simulate_log, "simulate equilibrium paths and report moments"),
    "feedback": (cmd_feedback, "run the mistaken-beliefs feedback simulator"),
    "beauty": (cmd_beauty, "solve the one-period professed-beliefs contest"),
    "fit": (cmd_fit, "search parameters to match target moments"),
    "ingest": (cmd_ingest, "compute empirical targets from a price/dividend CSV"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="beliefmkt",
        description="asset-market equilibrium engine with heterogeneous beliefs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config or manifest")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config.load_config(args.config)
        declared = cfg.pop("subcommand", None)
        if declared is not None and declared != args.subcommand:
            raise ConfigError(
                f"config is for subcommand '{declared}', not '{args.subcommand}'")
        return _COMMANDS[args.subcommand][0](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
