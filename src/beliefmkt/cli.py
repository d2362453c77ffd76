"""Command-line front end.

Subcommands: simulate-log, feedback, beauty, fit, ingest.  Every run takes
a JSON config (--config), an output directory (--out) and writes there a
manifest.json that can itself be passed back as --config to replay the run
byte for byte.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

import argparse
import sys
from pathlib import Path

from . import (__version__, beauty, calibration, config, equilibrium,
               feedback)
from .errors import ConfigError, NumericError, SaturationError


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


def write_csv(out, name, result):
    """Write ``result.write_csv`` to the file ``name`` in ``out``.  A table
    that it refuses (SaturationError) leaves no file, and the error starts
    with the file's name."""
    try:
        with open(out / name, "w") as fp:
            result.write_csv(fp)
    except SaturationError as exc:
        (out / name).unlink()
        raise SaturationError(f"{name}: {exc}; the file is not written") \
            from None


def cmd_simulate_log(cfg, args):
    spec, horizon, dt, n_paths, seed, write_paths = config.parse_simulate(cfg)
    out = _start(args, cfg)

    def paths():
        for p, path in enumerate(equilibrium.simulate_paths(
                spec, horizon, dt, seed, n_paths)):
            if p < write_paths:
                write_csv(out, f"path_{p:03d}.csv", path)
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
    seeds, counts = config.parse_sweep(cfg, setup)
    out = _start(args, cfg)
    if seeds:
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
                # the median as np.median gives it; importing statistics
                # would add about 4 ms to every CLI start
                values = [r["log_ratio_range"] for r in rows]
                ranges, mid = sorted(values), len(values) // 2
                stats = {
                    "mean_range": sum(values) / len(values),
                    "median_range": ranges[mid] if len(ranges) % 2
                    else (ranges[mid - 1] + ranges[mid]) / 2,
                    "max_range": ranges[-1],
                    "mean_jumps": sum(r["n_jumps"] for r in rows) / len(rows)}
                fp.writelines(f"{name}[n_diligent={n_dil}]={value:.17g}\n"
                              for name, value in stats.items())
        return 0
    result = feedback.run_feedback(setup)
    write_csv(out, "series.csv", result)
    with open(out / "metrics.txt", "w") as fp:
        # the counts are whole numbers below MAX_COUNT < 2**53, which
        # .17g prints as str does
        fp.writelines(f"{key}={value:.17g}\n"
                      for key, value in result.metrics.items())
    return 0


def cmd_beauty(cfg, args):
    spec, csv = config.parse_contest(cfg)
    report = beauty.welfare_comparison(spec)
    out = _start(args, cfg)
    with open(out / "contest.txt", "w") as fp:
        fp.write(beauty.format_solution(spec, report) + "\n")
    if csv:
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
    config.write_json(out / "fit_result.json", {
        "values": result.values,
        "loss": result.loss,
        "n_evaluations": result.n_evaluations,
        "converged": result.converged,
        "moments": result.report.as_dict(),
    })
    with open(out / "comparison.txt", "w") as fp:
        fp.write(calibration.comparison_table(result.report, targets) + "\n")
        fp.write(f"\nloss={result.loss:.17g}\n")
    return 0


def cmd_ingest(cfg, args):
    try:
        report = calibration.ingest_price_dividend_csv(
            *config.parse_ingest(cfg))
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"csv: {exc}") from None
    out = _start(args, cfg)
    config.write_json(out / "targets.json", dict(
        report.targets.as_dict(), provenance=report.provenance,
        n_rows=report.n_rows, first_date=report.first_date,
        last_date=report.last_date))
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
        cfg = config.read_config(args.config, args.subcommand)
        return _COMMANDS[args.subcommand][0](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
