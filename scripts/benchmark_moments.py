"""Moment report for the three-agent benchmark calibration.

Simulates the market of a simulate-log config (configs/benchmark3.json
by default), at its n_paths, dt and seed, over a grid of horizons and
prints the pooled moment report next to the built-in empirical
targets.  The moments drift with the horizon because the consumption
weights concentrate as the impatient and badly-calibrated investors lose
ground; comparing horizons makes that visible.

Usage:
    python scripts/benchmark_moments.py --config configs/benchmark3.json \
        --horizons 50 128
"""

import argparse
import sys
from pathlib import Path

from beliefmkt.calibration import (DEFAULT_TARGETS, compute_moments,
                                   comparison_table)
from beliefmkt.config import check_read, parse_simulate, read_config
from beliefmkt.equilibrium import simulate_paths
from beliefmkt.errors import ConfigError, NumericError, step_count

REPO = Path(__file__).resolve().parents[1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default=str(REPO / "configs" / "benchmark3.json"))
    ap.add_argument("--horizons", type=float, nargs="+", default=[50.0, 128.0])
    args = ap.parse_args()
    # every argument is checked before the first run
    try:
        cfg = read_config(args.config, "simulate-log")
        spec, _, dt, n_paths, seed, _ = parse_simulate(cfg)
        check_read(cfg)
    except ConfigError as exc:
        ap.error(f"argument --config: {exc}")
    try:
        for horizon in args.horizons:
            step_count(horizon, dt, "horizon")
    except ConfigError as exc:
        ap.error(f"argument --horizons: {exc}")

    try:
        for horizon in args.horizons:
            report = compute_moments(simulate_paths(spec, horizon, dt, seed,
                                                    n_paths))
            print(f"\n=== horizon {horizon:g} years, {n_paths} paths ===")
            print(comparison_table(report, DEFAULT_TARGETS))
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        sys.exit(3)


if __name__ == "__main__":
    main()
