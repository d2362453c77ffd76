"""How much do diligent investors damp mispricing?

Sweeps master seeds and diligence counts, reporting the distribution of
the range of log(S/S*) and the count of outsized daily moves.

Usage:
    python scripts/diligence_severity.py --seeds 20 --years 5
"""

import argparse
from dataclasses import replace

import numpy as np

from beliefmkt.errors import ConfigError, step_count
from beliefmkt.feedback import (FeedbackConfig, diligence_counts,
                                diligence_sweep)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--agents", type=int, default=30)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--years", type=float, default=5.0)
    ap.add_argument("--diligent", type=int, nargs="+",
                    default=[0, 5, 10, 25])
    args = ap.parse_args()

    def check(flag, make):
        """make(), or exit 2 naming --flag with the ConfigError it raises."""
        try:
            return make()
        except ConfigError as exc:
            ap.error(f"argument --{flag}: {exc}")

    # every argument is checked on its own before the first run
    base = check("agents", lambda: FeedbackConfig(
        n_agents=args.agents, n_diligent=0, n_steps=1, seed=0))
    n_steps = check("years", lambda: step_count(args.years, FeedbackConfig.dt,
                                                "years"))
    check("diligent", lambda: diligence_counts(base, args.diligent))
    if args.seeds < 1:
        ap.error("argument --seeds: must be >= 1")
    cfg = replace(base, n_steps=n_steps)

    table = diligence_sweep(cfg, args.diligent, list(range(args.seeds)))
    print(f"{'diligent':>8} {'mean range':>11} {'median':>8} {'max':>8} "
          f"{'mean jumps':>11}")
    for n_dil in args.diligent:
        ranges = np.array([r["log_ratio_range"] for r in table[n_dil]])
        jumps = np.array([r["n_jumps"] for r in table[n_dil]])
        print(f"{n_dil:8d} {ranges.mean():11.4f} {np.median(ranges):8.4f} "
              f"{ranges.max():8.4f} {jumps.mean():11.2f}")


if __name__ == "__main__":
    main()
