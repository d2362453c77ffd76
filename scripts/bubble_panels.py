"""Two-panel bubble/crash series across diligence counts.

For one master seed, runs the daily feedback simulator with 30 (or
--agents N) investors and a range of diligent counts, writing one
plot-ready CSV per run: the upper-panel series log(S*/delta) and the
lower-panel series log(S/S*).  The dividend path (hence the upper panel)
is identical across runs with the same seed.

Usage:
    python scripts/bubble_panels.py --out runs/panels --seed 1 --years 25
"""

import argparse
from dataclasses import replace
from pathlib import Path

from beliefmkt.errors import ConfigError, step_count
from beliefmkt.feedback import FeedbackConfig, diligence_counts, run_feedback


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="runs/panels")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--agents", type=int, default=30)
    ap.add_argument("--years", type=float, default=25.0)
    ap.add_argument("--diligent", type=int, nargs="+",
                    default=[0, 1, 5, 10, 25])
    args = ap.parse_args()

    def check(flag, make):
        """make(), or exit 2 naming --flag with the ConfigError it raises."""
        try:
            return make()
        except ConfigError as exc:
            ap.error(f"argument --{flag}: {exc}")

    # every argument is checked on its own before the first run or --out
    # is made
    base = check("agents", lambda: FeedbackConfig(
        n_agents=args.agents, n_diligent=0, n_steps=1, seed=args.seed))
    n_steps = check("years", lambda: step_count(args.years, FeedbackConfig.dt,
                                                "years"))
    check("diligent", lambda: diligence_counts(base, args.diligent))
    if args.seed < 0:
        ap.error("argument --seed: must be >= 0")
    configs = [replace(base, n_diligent=n_dil, n_steps=n_steps)
               for n_dil in args.diligent]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"{'diligent':>8} {'range':>8} {'min':>8} {'max':>8} {'jumps':>6}")
    for n_dil, cfg in zip(args.diligent, configs):
        res = run_feedback(cfg)
        name = out / f"panels_{args.agents}A_{n_dil}D_seed{args.seed}.csv"
        with open(name, "w") as fp:
            res.write_csv(fp)
        m = res.metrics
        print(f"{n_dil:8d} {m['log_ratio_range']:8.3f} "
              f"{m['log_ratio_min']:8.3f} {m['log_ratio_max']:8.3f} "
              f"{m['n_jumps']:6d}   -> {name}")


if __name__ == "__main__":
    main()
