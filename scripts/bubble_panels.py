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
from pathlib import Path

from beliefmkt.errors import ConfigError, step_count
from beliefmkt.feedback import FeedbackConfig, run_feedback


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="runs/panels")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--agents", type=int, default=30)
    ap.add_argument("--years", type=float, default=25.0)
    ap.add_argument("--diligent", type=int, nargs="+",
                    default=[0, 1, 5, 10, 25])
    args = ap.parse_args()
    # every run's config is built before the first run or --out is made
    try:
        n_steps = step_count(args.years, FeedbackConfig.dt, "years")
        configs = [FeedbackConfig(n_agents=args.agents, n_diligent=n_dil,
                                  n_steps=n_steps, seed=args.seed)
                   for n_dil in args.diligent]
    except ConfigError as exc:
        ap.error(str(exc))
    if args.seed < 0:
        ap.error("seed must be >= 0")

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
