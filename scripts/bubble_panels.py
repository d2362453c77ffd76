"""Two-panel bubble/crash series across diligence counts.

For the population of a single-run feedback config (by default
configs/feedback_30agents.json: 30 investors, 25 years, master seed 1),
runs the daily feedback simulator at a range of diligent counts, writing
one plot-ready CSV per run: the upper-panel series log(S*/delta) and the
lower-panel series log(S/S*).  The dividend path (hence the upper panel)
is identical across runs with the same seed.

Usage:
    python scripts/bubble_panels.py --config configs/feedback_30agents.json \
        --out runs/panels --diligent 0 1 5 10 25
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from beliefmkt.cli import write_csv
from beliefmkt.config import check_read, parse_feedback, read_config
from beliefmkt.errors import ConfigError, NumericError
from beliefmkt.feedback import diligence_counts, run_feedback

REPO = Path(__file__).resolve().parents[1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default=str(
        REPO / "configs" / "feedback_30agents.json"))
    ap.add_argument("--out", default="runs/panels")
    ap.add_argument("--diligent", type=int, nargs="+",
                    default=[0, 1, 5, 10, 25])
    args = ap.parse_args()
    # every argument is checked before the first run or --out is made
    try:
        cfg = read_config(args.config, "feedback")
        setup = parse_feedback(cfg)
        check_read(cfg)
    except ConfigError as exc:
        ap.error(f"argument --config: {exc}")
    try:
        counts = diligence_counts(setup, args.diligent)
    except ConfigError as exc:
        ap.error(f"argument --diligent: {exc}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"{'diligent':>8} {'range':>8} {'min':>8} {'max':>8} {'jumps':>6}")
    try:
        for n_dil in counts:
            res = run_feedback(replace(setup, n_diligent=n_dil))
            name = f"panels_{setup.n_agents}A_{n_dil}D_seed{setup.seed}.csv"
            write_csv(out, name, res)
            m = res.metrics
            print(f"{n_dil:8d} {m['log_ratio_range']:8.3f} "
                  f"{m['log_ratio_min']:8.3f} {m['log_ratio_max']:8.3f} "
                  f"{m['n_jumps']:6d}   -> {out / name}")
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        sys.exit(3)


if __name__ == "__main__":
    main()
