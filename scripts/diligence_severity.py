"""How much do diligent investors damp mispricing?

Sweeps the master seeds and diligence counts of a feedback sweep config
(``seed_sweep`` and ``diligence_values``; see the README's config schema),
reporting the distribution of the range of log(S/S*) and the count of
outsized daily moves.

Usage:
    python scripts/diligence_severity.py \
        --config configs/feedback_diligence_sweep.json
"""

import argparse
from pathlib import Path

import numpy as np

from beliefmkt.config import (check_read, parse_feedback, parse_sweep,
                              read_config)
from beliefmkt.errors import ConfigError
from beliefmkt.feedback import diligence_sweep

REPO = Path(__file__).resolve().parents[1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default=str(
        REPO / "configs" / "feedback_diligence_sweep.json"))
    args = ap.parse_args()
    # the whole config is checked before the first run
    try:
        cfg = read_config(args.config, "feedback")
        setup = parse_feedback(cfg)
        seeds, counts = parse_sweep(cfg, setup)
        check_read(cfg)
        if not seeds:
            raise ConfigError("seed_sweep: missing required field")
    except ConfigError as exc:
        ap.error(f"argument --config: {exc}")

    table = diligence_sweep(setup, counts, seeds)
    print(f"{'diligent':>8} {'mean range':>11} {'median':>8} {'max':>8} "
          f"{'mean jumps':>11}")
    for n_dil in counts:
        ranges = np.array([r["log_ratio_range"] for r in table[n_dil]])
        jumps = np.array([r["n_jumps"] for r in table[n_dil]])
        print(f"{n_dil:8d} {ranges.mean():11.4f} {np.median(ranges):8.4f} "
              f"{ranges.max():8.4f} {jumps.mean():11.2f}")


if __name__ == "__main__":
    main()
