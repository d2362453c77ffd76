"""A/B-time one diligence sweep cell of two checkouts in one process.

    python scripts/ab_feedback.py OLD NEW FIRST LAST

Loads the ``src/beliefmkt`` of the checkouts OLD and NEW, each under a
package name of its own, with ``numerics._usable_cpus`` patched to 1 so
that every sweep runs in this process.  For each master seed FIRST .. LAST
it runs ``diligence_sweep(cfg, [0, 25, 30], [seed])`` on
``configs/feedback_diligence_sweep.json`` on both sides, the side that runs
first alternating from seed to seed, times each in CPU time
(``time.process_time``) and checks that both sides give equal metrics (or
the same error).  It prints each seed's NEW/OLD time ratio, then the
median ratio and the number of seeds on which NEW took less time.  Passing
one checkout as both OLD and NEW gives the A/A spread.
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

COUNTS = [0, 25, 30]


class Side:
    """One checkout's package, loaded as ``name``, and its sweep config."""

    def __init__(self, checkout, name):
        root = Path(checkout).resolve()
        src = root / "src" / "beliefmkt"
        spec = importlib.util.spec_from_file_location(
            name, src / "__init__.py", submodule_search_locations=[str(src)])
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
        self.name = name
        self.feedback = importlib.import_module(f"{name}.feedback")
        self.errors = importlib.import_module(f"{name}.errors")
        importlib.import_module(f"{name}.numerics")._usable_cpus = lambda: 1
        config = importlib.import_module(f"{name}.config")
        self.base = config.parse_feedback(config.load_config(
            str(root / "configs" / "feedback_diligence_sweep.json")))

    def sweep(self, seed):
        """(CPU seconds, outcome) of the seed's cell: its metrics table,
        or the message of the error it raises."""
        start = time.process_time()
        try:
            outcome = self.feedback.diligence_sweep(self.base, COUNTS, [seed])
        except self.errors.FixedPointError as exc:
            outcome = f"FixedPointError: {exc}"
        return time.process_time() - start, outcome


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="checkout of the reference side")
    ap.add_argument("new", help="checkout of the side to compare")
    ap.add_argument("first", type=int, help="first master seed")
    ap.add_argument("last", type=int, help="last master seed (included)")
    args = ap.parse_args()

    old, new = Side(args.old, "beliefmkt_old"), Side(args.new, "beliefmkt_new")
    for side in (old, new):   # untimed: lazy imports and caches settle
        side.sweep(args.first)
    ratios = []
    for i, seed in enumerate(range(args.first, args.last + 1)):
        order = (old, new) if i % 2 == 0 else (new, old)
        runs = {side.name: side.sweep(seed) for side in order}
        (old_s, want), (new_s, got) = runs[old.name], runs[new.name]
        if got != want:
            sys.exit(f"seed {seed}: the two sides' metrics differ")
        ratios.append(new_s / old_s)
        first = "new" if order[0] is new else "old"
        print(f"seed {seed:3d}  {first} first  old {old_s:.3f} s  "
              f"new {new_s:.3f} s  ratio {ratios[-1]:.3f}", flush=True)
    wins = sum(r < 1.0 for r in ratios)
    print(f"median ratio {statistics.median(ratios):.3f}  "
          f"new faster on {wins} of {len(ratios)} seeds")


if __name__ == "__main__":
    main()
