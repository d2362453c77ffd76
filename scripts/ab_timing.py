"""A/B-time feedback sweeps, fits, moment reports or written paths of two
checkouts in one process.

    python scripts/ab_timing.py MODE OLD NEW FIRST LAST

Loads the ``src/beliefmkt`` of the checkouts OLD and NEW, each under a
package name of its own, with ``numerics._usable_cpus`` patched to 1 so
that every run stays in this process, whose CPU time is the one measured.
For each seed FIRST .. LAST it runs MODE on both sides, the side that runs
first alternating from seed to seed, times each in CPU time
(``time.process_time``) and checks that both sides give the same
outcome (or the same error), stopping at the first seed where they do
not:

* ``feedback``: ``diligence_sweep(cfg, [0, 25, 30], [seed])`` on
  ``configs/feedback_diligence_sweep.json``; equal metrics tables.
* ``fit``: ``fit_parameters`` on ``configs/fit_default_targets.json`` at
  search seed ``seed``; equal values, loss, ``n_evaluations`` and
  ``converged``.
* ``moments``: ``compute_moments`` over the 200 ``simulate_paths`` paths of
  50 years of ``configs/benchmark3.json`` at master seed ``seed``; report
  dicts whose moments agree within ``MOMENTS_RTOL`` relative, so that a
  change of declared rounding drift can be timed.
* ``paths``: the two ``simulate_paths`` paths of 50 years of
  ``configs/benchmark3.json`` with its third agent a
  ``BayesianGaussian(-0.05, 2)`` learner (the learner market of perfbench's
  cli-outputs and of ``identity_outputs.py``) at master seed ``seed``, each
  written with ``write_csv`` to an ``io.StringIO``; equal headers and
  every value within ``MOMENTS_RTOL`` relative.  Formatting the rows takes
  about 95 % of the time, simulating and deriving the columns the rest.

It prints each seed's NEW/OLD time ratio, then the median ratio, the
number of seeds on which NEW took less time, each side's quartile spread
of CPU times and, in ``moments`` and ``paths`` modes, the largest relative
gap between the two sides' values.  Passing one checkout as both
OLD and NEW gives the A/A spread: on a 2-core Xeon, 24 to 48 seeds resolve
changes of 2-3 %, where the quartiles of a benchmark workload's runs lie
6-18 % apart, but 12 moment reports gave an A/A median of 1.048.
"""

import argparse
import dataclasses
import importlib
import importlib.util
import io
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

COUNTS = [0, 25, 30]
MODES = ("feedback", "fit", "moments", "paths")
# moments and written path values may differ by rounding: far inside
# perfbench's 1e-8 check
MOMENTS_RTOL = 1e-12


class Side:
    """One checkout's package, loaded as ``name``, and the inputs of each
    mode, parsed from its configs."""

    def __init__(self, checkout, name):
        root = Path(checkout).resolve()
        src = root / "src" / "beliefmkt"
        spec = importlib.util.spec_from_file_location(
            name, src / "__init__.py", submodule_search_locations=[str(src)])
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
        self.name = name
        module = {m: importlib.import_module(f"{name}.{m}") for m in (
            "calibration", "config", "equilibrium", "errors", "feedback",
            "numerics")}
        module["numerics"]._usable_cpus = lambda: 1
        self.module = module
        config = module["config"]

        def load(stem):
            return config.load_config(str(root / "configs" / f"{stem}.json"))

        self.sweep_config = config.parse_feedback(
            load("feedback_diligence_sweep"))
        fit = load("fit_default_targets")
        self.problem = config.parse_fit(fit)
        self.targets = config.parse_targets(fit)
        bench3 = load("benchmark3")
        self.market = config.parse_simulate(bench3)[:4]
        bench3["market"]["agents"][2]["belief"] = {
            "type": "bayesian", "prior_mean": -0.05, "prior_precision": 2.0}
        self.learner = config.parse_simulate(bench3)[0]

    def feedback(self, seed):
        return self.module["feedback"].diligence_sweep(
            self.sweep_config, COUNTS, [seed])

    def fit(self, seed):
        result = self.module["calibration"].fit_parameters(
            dataclasses.replace(self.problem, seed=seed), self.targets)
        return (result.values, result.loss, result.n_evaluations,
                result.converged)

    def moments(self, seed):
        spec, horizon, dt, n_paths = self.market
        return self.module["calibration"].compute_moments(
            self.module["equilibrium"].simulate_paths(
                spec, horizon, dt, seed, n_paths)).as_dict()

    def paths(self, seed):
        _, horizon, dt, _ = self.market
        texts = []
        for path in self.module["equilibrium"].simulate_paths(
                self.learner, horizon, dt, seed, 2):
            fp = io.StringIO()
            path.write_csv(fp)
            texts.append(fp.getvalue())
        return texts

    def run(self, mode, seed):
        """(CPU seconds, outcome) of ``mode`` at ``seed``: what it returns,
        or the type and message of the error it raises."""
        start = time.process_time()
        try:
            outcome = getattr(self, mode)(seed)
        except self.module["errors"].BeliefMktError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        return time.process_time() - start, outcome


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=MODES, help="what to time")
    ap.add_argument("old", help="checkout of the reference side")
    ap.add_argument("new", help="checkout of the side to compare")
    ap.add_argument("first", type=int, help="first seed")
    ap.add_argument("last", type=int, help="last seed (included)")
    args = ap.parse_args()

    old, new = Side(args.old, "beliefmkt_old"), Side(args.new, "beliefmkt_new")
    for side in (old, new):   # untimed: lazy imports and caches settle
        side.run(args.mode, args.first)
    old_times, new_times, largest_gap = [], [], 0.0
    for i, seed in enumerate(range(args.first, args.last + 1)):
        order = (old, new) if i % 2 == 0 else (new, old)
        runs = {side.name: side.run(args.mode, seed) for side in order}
        (old_s, want), (new_s, got) = runs[old.name], runs[new.name]
        if args.mode in GAPS and not isinstance(got, str) \
                and not isinstance(want, str):
            gap = GAPS[args.mode][1](got, want)
        else:   # equal outcomes, or the same error
            gap = 0.0 if got == want else math.inf
        if not gap <= MOMENTS_RTOL:
            sys.exit(f"seed {seed}: the two sides' outcomes differ")
        largest_gap = max(largest_gap, gap)
        old_times.append(old_s)
        new_times.append(new_s)
        first = "new" if order[0] is new else "old"
        print(f"seed {seed:3d}  {first} first  old {old_s:.3f} s  "
              f"new {new_s:.3f} s  ratio {new_s / old_s:.3f}", flush=True)
    ratios = [n / o for o, n in zip(old_times, new_times)]
    wins = sum(r < 1.0 for r in ratios)
    print(f"median ratio {statistics.median(ratios):.3f}  "
          f"new faster on {wins} of {len(ratios)} seeds")
    print(f"quartile spread  old {quartile_spread(old_times):.3f} s  "
          f"new {quartile_spread(new_times):.3f} s")
    if args.mode in GAPS:
        print(f"largest relative {GAPS[args.mode][0]} gap {largest_gap:.3g}")


def relative_gap(got, want):
    """The largest relative gap between two moment reports' entries, 0
    where both are equal (NaN included)."""
    return max(0.0 if a == b or math.isnan(a) and math.isnan(b)
               else abs(a - b) / abs(b) if b else math.inf
               for a, b in ((got[k], want[k]) for k in want))


def path_gap(got, want):
    """The largest relative gap between the values of two lists of path
    CSVs, 0 where both are equal; inf unless the headers and the table
    shapes match."""
    gap = 0.0
    for text, reference in zip(got, want, strict=True):
        (head, body), (ref_head, ref_body) = (
            t.split("\n", 1) for t in (text, reference))
        a, b = (np.loadtxt(io.StringIO(t), delimiter=",", ndmin=2)
                for t in (body, ref_body))
        if head != ref_head or a.shape != b.shape:
            return math.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = max(gap, np.where(a == b, 0.0, abs(a - b) / abs(b)).max())
    return float(gap)


# the modes whose two sides may differ by rounding: (what they compare, the
# largest relative gap between two outcomes)
GAPS = {"moments": ("moment", relative_gap), "paths": ("path value", path_gap)}


def quartile_spread(values):
    """Third minus first quartile of ``values``, 0 for a single value."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, method="exclusive")
    return third - first


if __name__ == "__main__":
    main()
