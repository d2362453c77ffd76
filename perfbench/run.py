"""beliefmkt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  A run generates its inputs from ``--seed`` and does a fixed
amount of work sized so that it lasts about ``--seconds`` on the reference
host, then checks every output (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a quarter
of that work four times (untraced, traced, traced, untraced) and reports
the per-layer metrics, the tracing overhead (traced minus untraced wall
time) and whether every counter repeated exactly between the two traced
passes.  Spans are written to ``.perfbench_work/spans-<workload>-<pass>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it are
a human-readable report.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import tracer as tracing

SETUP_SAMPLES = 3
# end-to-end passes over the items; each item counts its fastest pass
PASSES = 2

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("work_per_s", "1/s"), ("item_s_p50", "s"),
              ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("feedback.solve_step.calls", "count"),
    ("feedback.solve_step.self_s", "s"),
    ("feedback.scans_per_step", "scans/step"),
    ("feedback.useful_scan_ratio", "ratio"),
    ("feedback.multiroot_steps", "count"),
    ("feedback.log_price_dividend.calls", "count"),
    ("feedback.log_price_dividend.self_s", "s"),
    ("feedback.draw_agents.self_s", "s"),
    ("feedback.run_feedback.self_s", "s"),
    ("feedback.write_csv.self_s", "s"),
    ("feedback.write_csv.bytes", "B"),
    ("numerics.logsumexp.feedback.calls", "count"),
    ("numerics.logsumexp.feedback.self_s", "s"),
    ("numerics.logsumexp.equilibrium.calls", "count"),
    ("numerics.logsumexp.equilibrium.self_s", "s"),
    ("numerics.softmax.feedback.calls", "count"),
    ("numerics.softmax.feedback.self_s", "s"),
    ("numerics.softmax.equilibrium.calls", "count"),
    ("numerics.softmax.equilibrium.self_s", "s"),
    ("numerics.scan_sign_changes.calls", "count"),
    ("numerics.scan_sign_changes.self_s", "s"),
    ("numerics.brentq.calls", "count"),
    ("numerics.brentq.self_s", "s"),
    ("numerics.brentq.fevals", "count"),
    ("beliefs.log_density_increment.calls", "count"),
    ("beliefs.log_density_increment.self_s", "s"),
    ("beliefs.posterior_mean_step.calls", "count"),
    ("beliefs.posterior_mean_step.self_s", "s"),
    ("rngtools.self_s", "s"),
    ("equilibrium.simulate_driver.self_s", "s"),
    ("equilibrium.log_ratio_paths.self_s", "s"),
    ("equilibrium.evaluate_grid.self_s", "s"),
    ("equilibrium.wealth_and_portfolios.self_s", "s"),
    ("equilibrium.trade_volume.self_s", "s"),
    ("equilibrium.path_s_p50", "s"),
    ("equilibrium.grid_points", "count"),
    ("equilibrium.bytes_computed", "B"),
    ("equilibrium.write_csv.self_s", "s"),
    ("equilibrium.write_csv.bytes", "B"),
    ("calibration.compute_moments.self_s", "s"),
    ("calibration.evaluate_point.calls", "count"),
    ("calibration.evaluate_point.self_s", "s"),
    ("calibration.fit_parameters.self_s", "s"),
    ("calibration.objective_evals", "count"),
    ("calibration.ingest_price_dividend_csv.self_s", "s"),
    ("beauty.self_s", "s"),
    ("config.load_config.self_s", "s"),
    ("config.parse.self_s", "s"),
    ("config.write_manifest.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.import_s", "s"),
    ("trace.overhead_s", "s"),
)


def parse_args(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh interpreter that only sets up, to time set-up
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program(root):
    """Import beliefmkt from the checkout's src/; returns the import time."""
    src = root / "src"
    if not (src / "beliefmkt" / "__init__.py").is_file() \
            or not (root / "configs").is_dir():
        raise SystemExit(f"run from a beliefmkt checkout: no src/beliefmkt "
                         f"or configs/ under {root}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import beliefmkt.cli
    import_s = time.perf_counter() - start
    if Path(beliefmkt.__file__).resolve().parent != (src / "beliefmkt").resolve():
        raise SystemExit(f"beliefmkt imported from {beliefmkt.__file__}, "
                         f"not from {src}")
    return import_s


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next(line.split(":", 1)[1].strip() for line in fp
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def blas_threads():
    """OpenBLAS thread count, read from the loaded library if possible."""
    import ctypes
    try:
        with open("/proc/self/maps") as fp:
            libs = sorted({line.split()[-1] for line in fp
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def peak_rss_kb():
    """This process's peak resident memory since its last exec.

    ``ru_maxrss`` is not used: Linux carries the parent's peak over into a
    child started through vfork and exec, which would count the caller's
    memory as the benchmark's.
    """
    try:
        with open("/proc/self/status") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def tail(values):
    """(percentile, value) of the highest percentile with at least ten items
    beyond it, or None where that would not reach the median."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


# ---------------------------------------------------------------------------
# passes


class Pass:
    """Outcome of running a list of items once.

    ``times`` holds, per item, its ``(wall, cpu, measured wall)`` seconds,
    or None where the item failed.  ``wall`` and ``cpu`` are at the
    reference host speed when the pass was normalized (see ``hostspeed``)
    and as measured otherwise.  ``wall_s`` sums ``wall`` over all items.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.times = []
        self.units = 0
        self.attempted = 0
        self.failed = 0


def run_pass(workload, items, tracer=None, sampler=None):
    """Run ``items`` once, traced if a tracer is given, then check them.

    With a sampler the times are normalized to the reference host speed:
    by the sampler's own probes for an in-process workload, by the probes
    the child process ran for one that runs subprocesses.
    """
    restore = tracing.install(tracer) if tracer is not None else None
    try:
        outputs = []
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = i
            before = sampler.reading() if sampler is not None else None
            cpu0 = os.times()
            t0 = time.perf_counter()
            try:
                output = workload.run(item, tracer)
            except Exception as exc:  # an item's failure must not end the run
                traceback.print_exc(file=sys.stderr)
                output = exc
            seconds = time.perf_counter() - t0
            cpu1 = os.times()
            after = sampler.reading() if sampler is not None else None
            outputs.append((seconds, sum(cpu1[:4]) - sum(cpu0[:4]),
                            before, after, output))
    finally:
        if restore is not None:
            restore()

    result = Pass()
    for item, (seconds, cpu, before, after, output) in zip(items, outputs):
        if sampler is not None and not workload.in_process:
            before = hostspeed.Reading()
            after = workload.child_reading(output)
        if after is not None:
            wall, cpu_norm = (hostspeed.normalize(s, before, after)
                              for s in (seconds, cpu))
        else:
            wall, cpu_norm = seconds, cpu
        result.wall_s += wall

        # checks run outside the timed items and untraced
        result.attempted += 1
        errors = [output] if isinstance(output, Exception) \
            else workload.check(item, output)
        if errors:
            result.failed += 1
            result.times.append(None)
            if not isinstance(output, Exception):
                print("\n".join(f"check failed: {e}" for e in errors[:5]),
                      file=sys.stderr)
            continue
        result.times.append((wall, cpu_norm, seconds))
        result.units += workload.units(item, output)
    return result


def setup_samples(args, root):
    """Set-up times of fresh interpreters, from start to imports done,
    configs parsed and inputs generated, each normalized by the host-speed
    probes that interpreter ran."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-probe"]
    raw, normalized = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                                text=True)
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or not line.startswith("ready "):
            raise SystemExit("set-up probe failed")
        reading = hostspeed.Reading(*json.loads(line.split(" ", 1)[1]))
        raw.append(ready)
        normalized.append(hostspeed.normalize(ready, hostspeed.Reading(),
                                              reading))
    return raw, normalized


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, setup):
    raw_setup, setup = setup
    workload.warm_up()
    sampler = hostspeed.Sampler()
    if workload.in_process:
        sampler.start()
    try:
        passes = [run_pass(workload, workload.items, sampler=sampler)
                  for _ in range(PASSES)]
    finally:
        sampler.stop()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # an item's time is its faster pass: the host's slow spells that the
    # probe misses last seconds, and only make items slower
    best = [min(ok) for ok in ([t for t in times if t is not None]
                               for times in zip(*(p.times for p in passes)))
            if ok]
    items, cpu, raw = (list(column) for column in zip(*best)) if best \
        else ([0.0], [0.0], [0.0])
    wall_s = sum(items)
    peak_kb = max([peak_rss_kb()]
                  + [s["peak_rss_kb"] for s in workload.child_stats])
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "cpu_s": sum(cpu),
        "work_per_s": passes[0].units / wall_s,
        "item_s_p50": statistics.median(items),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    report = dict(values)
    t = tail(items)
    report["item_s_tail"] = (f"{t[1]:.4f} (p{t[0]:.0f})" if t else
                             f"n/a (fewer than 20 items)")
    report["failed_frac"] = failed / attempted
    # as measured, before normalizing to the reference host speed
    report["raw_setup_s"] = statistics.median(raw_setup)
    report["raw_wall_s"] = sum(raw)
    report["raw_item_s_p50"] = statistics.median(raw)
    report["host_slowdown"] = sum(raw) / wall_s
    print(f"# {workload.name}: {len(workload.items)} items x {PASSES} "
          f"passes, {passes[0].units} {workload.unit} per pass, setup "
          "samples " + ", ".join(f"{s:.3f}" for s in setup))
    for i, p in enumerate(passes):
        print(f"#   pass {i} item seconds: " + " ".join(
            f"{t[0]:.3f}" if t else "failed" for t in p.times))
    for key, value in report.items():
        print(f"#   {key} = {value}")
    return (attempted, failed, True,
            {name: metric(values[name], unit) for name, unit in END_TO_END})


def per_layer(workload, root, import_s):
    # a quarter of the end-to-end run's work
    items = workload.items[:max(workload.round_size,
                                len(workload.items) * PASSES // 4)]
    # untraced, traced, traced, untraced: a linear drift in host speed
    # cancels out of the overhead estimate
    tracers = [tracing.Tracer(), tracing.Tracer()]
    first = run_pass(workload, items)
    passes = [run_pass(workload, items, tracer) for tracer in tracers]
    last = run_pass(workload, items)
    untraced = [first, last]

    workdir = root / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    for i, tracer in enumerate(tracers):
        tracer.write(workdir / f"spans-{workload.name}-{i + 1}.csv")

    summaries = [layer_values(t) for t in tracers]
    counts = [{k: v for k, v in s.items() if not k.endswith("_s")}
              for s in summaries]
    repeat = counts[0] == counts[1]
    if not repeat:
        diff = {k: (counts[0].get(k), counts[1].get(k))
                for k in set(counts[0]) | set(counts[1])
                if counts[0].get(k) != counts[1].get(k)}
        print(f"counters differ between traced passes: {diff}",
              file=sys.stderr)

    values = {}
    for name, _ in PER_LAYER:
        got = [s.get(name, 0) for s in summaries]
        values[name] = got[0] if name in counts[0] else sum(got) / len(got)
    paths = tracers[0].durations("equilibrium.simulate_path") + \
        tracers[1].durations("equilibrium.simulate_path")
    values["equilibrium.path_s_p50"] = tracing.median(paths)
    child_import = [s["import_s"] for s in workload.child_stats]
    values["cli.import_s"] = tracing.median(child_import) if child_import \
        else import_s
    values["trace.overhead_s"] = \
        sum(p.wall_s for p in passes) / 2 - sum(p.wall_s for p in untraced) / 2

    attempted = sum(p.attempted for p in passes + untraced)
    failed = sum(p.failed for p in passes + untraced)
    print(f"# {workload.name} traced: {len(items)} items per pass, wall "
          f"{first.wall_s:.3f} s untraced, "
          + ", ".join(f"{p.wall_s:.3f} s" for p in passes)
          + f" traced, {last.wall_s:.3f} s untraced; "
          f"counters repeat: {repeat}")
    for name, _ in PER_LAYER:
        print(f"#   {name} = {values[name]}")
    return (attempted, failed, repeat,
            {name: metric(values[name], unit) for name, unit in PER_LAYER})


def layer_values(tracer):
    """Per-layer counts and self times of one traced pass."""
    self_s, calls = tracer.self_times()
    out = dict(tracer.counters)
    for name in set(self_s) | set(calls):
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    steps = calls["feedback.solve_step"]
    scans = tracer.counters["feedback.scans"]
    out["feedback.scans_per_step"] = scans / steps if steps else 0.0
    out["feedback.useful_scan_ratio"] = \
        tracer.counters["feedback.useful_scans"] / scans if scans else 0.0
    out.setdefault("feedback.multiroot_steps", 0)
    return out


def main(argv=None):
    # from the first line, so that ``--setup-probe`` can normalize set-up
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        root = Path.cwd()
        args = parse_args(argv)
        import_s = import_program(root)
        from workloads import WORKLOADS
        cls = WORKLOADS[args.workload]
        workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        n_items = max(1, round(args.seconds / cls.item_s / PASSES))
        workload = cls(root, args.seed, n_items, workdir)
    finally:
        sampler.stop()
    try:
        if args.setup_probe:
            print("ready " + json.dumps(sampler.reading()), flush=True)
            return 0
        print("# environment " + json.dumps(environment()))
        if args.trace:
            attempted, failed, ok, metrics = per_layer(workload, root,
                                                       import_s)
        else:
            attempted, failed, ok, metrics = end_to_end(
                workload, setup_samples(args, root))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
