"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run from the root of a checkout.  It recomputes every pool entry of every
workload with the checked-out program and writes ``perfbench/reference/``
plus ``perfbench/environment.json``.  The committed references were made at
the commit named in ``environment.json``; regenerate them only when an
output change is intended and explained, never to make a run pass.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
import workloads as wl


def dump(name, payload):
    path = wl.REFERENCE / f"{name}.json"
    with open(path, "w") as fp:
        json.dump(payload, fp, indent=1, sort_keys=True)
        fp.write("\n")
    print(f"wrote {path}", flush=True)


def cli_files(root, sub, cfg):
    from beliefmkt import cli
    work = root / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = work / "out"
    if cli.main([sub, "--config", str(cfg_path), "--out", str(out)]) != 0:
        raise SystemExit(f"{sub} failed on {cfg}")
    files = {name: data.decode() for name, data in wl.read_tree(out).items()}
    shutil.rmtree(work)
    return files


def main():
    root = Path.cwd()
    run.import_program(root)
    from beliefmkt.errors import NumericError
    wl.REFERENCE.mkdir(exist_ok=True)
    work = root / ".perfbench_work"

    # master seeds 0, 1, ... whose cells all solve; the ones that raise
    # are listed with their error rather than dropped silently.  The time
    # each seed took here is kept only to stratify the seeds by cost.
    sweep = wl.FeedbackSweep(root, 0, 0, work)
    cells, cost_s, excluded = {}, {}, {}
    seed = 0
    while len(cells) < sweep.pool_size:
        start = time.perf_counter()
        try:
            cells[str(seed)] = sweep.serialize(sweep.run(seed))
            cost_s[str(seed)] = time.perf_counter() - start
        except NumericError as exc:
            excluded[str(seed)] = f"{type(exc).__name__}: {exc}"
        seed += 1
    dump("feedback_cells", {"cells": cells, "cost_s": cost_s,
                            "excluded": excluded})

    moments = wl.MomentsReport(root, 0, 0, work)
    dump("moments", {str(m): moments.serialize(moments.run(m))
                     for m in moments.pool})

    fits = wl.FitSearch(root, 0, 0, work)
    dump("fits", {str(s): fits.serialize(fits.run(s)) for s in fits.pool})

    pool = range(wl.CliOutputs.pool_size)
    dump("cli", {
        "feedback": [{"config": wl.feedback_config(k),
                      "files": cli_files(root, "feedback",
                                         wl.feedback_config(k))}
                     for k in pool],
        "beauty": [{"config": wl.contest_config(k),
                    "files": cli_files(root, "beauty", wl.contest_config(k))}
                   for k in pool],
        "ingest": cli_files(root, "ingest", wl.INGEST_CONFIG),
    })

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                            capture_output=True, text=True).stdout.strip()
    env = run.environment()
    env["commit"] = commit or "unknown"
    with open(wl.HERE / "environment.json", "w") as fp:
        json.dump(env, fp, indent=1, sort_keys=True)
        fp.write("\n")


if __name__ == "__main__":
    sys.exit(main())
