"""The benchmark's tracer (``perfbench/tracer.py``) wraps program functions
by module and attribute name, and skips a name the program no longer has,
so that its metrics read 0 instead of the run failing.  These tests make a
rename fail loudly instead, and so a module that the tracer cannot see
when it installs: one imported only inside the function that needs it."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# traced names the program has already dropped; their metrics read 0
_GONE = {("equilibrium", "simulate_driver"), ("equilibrium", "evaluate_grid"),
         ("equilibrium", "log_ratio_paths"),
         ("equilibrium", "wealth_and_portfolios"),
         ("equilibrium", "trade_volume"), ("numerics", "logsumexp"),
         ("numerics", "softmax")}
# wrapped by the tracer outside its two tables
_ALSO_WRAPPED = {("feedback", "brentq"),
                 ("feedback", "FeedbackResult.write_csv"),
                 ("equilibrium", "EquilibriumPath.write_csv")}


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name, dotted):
    node = importlib.import_module(f"beliefmkt.{module_name}")
    for attr in dotted.split("."):
        if not hasattr(node, attr):
            return False
        node = getattr(node, attr)
    return True


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    traced = {(module, attr) for module, attr, _, _ in tracer._FUNCTIONS}
    traced |= {("numerics", name) for name in tracer._PER_CALLER}
    assert _GONE <= traced, "a dropped name left the tracer: update _GONE"
    missing = sorted(name for name in (traced - _GONE) | _ALSO_WRAPPED
                     if not _resolves(*name))
    assert missing == []
    assert not any(_resolves(*name) for name in _GONE), \
        "a dropped name is back: remove it from _GONE"


# in a fresh interpreter, as a CLI child of the benchmark runs: the front end
# is imported before the tracer installs, and the engines are read from
# sys.modules, where the package registers them at import (an engine
# imported only inside the function that runs it would fail here).
# Restoring must put back the very objects that install replaced; a method
# may carry __wrapped__ of its own, from a decorator such as np.errstate
_TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from beliefmkt import cli
feedback = sys.modules["beliefmkt.feedback"]
equilibrium = sys.modules["beliefmkt.equilibrium"]
owners = [(feedback, "solve_step"), (feedback.FeedbackResult, "write_csv"),
          (equilibrium.EquilibriumPath, "write_csv")]
before = [getattr(owner, name) for owner, name in owners]
tracer = tracing.Tracer()
restore = tracing.install(tracer)
wrapped = [getattr(owner, name) is not held
           for (owner, name), held in zip(owners, before)]
code = cli.main(sys.argv[2:])
restore()
_, calls = tracer.self_times()
print(json.dumps({
    "code": code, "solve_step": calls["feedback.solve_step"],
    "bytes": tracer.counters["feedback.write_csv.bytes"],
    "wrapped": wrapped,
    "restored": [getattr(owner, name) is held
                 for (owner, name), held in zip(owners, before)]}))
"""


def test_tracer_sees_modules_that_run_after_it_installs(tmp_path):
    config = tmp_path / "feedback.json"
    config.write_text(json.dumps({"n_agents": 30, "n_diligent": 0,
                                  "n_steps": 20, "seed": 0}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN,
         str(REPO / "perfbench" / "tracer.py"), "feedback", "--config", str(config), "--out", str(tmp_path / "out")],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["code"] == 0
    assert got["solve_step"] == 20
    assert got["bytes"] == (tmp_path / "out" / "series.csv").stat().st_size
    assert got["wrapped"] == got["restored"] == [True, True, True]
