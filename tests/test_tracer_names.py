"""The benchmark's tracer (``perfbench/tracer.py``) wraps program functions
by module and attribute name, and skips a name the program no longer has,
so that its metrics read 0 instead of the run failing.  This test makes a
rename fail loudly instead."""

import importlib
import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# traced names the program has already dropped; their metrics read 0
_GONE = {("equilibrium", "simulate_driver"), ("equilibrium", "evaluate_grid"),
         ("numerics", "logsumexp"), ("numerics", "softmax")}
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
