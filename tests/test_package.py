"""The package runs each submodule on first use: importing the command-line
front end loads no numpy, a subcommand runs only the engine it calls, and
the public names still resolve from the package."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import beliefmkt

REPO = Path(__file__).resolve().parents[1]
ENGINES = {"beauty", "calibration", "equilibrium", "feedback"}

# prints whether numpy loaded with the front end, then the exit code, the
# beliefmkt modules that ran and whether numpy.random loaded; a module that
# is registered but has not run is still a LazyLoader module
_RUN_PROBE = """
import sys, types
import beliefmkt.cli
print("numpy" in sys.modules)
code = beliefmkt.cli.main(sys.argv[1:])
print(code, " ".join(sorted(
    name.split(".")[1] for name, module in sys.modules.items()
    if name.startswith("beliefmkt.") and type(module) is types.ModuleType)),
    "numpy.random" in sys.modules, sep="|")
"""


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=REPO,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("subcommand, config, engine", [
    ("beauty", "configs/contest_two_agent.json", "beauty"),
    ("feedback", None, "feedback"),
    ("ingest", "configs/ingest_sample.json", "calibration")])
def test_a_subcommand_runs_only_its_engine(tmp_path, subcommand, config,
                                           engine):
    if config is None:
        config = tmp_path / "feedback.json"
        config.write_text(json.dumps({"n_agents": 30, "n_diligent": 0,
                                      "n_steps": 20, "seed": 0}))
    out = run_python(_RUN_PROBE, subcommand, "--config", str(config),
                     "--out", str(tmp_path / "out"))
    numpy_at_import, result = out.strip().split("\n")
    code, ran, numpy_random = result.split("|")
    ran = set(ran.split())
    assert numpy_at_import == "False"
    assert code == "0"
    assert ran & ENGINES == {engine}
    assert {"cli", "config"} <= ran
    if subcommand == "beauty":
        assert numpy_random == "False"


def test_rngtools_loads_numpy_random_at_the_first_draw():
    out = run_python("import sys\n"
                     "import beliefmkt.rngtools\n"
                     "beliefmkt.rngtools.path_rng\n"
                     "print('numpy.random' in sys.modules)\n"
                     "beliefmkt.rngtools.path_rng(0, 0)\n"
                     "print('numpy.random' in sys.modules)\n")
    assert out.split() == ["False", "True"]


def test_every_public_name_resolves_from_its_module():
    assert beliefmkt.__all__
    for name in beliefmkt.__all__:
        module = getattr(beliefmkt, beliefmkt._ORIGIN[name])
        assert getattr(beliefmkt, name) is getattr(module, name)
    assert set(beliefmkt.__all__) <= set(dir(beliefmkt))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        beliefmkt.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from beliefmkt import *", namespace)
    assert set(beliefmkt.__all__) <= set(namespace)


def test_readme_library_example_runs():
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Library example", 1)[1].split("\n## ", 1)[0]
    namespace = {}
    for example in re.findall(r"```python\n(.*?)```", section, re.S):
        exec(example, namespace)
    path = namespace["path"]
    assert path.pd_ratio.shape == path.times.shape
    assert len(namespace["paths"]) == 8
    assert namespace["report"] == beliefmkt.compute_moments(
        iter(namespace["paths"]))
