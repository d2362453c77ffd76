"""The shipped experiment scripts run end to end at small sizes."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from beliefmkt.calibration import MOMENT_LABELS

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / name),
                           *args], cwd=REPO, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_experiment_scripts_run(tmp_path):
    # seed 10 of diligence_severity's population crashes beyond +/- 1 of
    # the dividend move at 5 diligent agents, inside its first year
    lines = run_script("diligence_severity.py", "--seeds", "11",
                       "--years", "1")
    assert lines[0].split() == ["diligent", "mean", "range", "median", "max",
                                "mean", "jumps"]
    assert [line.split()[0] for line in lines[1:]] == ["0", "5", "10", "25"]
    assert all(len(line.split()) == 5 for line in lines[1:])

    lines = run_script("bubble_panels.py", "--years", "1", "--out",
                       str(tmp_path))
    assert lines[0].split() == ["diligent", "range", "min", "max", "jumps"]
    counts = ["0", "1", "5", "10", "25"]
    assert [line.split()[0] for line in lines[1:]] == counts
    for c in counts:
        rows = (tmp_path / f"panels_30A_{c}D_seed1.csv").read_text() \
            .splitlines()
        assert len(rows) == 254   # the header and steps 0 .. 252

    lines = run_script("benchmark_moments.py", "--paths", "2",
                       "--horizons", "1")
    assert lines[1] == "=== horizon 1 years, 2 paths ==="
    assert lines[2].split() == ["Model", "Target"]
    assert [line.rsplit(None, 2)[0] for line in lines[3:]] == list(
        MOMENT_LABELS.values())

    # an A/A run of this checkout against itself on one seed
    lines = run_script("ab_feedback.py", str(REPO), str(REPO), "3", "3")
    assert re.fullmatch(r"median ratio \d+\.\d{3}  new faster on [01] of 1 "
                        r"seeds", lines[-1])


def test_identity_error_cases_each_exit_2(tmp_path):
    # errors.txt compares the input layer's messages between checkouts, so
    # each of its cases must stay an invalid run: one that passed would run
    spec = importlib.util.spec_from_file_location(
        "identity_outputs", REPO / "scripts" / "identity_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.error_lines(tmp_path / "errors.txt")
    lines = (tmp_path / "errors.txt").read_text().splitlines()
    assert [line.split()[0] for line in lines] == list(module.ERROR_CASES)
    assert all(line.split()[1] == "2" for line in lines)
    assert all("error: " in line for line in lines)
