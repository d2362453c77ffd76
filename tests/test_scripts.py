"""The developer scripts run end to end at small sizes."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / name),
                           *args], cwd=REPO, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_experiment_scripts_run():
    # an A/A run of this checkout against itself on one seed, per mode
    gaps = {"moments": "moment", "paths": "path value"}
    for mode in ("feedback", "fit", "moments", "paths"):
        lines = run_script("ab_timing.py", mode, str(REPO), str(REPO), "3",
                           "3")
        assert len(lines) == 3 + (mode in gaps)
        assert lines[0].startswith("seed   3  old first")
        assert re.fullmatch(r"median ratio \d+\.\d{3}  new faster on [01] "
                            r"of 1 seeds", lines[1])
        assert lines[2] == "quartile spread  old 0.000 s  new 0.000 s"
        if mode in gaps:
            # a checkout against itself: its values agree to the bit
            assert lines[3] == f"largest relative {gaps[mode]} gap 0"


def identity_outputs():
    spec = importlib.util.spec_from_file_location(
        "identity_outputs", REPO / "scripts" / "identity_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_error_cases_each_exit_2(tmp_path):
    # errors.txt compares the input layer's messages between checkouts, so
    # each of its cases must stay an invalid run: one that passed would run
    module = identity_outputs()
    module.error_lines(tmp_path / "errors.txt")
    lines = (tmp_path / "errors.txt").read_text().splitlines()
    assert [line.split()[0] for line in lines] == list(module.ERROR_CASES)
    assert all(line.split()[1] == "2" for line in lines)
    assert all("error: " in line for line in lines)


def test_outputs_match_the_recorded_digest(tmp_path, monkeypatch):
    # a subset of scripts/identity_outputs.py's outputs, each byte for byte
    # as recorded in tests/identity_digest.json: errors.txt, the CLI
    # outputs of every shipped config and of the ingest run without a
    # riskless column, two moment reports, three fits, and the feedback runs
    # of seeds 0-3 at the six counts, one at a time and as the sweep's
    # lockstep
    module = identity_outputs()
    want = json.loads((REPO / "tests" / "identity_digest.json").read_text())
    assert module.versions() == want["versions"], (
        f"the digest was recorded with {want['versions']}; this run has "
        f"{module.versions()}, whose outputs may round differently")
    monkeypatch.chdir(REPO)   # configs name their inputs from the root
    module.error_lines(tmp_path / "errors.txt")
    shipped = sorted((REPO / "configs").glob("*.json"))
    for path in shipped:
        subcommand = json.loads(path.read_text())["subcommand"]
        module.run_cli(subcommand, path, tmp_path / "cli" / path.stem)
    module.ingest_without_riskless(tmp_path / "cli", replay=False)
    runs = tuple(f"cli/{path.stem}/" for path in shipped) \
        + ("cli/ingest-no-riskless/",)
    assert module.digest(tmp_path)["files"] == {
        name: sha for name, sha in want["files"].items()
        if name == "errors.txt" or name.startswith(runs)}
    lines = {
        "moments.txt": [module.moment_line(k) for k in range(2)],
        "fits.txt": [module.fit_line(k) for k in range(3)],
        "feedback.txt": list(module.numerics.fork_map(
            module.feedback_line, module.feedback_tasks(range(4)))),
        "sweep.txt": list(module.numerics.fork_map(
            module.sweep_line, module.sweep_tasks(range(4))))}
    for name, got_lines in lines.items():
        assert [module.sha256(line.encode()) for line in got_lines] \
            == want["lines"][name][:len(got_lines)], name
