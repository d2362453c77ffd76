"""The shipped experiment scripts run end to end at small sizes."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from beliefmkt.calibration import MOMENT_LABELS

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args, returncode=0):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / name),
                           *args], cwd=REPO, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == returncode, proc.stderr
    if returncode == 0:
        return proc.stdout.splitlines()
    if returncode == 2:
        assert proc.stdout == ""   # a refused argument prints no table
    return proc.stderr.splitlines()


def feedback_config(tmp_path, name, **keys):
    """A feedback config of 30 agents with ``keys``, in tmp_path/name."""
    path = tmp_path / name
    path.write_text(json.dumps({"subcommand": "feedback", "n_agents": 30,
                                **keys}))
    return path


def test_experiment_scripts_run(tmp_path):
    single = feedback_config(tmp_path, "single.json", years=1.0, seed=1)
    lines = run_script("bubble_panels.py", "--config", str(single), "--out",
                       str(tmp_path))
    assert lines[0].split() == ["diligent", "range", "min", "max", "jumps"]
    counts = ["0", "1", "5", "10", "25"]
    assert [line.split()[0] for line in lines[1:]] == counts
    for c in counts:
        rows = (tmp_path / f"panels_30A_{c}D_seed1.csv").read_text() \
            .splitlines()
        assert len(rows) == 254   # the header and steps 0 .. 252

    # n_paths, dt and seed come from the config
    cfg = json.loads((REPO / "configs" / "benchmark3.json").read_text())
    cfg["n_paths"] = 2
    (tmp_path / "two_paths.json").write_text(json.dumps(cfg))
    lines = run_script("benchmark_moments.py", "--config",
                       str(tmp_path / "two_paths.json"), "--horizons", "1")
    assert lines[1] == "=== horizon 1 years, 2 paths ==="
    assert lines[2].split() == ["Model", "Target"]
    assert [line.rsplit(None, 2)[0] for line in lines[3:]] == list(
        MOMENT_LABELS.values())

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


#: per script, a config that it runs, but for the fault a case adds
_RUNS = {"bubble_panels.py": {"years": 1.0}}


def assert_script_exits_2(tmp_path, name, keys, args, message):
    """The script, on its config with ``keys`` and given ``args``, exits 2
    with ``message``, as argparse's own errors do, before any run, table or
    output directory."""
    keys = {**_RUNS[name], **keys}
    out = tmp_path / "panels"
    lines = run_script(name, "--config",
                       str(feedback_config(tmp_path, "cfg.json", **keys)),
                       "--out", str(out), *args, returncode=2)
    assert lines[0].startswith("usage: "), (name, keys, args)
    assert lines[-1].endswith(f"error: {message}"), (name, keys, args)
    assert not out.exists()


def test_feedback_scripts_take_whole_steps_only(tmp_path):
    # years is cut into steps by the rule every span of the engine uses:
    # 0.1 years is 25.2 daily steps, not a whole number
    for name in _RUNS:
        assert_script_exits_2(
            tmp_path, name, {"years": 0.1}, [],
            "argument --config: dt: must cut years into whole steps, not "
            f"years/dt = {0.1 / (1.0 / 252.0)!r}")


@pytest.mark.parametrize("name, keys, args, message", [
    # the panels read no seeds
    ("bubble_panels.py", {"seed_sweep": 2}, [],
     "argument --config: seed_sweep: key not read by this run"),
    ("bubble_panels.py", {"n_agents": 0}, [],
     "argument --config: n_agents: must be > 0"),
    ("bubble_panels.py", {}, ["--diligent", "0", "31"],
     "argument --diligent: diligence_values: 31 is not a diligence count: "
     "need an int in 0..30"),
    ("bubble_panels.py", {"seed": -1}, [],
     "argument --config: seed: must be >= 0")])
def test_feedback_scripts_check_every_input_first(tmp_path, name, keys, args,
                                                  message):
    # each fault exits 2 naming its field and the flag that gave it
    assert_script_exits_2(tmp_path, name, keys, args, message)


def test_refused_panel_leaves_no_file(tmp_path):
    # the dividend falls so fast that delta underflows to 0 within the year
    cfg = feedback_config(tmp_path, "cfg.json", n_agents=3, years=1.0,
                          seed=1, growth_true=-1000.0)
    out = tmp_path / "panels"
    lines = run_script("bubble_panels.py", "--config", str(cfg), "--out",
                       str(out), "--diligent", "0", returncode=3)
    assert lines[-1].startswith("numeric failure: panels_3A_0D_seed1.csv: "
                                "column delta is 0 at t=")
    assert lines[-1].endswith("; the file is not written")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("keys, args, message", [
    ({"wieght": 1}, [], "argument --config: wieght: key not read by this run"),
    ({"subcommand": "feedback"}, [], "argument --config: config is for "
     "subcommand 'feedback', not 'simulate-log'"),
    ({}, ["--horizons", "0.1"], "argument --horizons: dt: must cut horizon "
     "into whole steps, not horizon/dt = 25.200000000000003")])
def test_benchmark_moments_checks_every_input_first(tmp_path, keys, args,
                                                    message):
    # each fault exits 2 naming the flag that gave it, before any run
    cfg = json.loads((REPO / "configs" / "benchmark3.json").read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "n_paths": 2, **keys}))
    lines = run_script("benchmark_moments.py", "--config", str(path), *args,
                       returncode=2)
    assert lines[0].startswith("usage: ")
    assert lines[-1].endswith(f"error: {message}")


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
