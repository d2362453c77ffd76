import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from beliefmkt.beauty import (pareto_faked_equilibrium, truthful_equilibrium,
                              welfare_comparison)
from beliefmkt import __version__
from beliefmkt.calibration import MOMENT_NAMES
from beliefmkt.cli import main
from beliefmkt.config import (MAX_COUNT, _get, parse_contest, parse_feedback,
                              parse_targets)
from beliefmkt.errors import step_count
from conftest import assert_same_text

REPO = Path(__file__).resolve().parents[1]

#: the statistics sweep.txt gives of each count's rows, in its order
SWEEP_STATS = ("mean_range", "median_range", "max_range", "mean_jumps")


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def tiny_market_config(**overrides):
    cfg = {
        "market": {
            "sigma": 0.3,
            "drift_adjustment": 0.0,
            "agents": [
                {"impatience": 0.05, "weight": 1.0,
                 "belief": {"type": "constant", "drift": 0.1}},
                {"impatience": 0.2, "weight": 2.0,
                 "belief": {"type": "constant", "drift": -0.1}},
            ],
        },
        "horizon_years": 2.0,
        "dt": 1.0 / 52.0,
        "n_paths": 3,
        "seed": 5,
        "write_paths": 2,
    }
    cfg.update(overrides)
    return cfg


def read_tree(root: Path):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# simulate-log


def test_simulate_log_outputs_and_determinism(tmp_path):
    cfg = write_config(tmp_path, tiny_market_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate-log", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["simulate-log", "--config", str(cfg), "--out", str(out_b)]) == 0
    tree_a, tree_b = read_tree(out_a), read_tree(out_b)
    assert set(tree_a) == {"manifest.json", "summary.txt",
                           "path_000.csv", "path_001.csv"}
    assert tree_a == tree_b  # byte-for-byte


def test_simulate_log_single_agent_pd_deterministic(tmp_path):
    cfg = write_config(tmp_path, {
        "market": {"sigma": 0.25, "agents": [
            {"impatience": 0.04, "weight": 1.0,
             "belief": {"type": "constant", "drift": 0.0}}]},
        "horizon_years": 1.0, "dt": 1.0 / 52.0, "n_paths": 2, "seed": 1})
    out = tmp_path / "out"
    assert main(["simulate-log", "--config", str(cfg), "--out", str(out)]) == 0
    summary = dict(line.split("=", 1) for line in
                   (out / "summary.txt").read_text().strip().split("\n")[1:])
    assert float(summary["std_pd"]) == 0.0
    assert float(summary["mean_pd"]) == 25.0


def test_simulate_log_csv_column_order(tmp_path):
    cfg = write_config(tmp_path, tiny_market_config())
    out = tmp_path / "out"
    main(["simulate-log", "--config", str(cfg), "--out", str(out)])
    header = (out / "path_000.csv").read_text().split("\n")[0]
    assert header == ("t,X,delta,zeta,S,PD,r,kappa,sigmaS,"
                      "q_1,q_2,w_1,w_2,c_1,c_2,pi_1,pi_2,theta_1,theta_2")


def test_manifest_replays_byte_for_byte(tmp_path):
    cfg = write_config(tmp_path, tiny_market_config())
    out_a = tmp_path / "a"
    main(["simulate-log", "--config", str(cfg), "--out", str(out_a)])
    out_b = tmp_path / "b"
    assert main(["simulate-log", "--config", str(out_a / "manifest.json"),
                 "--out", str(out_b)]) == 0
    assert read_tree(out_a) == read_tree(out_b)


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("{", '{"extra": 1, ', 1),
     "extra: not a manifest key"),
    # json keeps the last "config", so the first would be dropped unread
    (lambda text: text.replace("{", '{"config": {"csv": false}, ', 1),
     "config: duplicate key")], ids=["unknown-key", "repeated-key"])
def test_manifest_wrapper_keys_are_checked(tmp_path, capsys, edit, message):
    # a manifest holds config, subcommand, package and version, once each
    assert main(["beauty", "--config",
                 str(REPO / "configs" / "contest_two_agent.json"),
                 "--out", str(tmp_path / "a")]) == 0
    manifest = tmp_path / "manifest.json"
    manifest.write_text(edit((tmp_path / "a" / "manifest.json").read_text()))
    capsys.readouterr()
    out = tmp_path / "b"
    assert main(["beauty", "--config", str(manifest), "--out",
                 str(out)]) == 2
    assert capsys.readouterr().err == \
        f"config error: {manifest}: {message}\n"
    assert not out.exists()


def test_config_error_names_field_and_exits_2(tmp_path, capsys):
    broken = tiny_market_config()
    broken["market"]["agents"][1]["impatience"] = -0.2
    cfg = write_config(tmp_path, broken)
    code = main(["simulate-log", "--config", str(cfg), "--out",
                 str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "market.agents[1]" in err and "impatience" in err


@pytest.mark.parametrize("content, message", [
    (b'{"market": "\xff"}',
     "{cfg}: not UTF-8 text: 'utf-8' codec can't decode"),
    (b"[" * 100_000, "{cfg}: invalid JSON: nested too deeply"),
    # json keeps a repeated key's last value, so the first (0.7) would be
    # dropped unread; the error names the key, not the file
    (json.dumps(tiny_market_config()).replace(
        '"impatience": 0.2', '"impatience": 0.7, "impatience": 0.2').encode(),
     "market.agents[1].impatience: duplicate key\n")],
    ids=["not-utf8", "nested-past-recursion-limit", "duplicate-key"])
def test_unparseable_config_exits_2_naming_the_file(tmp_path, capsys, content,
                                                    message):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(content)
    out = tmp_path / "out"
    assert main(["simulate-log", "--config", str(cfg), "--out",
                 str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message.format(cfg=cfg)}")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("field", ["weight", "impatience"])
@pytest.mark.parametrize("value", [True, "2.5", "abc", [1]])
def test_agent_weight_must_be_a_number(tmp_path, capsys, field, value):
    # and so must its impatience: a JSON number, not a bool, string or list
    broken = tiny_market_config()
    broken["market"]["agents"][0][field] = value
    cfg = write_config(tmp_path, broken)
    out = tmp_path / "out"
    assert main(["simulate-log", "--config", str(cfg), "--out",
                 str(out)]) == 2
    assert f"market.agents[0].{field}: expected a number" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("belief, field", [
    ({"type": "constant"}, "drift"), ({"drift": 0.1}, "type"),
    ({"type": "bayesian", "prior_precision": 2.0}, "prior_mean"),
    ({"type": "bayesian", "prior_mean": 0.1}, "prior_precision")])
def test_belief_error_names_full_path(tmp_path, capsys, belief, field):
    broken = tiny_market_config()
    broken["market"]["agents"][1]["belief"] = belief
    cfg = write_config(tmp_path, broken)
    out = tmp_path / "out"
    assert main(["simulate-log", "--config", str(cfg), "--out",
                 str(out)]) == 2
    assert f"market.agents[1].belief.{field}: missing required field" \
        in capsys.readouterr().err
    assert not out.exists()


_SEEDED_CONFIGS = {
    "simulate-log": tiny_market_config(),
    "feedback": {"n_agents": 4, "n_diligent": 0, "n_steps": 20, "seed": 1},
    "fit": {"n_agents": 1,
            "free": [{"name": "sigma", "lower": 0.1, "upper": 0.5,
                      "start": 0.2}],
            "fixed": {"alpha_0": 0.0, "rho_0": 0.05},
            "n_paths": 2, "horizon_years": 2.0, "dt": 0.02, "seed": 1,
            "max_iterations": 10},
}


@pytest.mark.parametrize("subcommand", sorted(_SEEDED_CONFIGS))
@pytest.mark.parametrize("route", ["config", "manifest"])
def test_negative_seed_exits_2_before_writing(tmp_path, capsys, subcommand,
                                              route):
    # a replayed manifest is checked as its config is
    payload = dict(_SEEDED_CONFIGS[subcommand], seed=-1)
    if route == "manifest":
        payload = {"package": "beliefmkt", "version": __version__,
                   "subcommand": subcommand, "config": payload}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    assert "seed:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("market, message", [
    ({"sigma": 0.3}, "missing required field"),
    ({"sigma": 0.3, "agents": "x"}, "expected a list")])
def test_market_agents_error_names_full_path(tmp_path, capsys, market,
                                             message):
    cfg = write_config(tmp_path, tiny_market_config(market=market))
    out = tmp_path / "out"
    assert main(["simulate-log", "--config", str(cfg), "--out",
                 str(out)]) == 2
    assert capsys.readouterr().err \
        == f"config error: market.agents: {message}\n"
    assert not out.exists()


def test_simulate_log_reports_market_b_though_its_levels_overflow(tmp_path,
                                                                   capsys):
    # sigma 3 and alpha* 5 overflow the levels, but the moments read none:
    # with no path written, the report is finite (warnings fail the test)
    cfg = write_config(tmp_path, tiny_market_config(
        market=_MARKET_B, horizon_years=100.0, dt=0.1, n_paths=4, seed=0,
        write_paths=0))
    out = tmp_path / "out"
    assert main(["simulate-log", "--config", str(cfg), "--out",
                 str(out)]) == 0
    assert capsys.readouterr().err == ""
    lines = (out / "summary.txt").read_text().splitlines()
    values = dict(line.split("=") for line in lines[1:])
    assert list(values) == list(MOMENT_NAMES)
    assert all(math.isfinite(float(v)) for v in values.values())
    assert values["mean_pd"] == "20" and values["std_pd"] == "0"


def _one_agent_market(sigma, drift_adjustment):
    return {"sigma": sigma, "drift_adjustment": drift_adjustment, "agents": [
        {"impatience": 0.05, "weight": 1.0,
         "belief": {"type": "constant", "drift": 0.1}}]}


_MARKET_B = _one_agent_market(3.0, 5.0)


@pytest.mark.parametrize("market, horizon, dt, n_paths, message", [
    # the dividend underflows to 0
    (_one_agent_market(0.3, 0.0), 20000.0, 1.0, 1,
     "column delta is 0 at t=16695.0"),
    # the levels overflow, S first (the holdings, formed from q / rho,
    # stay finite)
    (_MARKET_B, 100.0, 0.1, 4, "column S is not finite at t=70.5")],
    ids=["underflow", "overflow"])
def test_simulate_log_writes_no_path_that_is_not_finite(
        tmp_path, capsys, market, horizon, dt, n_paths, message):
    cfg = write_config(tmp_path, tiny_market_config(
        market=market, horizon_years=horizon, dt=dt, n_paths=n_paths,
        seed=0, write_paths=1))
    out = tmp_path / "out"
    assert main(["simulate-log", "--config", str(cfg), "--out",
                 str(out)]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"numeric failure: path_000.csv: {message}; the file is not written")
    assert not list(out.glob("path_*.csv"))
    assert not (out / "summary.txt").exists()


def _fit_config(**overrides):
    return dict(_SEEDED_CONFIGS["fit"], **overrides)


def _with_agent_field(field, value):
    cfg = tiny_market_config()
    if field == "weight":
        cfg["market"]["agents"][0]["weight"] = value
    else:
        cfg["market"]["agents"][0]["belief"]["drift"] = value
    return cfg


_BIG = 10 ** 400   # a JSON integer beyond the float range


_NON_FINITE = [
    ("simulate-log", tiny_market_config(horizon_years=math.inf),
     "horizon_years"),
    ("simulate-log", tiny_market_config(horizon_years=_BIG), "horizon_years"),
    ("simulate-log", tiny_market_config(dt=math.nan), "dt"),
    ("simulate-log", dict(tiny_market_config(), market=dict(
        tiny_market_config()["market"], sigma=math.inf)), "market.sigma"),
    ("simulate-log", dict(tiny_market_config(), market=dict(
        tiny_market_config()["market"], drift_adjustment=-math.inf)),
     "market.drift_adjustment"),
    ("simulate-log", _with_agent_field("drift", math.nan),
     "market.agents[0].belief.drift"),
    ("simulate-log", _with_agent_field("weight", math.inf),
     "market.agents[0].weight"),
    ("feedback", dict(_SEEDED_CONFIGS["feedback"], growth_true=math.nan),
     "growth_true"),
    ("feedback", dict(_SEEDED_CONFIGS["feedback"], sigma_true=math.inf),
     "sigma_true"),
    ("feedback", dict(_SEEDED_CONFIGS["feedback"], rho_range=[0.04, math.inf]),
     "rho_range[1]"),
    ("feedback", dict(_SEEDED_CONFIGS["feedback"],
                      prior_mean_range=[-_BIG, 0.1]), "prior_mean_range[0]"),
    ("fit", _fit_config(fixed={"alpha_0": math.nan, "rho_0": 0.05}),
     "fixed.alpha_0"),
    ("fit", _fit_config(free=[{"name": "sigma", "lower": 0.1,
                               "upper": math.inf, "start": 0.2}]),
     "free[0].upper"),
    ("fit", _fit_config(targets={"mean_pd": math.inf}), "targets.mean_pd"),
    ("beauty", {"agents": [{"risk_aversion": 1.0, "mean_belief": -math.inf,
                            "belief_variance": 1.0}]},
     "agents[0].mean_belief"),
    ("ingest", {"csv": str(REPO / "configs" / "sample_price_dividend.csv"),
                "min_years": math.inf}, "min_years"),
]


@pytest.mark.parametrize("subcommand, payload, field", _NON_FINITE,
                         ids=[f"{c[0]}-{c[2]}" for c in _NON_FINITE])
def test_non_finite_number_exits_2_before_writing(tmp_path, capsys,
                                                  subcommand, payload, field):
    # json reads NaN, Infinity and 1e400 (as inf); none is a usable number
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{field}: must be a finite number" in capsys.readouterr().err
    assert not out.exists()


_HUGE = 10 ** 30   # a count no array can hold


_OVER_CEILING = [
    ("feedback", dict(_SEEDED_CONFIGS["feedback"], n_steps=_HUGE), "n_steps"),
    ("feedback", {"n_agents": 4, "years": 1e300}, "years"),
    ("feedback", dict(_SEEDED_CONFIGS["feedback"], n_agents=_HUGE),
     "n_agents"),
    ("feedback", dict(_SEEDED_CONFIGS["feedback"], seed_sweep=_HUGE),
     "seed_sweep"),
    ("simulate-log", tiny_market_config(n_paths=_HUGE), "n_paths"),
    ("simulate-log", tiny_market_config(horizon_years=1e300),
     "horizon_years"),
    ("fit", _fit_config(n_paths=MAX_COUNT + 1), "n_paths"),
    ("fit", _fit_config(max_iterations=_HUGE), "max_iterations"),
    ("fit", _fit_config(horizon_years=1e300), "horizon_years"),
    # each count within the ceiling, but not the product: a search keeps
    # all n_paths x (horizon_years/dt + 1) points of its driver paths
    pytest.param("fit", _fit_config(n_paths=MAX_COUNT, horizon_years=20.0,
                                    dt=1 / 52), "n_paths",
                 id="fit-n_paths-points"),
]


@pytest.mark.parametrize("subcommand, payload, field", _OVER_CEILING,
                         ids=[getattr(c, "id", None) or f"{c[0]}-{c[2]}"
                              for c in _OVER_CEILING])
def test_count_over_ceiling_exits_2_before_writing(tmp_path, capsys,
                                                   subcommand, payload,
                                                   field):
    # a count past MAX_COUNT, set or implied (span / dt), names its field
    # instead of failing mid-run with a traceback
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{field}: " in err and f"at most {MAX_COUNT}" in err
    assert not out.exists()


def test_span_under_half_a_step_exits_2_before_writing(tmp_path, capsys):
    # years/dt rounds to 0 steps: the error names years, which the config
    # sets, not n_steps, which it does not
    cfg = write_config(tmp_path, {"n_agents": 3, "years": 0.001})
    out = tmp_path / "out"
    assert main(["feedback", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "years: years/dt must give at least 1 step" in err
    assert "n_steps" not in err
    assert not out.exists()
    assert parse_feedback({"n_agents": 3, "years": 1 / 252}).n_steps == 1


_ODD_SPANS = [
    # 1 / 0.3 = 3.33 steps: the grid would stop at 0.9 and the summary
    # would still say horizon_years=1
    ("simulate-log", tiny_market_config(horizon_years=1.0, dt=0.3),
     "horizon_years"),
    ("feedback", {"n_agents": 4, "years": 0.1}, "years"),   # 25.2 steps
    ("feedback", {"n_agents": 3, "years": 0.6 / 252}, "years"),
    ("fit", _fit_config(horizon_years=2.0, dt=0.3), "horizon_years"),
]


@pytest.mark.parametrize("subcommand, payload, key", _ODD_SPANS,
                         ids=["simulate-log", "feedback", "feedback-0.6-step",
                              "fit"])
def test_span_of_no_whole_step_count_exits_2_before_writing(
        tmp_path, capsys, subcommand, payload, key):
    # span/dt more than 1e-9 (relative) from a whole number is rejected,
    # not rounded into a run shorter or longer than the one configured
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"dt: must cut {key} into whole steps" in capsys.readouterr().err
    assert not out.exists()


def test_span_within_rounding_of_whole_steps_is_accepted(tmp_path):
    # 0.3 / 0.1 is 2.9999999999999996 in floating point: 3 steps
    assert 0.3 / 0.1 != 3.0
    assert step_count(0.3, 0.1, "horizon_years") == 3
    cfg = write_config(tmp_path, tiny_market_config(horizon_years=0.3,
                                                    dt=0.1))
    assert main(["simulate-log", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 0
    csv = (tmp_path / "out" / "path_000.csv").read_text().splitlines()
    assert len(csv) == 1 + 4   # the header and t = 0, 0.1, 0.2, 0.3


def test_count_at_ceiling_is_accepted():
    assert _get({"n": MAX_COUNT}, "n", int, positive=True) == MAX_COUNT
    steps = parse_feedback({"n_agents": 4, "years": MAX_COUNT / 252}).n_steps
    assert steps == MAX_COUNT


# every subcommand takes --config and --out only: the seed and the path
# count are config keys, which the manifest records, and no run has a
# worker count, since it splits its work across the usable CPUs by itself
_UNREAD_FLAGS = [(subcommand, flag)
                 for subcommand in ("simulate-log", "feedback", "beauty",
                                    "fit", "ingest")
                 for flag in ("--seed", "--paths", "--parallel")]


@pytest.mark.parametrize("subcommand, flag", _UNREAD_FLAGS)
def test_unread_flag_exits_2_before_writing(tmp_path, capsys, subcommand,
                                            flag):
    # argparse rejects any other flag, so none can be silently ignored and
    # the manifest left without the value that it set
    configs = {"simulate-log": write_config(tmp_path, tiny_market_config()),
               "beauty": REPO / "configs" / "contest_two_agent.json",
               "ingest": REPO / "configs" / "ingest_sample.json",
               "fit": write_config(tmp_path, _SEEDED_CONFIGS["fit"],
                                   "fit.json"),
               "feedback": write_config(tmp_path, _SEEDED_CONFIGS["feedback"],
                                        "feedback.json")}
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--config", str(configs[subcommand]),
              "--out", str(out), flag, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
    assert not out.exists()


def _market_with(path, key, value):
    """tiny_market_config with ``value`` set at ``key`` of the node that
    the ``path`` of keys and indexes leads to."""
    cfg = tiny_market_config()
    node = cfg
    for part in path:
        node = node[part]
    node[key] = value
    return cfg


_UNREAD_KEYS = [
    ("feedback", {"n_agents": 4, "n_diligent": 0, "n_step": 20}, "n_step"),
    ("simulate-log", _market_with(("market", "agents", 0), "wieght", 1.0),
     "market.agents[0].wieght"),
    ("simulate-log", _market_with(("market", "agents", 1, "belief"),
                                  "prior_mean", 0.0),
     "market.agents[1].belief.prior_mean"),
    ("feedback", dict(_SEEDED_CONFIGS["feedback"], years=3.0), "years"),
    ("feedback", dict(_SEEDED_CONFIGS["feedback"], nu=1.0), "nu"),
]


@pytest.mark.parametrize("subcommand, payload, key", _UNREAD_KEYS,
                         ids=[c[2] for c in _UNREAD_KEYS])
def test_unread_key_exits_2_before_writing(tmp_path, capsys, subcommand,
                                           payload, key):
    # a key that nothing reads (a typo, one that another key overrides, or
    # one the program no longer has) would otherwise be ignored and
    # recorded in the manifest as if it had been used
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: {key}: key not read" in capsys.readouterr().err
    assert not out.exists()


def test_omitted_target_is_unavailable():
    targets = parse_targets({"targets": {"mean_pd": 25.0}})
    assert targets.mean_pd == 25.0 and math.isnan(targets.std_pd)


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "beliefmkt", "--version"],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == __version__


def test_subcommand_mismatch_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(tiny_market_config(),
                                      subcommand="simulate-log"))
    assert main(["feedback", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert "simulate-log" in capsys.readouterr().err


def test_no_writes_outside_output_directory(tmp_path, monkeypatch):
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    cfg = write_config(tmp_path, tiny_market_config())
    before = set(os.listdir(workdir))
    main(["simulate-log", "--config", str(cfg), "--out",
          str(tmp_path / "out")])
    assert set(os.listdir(workdir)) == before


# ---------------------------------------------------------------------------
# feedback


def test_feedback_run_and_metrics(tmp_path):
    cfg = write_config(tmp_path, {
        "n_agents": 6, "n_diligent": 6, "years": 0.5, "seed": 3})
    out = tmp_path / "out"
    assert main(["feedback", "--config", str(cfg), "--out", str(out)]) == 0
    series = (out / "series.csv").read_text().split("\n")
    assert series[0] == "t,delta,S_star,S,log_PD_star,log_ratio,xi,solver_warnings"
    metrics = dict(line.split("=", 1)
                   for line in (out / "metrics.txt").read_text().strip().split("\n"))
    assert float(metrics["log_ratio_range"]) < 1e-9


def test_feedback_seed_sweep_table(tmp_path):
    cfg = write_config(tmp_path, {
        "n_agents": 4, "n_diligent": 2, "n_steps": 50, "seed": 1,
        "seed_sweep": 3, "diligence_values": [0, 4]})
    out = tmp_path / "out"
    assert main(["feedback", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.txt").read_text().splitlines()
    assert [line.rsplit("=", 1)[0] for line in lines if "=" in line] == [
        f"{stat}[n_diligent={c}]" for c in (0, 4) for stat in SWEEP_STATS]


@pytest.mark.parametrize("values, counts", [(None, [0]), ([4, 0, 4], [4, 0])])
def test_feedback_sweep_lists_each_count_and_seed_once(tmp_path, values,
                                                       counts):
    # by default the counts are 0 and n_diligent, here both 0
    payload = {"n_agents": 4, "n_diligent": 0, "n_steps": 25, "seed": 1,
               "seed_sweep": 2}
    if values is not None:
        payload["diligence_values"] = values
    out = tmp_path / "out"
    assert main(["feedback", "--config", str(write_config(tmp_path, payload)),
                 "--out", str(out)]) == 0
    lines = (out / "sweep.txt").read_text().splitlines()
    assert lines[0] == "n_diligent,seed,log_ratio_range,n_jumps"
    rows = [line.split(",")[:2] for line in lines[1:] if "=" not in line]
    assert rows == [[str(c), str(seed)] for c in counts for seed in (1, 2)]
    stats = [line.rsplit("=", 1)[0] for line in lines if "=" in line]
    assert stats == [f"{stat}[n_diligent={c}]" for c in counts
                     for stat in SWEEP_STATS]


def test_feedback_sweep_summary_is_its_rows_statistics(tmp_path):
    # seed 10 of this sweep crashes beyond +/- 1 of the dividend move at 5
    # diligent agents, inside its first year: a step of the exact bracket
    cfg = write_config(tmp_path, {
        "n_agents": 30, "years": 1.0, "seed": 0, "seed_sweep": 11,
        "diligence_values": [0, 5, 10, 25]})
    out = tmp_path / "out"
    assert main(["feedback", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.txt").read_text().splitlines()
    ranges, jumps = {}, {}
    for line in lines[1:]:
        if "=" not in line:
            count, _, value, n_jumps = line.split(",")
            ranges.setdefault(count, []).append(float(value))
            jumps.setdefault(count, []).append(int(n_jumps))
    want = {}
    for c, values in ranges.items():
        want.update({
            f"mean_range[n_diligent={c}]": sum(values) / len(values),
            f"median_range[n_diligent={c}]": float(np.median(values)),
            f"max_range[n_diligent={c}]": max(values),
            f"mean_jumps[n_diligent={c}]": sum(jumps[c]) / len(jumps[c])})
    got = dict(line.rsplit("=", 1) for line in lines if "=" in line)
    # each line is its statistic to the bit, in the order of want
    assert list(got) == list(want)
    assert {key: float(value) for key, value in got.items()} == want
    # the table that diligence damps: count, mean, median, max, mean jumps
    table = [[c] + [f"{want[f'{stat}[n_diligent={c}]']:.4f}"
                    for stat in SWEEP_STATS] for c in ranges]
    assert table == [
        ["0", "0.6258", "0.6260", "1.0503", "2.6364"],
        ["5", "0.5070", "0.4546", "1.3076", "1.3636"],
        ["10", "0.5174", "0.4253", "1.2634", "1.2727"],
        ["25", "0.2210", "0.1767", "0.6564", "0.6364"]]


@pytest.mark.parametrize("field, value", [
    ("rho_range", [0.3, 0.1]), ("rho_range", [0, 0]),
    ("tau_factor_range", [-1, 0.5]), ("prior_mean_range", [0.2, 0.1]),
    ("rho_range", [True, True])])
def test_feedback_unusable_range_exits_2(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, {
        "n_agents": 4, "n_diligent": 0, "n_steps": 20, field: value})
    out = tmp_path / "out"
    assert main(["feedback", "--config", str(cfg), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sweep, values", [
    (3, [0, 9]), (3, [True]), (3, []), (3, 2), (-1, None), (True, None),
    (0, None)])
def test_feedback_invalid_sweep_exits_2_before_writing(tmp_path, capsys,
                                                       sweep, values):
    payload = {"n_agents": 4, "n_diligent": 0, "n_steps": 20,
               "seed_sweep": sweep}
    if values is not None:
        payload["diligence_values"] = values
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["feedback", "--config", str(cfg), "--out", str(out)]) == 2
    field = "seed_sweep" if values is None else "diligence_values"
    assert f"{field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("values", [["x", 99], [1.5], [True], 2, [0, 4]])
def test_feedback_single_run_checks_diligence_values(tmp_path, capsys,
                                                     values):
    # a single run reads no counts, so diligence_values, valid or not, is a
    # key nothing reads, as years is beside n_steps
    cfg = write_config(tmp_path, {
        "n_agents": 4, "n_diligent": 0, "n_steps": 20,
        "diligence_values": values})
    out = tmp_path / "out"
    assert main(["feedback", "--config", str(cfg), "--out", str(out)]) == 2
    assert "diligence_values:" in capsys.readouterr().err
    assert not out.exists()


def test_feedback_numeric_failure_exits_3(tmp_path, capsys, monkeypatch):
    # this population crashes by 67 % at step 26, beyond +/- 1 of the
    # dividend move: the exact bracket holds the root, and the run completes
    cfg = write_config(tmp_path, {
        "n_agents": 8, "n_diligent": 0, "n_steps": 252, "seed": 1})
    assert main(["feedback", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 0
    # a scan that finds no sign change even in the exact bracket is a
    # numeric failure, exit code 3
    from beliefmkt import feedback
    monkeypatch.setattr(feedback, "scan_sign_changes", lambda values, grid: [])
    code = main(["feedback", "--config", str(cfg), "--out",
                 str(tmp_path / "failed")])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "numeric failure: seed 1, n_diligent 0: step 0: no sign change in "
        "the scan of the exact bracket [")


def test_feedback_cell_without_a_root_exits_3(tmp_path, capsys,
                                              monkeypatch):
    # a scan cell whose exact end residuals share a sign is a numeric
    # failure too, not a traceback
    from beliefmkt import feedback
    monkeypatch.setattr(feedback, "scan_sign_changes",
                        lambda values, grid: [(grid[0], grid[1])])
    cfg = write_config(tmp_path, {
        "n_agents": 8, "n_diligent": 0, "n_steps": 20, "seed": 1})
    code = main(["feedback", "--config", str(cfg), "--out",
                 str(tmp_path / "out")])
    assert code == 3
    assert "step 0: scan cell [" in capsys.readouterr().err


def test_feedback_levels_that_overflow_exit_3(tmp_path, capsys):
    # a true growth of 3000 a year takes S* past the float range within a
    # year: series.csv is refused rather than written with inf
    cfg = write_config(tmp_path, {
        "n_agents": 5, "n_diligent": 5, "n_steps": 252, "seed": 1,
        "growth_true": 3000.0})
    out = tmp_path / "out"
    assert main(["feedback", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: series.csv: column S_star is not finite at "
        "t=0.23412698412698413; the file is not written\n")
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_feedback_levels_that_underflow_exit_3(tmp_path, capsys):
    # a true growth of -25 a year takes the dividend below the float range
    # at t = 29.85, and S* and S with it: series.csv is refused rather than
    # written with levels of 0
    cfg = write_config(tmp_path, {
        "n_agents": 3, "n_diligent": 0, "years": 30.0, "seed": 1,
        "growth_true": -25.0})
    out = tmp_path / "out"
    assert main(["feedback", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: series.csv: column delta is 0 at "
        "t=29.845238095238095; the file is not written\n")
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


# ---------------------------------------------------------------------------
# beauty / fit / ingest


def test_beauty_outputs(tmp_path):
    cfg = write_config(tmp_path, {
        "agents": [
            {"risk_aversion": 1.0, "mean_belief": 0.0, "belief_variance": 1.0},
            {"risk_aversion": 1.0, "mean_belief": 1.0, "belief_variance": 1.0},
        ],
        "csv": True})
    out = tmp_path / "out"
    assert main(["beauty", "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "contest.txt").read_text()
    assert "truthful price 0.5" in text
    rows = (out / "contest.csv").read_text().strip().split("\n")
    assert len(rows) == 3
    assert rows[1].split(",")[-1] == "False"  # both agents lose


def contest_csv_by_value(spec):
    """contest.csv written one ``format(v, ".17g")`` per value."""
    truthful = truthful_equilibrium(spec)
    faked = pareto_faked_equilibrium(spec)
    report = welfare_comparison(spec)
    lines = ["agent,gamma,alpha,variance,p,theta,objective,"
             "alpha_faked,theta_faked,objective_faked,improved"]
    for j in range(spec.n_agents):
        lines.append(",".join([
            str(j),
            format(spec.risk_aversion[j], ".17g"),
            format(spec.mean_belief[j], ".17g"),
            format(spec.belief_variance[j], ".17g"),
            format(truthful.weights[j], ".17g"),
            format(truthful.holdings[j], ".17g"),
            format(truthful.objectives[j], ".17g"),
            format(faked.professed[j], ".17g"),
            format(faked.holdings[j], ".17g"),
            format(faked.objectives[j], ".17g"),
            str(bool(report.improved[j])),
        ]))
    return "\n".join(lines) + "\n"


def test_contest_csv_matches_per_value_format(tmp_path, rng):
    contests = [{"agents": [
        {"risk_aversion": float(rng.uniform(0.2, 5.0)),
         "mean_belief": float(rng.normal(0.0, 2.0)),
         "belief_variance": float(rng.uniform(0.1, 3.0))}
        for _ in range(rng.integers(2, 9))]} for _ in range(12)]
    # -0.0 and 1e-300 as values; the beliefs differ by less than the
    # squares can resolve, so every agent ties in ``improved``
    contests.append({"agents": [
        {"risk_aversion": 1.0, "mean_belief": -0.0, "belief_variance": 1.0},
        {"risk_aversion": 2.0, "mean_belief": -0.0, "belief_variance": 0.5},
        {"risk_aversion": 1.0, "mean_belief": 1e-300,
         "belief_variance": 1.0}]})
    written = ""
    for k, payload in enumerate(contests):
        payload["csv"] = True
        cfg = write_config(tmp_path, payload, f"contest{k}.json")
        out = tmp_path / f"out{k}"
        assert main(["beauty", "--config", str(cfg), "--out", str(out)]) == 0
        got = (out / "contest.csv").read_text()
        assert_same_text(got,
                         contest_csv_by_value(parse_contest(payload)[0]))
        written += got
    assert "True" in written and ",-0," in written and "1e-300" in written


_SATURATED_CONTESTS = [
    # 1/(gamma v) overflows for agent 0, which would give nan prices,
    # holdings and objectives
    ([(1.0, 0.0, 1e-320), (1.0, 1.0, 1.0)],
     "agent 0: clearing weights not finite: the sum of "
     "1/(risk_aversion * belief_variance) is inf"),
    # a clearing weight of 0, where gamma v overflows and where a share
    # underflows
    ([(1e200, 0.0, 1e200), (1.0, 1.0, 1.0)],
     "agent 0: clearing weight is 0: its 1/(risk_aversion * "
     "belief_variance) is 0.0 of a sum of 1.0"),
    ([(1e-150, 0.0, 1e-150), (1e20, 1.0, 1e20)],
     "agent 1: clearing weight is 0: its 1/(risk_aversion * "
     "belief_variance) is 1e-40 of a sum of 9.999999999999999e+299"),
    # an objective's exponent overflows
    ([(1.0, -1e200, 1.0), (1.0, 1e200, 1.0)],
     "agent 0: objective or holding not finite: exponent inf, objective "
     "-0.0, holding -1e+200")]


def test_beauty_weights_that_are_not_finite_exit_3(tmp_path, capsys):
    # each contest (risk aversion, mean belief, variance per agent) exits 3
    # before anything is written, and prints no warning
    for k, (agents, message) in enumerate(_SATURATED_CONTESTS):
        cfg = write_config(tmp_path, {
            "agents": [{"risk_aversion": g, "mean_belief": a,
                        "belief_variance": v} for g, a, v in agents],
            "csv": True}, f"contest{k}.json")
        out = tmp_path / f"out{k}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["beauty", "--config", str(cfg),
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"numeric failure: {message}\n"
        assert not out.exists()


def test_beauty_invalid_variance_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "agents": [
            {"risk_aversion": 1.0, "mean_belief": 0.0, "belief_variance": 1.0},
            {"risk_aversion": 1.0, "mean_belief": 1.0, "belief_variance": -1.0},
        ]})
    assert main(["beauty", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert "agents[1].belief_variance" in capsys.readouterr().err


def test_fit_subcommand_writes_result(tmp_path):
    cfg = write_config(tmp_path, {
        "n_agents": 1,
        "free": [{"name": "sigma", "lower": 0.1, "upper": 0.5, "start": 0.2}],
        "fixed": {"alpha_0": 0.0, "rho_0": 0.05},
        "n_paths": 2, "horizon_years": 2.0, "dt": 0.02, "seed": 1,
        "max_iterations": 10})
    out = tmp_path / "out"
    assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
    result = json.loads((out / "fit_result.json").read_text())
    assert 0.1 <= result["values"]["sigma"] <= 0.5
    assert "Mean price/dividend ratio" in (out / "comparison.txt").read_text()


def test_fit_without_a_finite_loss_exits_3(tmp_path, capsys):
    # the mean P/D term ((m - t) / t) ** 2 overflows at every trial point:
    # no fit result is written, and the search prints no numpy warning
    cfg = write_config(tmp_path, {
        "n_agents": 1,
        "free": [{"name": "sigma", "lower": 0.05, "upper": 0.6, "start": 0.2},
                 {"name": "rho_0", "lower": 1e-9, "upper": 0.3,
                  "start": 3e-7}],
        "targets": {"mean_pd": 1e-200},
        "n_paths": 2, "horizon_years": 2.0, "dt": 0.02, "seed": 1,
        "max_iterations": 40})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "no finite loss" in err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("rho_0", [
    # P/D = 1/rho: each path's sum of P/D**2 is finite, the 8 paths' is not
    1.5e-153,
    # P/D**2 overflows at each grid point
    {"name": "rho_0", "lower": 1e-170, "upper": 1e-150, "start": 1e-160}],
    ids=["pooled-sum", "squares"])
def test_fit_with_overflowing_pd_exits_3(tmp_path, capsys, rho_0):
    # the pooled moments are not finite at every trial point: a numeric
    # failure, not a traceback, and no numpy warning
    free = [{"name": "sigma", "lower": 0.05, "upper": 0.6, "start": 0.2}]
    fixed = {"alpha_0": 0.0, "nu_0": 1.0}
    if isinstance(rho_0, dict):
        free.append(rho_0)
    else:
        fixed["rho_0"] = rho_0
    cfg = write_config(tmp_path, {
        "n_agents": 1, "free": free, "fixed": fixed, "n_paths": 8,
        "horizon_years": 2.0, "dt": 0.02, "seed": 1, "max_iterations": 5})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
    assert "no finite loss" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, field", [
    ({"dt": 30.0, "horizon_years": 20.0}, "dt"),
    ({"fixed": {"alpha_0": 0.0, "sigma": 0.2}}, "sigma"),
    # nothing to move, a target the loss would divide by, nothing to match
    ({"free": []}, "free"),
    ({"targets": {"mean_pd": 25, "equity_premium": 0}},
     "targets.equity_premium"),
    ({"targets": {}}, "targets"),
    # fixed values outside the range the model accepts
    ({"fixed": {"alpha_0": 0.0, "rho_0": 0.05, "nu_0": 0.0}}, "nu_0"),
    ({"free": [{"name": "alpha_0", "lower": -0.5, "upper": 0.5,
                "start": 0.0}],
      "fixed": {"rho_0": 0.05, "nu_0": 1.0, "sigma": 0.0}}, "sigma"),
    ({"fixed": {"alpha_0": 0.0, "rho_0": 0}}, "fixed.rho_0"),
])
def test_fit_invalid_problem_exits_2_before_writing(tmp_path, capsys,
                                                    overrides, field):
    cfg = write_config(tmp_path, {
        "n_agents": 1,
        "free": [{"name": "sigma", "lower": 0.1, "upper": 0.5, "start": 0.2}],
        "fixed": {"alpha_0": 0.0, "rho_0": 0.05},
        "n_paths": 2, "horizon_years": 2.0, "dt": 0.02, "seed": 1,
        "max_iterations": 10, **overrides})
    out = tmp_path / "out"
    assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["alpha_00", "rho_\u00b2"],
                         ids=["leading-zero", "superscript"])
def test_fit_parameter_name_must_be_one_the_market_reads(tmp_path, capsys,
                                                         name):
    # build_market looks up alpha_0, never alpha_00, and int() cannot read
    # the superscript two that str.isdigit accepts
    cfg = write_config(tmp_path, _fit_config(free=[
        {"name": name, "lower": 0.1, "upper": 0.5, "start": 0.2}]))
    out = tmp_path / "out"
    assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: free[0].name: unknown parameter name '{name}'\n")
    assert not out.exists()


def test_ingest_subcommand(tmp_path):
    cfg = write_config(tmp_path, {
        "csv": str(REPO / "configs" / "sample_price_dividend.csv")})
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "targets.json").read_text())
    assert payload["n_rows"] == 360
    assert 15.0 < payload["mean_pd"] < 30.0


def test_ingest_without_riskless_writes_strict_json(tmp_path):
    # the rate moments, premium and Sharpe ratio are unavailable: null,
    # not the token NaN, which is not JSON
    rows = (REPO / "configs" / "sample_price_dividend.csv").read_text()
    csv = tmp_path / "prices.csv"
    csv.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                           for line in rows.splitlines()))
    cfg = write_config(tmp_path, {"csv": str(csv)})
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    payload = json.loads((out / "targets.json").read_text(),
                         parse_constant=reject)
    unavailable = ("mean_riskless", "std_riskless", "equity_premium",
                   "sharpe")
    assert all(payload[key] is None for key in unavailable)
    assert all(math.isfinite(payload[key]) for key in MOMENT_NAMES
               if key not in unavailable)


@pytest.mark.parametrize("field, value", [
    ("min_years", "10"), ("min_years", True), ("min_years", -5),
    ("min_years", 0), ("csv", 5)])
def test_ingest_invalid_field_exits_2_before_writing(tmp_path, capsys,
                                                     field, value):
    payload = {"csv": str(REPO / "configs" / "sample_price_dividend.csv")}
    payload[field] = value
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{field}:" in capsys.readouterr().err
    assert not out.exists()


def _csv_with_nan_price(tmp_path):
    path = tmp_path / "nan.csv"
    rows = [f"d{i},100.0,4.0" for i in range(150)]
    rows[7] = "d7,nan,4.0"
    path.write_text("date,price,dividend\n" + "\n".join(rows) + "\n")
    return path


def _csv_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"date,price,dividend\n1900-01,\xff1.0,2.0\n")
    return path


def _csv_field_past_limit(tmp_path):
    # csv refuses a field of more than 131072 characters
    path = tmp_path / "long.csv"
    path.write_text("date,price,dividend\n1900-01,1.0,2.0\n"
                    + "x" * 200_000 + ",1.0,2.0\n")
    return path


@pytest.mark.parametrize("csv, message", [
    (lambda tmp: tmp / "missing.csv", "csv: "),
    (lambda tmp: tmp, "csv: "),
    (_csv_not_utf8, "csv: "),
    (_csv_with_nan_price, "line 9: non-finite value"),
    (_csv_field_past_limit,
     "long.csv: line 3: field larger than field limit (131072)")],
    ids=["missing", "directory", "not-utf8", "nan-row", "field-past-limit"])
def test_unreadable_ingest_csv_exits_2_before_writing(tmp_path, capsys, csv,
                                                      message):
    cfg = write_config(tmp_path, {"csv": str(csv(tmp_path))})
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_ingest_reads_utf8_whatever_the_locale(tmp_path):
    # a non-ASCII date, read in a fresh interpreter under the default
    # environment and under the C locale without UTF-8 mode, whose
    # preferred encoding is ASCII
    lines = (REPO / "configs" / "sample_price_dividend.csv").read_text() \
        .splitlines(keepends=True)
    lines[1] = lines[1].replace(",", "-été,", 1)
    csv = tmp_path / "prices.csv"
    csv.write_text("".join(lines), encoding="utf-8")
    cfg = write_config(tmp_path, {"csv": str(csv)})
    base = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    c_locale = dict(base, PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                    LC_ALL="C")
    outputs = []
    for name, env in (("default", base), ("c-locale", c_locale)):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "beliefmkt", "ingest", "--config",
             str(cfg), "--out", str(out)], cwd=REPO, env=env,
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (name, proc.stderr)
        outputs.append((out / "targets.json").read_bytes())
    assert json.loads(outputs[0])["first_date"].endswith("-été")
    assert outputs[0] == outputs[1]


def test_out_that_cannot_be_created_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "csv": str(REPO / "configs" / "sample_price_dividend.csv")})
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 2
    assert "--out: " in capsys.readouterr().err
    assert out.read_text() == "a file, not a directory\n"


def test_beauty_csv_must_be_a_boolean(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "agents": [
            {"risk_aversion": 1.0, "mean_belief": 0.0, "belief_variance": 1.0},
            {"risk_aversion": 1.0, "mean_belief": 1.0, "belief_variance": 1.0},
        ],
        "csv": "false"})
    out = tmp_path / "out"
    assert main(["beauty", "--config", str(cfg), "--out", str(out)]) == 2
    assert "csv: expected true or false" in capsys.readouterr().err
    assert not out.exists()


def test_shipped_configs_parse_and_run_quickly(tmp_path):
    # keep the shipped example configs loadable; run the cheap ones
    code = main(["beauty", "--config", str(REPO / "configs" / "contest_two_agent.json"),
                 "--out", str(tmp_path / "beauty")])
    assert code == 0
    bench = json.loads((REPO / "configs" / "benchmark3.json").read_text())
    cfg = write_config(tmp_path, dict(bench, n_paths=2))
    code = main(["simulate-log", "--config", str(cfg),
                 "--out", str(tmp_path / "bench")])
    assert code == 0


# ---------------------------------------------------------------------------
# imports


_IMPORT_PROBE = """
import json, sys
if sys.argv[2] == "block-scipy":
    sys.modules["scipy"] = None  # any import of scipy now fails
from beliefmkt.cli import main

def loaded():
    return [m for m in ("scipy", "multiprocessing", "concurrent.futures")
            if sys.modules.get(m)]

seen = [loaded()]
for cmd in json.loads(sys.argv[1]):
    assert main(cmd) == 0, cmd
    seen.append(loaded())
print(json.dumps(seen))
"""


def _probe(commands, block_scipy=False):
    """Heavy modules loaded after import and after each command, in a
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands),
         "block-scipy" if block_scipy else "-"], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _probe_configs(tmp_path):
    simulate = write_config(tmp_path, tiny_market_config(), "simulate.json")
    feedback = write_config(tmp_path, {
        "n_agents": 4, "n_diligent": 0, "n_steps": 20, "seed": 3},
        "feedback.json")
    fit = write_config(tmp_path, {
        "n_agents": 1,
        "free": [{"name": "sigma", "lower": 0.1, "upper": 0.5, "start": 0.2}],
        "fixed": {"alpha_0": 0.0, "rho_0": 0.05},
        "n_paths": 1, "horizon_years": 1.0, "dt": 0.02, "seed": 1,
        "max_iterations": 3}, "fit.json")
    return simulate, feedback, fit


def test_no_subcommand_loads_scipy(tmp_path):
    # importing scipy.optimize costs more than most CLI runs: root solving
    # and the fit search have their own Brent and Nelder-Mead.  A sweep
    # splits its seeds by os.fork, so no run loads multiprocessing or
    # concurrent.futures either
    simulate, feedback, fit = _probe_configs(tmp_path)
    sweep = write_config(tmp_path, {
        "n_agents": 4, "n_diligent": 2, "n_steps": 20, "seed": 3,
        "seed_sweep": 2, "diligence_values": [0, 4]}, "sweep.json")
    out = str(tmp_path / "out")
    assert _probe([
        ["beauty", "--config",
         str(REPO / "configs" / "contest_two_agent.json"), "--out", out + "1"],
        ["ingest", "--config", str(REPO / "configs" / "ingest_sample.json"),
         "--out", out + "2"],
        ["simulate-log", "--config", str(simulate), "--out", out + "3"],
        ["simulate-log", "--config", out + "3/manifest.json",
         "--out", out + "4"],
    ]) == [[]] * 5
    assert _probe([["feedback", "--config", str(feedback), "--out", out + "5"],
                   ["feedback", "--config", str(sweep), "--out", out + "7"]]) \
        == [[]] * 3
    assert _probe([["fit", "--config", str(fit), "--out", out + "6"]]) \
        == [[]] * 2


def test_subcommands_run_without_scipy(tmp_path):
    # the runtime needs numpy only: with scipy unimportable, fit,
    # simulate-log and feedback still run and write the same files
    simulate, feedback, fit = _probe_configs(tmp_path)
    commands = [["fit", "--config", str(fit)],
                ["simulate-log", "--config", str(simulate)],
                ["feedback", "--config", str(feedback)]]
    blocked, free = tmp_path / "blocked", tmp_path / "free"
    _probe([cmd + ["--out", str(blocked / cmd[0])] for cmd in commands],
           block_scipy=True)
    for cmd in commands:
        assert main(cmd + ["--out", str(free / cmd[0])]) == 0
        for name in sorted(os.listdir(free / cmd[0])):
            assert (blocked / cmd[0] / name).read_bytes() \
                == (free / cmd[0] / name).read_bytes(), (cmd[0], name)


_THREAD_PROBE = """
import os
import beliefmkt
import numpy
print(os.environ["OPENBLAS_NUM_THREADS"], len(os.listdir("/proc/self/task")))
"""


def test_import_starts_no_blas_threads():
    # the engine has no BLAS work worth a thread; a value the user set wins
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("needs /proc to count threads")

    def run(**extra):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        env.update(extra, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], cwd=REPO,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        value, threads = proc.stdout.split()
        return value, int(threads)

    assert run() == ("1", 1)
    assert run(OPENBLAS_NUM_THREADS="2")[0] == "2"
