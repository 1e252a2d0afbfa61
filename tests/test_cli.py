"""End-to-end command-line workflows on temporary files.

Commands run in-process through cli.run so exit codes and artifacts can be
asserted without spawning interpreters; one smoke test covers `python -m
swingctl` and, when one is installed, the console script.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swingctl
from swingctl.cli import run
from swingctl.controller import init_monotone_params, init_policy_params
from swingctl.scenario_io import (
    bundled_path,
    config_hash,
    load_checkpoint,
    load_curve,
    load_trajectory,
    save_checkpoint,
)
from swingctl.training import TrainConfig


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n")


@pytest.fixture()
def files(tmp_path):
    """2-bus network plus a short quiet scenario and a stepped one."""
    net = tmp_path / "net.json"
    shutil.copy(bundled_path("net_2bus.json"), net)
    quiet = tmp_path / "quiet.json"
    write_json(
        quiet,
        {
            "format_version": 1,
            "kind": "scenario",
            "T": 1.0,
            "dt": 0.01,
            "init": {"omega_range": 0.0, "p_frac": 0.0},
            "label": "rest",
        },
    )
    step = tmp_path / "step.json"
    write_json(
        step,
        {
            "format_version": 1,
            "kind": "scenario",
            "T": 2.0,
            "dt": 0.01,
            "disturbances": [{"bus": 1, "dp": -0.25, "t0": 0.2, "t1": 1.0}],
            "init": {"omega_range": 0.0, "p_frac": 0.0},
            "label": "step",
        },
    )
    train = tmp_path / "train.json"
    write_json(
        train,
        {
            "format_version": 1,
            "kind": "scenario",
            "T": 10.0,
            "dt": 0.005,
            "disturbances": [{"bus": 1, "dp": -0.15, "t0": 0.0, "t1": 0.1}],
            "init": {"omega_range": 0.1, "p_frac": 0.1},
            "label": "train",
        },
    )
    return {"dir": tmp_path, "net": str(net), "quiet": str(quiet), "step": str(step), "train": str(train)}


def simulate(files, scenario_key, out, report, extra=()):
    return run(
        [
            "simulate",
            "--net",
            files["net"],
            "--scenario",
            files[scenario_key],
            "--out",
            str(out),
            "--report",
            str(report),
            *extra,
        ]
    )


def test_simulate_zero_controller_at_rest(files, capsys):
    out = files["dir"] / "traj.csv"
    report = files["dir"] / "verdicts.json"
    assert simulate(files, "quiet", out, report) == 0
    stdout = capsys.readouterr().out
    assert "frequency_invariance: pass" in stdout
    assert out.exists() and report.exists()
    obj = json.loads(report.read_text())
    assert obj["all_pass"] is True
    assert {c["name"] for c in obj["checks"]} == {
        "frequency_invariance",
        "lyapunov_descent",
        "budget_conservation",
        "convergence",
    }
    traj = load_trajectory(out)
    assert np.abs(traj.omega).max() < 1e-12


def test_simulate_artifacts_are_byte_identical(files):
    args = ["--noise", "0.002", "--seed", "5"]
    a, ra = files["dir"] / "a.csv", files["dir"] / "a.json"
    b, rb = files["dir"] / "b.csv", files["dir"] / "b.json"
    assert simulate(files, "step", a, ra, args) == 0
    assert simulate(files, "step", b, rb, args) == 0
    assert a.read_bytes() == b.read_bytes()
    assert ra.read_text() == rb.read_text()


def test_simulate_seed_changes_noise_draws(files):
    a, b = files["dir"] / "a.csv", files["dir"] / "b.csv"
    r = files["dir"] / "r.json"
    assert simulate(files, "step", a, r, ["--noise", "0.002", "--seed", "1"]) == 0
    assert simulate(files, "step", b, r, ["--noise", "0.002", "--seed", "2"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_simulate_safe_controller_on_step(files, capsys):
    # the event ends at t=1; by t=12 the closed loop is back at the tolerance
    out = files["dir"] / "safe.csv"
    report = files["dir"] / "safe.json"
    code = simulate(files, "step", out, report, ["--controller", "safe", "--horizon", "12"])
    assert code == 0
    assert json.loads(report.read_text())["all_pass"] is True
    capsys.readouterr()


def test_train_then_simulate_and_compare_from_checkpoint(files, capsys):
    ckpt = files["dir"] / "ckpt.json"
    curve = files["dir"] / "curve.csv"
    code = run(
        [
            "train",
            "--net",
            files["net"],
            "--scenario",
            files["train"],
            "--episodes",
            "2",
            "--batch",
            "2",
            "--steps",
            "50",
            "--seed",
            "3",
            "--quiet",
            "--out",
            str(ckpt),
            "--curve",
            str(curve),
        ]
    )
    assert code == 0
    params, meta = load_checkpoint(ckpt)
    assert params.kind == "constrained"
    assert meta["config"]["episodes"] == 2 and meta["config"]["seed"] == 3
    assert load_curve(curve).shape == (2, 5)

    out = files["dir"] / "pol.csv"
    report = files["dir"] / "pol.json"
    assert simulate(files, "step", out, report, ["--controller", str(ckpt)]) == 0

    cmp_path = files["dir"] / "cmp.csv"
    code = run(
        [
            "compare",
            "--net",
            files["net"],
            "--scenario",
            files["step"],
            "--controller",
            "zero",
            "--controller",
            f"trained={ckpt}",
            "--controller",
            "safe",
            "--train-window",
            "1.0",
            "--out",
            str(cmp_path),
        ]
    )
    assert code == 0
    lines = cmp_path.read_text().splitlines()
    assert lines[1] == "method,stability,safety,cost,cost_train_window,settle_time_s,worst_nadir_hz"
    assert [ln.split(",")[0] for ln in lines[2:]] == ["zero", "trained", "safe"]
    capsys.readouterr()


def test_train_monotone_policy(files, capsys):
    ckpt = files["dir"] / "mono.json"
    code = run(
        [
            "train",
            "--net",
            files["net"],
            "--scenario",
            files["train"],
            "--policy",
            "monotone",
            "--episodes",
            "2",
            "--batch",
            "2",
            "--steps",
            "40",
            "--quiet",
            "--out",
            str(ckpt),
            "--curve",
            str(files["dir"] / "mono_curve.csv"),
        ]
    )
    assert code == 0
    params, _ = load_checkpoint(ckpt)
    assert params.kind == "monotone"
    out = files["dir"] / "mono.csv"
    assert simulate(files, "step", out, files["dir"] / "mono_v.json", ["--controller", str(ckpt)]) == 0
    capsys.readouterr()


def test_projection_flag_is_a_kept_no_op(files, capsys):
    # `--projection` stays accepted for old scripts (`maybe` still exits 2:
    # test_usage_errors_exit_two) and changes nothing but its own echo: the
    # constrained policy's output already lies in its admissible interval,
    # and the constrained checkpoint acts on the step. compare echoes no
    # projection.
    mono, ckpt = files["dir"] / "mono.json", files["dir"] / "ck.json"
    save_checkpoint(mono, init_monotone_params(2, 4, np.random.default_rng(1)), TrainConfig())
    save_checkpoint(ckpt, init_policy_params(2, 4, np.random.default_rng(0), scale=1.0), TrainConfig())
    for controller in ("zero", "safe", str(mono), str(ckpt)):
        outs = []
        for flag in ("on", "off"):
            csv, rep = files["dir"] / f"{flag}.csv", files["dir"] / f"{flag}.json"
            assert simulate(files, "step", csv, rep, ["--controller", controller, "--projection", flag]) == 0
            echo, rows = csv.read_bytes().split(b"\n", 1)
            echo = json.loads(echo.removeprefix(b"# "))
            assert echo.pop("projection") == flag
            outs.append((echo, rows, rep.read_bytes()))
        assert outs[0] == outs[1], controller
    assert load_trajectory(files["dir"] / "on.csv").active.any()  # the constrained policy's run
    table = files["dir"] / "cmp.csv"
    assert run(["compare", "--net", files["net"], "--scenario", files["step"], "--controller", str(ckpt),
                "--projection", "off", "--out", str(table)]) == 0
    assert "projection" not in json.loads(table.read_text().splitlines()[0].removeprefix("# "))
    capsys.readouterr()


def test_verify_passes_then_fails_on_corrupted_budgets(files, capsys):
    out = files["dir"] / "traj.csv"
    report = files["dir"] / "verdicts.json"
    assert simulate(files, "quiet", out, report) == 0
    code = run(["verify", "--net", files["net"], "--traj", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    cols = lines[10].split(",")
    cols[5] = "0.5"  # b_1 with no matching withdrawal elsewhere
    lines[10] = ",".join(cols)
    out.write_text("\n".join(lines) + "\n")
    code = run(["verify", "--net", files["net"], "--traj", str(out)])
    assert code == 1
    assert "budget_conservation: FAIL" in capsys.readouterr().out


def test_verify_writes_report_when_asked(files, capsys):
    out = files["dir"] / "traj.csv"
    assert simulate(files, "quiet", out, files["dir"] / "v.json") == 0
    rep = files["dir"] / "again.json"
    assert run(["verify", "--net", files["net"], "--traj", str(out), "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["all_pass"] is True
    assert rep.read_text() == (files["dir"] / "v.json").read_text()
    capsys.readouterr()


@pytest.mark.parametrize("beta", ["0", "-1", "0.5"])
def test_beta_below_one_exits_one(files, capsys, beta):
    out = files["dir"] / "traj.csv"
    assert simulate(files, "quiet", out, files["dir"] / "v.json") == 0
    capsys.readouterr()
    common = ["--net", files["net"], "--beta", beta]
    for argv in (
        ["simulate", *common, "--scenario", files["quiet"], "--out", str(files["dir"] / "b.csv")],
        ["verify", *common, "--traj", str(out)],
        ["compare", *common, "--scenario", files["quiet"], "--controller", "zero",
         "--out", str(files["dir"] / "t.csv")],
    ):
        assert run(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "beta must be finite and >= 1" in err, argv[0]
    assert not (files["dir"] / "b.csv").exists()


def test_train_rejects_beta_as_usage_error(files, capsys):
    with pytest.raises(SystemExit) as ex:
        run(["train", "--net", files["net"], "--scenario", files["quiet"], "--beta", "-5"])
    assert ex.value.code == 2
    assert "unrecognized arguments: --beta" in capsys.readouterr().err
    code = run(["simulate", "--net", files["net"], "--scenario", files["quiet"], "--beta", "-5",
                "--out", str(files["dir"] / "b.csv")])
    assert code == 1
    assert "beta must be finite and >= 1" in capsys.readouterr().err


def test_usage_errors_exit_two(files):
    with pytest.raises(SystemExit) as ex:
        run(["simulate", "--net", files["net"]])  # missing --scenario
    assert ex.value.code == 2
    with pytest.raises(SystemExit) as ex:
        run(["simulate", "--net", files["net"], "--scenario", files["quiet"], "--projection", "maybe"])
    assert ex.value.code == 2
    with pytest.raises(SystemExit) as ex:
        run(["explode"])
    assert ex.value.code == 2


def test_missing_input_exits_one_with_message(files, capsys):
    code = run(["simulate", "--net", str(files["dir"] / "ghost.json"), "--scenario", files["quiet"]])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaError")
    assert "file not found" in err


def test_malformed_band_exits_one(files, capsys):
    code = run(["simulate", "--net", files["net"], "--scenario", files["quiet"], "--band", "0.2"])
    assert code == 1
    assert "--band must be 'lo,hi'" in capsys.readouterr().err


def test_horizon_off_the_dt_grid_exits_one(files, capsys):
    code = run(
        ["simulate", "--net", files["net"], "--scenario", files["quiet"], "--horizon", "2", "--dt", "0.3"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not an integer multiple of dt" in err


@pytest.mark.parametrize(
    "flag, message",
    [
        (["--band", "nan,nan"], "PolicyError: omega_min and omega_max must be finite"),
        (["--dt", "inf"], "ValueError: scenario dt must be finite"),
        (["--noise", "nan"], "ValueError: scenario noise_bound must be finite"),
        (["--horizon", "inf"], "ValueError: scenario horizon must be finite"),
    ],
)
def test_non_finite_flag_exits_one(files, capsys, flag, message):
    out = files["dir"] / "traj.csv"
    assert simulate(files, "step", out, files["dir"] / "r.json", flag) == 1
    assert not out.exists()
    assert one_error_line(capsys).startswith(f"error: {message}")


@pytest.mark.parametrize(
    "command, flag, message",
    [
        ("simulate", ["--gamma", "-5"], "gamma must be finite and >= 0"),
        ("simulate", ["--gamma", "nan"], "gamma must be finite and >= 0"),
        ("simulate", ["--tol", "nan"], "convergence tol must be finite and > 0"),
        ("verify", ["--tol", "-1"], "convergence tol must be finite and > 0"),
        ("compare", ["--gamma", "nan"], "gamma must be finite and >= 0"),
        ("compare", ["--train-window", "-3"], "cost window must be finite and >= 0"),
        ("compare", ["--train-window", "nan"], "cost window must be finite and >= 0"),
    ],
)
def test_bad_numeric_run_flag_exits_one_before_writing(files, capsys, command, flag, message):
    out, report = files["dir"] / "out.csv", files["dir"] / "r.json"
    argv = {
        "simulate": ["--scenario", files["step"], "--out", str(out), "--report", str(report)],
        "verify": ["--traj", str(files["dir"] / "run.csv"), "--report", str(report)],
        "compare": ["--scenario", files["step"], "--controller", "zero", "--out", str(out)],
    }[command]
    if command == "verify":
        assert simulate(files, "step", files["dir"] / "run.csv", files["dir"] / "run.json") == 0
        capsys.readouterr()
    assert run([command, "--net", files["net"], *argv, *flag]) == 1
    assert one_error_line(capsys).startswith(f"error: ValueError: {message}")
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize(
    "command, field, value, message",
    [
        ("simulate", "omega_range", -0.1, "SchemaError: {scenario}: scenario init_omega_range must be nonnegative"),
        ("simulate", "p_frac", -0.1, "SchemaError: {scenario}: scenario init_p_frac must be nonnegative"),
        ("simulate", "seed", -1, "ValueError: seed must be at least 0, got -1"),
        ("compare", "seed", -1, "ValueError: seed must be at least 0, got -1"),
        ("train", "seed", -1, "ValueError: seed must be at least 0, got -1"),
    ],
)
def test_negative_sampling_range_or_seed_exits_one_before_writing(files, capsys, command, field, value, message):
    scenario = files["dir"] / "scenario.json"
    obj = json.loads(Path(files["train"]).read_text())
    flag = []
    if field == "seed":
        flag = ["--seed", str(value)]
    else:
        obj["init"][field] = value
    write_json(scenario, obj)
    out, report = files["dir"] / "out.csv", files["dir"] / "r.json"
    argv = {
        "simulate": ["--out", str(out), "--report", str(report)],
        "compare": ["--controller", "zero", "--out", str(out)],
        "train": ["--episodes", "1", "--batch", "1", "--steps", "10", "--out", str(out), "--curve", str(report)],
    }[command]
    assert run([command, "--net", files["net"], "--scenario", str(scenario), *argv, *flag]) == 1
    assert one_error_line(capsys).startswith(f"error: {message.format(scenario=scenario)}")
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize("command", ["simulate", "train"])
@pytest.mark.parametrize(
    "edit, field",
    [
        ({"noise": [0.1]}, "field 'noise'"),
        ({"noise": "0.05"}, "field 'noise'"),
        ({"noise": True}, "field 'noise'"),
        ({"label": [1]}, "field 'label'"),
        ({"init": {"omega_range": [0.1]}}, "init: field 'omega_range'"),
        ({"init": {"p_frac": True}}, "init: field 'p_frac'"),
    ],
)
def test_scenario_value_of_wrong_type_exits_one_before_writing(files, capsys, command, edit, field):
    scenario = files["dir"] / "scenario.json"
    write_json(scenario, {**json.loads(Path(files["train"]).read_text()), **edit})
    out, report = files["dir"] / "out.csv", files["dir"] / "r.json"
    argv = {
        "simulate": ["--out", str(out), "--report", str(report)],
        "train": ["--episodes", "1", "--batch", "1", "--steps", "10", "--out", str(out), "--curve", str(report)],
    }[command]
    assert run([command, "--net", files["net"], "--scenario", str(scenario), *argv]) == 1
    assert one_error_line(capsys).startswith(f"error: SchemaError: {scenario}: {field} has wrong type")
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize(
    "edit, message",
    [({"nosie": 0.05}, "unknown field 'nosie'"), ({"init": {"omega_rnage": 0.0}}, "init: unknown field 'omega_rnage'")],
)
def test_scenario_unknown_key_exits_one_before_writing(files, capsys, edit, message):
    # a misspelt optional key used to load as its default
    scenario = files["dir"] / "scenario.json"
    write_json(scenario, {**json.loads(Path(files["step"]).read_text()), **edit})
    out, report = files["dir"] / "out.csv", files["dir"] / "r.json"
    assert run(["simulate", "--net", files["net"], "--scenario", str(scenario), "--out", str(out),
                "--report", str(report)]) == 1
    assert one_error_line(capsys) == f"error: SchemaError: {scenario}: {message}\n"
    assert not out.exists() and not report.exists()


def test_train_dtilde_frac_flag(files, capsys):
    out, curve = files["dir"] / "ckpt.json", files["dir"] / "curve.csv"
    argv = ["train", "--net", files["net"], "--scenario", files["train"], "--episodes", "1", "--batch", "1",
            "--steps", "40", "--quiet", "--out", str(out), "--curve", str(curve)]
    assert run([*argv, "--dtilde-frac", "1.0"]) == 1
    assert one_error_line(capsys) == "error: PolicyError: dtilde_frac must lie in (0, 1)\n"
    assert not out.exists() and not curve.exists()
    assert run([*argv, "--dtilde-frac", "0.3"]) == 0
    params, meta = load_checkpoint(out)
    assert params.dtilde_frac.tolist() == [0.3, 0.3] and meta["config"]["dtilde_frac"] == 0.3


def test_train_monotone_rejects_dtilde_frac(files, capsys):
    # The monotone policy has no stability cap, so the flag would only be
    # recorded in the checkpoint's config, unused.
    out, curve = files["dir"] / "ckpt.json", files["dir"] / "curve.csv"
    argv = ["train", "--net", files["net"], "--scenario", files["train"], "--policy", "monotone",
            "--episodes", "1", "--batch", "1", "--steps", "40", "--quiet", "--out", str(out), "--curve", str(curve)]
    assert run([*argv, "--dtilde-frac", "0.3"]) == 1
    assert one_error_line(capsys) == (
        "error: ValueError: --dtilde-frac does not apply: the monotone policy has no stability cap\n"
    )
    assert not out.exists() and not curve.exists()
    assert run(argv) == 0
    assert load_checkpoint(out)[0].kind == "monotone"


def test_train_records_dtilde_frac_for_the_constrained_policy_only(files, capsys):
    # The stability cap's damping share is a constrained-policy setting: a
    # monotone run leaves it out of its checkpoint config, config hash and
    # curve echo, and a constrained run records it.
    for policy in ("monotone", "constrained"):
        out, curve = files["dir"] / f"{policy}.json", files["dir"] / f"{policy}.csv"
        argv = ["train", "--net", files["net"], "--scenario", files["train"], "--policy", policy,
                "--episodes", "0", "--steps", "40", "--quiet", "--out", str(out), "--curve", str(curve)]
        assert run(argv) == 0
        settings = TrainConfig(episodes=0, steps=40).to_dict()
        if policy == "monotone":
            del settings["dtilde_frac"]
        _, meta = load_checkpoint(out)
        echo = json.loads(curve.read_text().splitlines()[0].removeprefix("# "))
        assert meta["config"] == settings and meta["config_hash"] == config_hash(settings)
        assert echo["config_hash"] == meta["config_hash"]
        assert ("dtilde_frac" in echo) == (policy == "constrained")


@pytest.mark.parametrize(
    "bad, message",
    [
        (["a"], "field 'omega_min' must be a number or a list of numbers"),
        ([[-0.2, -0.2]], "field 'omega_min' must be a number or a list of numbers"),
        (True, "field 'omega_min' has wrong type bool"),
        ([-0.2, False], "field 'omega_min' must be a number or a list of numbers"),
        (0.1, "the band must contain the nominal frequency strictly"),
    ],
)
def test_bad_safety_spec_exits_one_naming_the_file(files, capsys, bad, message):
    spec = files["dir"] / "spec.json"
    write_json(spec, {"format_version": 1, "kind": "safety_spec", "omega_min": bad, "omega_max": 0.2})
    out = files["dir"] / "out.csv"
    argv = ["--spec", str(spec), "--dt", "0.01", "--horizon", "0.1"]
    assert simulate(files, "train", out, files["dir"] / "r.json", argv) == 1
    assert one_error_line(capsys).startswith(f"error: SchemaError: {spec}: {message}")
    assert not out.exists()


@pytest.mark.parametrize("window", ["-3", "nan", "inf"])
def test_compare_checks_the_train_window_before_the_rollouts(files, capsys, monkeypatch, window):
    def no_rollouts(*args, **kwargs):
        raise AssertionError("compare ran rollouts")

    monkeypatch.setattr("swingctl.cli.rollout", no_rollouts)
    out = files["dir"] / "cmp.csv"
    argv = ["compare", "--net", files["net"], "--scenario", files["step"], "--controller", "zero"]
    assert run([*argv, "--train-window", window, "--out", str(out)]) == 1
    assert not out.exists()
    assert one_error_line(capsys).startswith("error: ValueError: cost window must be finite and >= 0")


def test_compare_train_window_past_the_horizon_costs_the_whole_run(tmp_path, capsys):
    # ieee39 x eval-desk: a window of 1e308 s clamps to the horizon
    out = tmp_path / "cmp.csv"
    argv = ["compare", "--net", str(bundled_path("ieee39_net.json")),
            "--scenario", str(bundled_path("scenario_eval_desk.json")), "--controller", "zero"]
    assert run([*argv, "--train-window", "1e308", "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()[1:]
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["cost_train_window"] == fields["cost"] and float(fields["cost"]) > 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_safe_controller_with_a_band_inside_its_thresholds_exits_one_before_the_rollouts(
        tmp_path, capsys, monkeypatch, command):
    def no_rollouts(*args, **kwargs):
        raise AssertionError(f"{command} ran rollouts")

    monkeypatch.setattr("swingctl.cli.rollout", no_rollouts)
    out, report = tmp_path / "out.csv", tmp_path / "r.json"
    argv = [command, "--net", str(bundled_path("ieee39_net.json")), "--band=-0.01,0.01",
            "--scenario", str(bundled_path("scenario_eval_desk.json")), "--controller", "safe", "--out", str(out)]
    assert run(argv + (["--report", str(report)] if command == "simulate" else [])) == 1
    assert not out.exists() and not report.exists()
    assert one_error_line(capsys).startswith("error: PolicyError: the safe controller's thresholds +/-0.1 Hz are not "
                                             "strictly inside bus 0's band [-0.01, 0.01] Hz")


@pytest.mark.parametrize("label", ["a,b", "", "a\nb"])
def test_compare_rejects_labels_that_break_the_table(files, capsys, monkeypatch, label):
    def no_rollouts(*args, **kwargs):
        raise AssertionError("compare ran rollouts")

    monkeypatch.setattr("swingctl.cli.rollout", no_rollouts)
    out = files["dir"] / "cmp.csv"
    argv = ["compare", "--net", files["net"], "--scenario", files["step"], "--controller", "zero"]
    assert run([*argv, "--controller", f"{label}=zero", "--out", str(out)]) == 1
    assert not out.exists()
    assert one_error_line(capsys).startswith("error: ValueError: --controller label")


def test_network_without_edges_exits_one(files, capsys):
    lone = files["dir"] / "lone.json"
    write_json(
        lone,
        {
            "format_version": 1,
            "kind": "network",
            "buses": [{"id": 1, "M": 1.0, "D": 1.0, "p_nom": 0.0}],
            "edges": [],
        },
    )
    code = run(["simulate", "--net", str(lone), "--scenario", files["quiet"],
                "--out", str(files["dir"] / "lone.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: EquilibriumError: the network has no edges, so no energy region exists\n"
    assert not (files["dir"] / "lone.csv").exists()


def test_infeasible_network_exits_one(files, capsys):
    bad = files["dir"] / "heavy.json"
    write_json(
        bad,
        {
            "format_version": 1,
            "kind": "network",
            "buses": [
                {"id": 1, "M": 1.0, "D": 1.0, "p_nom": 1.2},
                {"id": 2, "M": 1.0, "D": 1.0, "p_nom": -1.2},
            ],
            "edges": [{"from": 1, "to": 2, "b": 1.0}],
        },
    )
    code = run(["simulate", "--net", str(bad), "--scenario", files["quiet"]])
    assert code == 1
    assert "EquilibriumError" in capsys.readouterr().err


def two_bus_checkpoint(files, **edits):
    """A 2-bus, m=4 checkpoint file, with top-level or raw fields replaced."""
    path = files["dir"] / "ck.json"
    save_checkpoint(path, init_policy_params(2, 4, np.random.default_rng(0)), TrainConfig())
    obj = json.loads(path.read_text())
    for name, val in edits.items():
        (obj["raw"] if name in obj["raw"] else obj)[name] = val
    write_json(path, obj)
    return str(path)


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"barrier_hi_wp": 0.5}, "raw['barrier_hi_wp'] has 0 dimensions, expected 2"),
        ({"dtilde_frac": [0.5, 0.5, 0.5]}, "dtilde_frac has shape (3,), expected (2,)"),
        ({"thr_hi": [[0.1], 0.2]}, "raw['thr_hi'] is not a numeric array"),
        ({"dtilde_frac": [1.0, 1.0]}, "dtilde_frac must lie in (0, 1)"),
    ],
)
def test_malformed_checkpoint_exits_one(files, capsys, edits, message):
    ckpt = two_bus_checkpoint(files, **edits)
    code = simulate(files, "quiet", files["dir"] / "t.csv", files["dir"] / "v.json", ["--controller", ckpt])
    assert code == 1
    err = one_error_line(capsys)
    assert err.startswith("error: SchemaError") and message in err


def _checkpoint_on_3bus(files):
    ckpt = two_bus_checkpoint(files)
    return ["simulate", "--scenario", files["quiet"], "--controller", ckpt, "--out", str(files["dir"] / "t.csv")]


def _spec_with_3_entries(files):
    spec = files["dir"] / "spec.json"
    band = {"omega_min": [-0.2] * 3, "omega_max": [0.2] * 3}
    write_json(spec, {"format_version": 1, "kind": "safety_spec", **band})
    return ["simulate", "--scenario", files["quiet"], "--spec", str(spec), "--out", str(files["dir"] / "t.csv")]


def _verify_2bus_csv(files):
    out = files["dir"] / "two.csv"
    assert simulate(files, "quiet", out, files["dir"] / "v.json") == 0
    return ["verify", "--traj", str(out)]


def _verify_triangle_csv(files):
    # same bus count as net_3bus.json (a path of 2 edges), but 3 edges
    tri = json.loads(bundled_path("net_3bus.json").read_text())
    tri["edges"].append({"b": 1.0, "from": 1, "to": 3})
    write_json(files["dir"] / "tri.json", tri)
    out = files["dir"] / "tri.csv"
    argv = ["simulate", "--net", str(files["dir"] / "tri.json"), "--scenario", files["quiet"], "--out", str(out)]
    assert run([*argv, "--report", str(files["dir"] / "tri_report.json")]) == 0
    return ["verify", "--traj", str(out)]


@pytest.mark.parametrize(
    "build, net, message",
    [
        (_checkpoint_on_3bus, "net_3bus.json", "PolicyError: barrier_hi_wp has shape (2, 4), the network has 3 buses"),
        (_spec_with_3_entries, "net_2bus.json", "SchemaError: {dir}/spec.json: the band has 3 entries, the network has 2 buses"),
        (_verify_2bus_csv, "net_3bus.json", "SchemaError: {dir}/two.csv: the trajectory has 2 buses, the network has 3"),
        (_verify_triangle_csv, "net_3bus.json", "SchemaError: {dir}/tri.csv: the trajectory has 3 edges, the network has 2"),
    ],
)
def test_bus_count_mismatch_names_both_sizes(files, capsys, build, net, message):
    argv = build(files)
    capsys.readouterr()
    code = run([*argv, "--net", str(bundled_path(net)), "--report", str(files["dir"] / "r.json")])
    assert code == 1
    assert one_error_line(capsys) == f"error: {message.format(dir=files['dir'])}\n"


@pytest.mark.parametrize(
    "flag",
    [
        ["--batch", "0"], ["--steps", "0"], ["--m-hidden", "0"], ["--dt", "0"],
        ["--episodes", "-1"], ["--rho", "-5"], ["--rho", "nan"], ["--gamma", "-1"], ["--gamma", "nan"],
        ["--lr", "-1"], ["--lr", "0"], ["--init-scale", "inf"], ["--init-scale", "1e308"],
    ],
)
def test_train_rejects_unusable_sizes(files, capsys, flag):
    argv = ["train", "--net", files["net"], "--scenario", files["train"], "--episodes", "1", "--quiet"]
    code = run([*argv, *flag, "--out", str(files["dir"] / "ck.json"), "--curve", str(files["dir"] / "c.csv")])
    assert code == 1
    err = one_error_line(capsys)
    assert err.startswith("error: ValueError") and flag[0].lstrip("-").replace("-", "_") in err
    assert not (files["dir"] / "ck.json").exists() and not (files["dir"] / "c.csv").exists()


@pytest.mark.parametrize(
    "flag, where",
    [(["--init-scale", "1e3"], "initial policy"), (["--lr", "1e30"], "episode 0: the update broke the policy")],
)
def test_train_names_where_the_policy_broke(files, capsys, flag, where):
    argv = ["train", "--net", str(bundled_path("net_3bus.json")), "--scenario", files["train"], "--episodes", "3", "--steps", "20",
            "--batch", "2", "--quiet", *flag]
    code = run([*argv, "--out", str(files["dir"] / "ck.json"), "--curve", str(files["dir"] / "c.csv")])
    assert code == 1
    err = one_error_line(capsys)
    assert err.startswith(f"error: TrainingError: {where}: ") and "threshold escaped" in err
    assert not (files["dir"] / "ck.json").exists()


def test_train_takes_dt_from_the_scenario_unless_dt_retimes_it(files, capsys):
    # the step scenario runs at 0.01 s; the training config defaults to 0.005 s
    ckpt, curve = files["dir"] / "ck.json", files["dir"] / "c.csv"
    argv = ["train", "--net", files["net"], "--scenario", files["step"], "--episodes", "0", "--steps", "200",
            "--quiet", "--out", str(ckpt), "--curve", str(curve)]
    assert run(argv) == 1
    assert one_error_line(capsys) == (
        f"error: ValueError: the training dt 0.005 differs from the dt 0.01 of {files['step']}; pass --dt to retime\n"
    )
    assert not ckpt.exists() and not curve.exists()
    assert run([*argv, "--dt", "0.01"]) == 0
    assert load_checkpoint(ckpt)[1]["config"]["dt"] == 0.01
    assert load_curve(curve).shape == (0, 5)


def test_console_script_help():
    # the module entry point works from a plain checkout; the installed
    # console script is checked too whenever one is on PATH
    src = str(Path(swingctl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    commands = [[sys.executable, "-m", "swingctl", "--help"]]
    if shutil.which("swingctl"):
        commands.append(["swingctl", "--help"])
    for cmd in commands:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "simulate" in proc.stdout and "compare" in proc.stdout
