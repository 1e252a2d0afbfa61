"""File formats: round-trips are exact, bad files name the offending field,
and the CSV cost metric agrees with the training loss on the same run."""

import json

import numpy as np
import pytest

from oracles import forward_loss
from swingctl import cli
from swingctl.controller import (
    PARAM_KEYS,
    ConstrainedAdapter,
    SafetySpec,
    init_monotone_params,
    init_policy_params,
    make_analytic_safe_controller,
    make_policy_controller,
    make_zero_controller,
)
from swingctl.dynamics import Disturbance, Scenario, Trajectory, rollout
from swingctl.netgraph import Incidence, PowerNetwork
from swingctl.scenario_io import (
    COMPARISON_HEADER,
    CURVE_HEADER,
    RunSummary,
    SchemaError,
    bundled_path,
    config_hash,
    load_checkpoint,
    load_curve,
    load_network,
    load_safety_spec,
    load_scenario,
    load_trajectory,
    save_checkpoint,
    save_curve,
    save_report,
    save_trajectory,
    summarize,
)
from swingctl.training import TrainConfig
from swingctl.verify import run_checks


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n")


def network_obj(**overrides):
    obj = {
        "format_version": 1,
        "kind": "network",
        "buses": [
            {"id": 1, "M": 1.0, "D": 1.0, "p_nom": 0.5},
            {"id": 2, "M": 1.0, "D": 1.0, "p_nom": -0.5},
        ],
        "edges": [{"from": 1, "to": 2, "b": 1.0}],
    }
    obj.update(overrides)
    return obj


# ---------------------------------------------------------------- networks


def test_network_round_trip_two_bus(tmp_path, net2):
    path = tmp_path / "net.json"
    write_json(path, network_obj())
    back = load_network(path)
    for name in ("inertia", "damping", "p_nom", "susceptance", "bus_ids"):
        assert np.array_equal(getattr(back, name), getattr(net2, name)), name
    assert back.edges == net2.edges


def test_network_round_trip_39_bus(net39):
    # the loaded network holds exactly the file's values, ids remapped in file order
    obj = json.loads(bundled_path("ieee39_net.json").read_text())
    index = {b["id"]: k for k, b in enumerate(obj["buses"])}
    for name, key in (("inertia", "M"), ("damping", "D"), ("p_nom", "p_nom")):
        assert getattr(net39, name).tolist() == [float(b[key]) for b in obj["buses"]], name
    assert net39.susceptance.tolist() == [float(e["b"]) for e in obj["edges"]]
    assert net39.edges == [tuple(sorted((index[e["from"]], index[e["to"]]))) for e in obj["edges"]]
    assert net39.bus_ids.tolist() == list(index)


def test_network_malformed_json_names_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "kind": "network",\n  oops\n}\n')
    with pytest.raises(SchemaError, match=r"bad\.json:3"):
        load_network(path)


def test_network_missing_field_named(tmp_path):
    obj = network_obj()
    del obj["buses"][1]["D"]
    path = tmp_path / "net.json"
    write_json(path, obj)
    with pytest.raises(SchemaError, match=r"buses\[1\].*missing field 'D'"):
        load_network(path)


def test_network_duplicate_bus_id(tmp_path):
    obj = network_obj()
    obj["buses"][1]["id"] = 1
    path = tmp_path / "net.json"
    write_json(path, obj)
    with pytest.raises(SchemaError, match="duplicate bus id"):
        load_network(path)


def test_network_unknown_edge_endpoint(tmp_path):
    obj = network_obj()
    obj["edges"][0]["to"] = 7
    path = tmp_path / "net.json"
    write_json(path, obj)
    with pytest.raises(SchemaError, match=r"edges\[0\].*unknown bus id 7"):
        load_network(path)


def test_network_invariant_failure_is_schema_error(tmp_path):
    # physical validation runs at load time and keeps the file context
    obj = network_obj()
    obj["buses"][0]["D"] = 0.0
    path = tmp_path / "net.json"
    write_json(path, obj)
    with pytest.raises(SchemaError, match="damping"):
        load_network(path)


def test_network_wrong_kind_rejected(tmp_path):
    path = tmp_path / "net.json"
    write_json(path, network_obj(kind="scenario"))
    with pytest.raises(SchemaError, match="expected 'network'"):
        load_network(path)


def test_network_unsupported_version(tmp_path):
    path = tmp_path / "net.json"
    write_json(path, network_obj(format_version=99))
    with pytest.raises(SchemaError, match="format_version 99"):
        load_network(path)


def test_bundled_path_resolves_and_rejects():
    assert load_network(bundled_path("net_2bus.json")).n_bus == 2
    assert load_network(bundled_path("net_3bus.json")).n_bus == 3
    with pytest.raises(SchemaError, match="no_such.json"):
        bundled_path("no_such.json")


def test_missing_file_named(tmp_path):
    with pytest.raises(SchemaError, match="file not found"):
        load_network(tmp_path / "absent.json")


# --------------------------------------------------------------- scenarios


def test_scenario_round_trip(tmp_path, net2):
    path = tmp_path / "sc.json"
    write_json(
        path,
        {
            "format_version": 1,
            "kind": "scenario",
            "T": 5.0,
            "dt": 0.01,
            "disturbances": [{"bus": 2, "dp": -0.3, "t0": 0.5, "t1": 2.0}],
            "init": {"omega_range": 0.05, "p_frac": 0.2},
            "noise": 0.001,
            "label": "step test",
        },
    )
    assert load_scenario(path, net2) == Scenario(
        horizon=5.0,
        dt=0.01,
        disturbances=(Disturbance(bus=1, dp=-0.3, t0=0.5, t1=2.0),),
        init_omega_range=0.05,
        init_p_frac=0.2,
        noise_bound=0.001,
        label="step test",
    )


def test_scenario_bus_ids_follow_network_table(tmp_path):
    # sparse file ids: the file holds the network's id, not the array index
    net = PowerNetwork(
        inertia=[1.0, 1.0, 1.0],
        damping=[1.0, 1.0, 1.0],
        p_nom=[0.2, 0.1, -0.3],
        edges=[(0, 1), (1, 2)],
        susceptance=[1.0, 1.0],
        bus_ids=(10, 20, 30),
    )
    obj = {
        "format_version": 1,
        "kind": "scenario",
        "T": 1.0,
        "dt": 0.1,
        "disturbances": [{"bus": 30, "dp": -0.1, "t0": 0.0, "t1": 1.0}],
    }
    path = tmp_path / "sc.json"
    write_json(path, obj)
    assert load_scenario(path, net=net).disturbances == (Disturbance(2, -0.1, 0.0, 1.0),)
    obj["disturbances"][0]["bus"] = 3  # the 1-based index, not an id
    write_json(path, obj)
    with pytest.raises(SchemaError, match="bus id 3 not in the network"):
        load_scenario(path, net=net)


def test_scenario_window_outside_horizon(tmp_path, net2):
    obj = {
        "format_version": 1,
        "kind": "scenario",
        "T": 1.0,
        "dt": 0.1,
        "disturbances": [{"bus": 1, "dp": 0.1, "t0": 0.5, "t1": 3.0}],
    }
    path = tmp_path / "sc.json"
    write_json(path, obj)
    with pytest.raises(SchemaError, match="must lie inside"):
        load_scenario(path, net2)


def test_scenario_disturbance_unknown_key_rejected(tmp_path, net2):
    # an extra key, here a second window end, used to load silently
    obj = {
        "format_version": 1,
        "kind": "scenario",
        "T": 1.0,
        "dt": 0.1,
        "disturbances": [{"bus": 1, "dp": -0.1, "t0": 0.0, "t1": 0.5, "t2": 0.9}],
    }
    path = tmp_path / "sc.json"
    write_json(path, obj)
    with pytest.raises(SchemaError, match=r"sc\.json: disturbances\[0\]: unknown field 't2'$"):
        load_scenario(path, net2)
    del obj["disturbances"][0]["t2"]
    write_json(path, obj)
    assert load_scenario(path, net2).disturbances == (Disturbance(0, -0.1, 0.0, 0.5),)


def test_scenario_defaults_applied(tmp_path, net2):
    path = tmp_path / "sc.json"
    write_json(path, {"format_version": 1, "kind": "scenario", "T": 2.0, "dt": 0.5})
    sc = load_scenario(path, net2)
    assert sc.disturbances == ()
    assert sc.init_omega_range == 0.1 and sc.init_p_frac == 0.1
    assert sc.noise_bound == 0.0 and sc.n_steps == 4


def test_bundled_scenarios_load(net39):
    train = load_scenario(bundled_path("scenario_train_desk.json"), net=net39)
    noise = load_scenario(bundled_path("scenario_eval_noise.json"), net=net39)
    assert train.horizon > 0 and train.n_steps > 0
    assert noise.noise_bound > 0


# ------------------------------------------------- safety spec and config


def spec_obj(lo, hi):
    return {"format_version": 1, "kind": "safety_spec", "omega_min": lo, "omega_max": hi}


def test_safety_spec_round_trip(tmp_path, spec_band):
    path = tmp_path / "spec.json"
    write_json(path, spec_obj(-0.2, 0.2))
    back = load_safety_spec(path)
    assert np.array_equal(back.omega_min, spec_band.omega_min)
    assert np.array_equal(back.omega_max, spec_band.omega_max)


def test_safety_spec_per_bus_round_trip(tmp_path):
    spec = SafetySpec(np.array([-0.2, -0.3]), np.array([0.25, 0.2]))
    path = tmp_path / "spec.json"
    write_json(path, spec_obj([-0.2, -0.3], [0.25, 0.2]))
    back = load_safety_spec(path)
    assert np.array_equal(back.omega_min, spec.omega_min)
    assert np.array_equal(back.omega_max, spec.omega_max)


def test_train_config_round_trip(tmp_path):
    # each field's `train` flag parses to the field's type, so an integer
    # written for a float field stores (and hashes) as the float
    fields = {"gamma": 30.0, "rho": 500.0, "lr": 0.02, "episodes": 0, "batch": 3, "steps": 20, "dt": 0.01,
              "m_hidden": 4, "seed": 9, "init_scale": 0.2, "dtilde_frac": 0.3}
    scenario, ckpt = tmp_path / "sc.json", tmp_path / "ck.json"
    write_json(scenario, {"format_version": 1, "kind": "scenario", "T": 1.0, "dt": 0.01})
    flags = [arg for k, v in fields.items() for arg in ("--" + k.replace("_", "-"), str(v).removesuffix(".0"))]
    argv = ["train", "--net", str(bundled_path("net_2bus.json")), "--scenario", str(scenario), "--quiet"]
    assert cli.run([*argv, *flags, "--out", str(ckpt), "--curve", str(tmp_path / "cv.csv")]) == 0
    meta = load_checkpoint(ckpt)[1]
    assert meta["config"] == TrainConfig(**fields).to_dict() == fields
    assert meta["config_hash"] == config_hash(fields)


@pytest.mark.parametrize("field", ["adam_beta1", "adam_beta2", "adam_eps", "divergence_factor"])
def test_train_config_constants_are_not_fields(tmp_path, field):
    # no `train` flag and no checkpoint config entry sets a constant
    with pytest.raises(TypeError, match=field):
        TrainConfig(**{field: 0.5})
    path = tmp_path / "ck.json"
    save_checkpoint(path, init_policy_params(2, 4, np.random.default_rng(0)), TrainConfig())
    assert field not in load_checkpoint(path)[1]["config"]


@pytest.mark.parametrize("field, bad", [("batch", 0), ("steps", 0), ("m_hidden", 0), ("dt", 0.0), ("dt", -1e-3)])
def test_train_config_unusable_size_rejected(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be"):
        TrainConfig(**{field: bad})


# -------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_constrained(tmp_path):
    rng = np.random.Generator(np.random.Philox(5))
    params = init_policy_params(3, 8, rng, scale=0.3, dtilde_frac=0.4)
    cfg = TrainConfig(episodes=12, seed=5)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, cfg)
    back, meta = load_checkpoint(path)
    assert back.kind == "constrained" and back.m_hidden == 8
    assert set(back.raw) == set(PARAM_KEYS)
    for key in PARAM_KEYS:
        assert np.array_equal(back.raw[key], params.raw[key]), key
    assert np.array_equal(back.dtilde_frac, params.dtilde_frac)
    assert meta["config"] == cfg.to_dict()
    assert meta["config_hash"] == config_hash(cfg.to_dict())
    assert "seed" not in json.loads(path.read_text()) and set(meta) == {"config", "config_hash"}


def test_checkpoint_round_trip_monotone(tmp_path):
    rng = np.random.Generator(np.random.Philox(6))
    params = init_monotone_params(2, 10, rng)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, TrainConfig(seed=77))
    back, meta = load_checkpoint(path)
    assert back.kind == "monotone" and back.m_hidden == 10
    for key, val in params.raw.items():
        assert np.array_equal(back.raw[key], val), key
    assert meta["config"]["seed"] == 77
    # a checkpoint written with the old top-level copy of the seed still loads
    write_json(path, {**json.loads(path.read_text()), "seed": 77})
    again, meta = load_checkpoint(path)
    assert all(np.array_equal(again.raw[k], v) for k, v in params.raw.items())
    assert meta["config"]["seed"] == 77 and "seed" not in meta


def test_checkpoint_wrong_shape_named(tmp_path):
    rng = np.random.Generator(np.random.Philox(7))
    params = init_policy_params(2, 6, rng)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, TrainConfig())
    obj = json.loads(path.read_text())
    obj["raw"]["thr_hi"] = [0.0, 0.0, 0.0]
    write_json(path, obj)
    with pytest.raises(SchemaError, match=r"raw\['thr_hi'\] has shape \(3,\)"):
        load_checkpoint(path)


def test_checkpoint_missing_key_named(tmp_path):
    rng = np.random.Generator(np.random.Philox(8))
    params = init_policy_params(2, 6, rng)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, TrainConfig())
    obj = json.loads(path.read_text())
    del obj["raw"]["budget_raw"]
    write_json(path, obj)
    with pytest.raises(SchemaError, match="missing key 'budget_raw'"):
        load_checkpoint(path)


def test_checkpoint_unknown_policy_kind(tmp_path):
    path = tmp_path / "ck.json"
    write_json(
        path,
        {"format_version": 1, "kind": "checkpoint", "policy": "mlp", "m_hidden": 4, "raw": {}},
    )
    with pytest.raises(SchemaError, match="unknown policy kind 'mlp'"):
        load_checkpoint(path)


def test_config_hash_is_order_invariant():
    a = {"lr": 0.05, "seed": 3, "episodes": 10}
    b = {"episodes": 10, "seed": 3, "lr": 0.05}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "seed": 4})
    assert len(config_hash(a)) == 64


# ------------------------------------------------------------ trajectories


def desk_run(net2, inc2, eq2, steps=40, noise=0.0, controller=None):
    sc = Scenario(
        horizon=steps * 0.01,
        dt=0.01,
        disturbances=(Disturbance(bus=0, dp=-0.2, t0=0.25 * steps * 0.01, t1=0.75 * steps * 0.01),),
        noise_bound=noise,
        label="desk",
    )
    controller = controller or make_zero_controller(net2.n_bus)
    return rollout(net2, inc2, eq2, controller, sc, seed=3)


def test_trajectory_round_trip_bitwise(tmp_path, net2, inc2, eq2, spec_band):
    safe = make_analytic_safe_controller(spec_band, net2, inc2, eq2, threshold=0.06)
    traj = desk_run(net2, inc2, eq2, noise=0.002, controller=safe)
    path = tmp_path / "run.csv"
    save_trajectory(path, traj, echo={"seed": 3, "label": "desk"})
    back = load_trajectory(path)
    assert traj.active.any() and not traj.active.all()  # both mask values round-trip
    for field in ("t", "omega", "u", "budgets", "v_energy", "loss_freq", "loss_ctrl", "lam", "active"):
        a, b = getattr(back, field), getattr(traj, field)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field
    assert back.dt == traj.dt and back.gamma == traj.gamma
    assert back.meta["seed"] == 3 and back.meta["label"] == "desk"
    save_trajectory(tmp_path / "again.csv", back, echo={"seed": 3, "label": "desk"})
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_trajectory_csv_echo_keeps_the_run_facts(tmp_path, net2, inc2, eq2):
    traj = desk_run(net2, inc2, eq2, noise=0.002)
    assert {"seed", "integrator", "beta", "horizon", "noise_bound", "scenario_label"} <= set(traj.meta)
    path = tmp_path / "run.csv"
    save_trajectory(path, traj)
    back = load_trajectory(path)
    assert {k: back.meta[k] for k in traj.meta} == traj.meta
    assert back.meta["scenario_label"] == "desk" and back.meta["noise_bound"] == 0.002


def test_trajectory_header_is_pinned(tmp_path, net2, inc2, eq2):
    path = tmp_path / "run.csv"
    save_trajectory(path, desk_run(net2, inc2, eq2, steps=2))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "t,omega_1,omega_2,u_1,u_2,b_1,b_2,V,loss_freq,loss_ctrl,lam_1,active_1,active_2"
    assert len(lines) == 2 + 3  # echo + header + (steps + 1) rows


def test_trajectory_bad_header_rejected(tmp_path, net2, inc2, eq2):
    path = tmp_path / "run.csv"
    save_trajectory(path, desk_run(net2, inc2, eq2, steps=2))
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace("omega_1", "w_1")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="header"):
        load_trajectory(path)


def test_trajectory_missing_echo_rejected(tmp_path, net2, inc2, eq2):
    path = tmp_path / "run.csv"
    save_trajectory(path, desk_run(net2, inc2, eq2, steps=2))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[1:]) + "\n")
    with pytest.raises(SchemaError, match="echo"):
        load_trajectory(path)


def _drop_columns(line, k):
    return ",".join(line.split(",")[:-k])


def _drop_echo_key(lines, key):
    echo = json.loads(lines[0][2:])
    del echo[key]
    return ["# " + json.dumps(echo)] + lines[1:]


@pytest.mark.parametrize(
    "edit, message",
    [
        # the layout written before the angle and dead-zone columns
        (lambda lines: [lines[0]] + [_drop_columns(ln, 3) for ln in lines[1:]], "header"),
        (lambda lines: _drop_echo_key(lines, "dt"), "'dt'"),
        (lambda lines: _drop_echo_key(lines, "gamma"), "'gamma'"),
        (lambda lines: lines[:3] + [lines[3][:-1] + "2"], "0 or 1"),
        (lambda lines: lines[:3] + [lines[3].replace(",", ",x", 1)], "non-numeric"),
        (lambda lines: lines[:3] + [_drop_columns(lines[3], 1)], "ragged"),
        (lambda lines: lines[:2], "at least one row"),
    ],
    ids=["old-layout", "no-dt", "no-gamma", "mask-not-0-or-1", "non-numeric", "ragged", "no-rows"],
)
def test_trajectory_malformed_file_rejected(tmp_path, net2, inc2, eq2, edit, message):
    path = tmp_path / "run.csv"
    save_trajectory(path, desk_run(net2, inc2, eq2, steps=2))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(SchemaError, match=message):
        load_trajectory(path)


def test_curve_round_trip(tmp_path):
    curve = np.array([[0, 5.0, 4.0, 1.0, 0.0], [1, 3.5, 2.5, 1.0, 0.0]])
    path = tmp_path / "curve.csv"
    save_curve(path, curve, echo={"rho": 0.0})
    assert np.array_equal(load_curve(path), curve)
    assert path.read_text().splitlines()[1] == CURVE_HEADER
    save_curve(path, np.empty((0, 5)))  # the curve of a zero-episode run
    assert load_curve(path).shape == (0, 5)
    other = tmp_path / "notacurve.csv"
    other.write_text("# {}\nepisode,loss\n0,1.0\n")
    with pytest.raises(SchemaError, match="learning-curve"):
        load_curve(other)
    for name, row in (("word.csv", "1,abc,2.5,1.0,0.0"), ("ragged.csv", "1,3.5,2.5")):
        bad = tmp_path / name
        bad.write_text(f"# {{}}\n{CURVE_HEADER}\n0,5.0,4.0,1.0,0.0\n{row}\n")
        with pytest.raises(SchemaError, match=name):
            load_curve(bad)


# ----------------------------------------------------------------- metrics


def test_summary_at_equilibrium(net2, inc2, eq2, spec_band):
    sc = Scenario(horizon=1.0, dt=0.01, init_omega_range=0.0, init_p_frac=0.0)
    traj = rollout(
        net2, inc2, eq2, make_zero_controller(2), sc, lam0=eq2.lam_eq, omega0=np.zeros(2)
    )
    s = summarize(traj, spec_band, eq2, label="rest")
    assert s.cost < 1e-24 and s.cost_train_window < 1e-24
    assert s.settle_time == 0.0
    assert s.safety_ok and s.stability_ok
    assert abs(s.worst_nadir()) < 1e-12


def test_summary_hand_cost():
    # one step: the final row is state-only and must not enter the average
    traj = Trajectory(
        t=np.array([0.0, 0.5]),
        omega=np.array([[0.1], [0.05]]),
        u=np.zeros((2, 1)),
        budgets=np.zeros((2, 1)),
        v_energy=np.zeros(2),
        loss_freq=np.array([0.5, 99.0]),
        loss_ctrl=np.array([0.3, 99.0]),
        lam=np.zeros((2, 0)),
        active=np.zeros((2, 1), dtype=bool),
        dt=0.5,
        gamma=40.0,
    )
    assert traj.cost() == 0.8
    assert traj.cost(window=0.5) == 0.8


def test_summary_negative_cost_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        RunSummary(
            label="x",
            cost=-1.0,
            cost_train_window=0.0,
            nadir=np.zeros(1),
            settle_time=0.0,
            safety_ok=True,
            stability_ok=True,
        )


def test_summary_cost_matches_training_loss(net2, inc2, eq2, spec_band):
    # single source of truth: the reported cost is the rho=0 training loss
    rng = np.random.Generator(np.random.Philox(21))
    params = init_policy_params(2, 12, rng, scale=0.1)
    steps, dt = 150, 5e-3
    lam0 = eq2.lam_eq + 0.2
    omega0 = np.array([0.05, -0.05])
    sc = Scenario(horizon=steps * dt, dt=dt)
    ctrl = make_policy_controller(params, spec_band, net2, inc2, eq2)
    traj = rollout(net2, inc2, eq2, ctrl, sc, lam0=lam0, omega0=omega0, gamma=40.0)

    adapter = ConstrainedAdapter(params, spec_band, net2, inc2, eq2)
    p_steps = np.tile(net2.p_nom, (steps, 1))
    loss = forward_loss(
        adapter, net2, inc2, eq2, params.raw, lam0, omega0, p_steps, None, 40.0, 0.0, dt
    )
    assert abs(traj.cost() - loss) < 1e-12


def test_summary_nadir_is_signed_extreme(net2, inc2, eq2, spec_band):
    sc = Scenario(
        horizon=3.0, dt=0.01, disturbances=(Disturbance(0, -0.3, 0.0, 3.0),),
        init_omega_range=0.0, init_p_frac=0.0,
    )
    traj = rollout(net2, inc2, eq2, make_zero_controller(2), sc, lam0=eq2.lam_eq, omega0=np.zeros(2))
    s = summarize(traj, spec_band, eq2, label="dip")
    dev = traj.omega - eq2.omega_sync
    assert s.worst_nadir() < 0
    assert abs(abs(s.worst_nadir()) - np.abs(dev).max()) < 1e-15


def test_compare_identical_controllers_identical_rows(tmp_path, monkeypatch):
    net, sc, path = tmp_path / "net.json", tmp_path / "sc.json", tmp_path / "cmp.csv"
    write_json(net, network_obj())
    write_json(sc, {
        "format_version": 1, "kind": "scenario", "T": 1.0, "dt": 0.01, "noise": 0.001, "label": "pair",
        "disturbances": [{"bus": 1, "dp": -0.2, "t0": 0.2, "t1": 0.6}],
    })
    trajs = []

    def recording_rollout(*args, **kwargs):
        trajs.append(rollout(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr("swingctl.cli.rollout", recording_rollout)
    argv = ["compare", "--net", str(net), "--scenario", str(sc), "--seed", "11", "--out", str(path)]
    assert cli.run([*argv, "--controller", "one=zero", "--controller", "two=zero"]) == 0
    assert len(trajs) == 2 and np.array_equal(trajs[0].omega, trajs[1].omega)
    lines = path.read_text().splitlines()
    assert lines[1] == COMPARISON_HEADER
    assert lines[2].split(",")[1:] == lines[3].split(",")[1:]
    assert lines[2].split(",")[0] == "one" and lines[3].split(",")[0] == "two"


def test_report_file_shape(tmp_path, net2, inc2, eq2, spec_band):
    traj = desk_run(net2, inc2, eq2)
    report = run_checks(traj, spec_band, eq2)
    path = tmp_path / "verdicts.json"
    save_report(path, report)
    obj = json.loads(path.read_text())
    assert obj["kind"] == "verdicts"
    assert isinstance(obj["all_pass"], bool)
    assert {c["name"] for c in obj["checks"]} == {
        "frequency_invariance",
        "lyapunov_descent",
        "budget_conservation",
        "convergence",
    }
