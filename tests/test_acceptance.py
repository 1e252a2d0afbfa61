"""Acceptance gate: nine go/no-go checks at pinned tolerances.

Each criterion is one test so `pytest -v` prints one pass/fail line per
criterion; every test also prints its measured numbers. The three desk-scale
trainings (constrained at rho=0 and rho=500, plus the monotone baseline) are
module fixtures shared across criteria 5 through 9; together they take about
eight minutes, which dominates this file's runtime.
"""

import time

import numpy as np
import pytest

from oracles import forward_loss
from swingctl.cli import run as cli_run
from swingctl.controller import (
    MONO_KEYS,
    PARAM_KEYS,
    ConstrainedAdapter,
    SafetySpec,
    init_monotone_params,
    init_policy_params,
    make_analytic_safe_controller,
    make_policy_controller,
)
from swingctl.dynamics import Scenario, line_flows, rollout
from swingctl.equilibrium import in_region
from swingctl.netgraph import PowerNetwork, build_incidence
from swingctl.equilibrium import solve_equilibrium
from swingctl.scenario_io import (
    bundled_path,
    load_scenario,
    save_checkpoint,
    summarize,
)
from swingctl.tape import value
from swingctl.training import TrainConfig, loss_and_grad, train

# ------------------------------------------------------- shared desk-scale runs


@pytest.fixture(scope="module")
def spec39():
    return SafetySpec.band(-0.2, 0.2, 39)


@pytest.fixture(scope="module")
def train_scenario(net39):
    return load_scenario(bundled_path("scenario_train_desk.json"), net=net39)


@pytest.fixture(scope="module")
def eval_scenario(net39):
    return load_scenario(bundled_path("scenario_eval_desk.json"), net=net39)


@pytest.fixture(scope="module")
def noise_scenario(net39):
    return load_scenario(bundled_path("scenario_eval_noise.json"), net=net39)


def fit(kind, rho, net, inc, eq, spec, scenario):
    cfg = TrainConfig(episodes=60, batch=8, steps=2000, dt=5e-3, rho=rho, seed=1)
    rng = np.random.default_rng(np.random.Philox(cfg.seed))
    if kind == "constrained":
        params = init_policy_params(net.n_bus, cfg.m_hidden, rng, cfg.init_scale, cfg.dtilde_frac)
    else:
        params = init_monotone_params(net.n_bus, cfg.m_hidden, rng, cfg.init_scale)
    adapter = params.bind(spec, net, inc, eq)
    t0 = time.time()
    result = train(adapter, net, inc, eq, scenario, cfg)
    return result, time.time() - t0, cfg


@pytest.fixture(scope="module")
def trained_rho0(net39, inc39, eq39, spec39, train_scenario):
    return fit("constrained", 0.0, net39, inc39, eq39, spec39, train_scenario)


@pytest.fixture(scope="module")
def trained_rho500(net39, inc39, eq39, spec39, train_scenario):
    return fit("constrained", 500.0, net39, inc39, eq39, spec39, train_scenario)


@pytest.fixture(scope="module")
def trained_monotone(net39, inc39, eq39, spec39, train_scenario):
    return fit("monotone", 0.0, net39, inc39, eq39, spec39, train_scenario)


@pytest.fixture(scope="module")
def desk_eval(net39, inc39, eq39, spec39, trained_rho0, eval_scenario):
    """Criterion-5 evaluation run, reused by criterion 7."""
    ctrl = make_policy_controller(trained_rho0[0].params, spec39, net39, inc39, eq39)
    t0 = time.time()
    traj = rollout(net39, inc39, eq39, ctrl, eval_scenario, seed=0)
    return traj, time.time() - t0


# ----------------------------------------------------------------- criterion 1


def test_criterion_1_structural_exactness(net3, inc3, eq3):
    """10^4 (params, state) draws: dead-zone zeros, budget conservation,
    in-dead-zone zero budgets, and the budget-potential bound, in < 10 s."""
    spec = SafetySpec.band(-0.2, 0.2, 3)
    rng = np.random.default_rng(1)
    t0 = time.time()
    n_draws = 0
    for _ in range(20):
        params = init_policy_params(3, 20, rng, scale=float(rng.uniform(0.05, 0.5)))
        policy = params.bind(spec, net3, inc3, eq3)
        ready = policy.precompute(params.raw)
        batch = 500
        theta = rng.uniform(-0.6, 0.6, (batch, 3))
        lam = theta @ inc3.b_mat
        omega = rng.uniform(-0.3, 0.3, (batch, 3))
        p = net3.p_nom * rng.uniform(0.5, 1.5, (batch, 3))
        out = policy.control(ready, line_flows(inc3, lam), omega, p)
        u = out.u
        b = np.asarray(value(out.budgets))
        active = out.active
        assert np.all(u[~active] == 0.0), "nonzero control inside the dead zone"
        assert np.all(b[~active] == 0.0), "nonzero budget inside the dead zone"
        assert np.abs(b.sum(axis=1)).max() < 1e-9, "budget sum drifted"
        xi = np.asarray(value(ready.xi))
        margin = policy.dtilde * np.minimum(
            (ready.whi_val - eq3.omega_sync) ** 2,
            (ready.wlo_val - eq3.omega_sync) ** 2,
        )
        assert np.all(inc3.row_l1 * np.abs(xi).max() <= margin + 1e-12), "xi bound"
        n_draws += batch
    elapsed = time.time() - t0
    print(f"criterion 1: {n_draws} draws structurally exact in {elapsed:.2f} s")
    assert n_draws == 10**4
    assert elapsed < 10.0


# ----------------------------------------------------------------- criterion 2

# Frozen sweep: (seed, scale, dz_amp, overrides, lam_offset, omega0, K, rho).
# Together the draws put every parameter family on the gradient path: both
# gates open (draws 0-3), control saturating at the upper/lower barrier
# bounds (1, 4, 5), frequencies beyond the safety band so the outer class-K
# branches engage (1, 3), and both rho values at K in {10, 50}.
FD_DRAWS = [
    (42, 0.5, 6.0, None, 0.05, [0.19, -0.155], 10, 0.0),
    (42, 0.5, 6.0, {"barrier_hi_bm": [[0.25, 0.18, 0.30], [0.22, 0.16, 0.28]]},
     0.05, [0.32, -0.30], 50, 500.0),
    (42, 0.3, 4.0, None, -0.47, [0.15, -0.32], 10, 0.0),
    (7, 0.8, 6.0, None, 0.30, [0.33, -0.30], 10, 500.0),
    (42, 0.3, 4.0, {"thr_hi": [3.0, 3.0], "barrier_hi_bp": [[0.08, 0.1, 0.07], [0.09, 0.08, 0.11]]},
     -0.47, [0.185, -0.05], 10, 0.0),
    (42, 0.3, 1.0, {"barrier_lo_bm": [[0.16, 0.11, 0.13], [0.15, 0.10, 0.12]]},
     -0.47, [0.05, -0.17], 10, 0.0),
    (2024, 0.8, 6.0, None, 0.2, [0.25, -0.2], 50, 500.0),
]


def fd_sweep(adapter, net, inc, eq, raw, lam0, omega0, p_steps, rho, grads):
    """Central differences over every raw entry; returns (worst, live keys)."""
    worst, live, checked = 0.0, set(), 0
    for key in adapter.keys:
        x = raw[key]
        for i in range(x.size):
            keep = x.reshape(-1)[i]
            h = 1e-5 * max(1.0, abs(keep))
            x.reshape(-1)[i] = keep + h
            up = forward_loss(adapter, net, inc, eq, raw, lam0, omega0, p_steps, None, 40.0, rho, 5e-3)
            x.reshape(-1)[i] = keep - h
            dn = forward_loss(adapter, net, inc, eq, raw, lam0, omega0, p_steps, None, 40.0, rho, 5e-3)
            x.reshape(-1)[i] = keep
            fd = (up - dn) / (2 * h)
            if abs(fd) < 1e-9:
                continue
            rel = abs(grads[key].reshape(-1)[i] - fd) / abs(fd)
            assert rel < 1e-4, f"{key}[{i}]: rel err {rel:.3e}"
            worst = max(worst, rel)
            live.add(key)
            checked += 1
    return worst, live, checked


def test_criterion_2_gradient_oracle(spec_band):
    """BPTT vs central finite differences, every parameter, rel err < 1e-4."""
    net = PowerNetwork(
        inertia=[1.0, 1.2], damping=[1.0, 0.8], p_nom=[0.5, -0.5],
        edges=[(0, 1)], susceptance=[1.0],
    )
    inc = build_incidence(net)
    eq = solve_equilibrium(net, inc)
    t0 = time.time()
    m = 4

    covered, worst, checked = set(), 0.0, 0
    for seed, scale, dz_amp, overrides, lam_off, om0, k_steps, rho in FD_DRAWS:
        params = init_policy_params(2, m, np.random.default_rng(seed), scale=scale)
        raw = {k: np.array(v) for k, v in params.raw.items()}
        raw["dz_wp"] = raw["dz_wp"] * dz_amp
        raw["dz_wm"] = raw["dz_wm"] * dz_amp
        for key, val in (overrides or {}).items():
            raw[key] = np.asarray(val, dtype=float)
            assert raw[key].shape == params.raw[key].shape, key
        params = params.__class__(raw=raw, m_hidden=m, dtilde_frac=params.dtilde_frac)
        adapter = ConstrainedAdapter(params, spec_band, net, inc, eq)
        raw = {k: np.array(v) for k, v in adapter.raw.items()}
        lam0 = eq.lam_eq + lam_off
        omega0 = np.array(om0)
        p_steps = np.tile(net.p_nom, (k_steps, 1))
        _, _, grads = loss_and_grad(
            adapter, net, inc, eq, raw, lam0, omega0, p_steps, None, 40.0, rho, 5e-3
        )
        w, live, c = fd_sweep(adapter, net, inc, eq, raw, lam0, omega0, p_steps, rho, grads)
        worst, covered, checked = max(worst, w), covered | live, checked + c
    assert covered == set(PARAM_KEYS), f"uncovered: {sorted(set(PARAM_KEYS) - covered)}"

    mono_params = init_monotone_params(2, m, np.random.default_rng(3), scale=0.5)
    mono = mono_params.bind(spec_band, net, inc, eq)
    raw = {k: np.array(v) for k, v in mono.raw.items()}
    lam0 = eq.lam_eq + 0.1
    omega0 = np.array([0.15, -0.12])
    p_steps = np.tile(net.p_nom, (10, 1))
    _, _, grads = loss_and_grad(mono, net, inc, eq, raw, lam0, omega0, p_steps, None, 40.0, 500.0, 5e-3)
    w, live, c = fd_sweep(mono, net, inc, eq, raw, lam0, omega0, p_steps, 500.0, grads)
    assert live == set(MONO_KEYS), f"uncovered: {sorted(set(MONO_KEYS) - live)}"

    elapsed = time.time() - t0
    print(
        f"criterion 2: {checked + c} gradient entries checked, worst rel err "
        f"{max(worst, w):.3e}, {elapsed:.1f} s"
    )
    assert elapsed < 60.0


# ----------------------------------------------------------------- criterion 3


def edge_potential(y, lam_eq, lam):
    return y * (np.cos(lam_eq) - np.cos(lam) + (lam_eq - lam) * np.sin(lam_eq))


def grid_cap_oracle(net, eq, n_grid=10**4):
    """Brute-force min of the boundary potential over the angle-box faces."""
    m = eq.lam_eq.size
    grid = np.linspace(-np.pi / 2, np.pi / 2, n_grid)
    per_edge_min = np.array(
        [edge_potential(net.susceptance[e], eq.lam_eq[e], grid).min() for e in range(m)]
    )
    best = np.inf
    for e in range(m):
        for face in (-np.pi / 2, np.pi / 2):
            val = edge_potential(net.susceptance[e], eq.lam_eq[e], face)
            best = min(best, val + per_edge_min.sum() - per_edge_min[e])
    return best


def test_criterion_3_equilibrium_oracle(net2, inc2, eq2, net3, inc3, eq3):
    lam_err = abs(eq2.lam_eq[0] - np.pi / 6)
    cond_err = abs(eq2.cond_value - 0.5)
    res3 = np.abs(
        net3.p_nom - net3.damping * eq3.omega_sync
        - inc3.b_mat @ (net3.susceptance * np.sin(eq3.lam_eq))
    ).max()
    cap2_ref = grid_cap_oracle(net2, eq2)
    cap3_ref = grid_cap_oracle(net3, eq3)
    cap2_err = abs(eq2.energy_cap - cap2_ref)
    cap3_err = abs(eq3.energy_cap - cap3_ref)
    print(
        f"criterion 3: lam err {lam_err:.2e}, cond err {cond_err:.2e}, "
        f"3-bus residual {res3:.2e}, cap errs {cap2_err:.2e}/{cap3_err:.2e}"
    )
    assert lam_err < 1e-10
    assert cond_err < 1e-12
    assert res3 < 1e-10
    assert abs(eq2.energy_cap - 0.34243) < 1e-5
    assert cap2_err < 1e-5 and cap3_err < 1e-5


# ----------------------------------------------------------------- criterion 4


def test_criterion_4_lyapunov_descent(net2, inc2, eq2, net3, inc3, eq3):
    """The policy as trained: energy never rises and the damping-injection
    balance stays nonpositive at every one of 10^6 recorded steps."""
    sc = Scenario(horizon=1.0, dt=1e-3, init_omega_range=0.0, init_p_frac=0.0)
    worst_dv, worst_diss = -np.inf, -np.inf
    cases = [(net2, inc2, eq2, 2), (net3, inc3, eq3, 3)]
    for net, inc, eq, n in cases:
        for k in range(500):
            rng = np.random.default_rng(k)
            params = init_policy_params(n, 8, rng, scale=float(rng.uniform(0.05, 0.35)))
            spec = SafetySpec.band(-0.2, 0.2, n)
            ctrl = make_policy_controller(params, spec, net, inc, eq)
            theta = rng.uniform(-0.15, 0.15, n)
            lam0 = eq.lam_eq + theta @ inc.b_mat
            omega0 = rng.uniform(-0.08, 0.08, n)
            assert in_region(net, inc, eq, lam0, omega0)
            traj = rollout(net, inc, eq, ctrl, sc, lam0=lam0, omega0=omega0)
            dv = np.diff(traj.v_energy)
            dev = traj.omega - eq.omega_sync
            diss = (-net.damping * dev**2 + dev * traj.u).sum(axis=1)
            worst_dv = max(worst_dv, dv.max())
            worst_diss = max(worst_diss, diss.max())
            assert np.all(dv <= 1e-6), f"energy rose by {dv.max():.3e} (net n={n}, seed {k})"
            assert np.all(diss <= 1e-12), f"dissipation positive (net n={n}, seed {k})"
    print(f"criterion 4: 1000 rollouts, worst dV {worst_dv:.3e}, worst balance {worst_diss:.3e}")


# ----------------------------------------------------------------- criterion 5


def test_criterion_5_safety_reproduction(desk_eval, trained_rho0, eq39):
    traj, eval_seconds = desk_eval
    result, train_seconds, cfg = trained_rho0
    assert cfg.episodes >= 50
    band = np.abs(traj.omega).max()
    final = np.abs(traj.omega[-1] - eq39.omega_sync).max()
    print(
        f"criterion 5: |omega| peak {band:.4f} Hz, final dev {final:.2e} Hz, "
        f"train {train_seconds:.0f} s, eval {eval_seconds:.1f} s, "
        f"loss {result.curve[0, 1]:.4f} -> {result.final_loss:.4f}"
    )
    assert band <= 0.2, "left the +/-0.2 Hz band"
    assert final < 0.01, "did not resettle to 0.01 Hz by T=20 s"
    assert train_seconds <= 1800.0
    assert eval_seconds <= 60.0


# ----------------------------------------------------------------- criterion 6


def test_criterion_6_cost_ordering(
    trained_rho0, trained_monotone, net39, inc39, eq39, spec39, eval_scenario
):
    ctrl_con = make_policy_controller(trained_rho0[0].params, spec39, net39, inc39, eq39)
    ctrl_mono = make_policy_controller(trained_monotone[0].params, spec39, net39, inc39, eq39)
    ctrl_safe = make_analytic_safe_controller(spec39, net39, inc39, eq39)
    summaries = []
    for label, ctrl in (("constrained", ctrl_con), ("monotone", ctrl_mono), ("analytic-safe", ctrl_safe)):
        traj = rollout(net39, inc39, eq39, ctrl, eval_scenario, seed=0)
        summaries.append(summarize(traj, spec39, eq39, label=label, train_window=10.0))
    con, mono, safe = summaries
    ratio = con.cost / safe.cost
    print(
        f"criterion 6: constrained {con.cost:.4f} vs safe {safe.cost:.4f} "
        f"(ratio {ratio:.3f}); monotone cost {mono.cost:.4f}, safety_ok {mono.safety_ok}"
    )
    assert con.safety_ok and con.stability_ok
    assert safe.safety_ok
    assert ratio <= 0.9
    assert (not mono.safety_ok) or (mono.cost > con.cost), (
        "monotone baseline neither violated safety nor cost more"
    )


# ----------------------------------------------------------------- criterion 7


def test_criterion_7_budget_behavior(desk_eval):
    traj, _ = desk_eval
    sums = np.abs(traj.budgets.sum(axis=1))
    active_rows = np.flatnonzero(traj.active.any(axis=1))
    assert active_rows.size > 0, "policy never left the dead zone"
    last_active = active_rows[-1]
    assert last_active < traj.t.shape[0] - 1, "still active at the horizon"
    tail = np.abs(traj.budgets[last_active + 1 :]).max()
    print(
        f"criterion 7: max |sum b| {sums.max():.2e}, last activity t={traj.t[last_active]:.2f} s, "
        f"tail max |b| {tail:.2e}"
    )
    assert sums.max() < 1e-9
    assert tail < 1e-12


# ----------------------------------------------------------------- criterion 8


def test_criterion_8_lipschitz_regularization(
    trained_rho0, trained_rho500, net39, inc39, eq39, spec39, noise_scenario
):
    def step_variation(params):
        ctrl = make_policy_controller(params, spec39, net39, inc39, eq39)
        tr = rollout(net39, inc39, eq39, ctrl, noise_scenario, seed=11)
        du = np.diff(tr.u[:-1], axis=0)
        return float((du * du).sum(axis=1).mean())

    var0 = step_variation(trained_rho0[0].params)
    var500 = step_variation(trained_rho500[0].params)
    print(f"criterion 8: step variation rho=0 {var0:.6e}, rho=500 {var500:.6e}")
    assert var500 < var0


# ----------------------------------------------------------------- criterion 9


def test_criterion_9_determinism(tmp_path, trained_rho0, capsys):
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, trained_rho0[0].params, trained_rho0[2])
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        rep = tmp_path / f"{tag}.json"
        code = cli_run(
            [
                "simulate",
                "--net", str(bundled_path("ieee39_net.json")),
                "--scenario", str(bundled_path("scenario_eval_noise.json")),
                "--controller", str(ckpt),
                "--seed", "5",
                "--out", str(out),
                "--report", str(rep),
            ]
        )
        assert code == 0
        outs.append((out.read_bytes(), rep.read_bytes()))
    capsys.readouterr()
    same = outs[0][0] == outs[1][0] and outs[0][1] == outs[1][1]
    print(f"criterion 9: repeated run byte-identical: {same}")
    assert same
