"""Trajectory checks: band invariance, energy descent, budget accounting,
and the finite-horizon convergence proxy.
"""

import numpy as np
import pytest

from oracles import budget_vector
from swingctl.controller import (
    ControlDecision,
    init_monotone_params,
    init_policy_params,
    make_analytic_safe_controller,
    make_policy_controller,
    make_zero_controller,
)
from swingctl.dynamics import Disturbance, Scenario, Trajectory, rollout
from swingctl.scenario_io import load_trajectory, save_trajectory
from swingctl.verify import (
    CHECK_NAMES,
    Verdict,
    VerdictReport,
    check_budgets,
    check_convergence,
    check_frequency_invariance,
    check_lyapunov,
    run_checks,
)


def eq_traj(net, inc, eq, horizon=1.0, dt=1e-3, gamma=40.0):
    scen = Scenario(horizon=horizon, dt=dt, init_omega_range=0.0, init_p_frac=0.0)
    return rollout(
        net, inc, eq, make_zero_controller(net.n_bus), scen,
        lam0=eq.lam_eq, omega0=np.full(net.n_bus, eq.omega_sync), gamma=gamma,
    )


def test_report_structure(net2, inc2, eq2, spec_band):
    report = run_checks(eq_traj(net2, inc2, eq2), spec_band, eq2)
    assert report.all_pass
    assert tuple(v.name for v in report.verdicts) == CHECK_NAMES
    for name in CHECK_NAMES:
        assert report[name].passed
    d = report.to_dict()
    assert d["all_pass"] is True
    assert {c["name"] for c in d["checks"]} == set(CHECK_NAMES)
    with pytest.raises(KeyError):
        report["not_a_check"]


def test_report_requires_every_check(net2, inc2, eq2, spec_band):
    report = run_checks(eq_traj(net2, inc2, eq2), spec_band, eq2)
    with pytest.raises(ValueError, match="convergence"):
        VerdictReport(report.verdicts[:3])


def test_verdict_margin_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        Verdict("frequency_invariance", True, float("nan"))


def test_frequency_invariance_equilibrium_margin(net2, inc2, eq2, spec_band):
    v = check_frequency_invariance(eq_traj(net2, inc2, eq2), spec_band)
    assert v.passed
    assert abs(v.margin - 0.2) < 1e-12  # half band width at zero deviation


def test_frequency_invariance_unforced_failure(net39, inc39, eq39, spec_band):
    # the motivating case: a lost injection pushes unforced buses out of band
    dist = Disturbance(bus=37, dp=-float(net39.p_nom[37]), t0=0.0, t1=2.0)
    scen = Scenario(horizon=4.0, dt=5e-3, disturbances=(dist,),
                    init_omega_range=0.0, init_p_frac=0.0)
    traj = rollout(
        net39, inc39, eq39, make_zero_controller(39), scen,
        lam0=eq39.lam_eq, omega0=np.zeros(39),
    )
    v = check_frequency_invariance(traj, spec_band)
    assert not v.passed
    assert v.margin < 0.0 and v.worst_bus >= 0
    assert v.notes["monitored_buses"] == 39


def test_frequency_invariance_ignores_buses_starting_outside(net2, inc2, eq2, spec_band):
    scen = Scenario(horizon=0.5, dt=1e-3, init_omega_range=0.0, init_p_frac=0.0)
    with pytest.warns(RuntimeWarning):
        traj = rollout(
            net2, inc2, eq2, make_zero_controller(2), scen,
            lam0=eq2.lam_eq, omega0=np.array([0.9, -0.9]),
        )
    v = check_frequency_invariance(traj, spec_band)
    assert v.passed and v.notes["monitored_buses"] == 0


def test_lyapunov_unforced_pass(net2, inc2, eq2):
    scen = Scenario(horizon=3.0, dt=1e-3, init_omega_range=0.0, init_p_frac=0.0)
    traj = rollout(
        net2, inc2, eq2, make_zero_controller(2), scen,
        lam0=eq2.lam_eq + 0.4, omega0=np.array([0.15, -0.1]),
    )
    v = check_lyapunov(traj, eq2)
    assert v.passed
    assert v.notes["stayed_in_region"] is True


def test_lyapunov_adversarial_fail(net2, inc2, eq2):
    # a controller pumping energy in along the deviation violates descent
    def pump(lam, omega, p):
        return ControlDecision(u=5.0 * omega, budgets=np.zeros(2), active=np.ones(2, bool))

    scen = Scenario(horizon=1.0, dt=1e-3, init_omega_range=0.0, init_p_frac=0.0)
    traj = rollout(net2, inc2, eq2, pump, scen, lam0=eq2.lam_eq, omega0=np.array([0.1, -0.1]))
    v = check_lyapunov(traj, eq2)
    assert not v.passed
    assert v.margin < 0.0 and v.worst_t > 0.0


def test_lyapunov_tolerance_scales_with_dt(net2, inc2, eq2):
    # eps_dt tracks the worst single-step drop, so halving dt halves it
    out = {}
    for dt in (1e-3, 5e-3):
        scen = Scenario(horizon=2.0, dt=dt, init_omega_range=0.0, init_p_frac=0.0)
        traj = rollout(
            net2, inc2, eq2, make_zero_controller(2), scen,
            lam0=eq2.lam_eq + 0.3, omega0=np.array([0.1, -0.05]),
        )
        out[dt] = check_lyapunov(traj, eq2).notes["eps_dt"]
    ratio = out[5e-3] / out[1e-3]
    assert 3.0 < ratio < 7.0


def test_budget_checks_on_synthetic_rows():
    # hand-built trajectory: conservation holds, budgets vanish at t = 2
    t = np.arange(5, dtype=float)
    b = np.array([[0.3, -0.3], [0.1, -0.1], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    u = np.array([[0.5, 0.0], [0.2, 0.0], [0.1, 0.0], [0.0, 0.0], [0.0, 0.0]])
    active = u != 0.0
    traj = Trajectory(
        t=t, omega=np.zeros((5, 2)), u=u, budgets=b, v_energy=np.zeros(5),
        loss_freq=np.zeros(5), loss_ctrl=np.zeros(5), lam=np.zeros((5, 1)), active=active,
        dt=1.0, gamma=40.0,
    )
    v = check_budgets(traj)
    assert v.passed
    assert v.notes["last_active_t"] == 2.0
    assert v.notes["active_rows"] == 3

    # conservation violation is caught even while buses are active
    b_bad = b.copy()
    b_bad[1, 0] = 0.2
    bad = Trajectory(
        t=t, omega=np.zeros((5, 2)), u=u, budgets=b_bad, v_energy=np.zeros(5),
        loss_freq=np.zeros(5), loss_ctrl=np.zeros(5), lam=np.zeros((5, 1)), active=active,
        dt=1.0, gamma=40.0,
    )
    v = check_budgets(bad)
    assert not v.passed and v.worst_t == 1.0

    # a budget left over after the last activity violates the vanish clause
    b_tail = b.copy()
    b_tail[4] = (1e-9, -1e-9)
    stale = Trajectory(
        t=t, omega=np.zeros((5, 2)), u=u, budgets=b_tail, v_energy=np.zeros(5),
        loss_freq=np.zeros(5), loss_ctrl=np.zeros(5), lam=np.zeros((5, 1)), active=active,
        dt=1.0, gamma=40.0,
    )
    assert not check_budgets(stale).passed


def test_budget_check_with_activity_through_final_row():
    # noise can keep buses active at the last recorded step; the vanish
    # clause is then vacuous and the verdict must fall back to the
    # conservation clause instead of indexing an empty tail
    t = np.arange(4, dtype=float)
    b = np.array([[0.3, -0.3], [0.2, -0.2], [0.1, -0.1], [0.05, -0.05]])
    u = np.full((4, 2), 0.1)
    traj = Trajectory(
        t=t, omega=np.zeros((4, 2)), u=u, budgets=b, v_energy=np.zeros(4),
        loss_freq=np.zeros(4), loss_ctrl=np.zeros(4), lam=np.zeros((4, 1)), active=u != 0.0,
        dt=1.0, gamma=40.0,
    )
    v = check_budgets(traj)
    assert v.passed
    assert v.worst_bus == -1
    assert v.notes["last_active_t"] == 3.0


def test_budget_conservation_under_mask_flips(net3, inc3, eq3):
    # random controller flipping masks every step; the edge-difference form
    # keeps the sum exactly zero
    rng = np.random.default_rng(40)

    def flipper(lam, omega, p):
        active = rng.random(3) < 0.5
        b = np.asarray(budget_vector(inc3, active, rng.normal(size=3) @ inc3.b_mat))
        return ControlDecision(u=np.zeros(3), budgets=b, active=active)

    scen = Scenario(horizon=0.5, dt=1e-3, init_omega_range=0.0, init_p_frac=0.0)
    traj = rollout(net3, inc3, eq3, flipper, scen, lam0=eq3.lam_eq, omega0=np.zeros(3))
    assert np.abs(traj.budgets.sum(axis=1)).max() < 1e-9


def test_convergence_cases(net2, inc2, eq2):
    v = check_convergence(eq_traj(net2, inc2, eq2), eq2)
    assert v.passed and "proxy" in v.notes

    # unforced from a small perturbation settles within tol=1e-3 by T=30
    scen = Scenario(horizon=30.0, dt=1e-3, init_omega_range=0.0, init_p_frac=0.0)
    traj = rollout(
        net2, inc2, eq2, make_zero_controller(2), scen,
        lam0=eq2.lam_eq + 0.2, omega0=np.array([0.1, -0.1]),
    )
    assert check_convergence(traj, eq2, tol=1e-3).passed

    # truncating the same run to 1 s leaves the transient unconverged
    short = Scenario(horizon=1.0, dt=1e-3, init_omega_range=0.0, init_p_frac=0.0)
    traj = rollout(
        net2, inc2, eq2, make_zero_controller(2), short,
        lam0=eq2.lam_eq + 0.2, omega0=np.array([0.1, -0.1]),
    )
    assert not check_convergence(traj, eq2, tol=1e-3).passed


def _zero(net, inc, eq, spec):
    return make_zero_controller(net.n_bus)


def _safe(net, inc, eq, spec):
    return make_analytic_safe_controller(spec, net, inc, eq)


def _policy(init, projection):
    # `projection` is make_policy_controller's kept no-op argument: the
    # "projected" cases run the same policy as the "raw" ones through it
    def build(net, inc, eq, spec):
        params = init(net.n_bus, 8, np.random.default_rng(np.random.Philox(5)), 1.0)
        return make_policy_controller(params, spec, net, inc, eq, projection=projection)

    return build


def _stale_budgets(net, inc, eq, spec):
    # budgets that outlive the dead-zone activity; with u = 0 the CSV alone
    # cannot tell when activity ended
    def control(flows, omega, p):
        b = np.zeros(net.n_bus)
        b[:2] = (0.01, -0.01)
        return ControlDecision(u=np.zeros(net.n_bus), budgets=b, active=np.abs(omega) > 0.1)

    return control


STEP = dict(disturbances=(Disturbance(bus=0, dp=-0.3, t0=0.2, t1=1.0),), horizon=2.0, dt=0.005)
# zero control from a small angle offset, cut before it settles: the final
# frequency is within tol but the final angle is not
SHORT = dict(horizon=2.43, dt=0.01, init_omega_range=0.0, init_p_frac=0.0)


@pytest.mark.parametrize(
    "net, build, scenario, start, expect_fail",
    [
        ("2", _zero, STEP, None, None),
        ("3", _zero, STEP, None, None),
        ("2", _safe, STEP, None, None),
        ("3", _safe, STEP, None, None),
        ("2", _policy(init_policy_params, True), STEP, None, None),
        ("3", _policy(init_policy_params, True), STEP, None, None),
        ("2", _policy(init_policy_params, False), STEP, None, None),
        ("3", _policy(init_policy_params, False), STEP, None, None),
        ("2", _policy(init_policy_params, True), {**STEP, "noise_bound": 0.01}, None, None),
        ("3", _policy(init_policy_params, True), {**STEP, "noise_bound": 0.01}, None, None),
        ("2", _policy(init_monotone_params, False), STEP, None, None),
        ("3", _policy(init_monotone_params, False), STEP, None, None),
        ("2", _stale_budgets, STEP, None, "budget_conservation"),
        ("2", _zero, SHORT, 0.05, "convergence"),
    ],
    ids=[
        "2bus-zero", "3bus-zero", "2bus-safe", "3bus-safe",
        "2bus-projected", "3bus-projected", "2bus-raw", "3bus-raw",
        "2bus-projected-noise", "3bus-projected-noise", "2bus-monotone", "3bus-monotone",
        "2bus-stale-budgets", "2bus-unsettled-angle",
    ],
)
def test_saved_trajectory_report_equals_in_memory(
    request, tmp_path, spec_band, net, build, scenario, start, expect_fail
):
    net_, inc, eq = (request.getfixturevalue(f"{name}{net}") for name in ("net", "inc", "eq"))
    kwargs = {}
    if start is not None:
        kwargs = dict(lam0=eq.lam_eq + start, omega0=np.zeros(net_.n_bus))
    traj = rollout(net_, inc, eq, build(net_, inc, eq, spec_band), Scenario(**scenario), seed=2, **kwargs)
    tol = 2e-3
    in_memory = run_checks(traj, spec_band, eq, tol=tol).to_dict()
    save_trajectory(tmp_path / "run.csv", traj)
    from_file = run_checks(load_trajectory(tmp_path / "run.csv"), spec_band, eq, tol=tol).to_dict()
    assert from_file == in_memory
    budgets = [c["notes"] for c in from_file["checks"] if c["name"] == "budget_conservation"]
    assert budgets[0]["active_rows"] == int(traj.active.any(axis=1).sum())
    failed = {c["name"] for c in in_memory["checks"] if not c["passed"]}
    if expect_fail is not None:
        assert expect_fail in failed
