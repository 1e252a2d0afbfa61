"""Swing dynamics: vector field hand cases, the explicit Euler update,
injection schedules, and rollout invariants.
"""

from functools import partial

import numpy as np
import pytest

from oracles import sq_dist, sum_seq, taped_euler_step, taped_line_flows, taped_swing_rhs
from swingctl.controller import make_zero_controller
from swingctl.dynamics import (
    Disturbance,
    IntegrationError,
    Scenario,
    euler_step,
    injection_at,
    injection_schedule,
    line_flows,
    rk4_step,
    rollout,
    sample_initial_state,
    swing_rhs,
)
from swingctl.equilibrium import energy, solve_equilibrium
from swingctl.netgraph import PowerNetwork, build_incidence
from swingctl.tape import Tape, _bk_add, value


def test_rhs_hand_case(net2, inc2):
    dlam, domega = swing_rhs(net2, inc2, np.array([0.0]), np.array([0.1, -0.1]), np.zeros(2), np.zeros(2))
    assert np.allclose(dlam, [0.2], atol=1e-15)
    assert np.allclose(domega, [-0.1, 0.1], atol=1e-15)


def test_rhs_fixed_point(net2, inc2, eq2):
    dlam, domega = swing_rhs(
        net2, inc2, eq2.lam_eq, np.full(2, eq2.omega_sync), np.zeros(2), net2.p_nom
    )
    assert np.abs(dlam).max() < 1e-15
    assert np.abs(domega).max() < 1e-10


def test_rhs_superposition_in_u(net3, inc3):
    rng = np.random.default_rng(0)
    lam, omega = rng.normal(size=2), rng.normal(size=3)
    u1, u2, p = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    _, d1 = swing_rhs(net3, inc3, lam, omega, u1, p)
    _, d12 = swing_rhs(net3, inc3, lam, omega, u1 + u2, p)
    assert np.allclose(d12 - d1, u2 / net3.inertia, atol=1e-12)


def test_euler_hand_step(net2, inc2):
    lam, omega = euler_step(
        net2, inc2, np.array([0.0]), np.array([0.1, -0.1]), np.zeros(2), np.zeros(2), 0.01
    )
    assert np.allclose(lam, [0.002], atol=1e-18)
    assert np.allclose(omega, [0.099, -0.099], atol=1e-18)


def test_euler_step_is_the_swing_rhs_update_bitwise(net3, inc3):
    # the Euler update, given the step's line flows or not, and the
    # composed vector field must not drift apart: lam + dt dlam, omega + dt
    # domega from swing_rhs, batched and unbatched; the per-step taped
    # reference of the training episode records the same values, with the
    # gradients of the vector field composed of tape ops
    rng = np.random.default_rng(3)
    p, dt = rng.normal(size=3), 5e-3

    def composed(lam, omega, u, rhs=swing_rhs):
        dlam, domega = rhs(net3, inc3, lam, omega, u, p)
        return lam + dt * dlam, omega + dt * domega

    for batch in ((), (4,)):
        args = rng.normal(size=batch + (2,)), rng.normal(size=batch + (3,)), rng.normal(size=batch + (3,))
        flows = line_flows(inc3, args[0])
        for fused, given, ref in zip(euler_step(net3, inc3, *args, p, dt),
                                     euler_step(net3, inc3, *args, p, dt, flows), composed(*args)):
            assert fused.tobytes() == ref.tobytes() and given.tobytes() == ref.tobytes()
        grads = []
        taped = lambda lam, *a: taped_euler_step(net3, inc3, lam, *a, p, dt, taped_line_flows(inc3, lam))  # noqa: E731
        for step in (taped, partial(composed, rhs=taped_swing_rhs)):
            t = Tape()
            leaves = [t.leaf(a) for a in args]
            lam1, omega1 = step(*leaves)
            assert value(lam1).tobytes() == value(euler_step(net3, inc3, *args, p, dt)[0]).tobytes()
            assert value(omega1).tobytes() == value(euler_step(net3, inc3, *args, p, dt)[1]).tobytes()
            t.backward(sum_seq([sq_dist(lam1), sq_dist(omega1)]))
            grads.append([t.grad(leaf) for leaf in leaves])
        assert [t.rules[i] for i in (lam1.idx, omega1.idx)] == [_bk_add, _bk_add]
        for g_fused, g_ref in zip(*grads):
            assert np.allclose(g_fused, g_ref, rtol=1e-14, atol=0.0)


def test_euler_fixed_point(net2, inc2, eq2):
    lam, omega = euler_step(
        net2, inc2, eq2.lam_eq, np.full(2, eq2.omega_sync), np.zeros(2), net2.p_nom, 0.5
    )
    assert np.abs(lam - eq2.lam_eq).max() < 1e-10
    assert np.abs(omega - eq2.omega_sync).max() < 1e-10


def test_euler_is_first_order():
    # Richardson: the halved-step defect of a first-order method shrinks ~4x
    # when dt halves; verify the ratio sits near 4 across a dt decade
    net = PowerNetwork(
        inertia=np.array([1.0, 1.0]),
        damping=np.array([1.0, 1.0]),
        p_nom=np.array([0.5, -0.5]),
        edges=((0, 1),),
        susceptance=np.array([1.0]),
    )
    inc = build_incidence(net)
    lam0, omega0 = np.array([0.3]), np.array([0.2, -0.1])
    u, p = np.zeros(2), np.zeros(2)

    def defect(dt):
        lam1, om1 = euler_step(net, inc, lam0, omega0, u, p, dt)
        lam_h, om_h = euler_step(net, inc, lam0, omega0, u, p, dt / 2)
        lam2, om2 = euler_step(net, inc, lam_h, om_h, u, p, dt / 2)
        return max(np.abs(lam1 - lam2).max(), np.abs(om1 - om2).max())

    d1, d2 = defect(0.02), defect(0.01)
    assert 3.0 < d1 / d2 < 5.0


def test_rk4_closer_to_exact_than_euler(net2, inc2, eq2):
    # both integrators from the same state; rk4 lands nearer the reference
    lam0, omega0 = eq2.lam_eq + 0.2, np.array([0.1, -0.1])
    fine_lam, fine_om = lam0.copy(), omega0.copy()
    for _ in range(1000):
        fine_lam, fine_om = rk4_step(net2, inc2, fine_lam, fine_om, np.zeros(2), net2.p_nom, 1e-5)
    e_lam, e_om = euler_step(net2, inc2, lam0, omega0, np.zeros(2), net2.p_nom, 0.01)
    r_lam, r_om = rk4_step(net2, inc2, lam0, omega0, np.zeros(2), net2.p_nom, 0.01)
    assert np.abs(r_om - fine_om).max() < np.abs(e_om - fine_om).max()
    assert np.abs(r_lam - fine_lam).max() < np.abs(e_lam - fine_lam).max()


def test_scenario_validation():
    with pytest.raises(ValueError, match="horizon"):
        Scenario(horizon=0.0, dt=1e-3)
    with pytest.raises(ValueError, match="noise"):
        Scenario(horizon=1.0, dt=1e-3, noise_bound=-0.1)
    with pytest.raises(ValueError, match="window"):
        Scenario(horizon=1.0, dt=1e-3, disturbances=(Disturbance(0, -1.0, 0.5, 2.0),))
    with pytest.raises(ValueError, match="bus"):
        Scenario(horizon=1.0, dt=1e-3, disturbances=(Disturbance(-2, -1.0, 0.0, 0.5),))
    assert Scenario(horizon=10.0, dt=5e-3).n_steps == 2000


def test_scenario_rejects_horizon_off_the_dt_grid():
    with pytest.raises(ValueError, match="not an integer multiple of dt"):
        Scenario(horizon=2.0, dt=0.3)
    # 0.3 / 0.1 rounds to 2.9999999999999996; a relative tolerance accepts it
    assert Scenario(horizon=0.3, dt=0.1).n_steps == 3


def test_rollout_rejects_disturbance_bus_outside_network(net2, inc2, eq2):
    scen = Scenario(horizon=0.1, dt=1e-3, disturbances=(Disturbance(5, -0.1, 0.0, 0.05),))
    with pytest.raises(ValueError, match="disturbance bus index 5"):
        rollout(net2, inc2, eq2, make_zero_controller(2), scen)


def test_injection_schedule(net39):
    dist = Disturbance(bus=37, dp=-float(net39.p_nom[37]), t0=0.0, t1=2.0)
    scen = Scenario(horizon=20.0, dt=5e-3, disturbances=(dist,))
    assert injection_at(net39, scen, 1.0)[37] == 0.0
    assert np.array_equal(injection_at(net39, scen, 3.0), net39.p_nom)
    assert np.array_equal(injection_at(net39, scen, 0.0), net39.p_nom)  # (t0, t1] half-open
    assert injection_at(net39, scen, 2.0)[37] == 0.0  # right endpoint included
    empty = Scenario(horizon=1.0, dt=1e-3)
    assert np.array_equal(injection_at(net39, empty, 0.5), net39.p_nom)


def test_injection_schedule_rows_equal_injection_at(net39):
    # windows open and close on the grid (t == t0, t == t1 at k = 40, 400)
    # and off it; two disturbances on one bus add in declaration order
    dt = 5e-3
    dists = (
        Disturbance(bus=37, dp=-float(net39.p_nom[37]), t0=0.2, t1=2.0),
        Disturbance(bus=37, dp=0.1, t0=1.0, t1=1.5),
        Disturbance(bus=3, dp=0.25, t0=0.0, t1=0.3333),
    )
    scen = Scenario(horizon=3.0, dt=dt, disturbances=dists)
    rows = scen.n_steps + 1
    sched = injection_schedule(net39, scen, rows, dt)
    expect = np.stack([injection_at(net39, scen, k * dt) for k in range(rows)])
    assert sched.tobytes() == expect.tobytes()
    assert sched[40, 37] == net39.p_nom[37] and sched[41, 37] == 0.0  # t0 = 40 * dt excluded
    assert sched[400, 37] == 0.0 and sched[401, 37] == net39.p_nom[37]  # t1 = 400 * dt included
    assert injection_schedule(net39, scen, 0, dt).shape == (0, 39)


def test_rollout_constant_at_equilibrium(net2, inc2, eq2):
    scen = Scenario(horizon=1.0, dt=1e-3, init_omega_range=0.0, init_p_frac=0.0)
    traj = rollout(
        net2, inc2, eq2, make_zero_controller(2), scen,
        lam0=eq2.lam_eq, omega0=np.full(2, eq2.omega_sync),
    )
    assert traj.omega.shape == (1001, 2)
    assert np.abs(traj.omega - eq2.omega_sync).max() < 1e-9
    assert np.abs(traj.v_energy).max() < 1e-12
    assert traj.cost() < 1e-16


def test_rollout_energy_descent_unforced(net2, inc2, eq2):
    # V(k+1) <= V(k) + 1e-6 with u = 0 at dt = 1e-3, random starts in the region
    rng = np.random.default_rng(21)
    scen = Scenario(horizon=2.0, dt=1e-3)
    for _ in range(10):
        omega0 = rng.uniform(-0.3, 0.3, 2)
        lam0 = eq2.lam_eq + rng.uniform(-0.5, 0.5)
        if energy(net2, eq2, lam0, omega0) > eq2.energy_cap:
            continue
        traj = rollout(net2, inc2, eq2, make_zero_controller(2), scen, lam0=lam0, omega0=omega0)
        assert np.all(np.diff(traj.v_energy) <= 1e-6)


def test_rollout_determinism(net3, inc3, eq3):
    scen = Scenario(horizon=0.5, dt=1e-3, init_omega_range=0.1, init_p_frac=0.1, noise_bound=0.05)
    a = rollout(net3, inc3, eq3, make_zero_controller(3), scen, seed=123)
    b = rollout(net3, inc3, eq3, make_zero_controller(3), scen, seed=123)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.v_energy, b.v_energy)
    c = rollout(net3, inc3, eq3, make_zero_controller(3), scen, seed=124)
    assert not np.array_equal(a.omega, c.omega)


def test_rollout_lam_stays_in_rowspace(net3, inc3, eq3):
    # 10**4 steps; reconstruct theta by least squares and compare
    scen = Scenario(horizon=10.0, dt=1e-3, init_omega_range=0.1, init_p_frac=0.1)
    traj = rollout(net3, inc3, eq3, make_zero_controller(3), scen, seed=5)
    assert traj.lam.shape[0] == 10**4 + 1
    bt = inc3.b_mat.T
    theta, *_ = np.linalg.lstsq(bt, traj.lam.T, rcond=None)
    assert np.abs(bt @ theta - traj.lam.T).max() < 1e-9


def test_rollout_warns_outside_region(net2, inc2, eq2):
    scen = Scenario(horizon=0.01, dt=1e-3)
    with pytest.warns(RuntimeWarning, match="outside the invariant"):
        rollout(
            net2, inc2, eq2, make_zero_controller(2), scen,
            lam0=eq2.lam_eq, omega0=np.array([5.0, -5.0]),
        )


def test_rollout_integration_failure_reports_step(net2, inc2, eq2):
    # dt = 5 makes explicit Euler wildly unstable (factor -4 per step on
    # omega); the state overflows to inf and the step index is reported
    scen = Scenario(horizon=2750.0, dt=5.0, init_omega_range=0.0, init_p_frac=0.0)
    with pytest.raises(IntegrationError, match="step"), np.errstate(over="ignore", invalid="ignore"):
        rollout(
            net2, inc2, eq2, make_zero_controller(2), scen,
            lam0=eq2.lam_eq, omega0=np.array([0.1, -0.1]),
        )


def test_rollout_rejects_unknown_integrator(net2, inc2, eq2):
    scen = Scenario(horizon=0.01, dt=1e-3)
    with pytest.raises(ValueError, match="integrator"):
        rollout(net2, inc2, eq2, make_zero_controller(2), scen, integrator="trapezoid")


def test_sample_initial_state_ranges(net3, inc3):
    scen = Scenario(horizon=1.0, dt=1e-3, init_omega_range=0.1, init_p_frac=0.1)
    rng = np.random.default_rng(2)
    for _ in range(50):
        lam0, omega0 = sample_initial_state(net3, inc3, scen, rng)
        assert np.abs(omega0).max() <= 0.1
        theta, *_ = np.linalg.lstsq(inc3.b_mat.T, lam0, rcond=None)
        assert np.abs(inc3.b_mat.T @ theta - lam0).max() < 1e-9
    # degenerate ranges pin the draw to the equilibrium
    fixed = Scenario(horizon=1.0, dt=1e-3, init_omega_range=0.0, init_p_frac=0.0)
    lam0, omega0 = sample_initial_state(net3, inc3, fixed, rng)
    eq3 = solve_equilibrium(net3, inc3)
    assert np.array_equal(omega0, np.zeros(3))
    assert np.abs(lam0 - eq3.lam_eq).max() < 1e-12


def test_trajectory_cost_window(net2, inc2, eq2):
    scen = Scenario(horizon=1.0, dt=1e-3, init_omega_range=0.0, init_p_frac=0.0)
    traj = rollout(
        net2, inc2, eq2, make_zero_controller(2), scen,
        lam0=eq2.lam_eq, omega0=np.array([0.1, -0.1]), gamma=40.0,
    )
    # first row contributes gamma * 0.02 = 0.8; the mean over one step equals it
    assert abs(traj.cost(window=scen.dt) - 0.8) < 1e-12
    assert traj.cost(window=0.0) == 0.0
    full = traj.cost()
    assert 0.0 < full < 0.8
    # a window past the horizon averages every row, however long
    assert traj.cost(window=scen.horizon + 0.25) == traj.cost(window=1e308) == full
