"""Equilibrium solve, energy function, and the invariant-region cap.

The cap oracle is an independent grid search over the boundary of the
closed angle box {|lam_k| <= pi/2} with omega at the synchronous value;
the energy is separable across edges, so faces are swept one edge at a
time with the others held at their minimizers.
"""

import numpy as np
import pytest

from oracles import dissipation_rate
from swingctl.equilibrium import (
    EquilibriumError,
    energy,
    in_region,
    solve_equilibrium,
)
from swingctl.netgraph import PowerNetwork, build_incidence


def edge_potential_oracle(y, lam_eq, lam):
    # potential of one edge, integrated restoring force (hand formula)
    return y * (np.cos(lam_eq) - np.cos(lam) + (lam_eq - lam) * np.sin(lam_eq))


def grid_cap_oracle(net, eq, n_grid=10**4):
    """Brute-force min of the boundary energy at omega = omega_sync.

    Sweeps each face lam_e = +/- pi/2 over a dense grid of every other
    edge coordinate; separability makes the sweep exact in the limit.
    """
    m = eq.lam_eq.size
    grid = np.linspace(-np.pi / 2, np.pi / 2, n_grid)
    per_edge_min = np.array(
        [edge_potential_oracle(net.susceptance[e], eq.lam_eq[e], grid).min() for e in range(m)]
    )
    best = np.inf
    for e in range(m):
        for s in (-np.pi / 2, np.pi / 2):
            face = edge_potential_oracle(net.susceptance[e], eq.lam_eq[e], s)
            rest = per_edge_min.sum() - per_edge_min[e]
            best = min(best, face + rest)
    return best


def bisect_oracle(target):
    # solve sin(lam) = target on [-pi/2, pi/2] by bisection
    lo, hi = -np.pi / 2, np.pi / 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sin(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_two_bus_equilibrium_hand_values(eq2):
    assert eq2.omega_sync == 0.0
    assert abs(eq2.cond_value - 0.5) < 1e-12
    assert abs(eq2.lam_eq[0] - np.pi / 6) < 1e-10
    assert abs(eq2.lam_eq[0] - bisect_oracle(0.5)) < 1e-10


def test_zero_injection(net2, inc2):
    net0 = PowerNetwork(
        net2.inertia, net2.damping, np.zeros(2), net2.edges, net2.susceptance
    )
    eq0 = solve_equilibrium(net0, build_incidence(net0))
    assert eq0.omega_sync == 0.0
    assert np.abs(eq0.lam_eq).max() == 0.0
    assert eq0.cond_value == 0.0


def test_nonzero_sync_frequency():
    net = PowerNetwork(
        inertia=np.ones(2),
        damping=np.array([1.0, 3.0]),
        p_nom=np.array([0.5, -0.1]),
        edges=((0, 1),),
        susceptance=np.ones(1),
    )
    inc = build_incidence(net)
    eq = solve_equilibrium(net, inc)
    assert abs(eq.omega_sync - 0.1) < 1e-14  # sum(p)/sum(D) = 0.4/4
    # residual of the balance with the drift removed
    res = inc.by_mat @ np.sin(eq.lam_eq) - eq.p_tilde
    assert np.abs(res).max() < 1e-10


def test_three_bus_residual(net3, inc3, eq3):
    res = inc3.by_mat @ np.sin(eq3.lam_eq) - eq3.p_tilde
    assert np.abs(res).max() < 1e-10
    # path flows accumulate: sin(lam) = (0.4, 0.5)
    assert np.allclose(np.sin(eq3.lam_eq), [0.4, 0.5], atol=1e-12)


def test_lam_eq_in_incidence_rowspace(eq39, inc39):
    theta, *_ = np.linalg.lstsq(inc39.b_mat.T, eq39.lam_eq, rcond=None)
    assert np.abs(inc39.b_mat.T @ theta - eq39.lam_eq).max() < 1e-9


def test_existence_failure_reports_value(net2):
    net = PowerNetwork(
        net2.inertia, net2.damping, np.array([1.2, -1.2]), net2.edges, net2.susceptance
    )
    with pytest.raises(EquilibriumError, match="1.2"):
        solve_equilibrium(net, build_incidence(net))


def test_energy_cap_hand_value(eq2):
    assert abs(eq2.energy_cap - 0.34243) < 1e-5


def test_energy_cap_matches_grid_oracle(net2, eq2, net3, eq3):
    assert abs(eq2.energy_cap - grid_cap_oracle(net2, eq2)) < 1e-5
    assert abs(eq3.energy_cap - grid_cap_oracle(net3, eq3)) < 1e-5


def test_energy_hand_values(net2, inc2, eq2):
    assert energy(net2, inc2, eq2, eq2.lam_eq, np.zeros(2)) == 0.0
    kinetic = energy(net2, inc2, eq2, eq2.lam_eq, np.array([0.1, -0.1]))
    assert abs(kinetic - 0.01) < 1e-15
    at_box = energy(net2, inc2, eq2, np.array([np.pi / 2]), np.zeros(2))
    assert abs(at_box - 0.34243) < 1e-5
    assert abs(at_box - eq2.energy_cap) < 1e-12  # the 2-bus min sits on this face


def test_energy_nonnegative_property(net3, inc3, eq3):
    rng = np.random.default_rng(11)
    for _ in range(500):
        lam = rng.uniform(-np.pi / 2, np.pi / 2, 2)
        omega = rng.uniform(-1.0, 1.0, 3)
        assert energy(net3, inc3, eq3, lam, omega) >= 0.0


def test_energy_rows_match_single_states(net3, inc3, eq3):
    rng = np.random.default_rng(12)
    lam = rng.uniform(-np.pi / 2, np.pi / 2, (50, 2))
    omega = rng.uniform(-1.0, 1.0, (50, 3))
    rows = energy(net3, inc3, eq3, lam, omega)
    assert rows.shape == (50,)
    single = [energy(net3, inc3, eq3, lam[k], omega[k]) for k in range(50)]
    # the batched dot may sum in another order than the per-state one
    np.testing.assert_allclose(rows, single, rtol=1e-15, atol=0)


@pytest.mark.parametrize("beta", [0.0, -1.0, 0.5, float("nan"), float("inf")])
def test_region_cap_rejects_beta_outside_one_to_infinity(net2, inc2, eq2, beta):
    with pytest.raises(ValueError, match="beta must be finite and >= 1"):
        eq2.region_cap(beta)
    with pytest.raises(ValueError, match="beta"):
        in_region(net2, inc2, eq2, eq2.lam_eq, np.zeros(2), beta=beta)


def test_region_cap_values(eq2):
    assert eq2.region_cap() == eq2.energy_cap
    assert eq2.region_cap(4.0) == eq2.energy_cap / 4.0


def test_in_region_cases(net2, inc2, eq2):
    assert in_region(net2, inc2, eq2, eq2.lam_eq, np.zeros(2), beta=1.0)
    assert in_region(net2, inc2, eq2, eq2.lam_eq, np.zeros(2), beta=100.0)
    assert not in_region(net2, inc2, eq2, eq2.lam_eq, np.ones(2), beta=1.0)  # V = 1 > cap
    assert not in_region(net2, inc2, eq2, np.array([1.6]), np.zeros(2), beta=1.0)


def test_dissipation_rate_sign(net2, eq2):
    assert dissipation_rate(net2, eq2, np.array([0.1, -0.2]), np.zeros(2)) < 0.0
    assert dissipation_rate(net2, eq2, np.zeros(2), np.zeros(2)) == 0.0
    # control aligned against the deviation dissipates faster
    dev = np.array([0.1, -0.2])
    assert dissipation_rate(net2, eq2, dev, -dev) < dissipation_rate(
        net2, eq2, dev, np.zeros(2)
    )
