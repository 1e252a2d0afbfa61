"""Constrained-policy pieces: hand-evaluated cases for every block, the
structural invariants under random raw parameters, and the two baselines.
"""

import numpy as np
import pytest

from oracles import (
    barrier_bound,
    budget_vector,
    composed_law,
    constraint_check,
    deadzone_eval,
    feedforward,
    gate,
    law_args,
    law_node,
    reference_control,
    relu_units,
    sq_dist,
    stability_cap,
    sum_seq,
    taped_line_flows,
    unguarded_control,
    unit_sum,
)
from swingctl import controller as C
from swingctl import tape as tp
from swingctl.dynamics import Scenario, line_flows, rollout
from swingctl.equilibrium import in_region
from swingctl.netgraph import PowerNetwork
from swingctl.tape import Tape, value


def rand_params(n, rng, m=4, scale=0.5, dz_amp=1.0):
    p = C.init_policy_params(n, m, rng, scale=scale)
    raw = {k: np.array(v) for k, v in p.raw.items()}
    raw["dz_wp"] = raw["dz_wp"] * dz_amp
    raw["dz_wm"] = raw["dz_wm"] * dz_amp
    return C.PolicyParams(raw=raw, m_hidden=m, dtilde_frac=p.dtilde_frac)


# ------------------------------------------------------------------- class-K


def test_class_k_hand_case():
    wp = np.array([[1.0, 1.0]])
    wm = np.array([[-1.0, -0.5]])
    bp = np.array([[0.0, -1.0]])
    bm = np.array([[0.0, -1.0]])
    tables = C.class_k_tables(wp, wm, bp, bm)
    assert value(C.class_k_eval(tables, np.array([2.0])))[0] == 3.0
    assert value(C.class_k_eval(tables, np.array([-2.0])))[0] == -2.5
    assert value(C.class_k_eval(tables, np.array([0.0])))[0] == 0.0


def test_class_k_reparam_at_zero():
    zero = np.zeros((1, 3))
    zero_b = np.zeros((1, 2))
    wp, wm = C.class_k_weights(zero, zero)
    unit = C.WEIGHT_FLOOR + np.log(2.0)  # softplus(0)
    assert np.allclose(np.cumsum(value(wp)), [unit, unit, unit])
    assert np.allclose(np.cumsum(value(wm)), [-unit, -unit, -unit])
    bp, bm = C.class_k_biases(zero_b, zero_b)
    assert np.array_equal(value(bp), np.zeros((1, 3)))
    assert np.array_equal(value(bm), np.zeros((1, 3)))


def test_class_k_invariants_random_raws():
    rng = np.random.default_rng(0)
    for _ in range(200):  # 10**4 raw draws total across the vectorized rows
        w_raw = rng.normal(0, 2.0, size=(50, 6))
        b_raw = rng.normal(0, 2.0, size=(50, 5))
        wp, wm = C.class_k_weights(w_raw, -w_raw[:, ::-1])
        bp, bm = C.class_k_biases(b_raw, b_raw[:, ::-1])
        assert np.all(np.cumsum(value(wp), axis=-1) > 0)
        assert np.all(np.cumsum(value(wm), axis=-1) < 0)
        for b in (bp, bm):
            bv = value(b)
            assert np.all(bv[:, 0] == 0.0)
            assert np.all(np.diff(bv, axis=-1) <= 0)


def test_class_k_strictly_increasing_property():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        w_raw = rng.normal(0, 1.5, size=(1, 4))
        b_raw = rng.normal(0, 1.5, size=(1, 3))
        wp, wm = C.class_k_weights(w_raw, rng.normal(0, 1.5, size=(1, 4)))
        bp, bm = C.class_k_biases(b_raw, rng.normal(0, 1.5, size=(1, 3)))
        s = np.sort(rng.uniform(-2, 2, size=2))
        tables = C.class_k_tables(wp, wm, bp, bm)
        lo = value(C.class_k_eval(tables, np.array([s[0]])))[0]
        hi = value(C.class_k_eval(tables, np.array([s[1]])))[0]
        if s[1] > s[0]:
            assert hi > lo


def test_class_k_gradient_matches_fd():
    rng = np.random.default_rng(3)
    raws = {
        "wp": rng.normal(0, 0.7, (1, 4)),
        "wm": rng.normal(0, 0.7, (1, 4)),
        "bp": rng.normal(0, 0.7, (1, 3)),
        "bm": rng.normal(0, 0.7, (1, 3)),
    }
    s = np.array([0.8])

    def scalar(vals):
        wp, wm = C.class_k_weights(vals["wp"], vals["wm"])
        bp, bm = C.class_k_biases(vals["bp"], vals["bm"])
        return float(value(C.class_k_eval(C.class_k_tables(wp, wm, bp, bm), s))[0])

    t = Tape()
    leaves = {k: t.leaf(v) for k, v in raws.items()}
    wp, wm = C.class_k_weights(leaves["wp"], leaves["wm"])
    bp, bm = C.class_k_biases(leaves["bp"], leaves["bm"])
    t.backward(C.class_k_eval(C.class_k_tables(wp, wm, bp, bm), s))
    h = 1e-5
    for k, x in raws.items():
        g = t.grad(leaves[k])
        for i in range(x.size):
            keep = x.reshape(-1)[i]
            x.reshape(-1)[i] = keep + h
            up = scalar(raws)
            x.reshape(-1)[i] = keep - h
            dn = scalar(raws)
            x.reshape(-1)[i] = keep
            fd = (up - dn) / (2 * h)
            denom = max(abs(fd), 1e-8)
            assert abs(g.reshape(-1)[i] - fd) / denom < 1e-6


def test_class_k_fits_tanh_shaped_target():
    # capacity check with m=20 on [-1, 1]: max error < 0.05
    m = 20
    grid = np.linspace(-1.0, 1.0, 161)
    target = np.tanh(2.0 * grid)
    rng = np.random.default_rng(0)
    raw = {
        "wp": rng.normal(0, 0.1, (1, m)),
        "wm": rng.normal(0, 0.1, (1, m)),
    }
    knot = np.sqrt(1.0 / (m - 1))  # spread initial knots evenly over [0, 1]
    raw["bp"] = np.full((1, m - 1), knot) + rng.normal(0, 0.01, (1, m - 1))
    raw["bm"] = np.full((1, m - 1), knot) + rng.normal(0, 0.01, (1, m - 1))
    ms = {k: np.zeros_like(v) for k, v in raw.items()}
    vs = {k: np.zeros_like(v) for k, v in raw.items()}
    b1, b2, eps = 0.9, 0.999, 1e-8
    for it in range(1, 1201):
        lr = 0.05 * 0.1 ** (it / 1200)
        t = Tape()
        leaves = {k: t.leaf(v) for k, v in raw.items()}
        wp, wm = C.class_k_weights(leaves["wp"], leaves["wm"])
        bp, bm = C.class_k_biases(leaves["bp"], leaves["bm"])
        pred = C.class_k_eval(C.class_k_tables(wp, wm, bp, bm), grid.reshape(-1, 1))
        t.backward(sq_dist(pred, target.reshape(-1, 1)))
        for k in raw:
            g = t.grad(leaves[k])
            ms[k] = b1 * ms[k] + (1 - b1) * g
            vs[k] = b2 * vs[k] + (1 - b2) * g * g
            raw[k] = raw[k] - lr * (ms[k] / (1 - b1**it)) / (np.sqrt(vs[k] / (1 - b2**it)) + eps)
    wp, wm = C.class_k_weights(raw["wp"], raw["wm"])
    bp, bm = C.class_k_biases(raw["bp"], raw["bm"])
    dense = np.linspace(-1.0, 1.0, 2001)
    pred = value(C.class_k_eval(C.class_k_tables(wp, wm, bp, bm), dense.reshape(-1, 1))).ravel()
    assert np.abs(pred - np.tanh(2.0 * dense)).max() < 0.05


# ---------------------------------------------------------------- thresholds


def test_threshold_hand_cases():
    wlo, whi = C.threshold_map(
        np.array([0.0]), np.array([0.0]), 0.0, np.array([-0.2]), np.array([0.2])
    )
    assert abs(value(whi)[0] - 0.1) < 1e-15
    assert abs(value(wlo)[0] + 0.1) < 1e-15
    wlo, whi = C.threshold_map(
        np.array([30.0]), np.array([30.0]), 0.0, np.array([-0.2]), np.array([0.2])
    )
    assert abs(value(whi)[0]) < 1e-9  # saturated toward the sync frequency
    assert abs(value(wlo)[0]) < 1e-9


def test_threshold_strictly_inside_property():
    rng = np.random.default_rng(5)
    sync = 0.03
    lo, hi = np.array([-0.2]), np.array([0.25])
    for _ in range(1000):
        v = rng.normal(0, 5.0, size=2)
        wlo, whi = C.threshold_map(np.array([v[0]]), np.array([v[1]]), sync, lo, hi)
        assert lo[0] < value(wlo)[0] < sync
        assert sync < value(whi)[0] < hi[0]


# ----------------------------------------------------------------- dead zone


def test_deadzone_hand_cases():
    wlo, whi = np.array([-0.1]), np.array([0.1])
    zeros = np.array([[0.0]])
    upper = C.deadzone_tables(np.array([[2.0]]), zeros, zeros, zeros)
    assert value(deadzone_eval(upper, 0.05 - whi, wlo - 0.05))[0] == 0.0
    f = deadzone_eval(upper, 0.2 - whi, wlo - 0.2)
    assert abs(value(f)[0] - 0.2) < 1e-15
    f = deadzone_eval(C.deadzone_tables(zeros, np.array([[1.0]]), zeros, zeros), -0.3 - whi, wlo + 0.3)
    assert abs(value(f)[0] - 0.2) < 1e-15


def test_unit_tables_match_dense_sums(net3, inc3, eq3, spec_band):
    # the per-rollout tables (dead-zone units sorted by bias) give the dense
    # ReLU-unit sums of the unsorted parameters, batched and unbatched
    rng = np.random.default_rng(19)
    for _ in range(20):
        params = rand_params(3, rng, m=6, scale=1.5, dz_amp=5.0)
        raw = params.raw
        ready = params.bind(spec_band, net3, inc3, eq3).precompute(raw)
        dz_b = (-raw["dz_bp"] ** 2, -raw["dz_bm"] ** 2)
        assert np.any(np.diff(dz_b[0], axis=-1) > 0)  # the raw order is unsorted
        for shape in ((3,), (7, 3)):
            omega = rng.uniform(-0.3, 0.3, shape)
            hi = C.class_k_weights(raw["barrier_hi_wp"], raw["barrier_hi_wm"])
            hi += C.class_k_biases(raw["barrier_hi_bp"], raw["barrier_hi_bm"])
            s = 0.2 - omega
            got, dense = value(C.class_k_eval(ready.hi, s)), unit_sum(*(value(x) for x in hi), s)
            assert np.all(np.abs(got - dense) <= 1e-13 * (1.0 + np.abs(dense)))
            got = value(deadzone_eval(ready.dz, omega - ready.whi, ready.wlo - omega))
            dense = relu_units(raw["dz_wp"], omega - ready.whi_val, dz_b[0], 1.0)
            dense += relu_units(raw["dz_wm"], omega - ready.wlo_val, dz_b[1], -1.0)
            scale = relu_units(np.abs(raw["dz_wp"]), omega - ready.whi_val, dz_b[0], 1.0)
            scale += relu_units(np.abs(raw["dz_wm"]), omega - ready.wlo_val, dz_b[1], -1.0)
            assert np.all(np.abs(got - dense) <= 1e-13 * (1.0 + scale))


def test_unit_sums_are_bitwise_zero_at_zero_and_in_the_dead_zone(net3, inc3, eq3, spec_band):
    rng = np.random.default_rng(21)
    zero = np.zeros((4, 3)).tobytes()
    for _ in range(50):
        params = rand_params(3, rng, scale=1.5, dz_amp=5.0)
        ready = params.bind(spec_band, net3, inc3, eq3).precompute(params.raw)
        for tables in (ready.hi, ready.lo):
            for s in (np.zeros((4, 3)), np.full((4, 3), -0.0)):
                assert np.asarray(value(C.class_k_eval(tables, s))).tobytes() == zero
        omega = rng.uniform(ready.wlo_val, ready.whi_val, (4, 3))
        omega[0] = ready.wlo_val  # on the thresholds themselves
        omega[1] = ready.whi_val
        f = value(deadzone_eval(ready.dz, omega - ready.whi, ready.wlo - omega))
        assert np.asarray(f).tobytes() == zero


def test_deadzone_gradient_matches_fd():
    # through the sort: raws whose bias order differs between the branches
    rng = np.random.default_rng(4)
    raws = {k: rng.normal(0, 0.7, (2, 4)) for k in ("dz_wp", "dz_wm", "dz_bp", "dz_bm")}
    wlo, whi = np.array([-0.1, -0.05]), np.array([0.08, 0.1])
    omega = np.array([[0.6, -0.7], [-0.5, 0.9]])

    def scalar(vals):
        tables = C.deadzone_tables(*C.deadzone_weights(vals))
        return float(np.sum(value(deadzone_eval(tables, omega - whi, wlo - omega))))

    t = Tape()
    leaves = {k: t.leaf(v) for k, v in raws.items()}
    tables = C.deadzone_tables(*C.deadzone_weights(leaves))
    t.backward(deadzone_eval(tables, omega - whi, wlo - omega))
    h = 1e-6
    for k, x in raws.items():
        g = t.grad(leaves[k])
        assert np.any(g != 0.0), k
        for i in range(x.size):
            keep = x.reshape(-1)[i]
            x.reshape(-1)[i] = keep + h
            up = scalar(raws)
            x.reshape(-1)[i] = keep - h
            dn = scalar(raws)
            x.reshape(-1)[i] = keep
            fd = (up - dn) / (2 * h)
            assert abs(g.reshape(-1)[i] - fd) <= 1e-6 * max(1.0, abs(fd)), (k, i)


def test_deadzone_exactness_property(net3, inc3, eq3, spec_band):
    rng = np.random.default_rng(8)
    for _ in range(300):
        params = rand_params(3, rng, dz_amp=5.0)
        policy = params.bind(spec_band, net3, inc3, eq3)
        ready = policy.precompute(params.raw)
        # draw omega inside each bus's dead zone: u must vanish exactly
        frac = rng.uniform(0.0, 1.0, 3)
        omega = ready.wlo_val + frac * (ready.whi_val - ready.wlo_val)
        lam = rng.uniform(-0.5, 0.5, 2)
        out = policy.control(ready, line_flows(inc3, lam), omega, net3.p_nom)
        assert np.all(value(out.u) == 0.0)
        assert np.all(value(out.budgets) == 0.0)


# ------------------------------------------------------------------- budgets


def test_budget_hand_cases(inc3):
    xi = np.array([1.0, 0.0, -1.0])
    b = budget_vector(inc3, np.array([True, True, True]), xi @ inc3.b_mat)
    assert np.array_equal(b, [1.0, 0.0, -1.0])
    b = budget_vector(inc3, np.array([True, True, False]), xi @ inc3.b_mat)
    assert np.array_equal(b, [1.0, -1.0, 0.0])
    assert b[2] == 0.0
    b = budget_vector(inc3, np.zeros(3, dtype=bool), xi @ inc3.b_mat)
    assert np.array_equal(b, np.zeros(3))


def test_budget_conservation_and_locality_property(inc3):
    rng = np.random.default_rng(12)
    for _ in range(500):
        active = rng.random(3) < 0.5
        xi = rng.normal(size=3)
        b = budget_vector(inc3, active, xi @ inc3.b_mat)
        assert abs(b.sum()) < 1e-9
        assert np.all(b[~active] == 0.0)


def test_xi_bound_property(net3, inc3, eq3, spec_band):
    rng = np.random.default_rng(13)
    for _ in range(500):
        params = rand_params(3, rng, scale=rng.uniform(0.1, 1.5))
        policy = params.bind(spec_band, net3, inc3, eq3)
        ready = policy.precompute(params.raw)
        xi = value(ready.xi)
        margin = policy.dtilde * np.minimum(
            (ready.whi_val - eq3.omega_sync) ** 2,
            (ready.wlo_val - eq3.omega_sync) ** 2,
        )
        assert np.all(inc3.row_l1 * np.abs(xi).max() <= margin + 1e-12)


# ------------------------------------------------------- caps and feedforward


def test_stability_cap_hand_cases():
    dtilde = np.array([0.5])
    assert abs(stability_cap(dtilde, 0.0, np.array([0.2]), np.array([0.0]))[0] - 0.1) < 1e-15
    assert abs(stability_cap(dtilde, 0.0, np.array([0.2]), np.array([0.02]))[0] - 0.2) < 1e-15


def test_feedforward_hand_cases(net2, inc2, eq2):
    def q_at(lam, omega, p):
        return feedforward(line_flows(inc2, lam), omega, p, net2.damping)

    q = q_at(np.array([0.0]), np.array([0.1, -0.1]), np.zeros(2))
    assert np.allclose(q, [0.1, -0.1], atol=1e-15)
    q = q_at(eq2.lam_eq, np.full(2, eq2.omega_sync), net2.p_nom)
    assert np.abs(q).max() < 1e-9
    q = q_at(np.zeros(1), np.zeros(2), np.zeros(2))
    assert np.array_equal(q, np.zeros(2))


# ------------------------------------------------------------ gated assembly


def test_gated_control_hand_case():
    # the gate selects f clipped to the open side's bound, and a shut gate
    # gives exactly zero
    dhi, dlo, f = np.array([0.05, -0.3, 0.0, 0.0]), np.array([-0.4, 0.02, 0.0, -0.1]), np.array([0.5, -0.5, 3.0, 0.1])
    u = gate(dhi, dlo, f, np.full(4, 0.2), np.full(4, -0.3))
    assert np.array_equal(u, [0.2, -0.3, 0.0, 0.0])
    ub = barrier_bound(np.array([0.2]), np.array([1.0]), np.array([0.05]), np.array([-30.0]), upper=True)
    assert ub[0] == -10.0  # alpha / d + q = 20 - 30 binds below the cap 0.2


@pytest.mark.parametrize("size", [3, 39])
@pytest.mark.parametrize("batch", [None, 5])
def test_control_law_matches_composed_oracle_bitwise(request, spec_band, size, batch):
    # the fused node against the per-op form (the two class-K maps and the
    # dead-zone response as unit_sums nodes, then the law composed from its
    # six parts), on plain values and on tape leaves, at states on both
    # sides of each threshold with clipped and unclipped gates; the first
    # draw puts bus 0 exactly at its upper threshold (dhi = 0) and bus 1 at
    # the synchronous frequency (dev = 0)
    net, inc, eq = (request.getfixturevalue(f"{name}{size}") for name in ("net", "inc", "eq"))
    rng = np.random.default_rng(size)
    params = rand_params(size, rng, dz_amp=30.0)
    policy = params.bind(spec_band, net, inc, eq)
    ready = policy.precompute(params.raw)
    t = Tape()
    ready_t = policy.precompute({k: t.leaf(v) for k, v in params.raw.items()})
    shape = (size,) if batch is None else (batch, size)
    for i in range(10):
        omega = rng.uniform(-0.19, 0.19, shape)
        if i == 0:
            omega[..., 0], omega[..., 1] = ready.whi_val[0], eq.omega_sync
        lam = eq.lam_eq + rng.normal(scale=0.05, size=shape[:-1] + eq.lam_eq.shape)
        flows = line_flows(inc, lam)
        p = net.p_nom * rng.uniform(0.8, 1.2, size)
        ref = composed_law(*law_args(policy, ready, flows, omega, p))
        per_op = law_node(*law_args(policy, ready_t, flows, omega, p))
        got, taped = (unguarded_control(policy, r, flows, omega, p) for r in (ready, ready_t))
        assert isinstance(taped.u, tp.Node) and not isinstance(taped.budgets, tp.Node)
        for want, old, dec_field in zip(ref, per_op, ("u", "budgets", "upper", "lower")):
            assert want.shape == shape
            assert want.tobytes() == value(old).tobytes() == getattr(got, dec_field).tobytes()
            assert want.tobytes() == value(getattr(taped, dec_field)).tobytes()
        assert policy.control(ready, flows, omega, p).u.tobytes() == ref[0].tobytes()


def policy_tape(policy, control, raw, states, p):
    """Record sum_s sum(u_s * proj_s) of `control` over (omega, lam, proj)
    states on one tape whose leaves are the raws and each state's omega and
    lam, the policy reading lam through its line flows; returns (u values,
    leaf gradients) after the reverse sweep."""
    t = Tape()
    leaves = {k: t.leaf(v) for k, v in raw.items()}
    ready = policy.precompute(leaves)
    terms, us = [], []
    for i, (omega, lam, proj) in enumerate(states):
        leaves[f"omega{i}"], leaves[f"lam{i}"] = t.leaf(omega), t.leaf(lam)
        u = control(policy, ready, taped_line_flows(policy.inc, leaves[f"lam{i}"]), leaves[f"omega{i}"], p)
        us.append(value(u).tobytes())
        terms.append(u * proj)
    t.backward(sum_seq(terms))
    return us, {k: t.grad(leaf) for k, leaf in leaves.items()}


@pytest.mark.parametrize("size", [3, 39])
@pytest.mark.parametrize("batch", [None, 4])
def test_fused_policy_node_matches_per_op_reference_bitwise(request, spec_band, size, batch):
    # one control_law node per step against the per-op form of tests/oracles
    # (dhi and dlo subs, class-K and dead-zone unit_sums, the law node): the
    # values agree as bytes and every raw, omega and lam gradient within
    # 1e-12 of its family's largest entry, for settled, mixed and fully
    # active states on one tape, so the table adjoints sum over steps whose
    # live branches differ.
    # Bus 0 sits exactly on its upper threshold with a dead-zone unit whose
    # bias is zero (a unit at its threshold) and bus 1 on the band's upper
    # edge (the upper barrier's first unit at its threshold); inside the
    # band the upper barrier's minus and the lower one's plus branch have
    # no active unit.
    net, inc, eq = (request.getfixturevalue(f"{name}{size}") for name in ("net", "inc", "eq"))
    rng = np.random.default_rng(100 + size)
    shape = (size,) if batch is None else (batch, size)
    for active in (False, True):
        params = rand_params(size, rng, dz_amp=30.0)
        params.raw["dz_bp"][0, 0] = 0.0
        if active:  # thresholds next to the synchronous frequency
            params.raw["thr_lo"] += 5.0
            params.raw["thr_hi"] += 5.0
        policy = params.bind(spec_band, net, inc, eq)
        ready = policy.precompute(params.raw)
        settled = rng.uniform(ready.wlo_val, ready.whi_val, shape)
        edge = rng.uniform(-0.19, 0.19, shape)
        edge[..., 0], edge[..., 1] = ready.whi_val[0], policy.omega_max[1]
        states = [(w, eq.lam_eq + rng.normal(scale=0.05, size=shape[:-1] + eq.lam_eq.shape), rng.normal(size=shape))
                  for w in (settled, rng.uniform(-0.19, 0.19, shape), edge, rng.uniform(-0.19, 0.19, shape))]
        assert not C.active_mask(ready, settled).any() and C.active_mask(ready, states[1][0]).any()
        p = net.p_nom * rng.uniform(0.8, 1.2, size)
        fused = policy_tape(policy, lambda *a: unguarded_control(*a).u, params.raw, states, p)
        per_op = policy_tape(policy, lambda *a: reference_control(*a)[0], params.raw, states, p)
        assert fused[0] == per_op[0]
        assert fused[1].keys() == per_op[1].keys() and set(C.PARAM_KEYS) <= fused[1].keys()
        for key, want in per_op[1].items():
            assert np.abs(fused[1][key] - want).max() <= 1e-12 * np.abs(want).max(), key


def test_policy_dead_zone_and_slack(net2, inc2, eq2, spec_band):
    params = rand_params(2, np.random.default_rng(42), dz_amp=6.0)
    policy = params.bind(spec_band, net2, inc2, eq2)
    ready = policy.precompute(params.raw)
    inside = 0.5 * (ready.wlo_val + ready.whi_val)
    out = policy.control(ready, line_flows(inc2, eq2.lam_eq), inside, net2.p_nom)
    assert np.all(value(out.u) == 0.0)
    # upper-branch slack arithmetic from the worked numbers: bound 0.2, u 0.01
    assert abs((0.2 - 0.01) - 0.19) < 1e-15


@pytest.mark.parametrize("batch", [None, 5])
def test_all_inactive_decision_equals_full_formula_bitwise(net3, inc3, eq3, spec_band, batch):
    # every bus inside its dead zone: the short-circuit's constant zeros
    # equal the full formula's u and budgets bit for bit, as the simulation
    # controller returns them
    rng = np.random.default_rng(3)
    params = rand_params(3, rng, dz_amp=6.0)
    policy = params.bind(spec_band, net3, inc3, eq3)
    ready = policy.precompute(params.raw)
    sim = C.make_policy_controller(params, spec_band, net3, inc3, eq3)
    shape = (3,) if batch is None else (batch, 3)
    for _ in range(20):
        omega = rng.uniform(ready.wlo_val, ready.whi_val, shape)
        flows = line_flows(inc3, eq3.lam_eq + rng.normal(scale=0.05, size=shape[:-1] + eq3.lam_eq.shape))
        p = net3.p_nom * rng.uniform(0.8, 1.2, 3)
        got = policy.control(ready, flows, omega, p)
        full = unguarded_control(policy, ready, flows, omega, p)
        assert not got.active.any() and np.array_equal(got.active, full.active)
        for field in ("u", "budgets"):
            assert np.shape(getattr(got, field)) == shape
            assert np.asarray(getattr(got, field)).tobytes() == np.asarray(getattr(full, field)).tobytes()
        assert sim(flows, omega, p).u.tobytes() == got.u.tobytes()


def test_constraint_check_cases(net2, inc2, eq2, spec_band):
    params = rand_params(2, np.random.default_rng(7), dz_amp=6.0)
    policy = params.bind(spec_band, net2, inc2, eq2)
    ready = policy.precompute(params.raw)
    inside = 0.5 * (ready.wlo_val + ready.whi_val)
    rep = constraint_check(
        params, spec_band, net2, inc2, eq2, eq2.lam_eq, inside, net2.p_nom, np.zeros(2)
    )
    assert rep.ok and rep.violations == [] and np.all(rep.branch == 0)

    omega = np.array([0.18, -0.05])  # bus 0 above its upper threshold
    out = policy.control(ready, line_flows(inc2, eq2.lam_eq), omega, net2.p_nom)
    u = out.u
    rep = constraint_check(
        params, spec_band, net2, inc2, eq2, eq2.lam_eq, omega, net2.p_nom, u
    )
    assert rep.ok
    assert rep.branch[0] == 1
    assert abs(rep.slack[0] - (value(out.upper)[0] - u[0])) < 1e-12

    bad = u.copy()
    bad[0] = value(out.upper)[0] + 1.0
    rep = constraint_check(
        params, spec_band, net2, inc2, eq2, eq2.lam_eq, omega, net2.p_nom, bad
    )
    assert not rep.ok and rep.violations == [0]


@pytest.mark.parametrize("size", [3, 39])
@pytest.mark.parametrize("batch", [None, 500])
def test_raw_policy_lies_in_its_bounds_bitwise(request, spec_band, size, batch):
    # the raw constrained output, not a projection of it, at random states
    # far from and near the thresholds: u <= ub above the upper threshold and
    # u >= lb below the lower one, compared as floats with no tolerance
    # against the bounds of the same decision, and exactly +0.0 inside the
    # dead zone; large dead-zone weights put f past its bounds often
    net, inc, eq = (request.getfixturevalue(f"{name}{size}") for name in ("net", "inc", "eq"))
    rng = np.random.default_rng(31 + size)
    shape = (size,) if batch is None else (batch, size)
    clipped = 0
    for _ in range(20 if batch is None else 4):
        params = rand_params(size, rng, scale=float(rng.uniform(0.1, 1.5)), dz_amp=float(rng.uniform(1.0, 40.0)))
        policy = params.bind(spec_band, net, inc, eq)
        ready = policy.precompute(params.raw)
        for _ in range(25 if batch is None else 1):
            omega = rng.uniform(-0.35, 0.35, shape)
            lam = eq.lam_eq + rng.normal(scale=0.3, size=shape[:-1] + eq.lam_eq.shape)
            p = net.p_nom * rng.uniform(0.5, 1.5, shape)
            dec = policy.control(ready, line_flows(inc, lam), omega, p)
            above, below = omega > ready.whi_val, omega < ready.wlo_val
            assert np.array_equal(dec.active, above | below)
            assert np.all(dec.u[above] <= dec.upper[above]) and np.all(dec.u[below] >= dec.lower[below])
            inside = dec.u[~(above | below)]
            assert np.all(inside == 0.0) and not np.signbit(inside).any()
            clipped += int((dec.u[above] == dec.upper[above]).sum() + (dec.u[below] == dec.lower[below]).sum())
    assert clipped > 0  # some draws put f past a bound, so the clip is exercised


@pytest.mark.parametrize("size", [3, 39])
def test_policy_is_continuous_at_its_thresholds(request, spec_band, size):
    # with the budget potentials saturated at their cap (xi = +/-cap), a
    # budget can reach D_tilde thr^2 but not past it, so the stability cap
    # stays >= 0 on the active side and u = min(f, ub) or max(f, lb) goes to
    # 0 with f as omega crosses a threshold: 1e-8 past each, |u| <= 1e-8
    net, inc, eq = (request.getfixturevalue(f"{name}{size}") for name in ("net", "inc", "eq"))
    rng = np.random.default_rng(41 + size)
    eps, spent = 1e-8, 0.0
    for _ in range(20):
        params = C.init_policy_params(size, 20, rng)
        params.raw["budget_raw"] = rng.choice([-20.0, 20.0], size)
        policy = params.bind(spec_band, net, inc, eq)
        ready = policy.precompute(params.raw)
        assert np.array_equal(np.abs(value(ready.xi)), np.full(size, np.abs(value(ready.xi)).max()))
        side = rng.random((8, size)) < 0.5
        for omega in (ready.whi_val + eps, ready.wlo_val - eps,
                      np.where(side, ready.whi_val + eps, ready.wlo_val - eps)):
            lam = eq.lam_eq + rng.normal(scale=0.05, size=omega.shape[:-1] + eq.lam_eq.shape)
            dec = policy.control(ready, line_flows(inc, lam), omega, net.p_nom)
            assert dec.active.all()
            assert np.abs(dec.u).max() <= eps
            dev = omega - eq.omega_sync
            spent = max(spent, (-dec.budgets / (policy.dtilde * dev**2)).max())
    assert spent > 0.5  # some budget takes most of D_tilde dev^2, so the xi cap is what keeps u near 0


def test_control_meets_cap_and_barrier_where_they_bind(net3, inc3, eq3):
    # Large dead-zone weights push f past its bounds, so the raw u lands on
    # them. The band is +/-2 Hz with the thresholds pulled toward sync, so
    # the draws span both bounds binding. The bounds are restated from net,
    # params and the raws, not from the policy.
    rng = np.random.default_rng(2027)
    band, sync = 2.0, eq3.omega_sync
    spec = C.SafetySpec.band(-band, band, 3)
    on_cap = on_barrier = rows = 0
    for _ in range(20):
        params = rand_params(3, rng, scale=0.5, dz_amp=40.0)
        raw = params.raw
        raw["thr_lo"] = raw["thr_lo"] + 2.0
        raw["thr_hi"] = raw["thr_hi"] + 2.0
        policy = params.bind(spec, net3, inc3, eq3)
        ready = policy.precompute(raw)
        wlo, whi = (value(x) for x in C.threshold_map(raw["thr_lo"], raw["thr_hi"], sync, -band, band))
        above = rng.random((100, 3)) < 0.5
        near_edge = rng.random((100, 3)) < 0.5
        frac = np.where(near_edge, rng.uniform(0.97, 1.0, (100, 3)), rng.uniform(0.0, 1.0, (100, 3)))
        omega = np.where(above, whi + frac * (band - whi), wlo - frac * (wlo + band))
        lam = rng.uniform(-0.5, 0.5, (100, 2))
        p = rng.uniform(-3.0, 3.0, (100, 3))
        dec = policy.control(ready, line_flows(inc3, lam), omega, p)
        u = dec.u
        assert dec.active.all()

        # stability cap: u dev <= dtilde_frac D dev^2 + b on both branches
        dev = omega - sync
        slack_cap = params.dtilde_frac * net3.damping * dev**2 + value(dec.budgets) - u * dev
        assert slack_cap.min() >= -1e-12, f"cap exceeded by {-slack_cap.min():.3e}"

        # barrier: u <= alpha_hi(max - w)/(w - whi) + q above, mirrored below
        hi = C.class_k_weights(raw["barrier_hi_wp"], raw["barrier_hi_wm"])
        hi += C.class_k_biases(raw["barrier_hi_bp"], raw["barrier_hi_bm"])
        lo = C.class_k_weights(raw["barrier_lo_wp"], raw["barrier_lo_wm"])
        lo += C.class_k_biases(raw["barrier_lo_bp"], raw["barrier_lo_bm"])
        q = net3.damping * omega + np.sin(lam) @ inc3.by_mat.T - p
        bar_hi = unit_sum(*hi, band - omega) / (omega - whi) + q
        bar_lo = unit_sum(*lo, -band - omega) / (wlo - omega) + q
        slack_bar = np.where(above, bar_hi - u, u - bar_lo)
        tol = 1e-9 * (1.0 + np.abs(np.where(above, bar_hi, bar_lo)))
        assert np.all(slack_bar >= -tol), f"barrier exceeded by {-(slack_bar + tol).min():.3e}"

        on_cap += int((slack_cap <= 1e-9).sum())
        on_barrier += int((slack_bar <= tol).sum())
        rows += u.size
    # both bounds bind on a good share of the draws
    assert on_cap >= 0.1 * rows and on_barrier >= 0.02 * rows, (on_cap, on_barrier, rows)


def test_policy_keeps_dissipation_and_band_while_active(
    net2, inc2, eq2, net3, inc3, eq3
):
    # large random policies and fast in-region starts push buses out of their
    # dead zones, so the guarantee is exercised on the active branch too
    sc = Scenario(horizon=1.0, dt=1e-3, init_omega_range=0.0, init_p_frac=0.0)
    rng = np.random.default_rng(2026)
    active_rows = rows = 0
    for _ in range(10):
        for net, inc, eq in ((net2, inc2, eq2), (net3, inc3, eq3)):
            n = net.n_bus
            spec = C.SafetySpec.band(-0.2, 0.2, n)
            params = C.init_policy_params(n, 8, rng, scale=float(rng.uniform(0.5, 3.0)))
            lam0, omega0 = eq.lam_eq, np.full(n, np.inf)
            while not in_region(net, inc, eq, lam0, omega0):
                lam0 = eq.lam_eq + rng.uniform(-0.15, 0.15, n) @ inc.b_mat
                omega0 = rng.uniform(-0.18, 0.18, n)
            ctrl = C.make_policy_controller(params, spec, net, inc, eq)
            traj = rollout(net, inc, eq, ctrl, sc, lam0=lam0, omega0=omega0)
            dev = traj.omega - eq.omega_sync
            balance = (-net.damping * dev**2 + dev * traj.u).sum(axis=1)
            assert balance.max() <= 1e-12, f"damping balance {balance.max():.3e} (n={n})"
            assert np.all(traj.omega >= spec.omega_min) and np.all(traj.omega <= spec.omega_max)
            active_rows += int(traj.active.any(axis=1).sum())
            rows += traj.t.shape[0]
    assert active_rows >= 0.2 * rows, f"only {active_rows / rows:.1%} of steps active"


def test_projection_argument_returns_the_default_decisions_bitwise(net3, inc3, eq3, spec_band):
    # make_policy_controller keeps `projection` as a no-op for callers that
    # still pass it (bench/workloads.py): every decision field is the
    # default's as bytes, at states on both sides of the thresholds
    rng = np.random.default_rng(41)
    params = rand_params(3, rng, dz_amp=6.0)
    default, projected = (C.make_policy_controller(params, spec_band, net3, inc3, eq3, projection=on)
                          for on in (False, True))
    for _ in range(10):
        omega = rng.uniform(-0.19, 0.19, (5, 3))
        flows = line_flows(inc3, eq3.lam_eq + rng.normal(scale=0.05, size=(5,) + eq3.lam_eq.shape))
        p = net3.p_nom * rng.uniform(0.8, 1.2, 3)
        a, b = default(flows, omega, p), projected(flows, omega, p)
        assert a.active.any()
        for field in ("u", "budgets", "active", "upper", "lower"):
            assert np.asarray(getattr(a, field)).tobytes() == np.asarray(getattr(b, field)).tobytes()


def test_distributedness(net3, inc3, eq3, spec_band):
    # bus 0's control and budget ignore non-neighbor state (bus 2, edge 1-2)
    params = rand_params(3, np.random.default_rng(23), dz_amp=4.0)
    policy = params.bind(spec_band, net3, inc3, eq3)
    ready = policy.precompute(params.raw)
    omega = np.array([0.18, 0.15, 0.02])
    lam = np.array([0.3, 0.1])
    base = policy.control(ready, line_flows(inc3, lam), omega, net3.p_nom)
    omega2 = omega.copy()
    omega2[2] = 0.19  # flips bus 2's mask; bus 0 only shares an edge with bus 1
    lam2 = lam.copy()
    lam2[1] = -0.4
    pert = policy.control(ready, line_flows(inc3, lam2), omega2, net3.p_nom)
    assert value(pert.u)[0] == value(base.u)[0]
    assert value(pert.budgets)[0] == value(base.budgets)[0]


def test_validate_policy_flags_violations(net2, inc2, eq2, spec_band):
    params = rand_params(2, np.random.default_rng(3))
    policy = params.bind(spec_band, net2, inc2, eq2)
    ready = policy.precompute(params.raw)
    policy.validate(ready)  # reparameterized tensors always pass
    broken = policy.precompute(params.raw)
    (w_p, c_p, thr_p), minus = broken.dz
    broken.dz = ((w_p, c_p, thr_p - 0.1), minus)  # a dead-zone bias above zero
    with pytest.raises(C.PolicyError, match="dz_bp"):
        policy.validate(broken)
    shifted = policy.precompute(params.raw)
    shifted.wlo_val = np.array([-0.3, -0.3])  # escaped the band
    with pytest.raises(C.PolicyError, match="lower threshold"):
        policy.validate(shifted)
    # the class-K rules, read from the barrier tables
    W, c, thr = ready.hi[1]
    unordered = thr.copy()
    unordered[:, 1] = thr[:, 2] + 0.1
    for minus, message in (
        ((np.abs(np.asarray(value(W))), c, thr), "negative-branch partial sum"),
        ((W, c, thr + 0.1), "first bias is not pinned"),
        ((W, c, unordered), "biases increase along the units"),
    ):
        broken = policy.precompute(params.raw)
        broken.hi = (broken.hi[0], minus)
        with pytest.raises(C.PolicyError, match=f"barrier_hi: .*{message}"):
            policy.validate(broken)


def test_safety_spec_validation():
    with pytest.raises(ValueError):
        C.SafetySpec(omega_min=0.1, omega_max=0.2)  # band must straddle zero
    with pytest.raises(ValueError):
        C.SafetySpec(omega_min=-0.2, omega_max=-0.1)
    with pytest.raises(ValueError, match="per-bus lists"):
        C.SafetySpec(omega_min=[[-0.2]], omega_max=[[0.2]])
    spec = C.SafetySpec(omega_min=-0.2, omega_max=0.2)
    assert spec.omega_min == -0.2 and spec.omega_max == 0.2


# ----------------------------------------------------------------- baselines


def test_analytic_safe_hand_cases(net2, inc2, eq2, spec_band):
    safe = C.make_analytic_safe_controller(spec_band, net2, inc2, eq2)
    # q_1 = D*w - p = 0.15 - p_1; p chosen to hit the worked q values
    dec = safe(np.array([0.0]), np.array([0.15, 0.0]), np.array([-0.15, 0.0]))
    assert dec.u[0] == 0.0  # q = 0.3 -> min(0, 2 + 0.3)
    dec = safe(np.array([0.0]), np.array([0.15, 0.0]), np.array([3.15, 0.0]))
    assert abs(dec.u[0] + 1.0) < 1e-12  # q = -3 -> min(0, 2 - 3)
    dec = safe(np.array([0.0]), np.array([0.05, 0.0]), np.zeros(2))
    assert np.array_equal(dec.u, np.zeros(2))


def test_monotone_baseline_properties():
    rng = np.random.default_rng(31)
    net1 = PowerNetwork(inertia=[1.0], damping=[1.0], p_nom=[0.0], edges=(), susceptance=[])
    for _ in range(1000):
        params = C.init_monotone_params(1, 4, rng, scale=rng.uniform(0.2, 1.5))
        policy = params.bind(None, net1, None, None)
        ready = policy.precompute(params.raw)
        w = np.sort(rng.uniform(-1.0, 1.0, size=5))
        u = value(policy.control(ready, None, w.reshape(-1, 1), None).u).ravel()
        assert abs(value(policy.control(ready, None, np.zeros((1, 1)), None).u).ravel()[0]) < 1e-15
        assert np.all(np.diff(u) <= 1e-12)  # non-increasing
        assert np.all(u * w <= 1e-12)  # opposes the deviation


def test_zero_controller(net3):
    ctl = C.make_zero_controller(3)
    dec = ctl(np.zeros(2), np.array([0.5, -0.5, 0.1]), np.zeros(3))
    assert np.array_equal(dec.u, np.zeros(3))
    assert np.array_equal(dec.budgets, np.zeros(3))
    assert not dec.active.any()
