"""Episode loss, exact gradients vs finite differences, Adam, and the
training loop contract (determinism, divergence guard, empty runs).
"""

import gc
from functools import partial

import numpy as np
import pytest

from oracles import UnguardedPolicy, forward_loss
from swingctl.controller import (
    ConstrainedAdapter,
    ControlDecision,
    SafetySpec,
    init_monotone_params,
    init_policy_params,
)
from swingctl.dynamics import Disturbance, Scenario, closed_loop, swing_rhs
from swingctl import tape as tp_mod
from swingctl.tape import Tape, value
from swingctl.training import (
    AdamState,
    TrainConfig,
    TrainingError,
    adam_step,
    episode_loss,
    loss_and_grad,
    train,
)

# Tape nodes of a fully active training step: the measured-frequency noise
# add, the one control_law node, 2 loss terms and 2 Euler updates. README
# quotes it.
FULLY_ACTIVE_STEP_NODES = 6

# Bytes of the arrays that the backward rules of one fully active 39-bus
# step cache at batch 8 (`step_arrays`), as the policy recorded six nodes
# per step: the ceiling for the one-node policy.
SIX_NODE_STEP_CACHE_BYTES = 40208


class StubAdapter:
    """Fixed-response controller with no trainable parameters."""

    kind = "stub"
    keys = ()
    raw = {}

    def __init__(self, u_fn):
        self.u_fn = u_fn

    def precompute(self, raw_like):
        return None

    def control(self, ready, lam, omega, p):
        u = self.u_fn(np.asarray(omega, dtype=float))
        return ControlDecision(u=u, budgets=np.zeros_like(u), active=np.zeros(u.shape, dtype=bool))

    def validate(self, ready):
        pass

    def rebuild(self, raw):
        return dict(raw)


def zero_stub():
    return StubAdapter(lambda omega: np.zeros_like(omega))


def make_adapter(net, inc, eq, spec, seed=1, dz_amp=1.0, scale=0.5, m=4):
    params = init_policy_params(net.n_bus, m, np.random.default_rng(seed), scale=scale)
    raw = {k: np.array(v) for k, v in params.raw.items()}
    raw["dz_wp"] = raw["dz_wp"] * dz_amp
    raw["dz_wm"] = raw["dz_wm"] * dz_amp
    params = params.__class__(raw=raw, m_hidden=m, dtilde_frac=params.dtilde_frac)
    return ConstrainedAdapter(params, spec, net, inc, eq)


def test_loss_hand_case(net2, inc2, eq2):
    # one step, u = 0, deviation (0.1, -0.1): loss = 40 * 0.02 = 0.8
    loss, parts = episode_loss(
        zero_stub(), net2, inc2, eq2, {}, eq2.lam_eq, np.array([0.1, -0.1]),
        np.tile(net2.p_nom, (1, 1)), None, 40.0, 0.0, 1e-3,
    )
    assert abs(loss - 0.8) < 1e-15
    assert abs(parts[0] - 0.8) < 1e-15 and parts[1] == 0.0 and parts[2] == 0.0


def test_loss_zero_at_equilibrium(net2, inc2, eq2):
    loss, _ = episode_loss(
        zero_stub(), net2, inc2, eq2, {}, eq2.lam_eq, np.zeros(2),
        np.tile(net2.p_nom, (20, 1)), None, 40.0, 500.0, 1e-3,
    )
    assert loss < 1e-18


def test_lipschitz_term_zero_for_constant_u(net2, inc2, eq2):
    const = StubAdapter(lambda omega: np.full_like(omega, 0.3))
    loss, parts = episode_loss(
        const, net2, inc2, eq2, {}, eq2.lam_eq, np.array([0.1, -0.1]),
        np.tile(net2.p_nom, (5, 1)), None, 40.0, 500.0, 1e-3,
    )
    assert parts[2] == 0.0
    assert abs(parts[1] - 2 * 0.3**2) < 1e-15  # ||u||^2 every step


def test_loss_batched_matches_mean_of_singles(net2, inc2, eq2, spec_band):
    adapter = make_adapter(net2, inc2, eq2, spec_band, dz_amp=6.0)
    p_steps = np.tile(net2.p_nom, (10, 1))
    omega0 = np.array([[0.19, -0.15], [0.05, -0.02]])
    lam0 = np.tile(eq2.lam_eq, (2, 1))
    batched = forward_loss(
        adapter, net2, inc2, eq2, adapter.raw, lam0, omega0, p_steps, None, 40.0, 0.0, 5e-3
    )
    singles = [
        forward_loss(
            adapter, net2, inc2, eq2, adapter.raw, eq2.lam_eq, omega0[i], p_steps, None,
            40.0, 0.0, 5e-3,
        )
        for i in range(2)
    ]
    assert abs(batched - np.mean(singles)) < 1e-12


def test_forward_loss_matches_loss_and_grad_value(net2, inc2, eq2, spec_band):
    adapter = make_adapter(net2, inc2, eq2, spec_band, dz_amp=6.0)
    args = (
        adapter, net2, inc2, eq2, adapter.raw, eq2.lam_eq + 0.05,
        np.array([0.19, -0.155]), np.tile(net2.p_nom, (10, 1)), None, 40.0, 500.0, 5e-3,
    )
    loss, parts, grads = loss_and_grad(*args)
    assert abs(forward_loss(*args) - loss) < 1e-12
    assert abs(sum(parts) - loss) < 1e-12
    assert set(grads) == set(adapter.keys)


def test_empty_horizon_zero_gradients(net2, inc2, eq2, spec_band):
    adapter = make_adapter(net2, inc2, eq2, spec_band)
    loss, parts, grads = loss_and_grad(
        adapter, net2, inc2, eq2, adapter.raw, eq2.lam_eq, np.zeros(2),
        np.zeros((0, 2)), None, 40.0, 500.0, 1e-3,
    )
    assert loss == 0.0 and parts == (0.0, 0.0, 0.0)
    assert all(np.all(g == 0.0) for g in grads.values())


def test_episode_inside_every_dead_zone_has_constant_loss(net2, inc2, eq2, spec_band):
    # at equilibrium without noise no bus ever leaves its dead zone, so the
    # loss never reaches the tape: finite loss, its parts, zero gradients
    adapter = make_adapter(net2, inc2, eq2, spec_band)
    args = (
        net2, inc2, eq2, adapter.raw, eq2.lam_eq, np.zeros(2),
        np.tile(net2.p_nom, (50, 1)), None, 40.0, 500.0, 1e-3,
    )
    loss, parts, grads = loss_and_grad(adapter, *args)
    full_loss, full_parts, full_grads = loss_and_grad(UnguardedPolicy(adapter), *args)
    assert np.isfinite(loss) and loss == full_loss and parts == full_parts
    assert set(grads) == set(adapter.keys)
    for k in adapter.keys:
        assert grads[k].shape == adapter.raw[k].shape
        assert np.all(grads[k] == 0.0) and np.all(full_grads[k] == 0.0)


def test_dead_zone_short_circuit_keeps_gradient_bits(net3, inc3, eq3, spec_band):
    # a batch that starts outside some dead zones and settles inside them:
    # skipping the all-inactive steps leaves loss and gradient bytes as the
    # full formula gives them, and records fewer tape nodes
    adapter = make_adapter(net3, inc3, eq3, spec_band, dz_amp=6.0)
    full = UnguardedPolicy(adapter)
    omega0 = np.array([[0.15, -0.02, -0.14], [0.03, 0.0, -0.03]])
    lam0 = np.tile(eq3.lam_eq, (2, 1))
    p_steps = np.tile(net3.p_nom, (300, 1))
    noise = np.random.default_rng(8).uniform(-0.005, 0.005, (300, 2, 3))
    ready = adapter.precompute(adapter.raw)
    loop = closed_loop(net3, inc3, partial(adapter.control, ready), lam0, omega0, p_steps, 5e-3, noise)
    act = [dec.active.any() for _, _, dec in loop]
    assert 0 < sum(act) < len(act)
    args = (net3, inc3, eq3, adapter.raw, lam0, omega0, p_steps, noise, 40.0, 500.0, 5e-3)
    loss, parts, grads = loss_and_grad(adapter, *args)
    full_loss, full_parts, full_grads = loss_and_grad(full, *args)
    assert loss == full_loss and parts == full_parts
    assert all(grads[k].tobytes() == full_grads[k].tobytes() for k in adapter.keys)
    assert any(np.any(g != 0.0) for g in grads.values())
    nodes = []
    for policy in (adapter, full):
        tp = Tape()
        leaves = {k: tp.leaf(np.array(v)) for k, v in adapter.raw.items()}
        episode_loss(policy, *args[:3], leaves, *args[4:])
        nodes.append(len(tp))
    assert nodes[0] < nodes[1]


class NodeCounter:
    """Forwards to a bound policy and notes, at each control call, the tape
    length and (after the call) whether some bus is active."""

    def __init__(self, policy, tape):
        self.policy, self.tape, self.keys = policy, tape, policy.keys
        self.marks, self.active = [], []

    def precompute(self, raw_like):
        return self.policy.precompute(raw_like)

    def control(self, ready, lam, omega, p):
        self.marks.append(len(self.tape))
        dec = self.policy.control(ready, lam, omega, p)
        self.active.append(bool(dec.active.any()))
        return dec


def test_fused_hot_path_node_budget(net3, inc3, eq3, spec_band):
    # 3 buses, B=4, with the variation term on: a step (noise, control, loss
    # terms and Euler update) records at most 5 tape nodes when every bus is
    # settled and at most FULLY_ACTIVE_STEP_NODES + 1 when some bus is active
    adapter = make_adapter(net3, inc3, eq3, spec_band, dz_amp=6.0)
    omega0 = np.array([[0.15, -0.02, -0.14], [0.03, 0.0, -0.03], [0.01, 0.02, 0.0], [-0.1, 0.05, 0.12]])
    noise = np.random.default_rng(8).uniform(-0.005, 0.005, (300, 4, 3))
    tp = Tape()
    counter = NodeCounter(adapter, tp)
    leaves = {k: tp.leaf(np.array(v)) for k, v in adapter.raw.items()}
    episode_loss(counter, net3, inc3, eq3, leaves, np.tile(eq3.lam_eq, (4, 1)), omega0,
                 np.tile(net3.p_nom, (300, 1)), noise, 40.0, 500.0, 5e-3)
    per_step = np.diff(counter.marks)
    active = np.array(counter.active[:-1])
    assert active[1:].any() and not active.all()
    assert per_step[~active].max() <= 5
    assert per_step[active].max() <= FULLY_ACTIVE_STEP_NODES + 1  # + the variation term


def test_fully_active_39_bus_step_node_budget(net39, inc39, eq39):
    # thresholds at the synchronous frequency, so every bus is active at
    # every step
    params = init_policy_params(39, 20, np.random.default_rng(3))
    params.raw["thr_lo"] += 5.0
    params.raw["thr_hi"] += 5.0
    adapter = params.bind(SafetySpec.band(-0.2, 0.2, 39), net39, inc39, eq39)
    rng = np.random.default_rng(6)
    omega0 = rng.uniform(-0.1, 0.1, (2, 39))
    noise = rng.uniform(-0.05, 0.05, (6, 2, 39))
    tp = Tape()
    counter = NodeCounter(adapter, tp)
    leaves = {k: tp.leaf(np.array(v)) for k, v in adapter.raw.items()}
    episode_loss(counter, net39, inc39, eq39, leaves, np.tile(eq39.lam_eq, (2, 1)), omega0,
                 np.tile(net39.p_nom, (6, 1)), noise, 40.0, 0.0, 5e-3)
    assert all(counter.active)
    assert np.diff(counter.marks).max() <= FULLY_ACTIVE_STEP_NODES


def test_train_rejects_an_invalid_initial_policy_before_episode_zero(net2, inc2, eq2, spec_band):
    params = init_policy_params(2, 4, np.random.default_rng(0), scale=1e3)
    scen = Scenario(horizon=0.1, dt=5e-3, init_omega_range=0.1, init_p_frac=0.0)
    seen = []
    with pytest.raises(TrainingError, match="^initial policy: .*threshold escaped") as err:
        train(params.bind(spec_band, net2, inc2, eq2), net2, inc2, eq2, scen,
              TrainConfig(episodes=2, steps=20, batch=2), progress=lambda *a: seen.append(a))
    assert err.value.curve == [] and seen == []


def test_train_update_that_breaks_the_policy_names_the_episode(net3, inc3, eq3, spec_band):
    # an absurd step saturates the threshold sigmoids onto the band edges
    scen = Scenario(horizon=0.1, dt=5e-3, init_omega_range=0.15, init_p_frac=0.0)
    cfg = TrainConfig(episodes=3, steps=20, batch=2, lr=1e30)
    with pytest.raises(TrainingError, match="^episode 0: .*threshold escaped") as err:
        train(make_adapter(net3, inc3, eq3, spec_band), net3, inc3, eq3, scen, cfg)
    assert [row[0] for row in err.value.curve] == [0.0]


def test_gradient_matches_fd_single_draw(net2, inc2, eq2, spec_band):
    # one strong draw; the exhaustive coverage sweep lives in the acceptance
    # suite. Gates open on both sides: omega0 near both band edges.
    adapter = make_adapter(net2, inc2, eq2, spec_band, seed=42, dz_amp=6.0)
    raw = {k: np.array(v) for k, v in adapter.raw.items()}
    lam0 = eq2.lam_eq + 0.05
    omega0 = np.array([0.19, -0.155])
    p_steps = np.tile(net2.p_nom, (10, 1))

    def f(vals):
        return forward_loss(
            adapter, net2, inc2, eq2, vals, lam0, omega0, p_steps, None, 40.0, 0.0, 5e-3
        )

    _, _, grads = loss_and_grad(
        adapter, net2, inc2, eq2, raw, lam0, omega0, p_steps, None, 40.0, 0.0, 5e-3
    )
    live_keys = set()
    checked = 0
    for key in adapter.keys:
        x = raw[key]
        for i in range(x.size):
            keep = x.reshape(-1)[i]
            h = 1e-5 * max(1.0, abs(keep))
            x.reshape(-1)[i] = keep + h
            up = f(raw)
            x.reshape(-1)[i] = keep - h
            dn = f(raw)
            x.reshape(-1)[i] = keep
            fd = (up - dn) / (2 * h)
            if abs(fd) < 1e-9:
                continue
            rel = abs(grads[key].reshape(-1)[i] - fd) / abs(fd)
            assert rel < 1e-4, f"{key}[{i}]: rel err {rel:.2e}"
            live_keys.add(key)
            checked += 1
    # this single draw opens the upper gate and the dead zone; the full
    # multi-draw coverage of every parameter family is an acceptance test
    assert checked >= 10 and len(live_keys) >= 5


def cached_arrays(obj):
    """The numpy arrays in a backward cache, through nested tuples and lists,
    each as the array that owns its memory."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from cached_arrays(item)


def step_arrays(tp, marks) -> list:
    """Per step after the first, the arrays that only that step's nodes
    cache (the measured-frequency add precedes the control call marked in
    `marks`): what a step adds to the tape's memory."""
    steps = [{id(a): a for i in range(lo - 1, hi - 1) for a in cached_arrays(tp.aux[i])}
             for lo, hi in zip(marks[1:-1], marks[2:])]
    owners = [key for step in steps for key in step]
    return [[a for key, a in step.items() if owners.count(key) == 1] for step in steps]


def test_batched_episode_tape_stores_no_unit_temporaries(net3, inc3, eq3, spec_band):
    # B=4, K=20 and 7 units: every node a step records is at most (B, n), no
    # array a step caches has a unit axis, (B, n, m) or (B, 6, n, m + 1);
    # the control node's active-unit counts, one per branch and entry, take
    # one byte each
    adapter = make_adapter(net3, inc3, eq3, spec_band, dz_amp=6.0, m=7)
    rng = np.random.default_rng(5)
    omega0 = rng.uniform(-0.19, 0.19, size=(4, 3))
    lam0 = np.tile(eq3.lam_eq, (4, 1))
    noise = rng.uniform(-0.01, 0.01, size=(20, 4, 3))
    tp = Tape()
    counter = NodeCounter(adapter, tp)
    leaves = {k: tp.leaf(np.array(v)) for k, v in adapter.raw.items()}
    loss, _ = episode_loss(
        counter, net3, inc3, eq3, leaves, lam0, omega0, np.tile(net3.p_nom, (20, 1)), noise,
        40.0, 500.0, 5e-3,
    )
    assert max(len(tp.shapes[i]) for i in range(counter.marks[0], len(tp))) <= 2
    cached = [a for step in step_arrays(tp, counter.marks) for a in step]
    assert cached and not any({7, 8} & set(a.shape) for a in cached)
    counts = [a for a in cached if a.dtype == np.uint8]
    assert counts and all(k.shape == (6, 4, 3) for k in counts)
    tp.backward(loss)
    with pytest.raises(ValueError, match=f"node {loss.idx} "):
        tp.grad(loss)
    grads = {k: tp.grad(leaf) for k, leaf in leaves.items()}
    assert all(grads[k].shape == adapter.raw[k].shape for k in grads)
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    assert any(np.any(g != 0.0) for g in grads.values())


def test_fully_active_39_bus_step_caches_no_more_than_six_nodes_did(net39, inc39, eq39):
    # B=8: the arrays the backward rules of one fully active step keep, by
    # distinct owner, take no more than those of the six-node policy
    params = init_policy_params(39, 20, np.random.default_rng(3))
    params.raw["thr_lo"] += 5.0
    params.raw["thr_hi"] += 5.0
    adapter = params.bind(SafetySpec.band(-0.2, 0.2, 39), net39, inc39, eq39)
    rng = np.random.default_rng(6)
    omega0, noise = rng.uniform(-0.1, 0.1, (8, 39)), rng.uniform(-0.05, 0.05, (8, 8, 39))
    tp = Tape()
    counter = NodeCounter(adapter, tp)
    leaves = {k: tp.leaf(np.array(v)) for k, v in adapter.raw.items()}
    episode_loss(counter, net39, inc39, eq39, leaves, np.tile(eq39.lam_eq, (8, 1)), omega0,
                 np.tile(net39.p_nom, (8, 1)), noise, 40.0, 0.0, 5e-3)
    assert all(counter.active)
    per_step = [sum(a.nbytes for a in step) for step in step_arrays(tp, counter.marks)]
    assert len(set(per_step)) == 1 and 0 < per_step[0] <= SIX_NODE_STEP_CACHE_BYTES


def test_an_episode_tape_leaves_no_reference_cycle(net3, inc3, eq3, spec_band):
    # no backward cache holds a Node, whose tape would hold the cache: each
    # episode's tape is freed when loss_and_grad returns, not whenever the
    # cycle collector next runs, which would let tapes pile up in training
    adapter = make_adapter(net3, inc3, eq3, spec_band, dz_amp=6.0)
    omega0 = np.random.default_rng(5).uniform(-0.19, 0.19, size=(4, 3))
    gc.collect()
    gc.disable()
    try:
        loss_and_grad(adapter, net3, inc3, eq3, adapter.raw, np.tile(eq3.lam_eq, (4, 1)), omega0,
                      np.tile(net3.p_nom, (20, 1)), None, 40.0, 500.0, 5e-3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_variation_term_stays_off_the_tape_at_rho_zero(net3, inc3, eq3, spec_band):
    # at rho = 0 the variation sum never reaches the loss, so recording it
    # would only leave sq_dist nodes that no reverse sweep visits
    adapter = make_adapter(net3, inc3, eq3, spec_band, dz_amp=6.0)
    omega0 = np.random.default_rng(5).uniform(-0.19, 0.19, size=(4, 3))
    tp = Tape()
    leaves = {k: tp.leaf(np.array(v)) for k, v in adapter.raw.items()}
    loss, parts = episode_loss(
        adapter, net3, inc3, eq3, leaves, np.tile(eq3.lam_eq, (4, 1)), omega0,
        np.tile(net3.p_nom, (20, 1)), None, 40.0, 0.0, 5e-3,
    )
    reached = np.zeros(len(tp), dtype=bool)
    reached[loss.idx] = True
    for i in range(loss.idx, -1, -1):  # parents precede children
        if reached[i]:
            reached[[j for j in tp.parents[i] if j is not None]] = True
    sums = [i for i, rule in enumerate(tp.rules) if rule is tp_mod._bk_sq_dist]
    assert sums and reached[sums].all()
    assert parts[2] == 0.0


class NanGradientStub(StubAdapter):
    """u = 0 * (1 / x) at x = 1e-200: zero control, a NaN adjoint for x."""

    keys = ("x",)
    raw = {"x": np.array([1e-200])}

    def __init__(self):
        super().__init__(None)

    def precompute(self, raw_like):
        return raw_like["x"]

    def control(self, ready, lam, omega, p):
        shape = np.shape(value(omega))
        u = 0.0 * (1.0 / ready) + np.zeros(shape)
        return ControlDecision(u=u, budgets=np.zeros(shape), active=np.zeros(shape, dtype=bool))


def test_train_non_finite_gradient_is_a_training_error(net2, inc2, eq2):
    scen = Scenario(horizon=0.025, dt=5e-3, init_omega_range=0.1, init_p_frac=0.0)
    cfg = TrainConfig(episodes=2, steps=5, dt=5e-3, batch=1, m_hidden=4)
    with pytest.raises(TrainingError, match="episode 0: non-finite adjoint") as err:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            train(NanGradientStub(), net2, inc2, eq2, scen, cfg)
    assert err.value.curve == []


def test_adam_first_step_hand_formula():
    cfg = TrainConfig(lr=0.05)
    raw = {"x": np.array([1.0])}
    state = AdamState.fresh(raw)
    out = adam_step(raw, {"x": np.array([2.0])}, state, cfg, ("x",))
    # bias-corrected first step: m_hat = g, v_hat = g^2
    expect = 1.0 - 0.05 * 2.0 / (np.sqrt(4.0) + 1e-8)
    assert abs(out["x"][0] - expect) < 1e-15
    assert state.t == 1


def test_adam_zero_grad_keeps_params():
    cfg = TrainConfig(lr=0.05)
    raw = {"x": np.array([1.0, -2.0])}
    state = AdamState.fresh(raw)
    state.m["x"] = np.array([0.4, 0.0])
    state.v["x"] = np.array([0.1, 0.0])
    out = adam_step(raw, {"x": np.zeros(2)}, state, cfg, ("x",))
    assert out["x"][1] == -2.0  # fresh moments, zero grad: exactly unchanged
    assert abs(state.m["x"][0] - 0.36) < 1e-15  # moments decay by beta1


def test_recordings_use_every_tape_op(net3, inc3, eq3, spec_band):
    # a constrained episode with rho > 0 and active buses, a monotone episode
    # and the composed vector field together record every op the tape has
    rules = set()
    policies = (
        (make_adapter(net3, inc3, eq3, spec_band, dz_amp=6.0), 500.0),
        (init_monotone_params(3, 4, np.random.default_rng(0)).bind(spec_band, net3, inc3, eq3), 0.0),
    )
    omega0 = np.array([[0.19, -0.15, 0.0], [0.05, -0.02, 0.01]])
    for policy, rho in policies:
        tp = Tape()
        leaves = {k: tp.leaf(v) for k, v in policy.raw.items()}
        episode_loss(
            policy, net3, inc3, eq3, leaves, np.tile(eq3.lam_eq, (2, 1)), omega0,
            np.tile(net3.p_nom, (10, 1)), None, 40.0, rho, 5e-3,
        )
        rules |= set(tp.rules)
    tp = Tape()
    swing_rhs(net3, inc3, tp.leaf(eq3.lam_eq), tp.leaf(omega0[0]), tp.leaf(np.zeros(3)), net3.p_nom)
    rules |= set(tp.rules)
    assert tp_mod._bk_control_law in rules  # some bus left its dead zone
    assert rules - {None} == {f for name, f in vars(tp_mod).items() if name.startswith("_bk_")}


def test_train_zero_episodes(net2, inc2, eq2, spec_band):
    adapter = make_adapter(net2, inc2, eq2, spec_band)
    before = {k: np.array(v) for k, v in adapter.raw.items()}
    scen = Scenario(horizon=0.1, dt=5e-3)
    res = train(adapter, net2, inc2, eq2, scen, TrainConfig(episodes=0, steps=20, batch=2))
    assert res.curve.shape == (0, 5)
    assert np.isnan(res.final_loss)
    assert all(np.array_equal(res.params.raw[k], before[k]) for k in adapter.keys)


def test_train_smoke_descent(net2, inc2, eq2, spec_band):
    # 30 episodes, K = 200 on the 2-bus: the loss must fall
    adapter = init_monotone_params(2, 4, np.random.default_rng(0)).bind(spec_band, net2, inc2, eq2)
    scen = Scenario(horizon=1.0, dt=5e-3, init_omega_range=0.1, init_p_frac=0.1)
    cfg = TrainConfig(episodes=30, steps=200, dt=5e-3, batch=4, seed=3, m_hidden=4)
    res = train(adapter, net2, inc2, eq2, scen, cfg)
    assert res.curve.shape == (30, 5)
    assert res.final_loss < res.curve[0, 1]


def test_train_determinism_and_progress(net2, inc2, eq2, spec_band):
    scen = Scenario(
        horizon=0.25, dt=5e-3, init_omega_range=0.1, init_p_frac=0.1, noise_bound=0.05
    )
    cfg = TrainConfig(episodes=3, steps=50, dt=5e-3, batch=2, seed=9, m_hidden=4)
    seen = []

    def run(progress=None):
        adapter = make_adapter(net2, inc2, eq2, spec_band, seed=5, dz_amp=3.0)
        return train(adapter, net2, inc2, eq2, scen, cfg, progress=progress)

    a = run(progress=lambda ep, loss, parts: seen.append((ep, loss, parts)))
    b = run()
    assert np.array_equal(a.curve, b.curve)
    assert all(np.array_equal(a.params.raw[k], b.params.raw[k]) for k in a.params.raw)
    assert [s[0] for s in seen] == [0, 1, 2]
    assert seen[1][1] == a.curve[1, 1]


def test_train_divergence_guard(net2, inc2, eq2, spec_band):
    # an absurd learning rate blows the monotone response up; the guard
    # aborts and hands back the partial curve
    adapter = init_monotone_params(2, 4, np.random.default_rng(2)).bind(spec_band, net2, inc2, eq2)
    scen = Scenario(horizon=0.5, dt=5e-3, init_omega_range=0.1, init_p_frac=0.1)
    cfg = TrainConfig(episodes=60, steps=100, dt=5e-3, batch=2, lr=3e3, seed=0, m_hidden=4)
    with pytest.raises(TrainingError) as err, np.errstate(over="ignore", invalid="ignore"):
        train(adapter, net2, inc2, eq2, scen, cfg)
    assert len(err.value.curve) >= 1


def test_train_rejects_disturbance_bus_outside_network(net2, inc2, eq2, spec_band):
    adapter = make_adapter(net2, inc2, eq2, spec_band)
    scen = Scenario(horizon=0.1, dt=5e-3, disturbances=(Disturbance(5, -0.1, 0.0, 0.05),))
    with pytest.raises(ValueError, match="disturbance bus index 5"):
        train(adapter, net2, inc2, eq2, scen, TrainConfig(episodes=1, steps=20, batch=2))


def test_train_integration_failure_names_episode_and_step(net2, inc2, eq2, spec_band):
    # dt = 5 makes explicit Euler diverge (factor -4 per step on omega); the
    # loop stops at the first non-finite state and keeps the partial curve
    adapter = make_adapter(net2, inc2, eq2, spec_band)
    scen = Scenario(horizon=3000.0, dt=5.0, init_omega_range=0.1, init_p_frac=0.0)
    cfg = TrainConfig(episodes=2, steps=600, dt=5.0, batch=1, m_hidden=4)
    with pytest.raises(TrainingError, match="episode 0: non-finite state after step") as err:
        with np.errstate(over="ignore", invalid="ignore"):
            train(adapter, net2, inc2, eq2, scen, cfg)
    assert err.value.curve == []
