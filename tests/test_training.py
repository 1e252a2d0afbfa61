"""Episode loss, exact gradients vs finite differences, Adam, and the
training loop contract (determinism, divergence guard, empty runs).
"""

import gc
import tracemalloc
from functools import partial

import numpy as np
import pytest

from oracles import UnguardedPolicy, forward_loss, taped_episode_loss, taped_loss_and_grad
from swingctl.controller import (
    ConstrainedAdapter,
    ControlDecision,
    SafetySpec,
    init_monotone_params,
    init_policy_params,
)
from swingctl.dynamics import Disturbance, Scenario, closed_loop, injection_schedule, swing_rhs
from swingctl import tape as tp_mod
from swingctl.tape import Tape, value
from swingctl.training import (
    CHUNK_STATES,
    AdamState,
    TrainConfig,
    TrainingError,
    adam_step,
    episode_loss,
    loss_and_grad,
    train,
)

# Bytes of the arrays that the backward rules of one fully active 39-bus
# step cached at batch 8, when the policy recorded six nodes per step: the
# ceiling for what an episode node keeps per step.
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

    def control(self, ready, flows, omega, p):
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
    # the episode re-runs the policy at the live steps only, and on the
    # per-step taped reference the short-circuit records fewer nodes
    log = ControlLog(adapter)
    loss_and_grad(log, *args)
    assert sum(len(u) for u in log.chunk_u) == sum(act)
    nodes = []
    for policy in (adapter, full):
        tp = Tape()
        leaves = {k: tp.leaf(np.array(v)) for k, v in adapter.raw.items()}
        taped_episode_loss(policy, *args[:3], leaves, *args[4:])
        nodes.append(len(tp))
    assert nodes[0] < nodes[1]


class ControlLog:
    """Forwards to a bound policy and logs its control calls: at each of the
    rollout's states (shape (B, n) or (n,)), the measured frequency's bytes
    mapped to (u bytes, whether some bus is active); at each stack of a
    backward chunk's states, the chunk's u and measured frequency."""

    def __init__(self, policy):
        self.policy, self.keys = policy, policy.keys
        self.forward, self.chunk_u, self.chunk_omega = {}, [], []

    def precompute(self, raw_like):
        return self.policy.precompute(raw_like)

    def control(self, ready, flows, omega, p):
        dec = self.policy.control(ready, flows, omega, p)
        w, u = np.asarray(value(omega)), np.asarray(value(dec.u))
        if isinstance(omega, tp_mod.Node):
            self.chunk_u.append(u)
            self.chunk_omega.append(w)
        else:
            self.forward[w.tobytes()] = (u.tobytes(), bool(dec.active.any()))
        return dec


def fully_active_39(net39, inc39, eq39):
    """The 39-bus constrained policy (init seed 3) with its thresholds at the
    synchronous frequency, so every bus is active at every step."""
    params = init_policy_params(39, 20, np.random.default_rng(3))
    params.raw["thr_lo"] += 5.0
    params.raw["thr_hi"] += 5.0
    return params.bind(SafetySpec.band(-0.2, 0.2, 39), net39, inc39, eq39)


def test_episode_tape_node_count_does_not_depend_on_the_horizon(net39, inc39, eq39):
    # the raws, the policy's per-rollout nodes and one episode node, at
    # K = 10 and K = 2000 alike
    adapter = fully_active_39(net39, inc39, eq39)
    per_rollout = Tape()
    adapter.precompute({k: per_rollout.leaf(np.array(v)) for k, v in adapter.raw.items()})
    counts = []
    for k_steps in (10, 2000):
        rng = np.random.default_rng(6)
        tp = Tape()
        leaves = {k: tp.leaf(np.array(v)) for k, v in adapter.raw.items()}
        loss, _ = episode_loss(adapter, net39, inc39, eq39, leaves, np.tile(eq39.lam_eq, (2, 1)),
                               rng.uniform(-0.1, 0.1, (2, 39)), np.tile(net39.p_nom, (k_steps, 1)),
                               rng.uniform(-0.05, 0.05, (k_steps, 2, 39)), 40.0, 500.0, 5e-3)
        assert loss.idx == len(tp) - 1 and tp.rules[loss.idx].__name__ == "_bk_episode"
        counts.append(len(tp))
    assert counts[0] == counts[1] == len(per_rollout) + 1


def test_episode_node_keeps_at_most_the_states_and_noise_per_step(net39, inc39, eq39):
    # B=8, fully active: what an episode's tape keeps beyond its inputs
    # grows by at most (m + 2n) B 8 bytes per step (lam_k, omega_k and a
    # noise row's worth), not by a taped step's caches
    adapter = fully_active_39(net39, inc39, eq39)
    n, m, batch = 39, inc39.b_mat.shape[1], 8
    held = []
    for k_steps in (10, 410):
        rng = np.random.default_rng(6)
        args = (np.tile(eq39.lam_eq, (batch, 1)), rng.uniform(-0.1, 0.1, (batch, n)),
                np.tile(net39.p_nom, (k_steps, 1)), rng.uniform(-0.05, 0.05, (k_steps, batch, n)))
        gc.collect()
        tracemalloc.start()
        try:
            tp = Tape()
            leaves = {k: tp.leaf(np.array(v)) for k, v in adapter.raw.items()}
            loss, _ = episode_loss(adapter, net39, inc39, eq39, leaves, *args, 40.0, 500.0, 5e-3)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
    assert 0 < (held[1] - held[0]) / 400 <= (m + 2 * n) * batch * 8


def cached_arrays(obj):
    """The numpy arrays in a backward cache, through nested tuples, lists and
    dict values, each as the array that owns its memory."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from cached_arrays(item)
    elif isinstance(obj, dict):
        yield from cached_arrays(list(obj.values()))


def step_arrays(sweep) -> list:
    """The arrays an episode node keeps with one row per step: the rollout's
    states and the inputs it re-reads."""
    k_steps = len(sweep.lams)
    fields = (sweep.lams, sweep.omegas, sweep.noise, sweep.p_steps)
    return [a for a in {id(a): a for a in cached_arrays(fields)}.values() if a.shape[:1] == (k_steps,)]


class ChunkTapes:
    """Forwards to a bound policy and keeps, at each backward chunk's control
    call, the chunk's scratch tape, the index its measured-frequency leaf
    got and the u node."""

    def __init__(self, policy):
        self.policy, self.keys, self.seen = policy, policy.keys, []

    def precompute(self, raw_like):
        return self.policy.precompute(raw_like)

    def control(self, ready, flows, omega, p):
        dec = self.policy.control(ready, flows, omega, p)
        if isinstance(omega, tp_mod.Node):
            self.seen.append((omega.tape, omega.idx, dec.u))
        return dec


def test_batched_episode_tape_stores_no_unit_temporaries(net3, inc3, eq3, spec_band):
    # B=4, K=20 and 7 units: the episode tape ends in the one 0-d episode
    # node, and no array it keeps per step has a unit axis, (B, n, m) or
    # (B, 6, n, m + 1); a backward chunk records nodes of its states' shape
    # only, and the control node's active-unit counts, one per branch and
    # entry, take one byte each
    adapter = make_adapter(net3, inc3, eq3, spec_band, dz_amp=6.0, m=7)
    rng = np.random.default_rng(5)
    omega0 = rng.uniform(-0.19, 0.19, size=(4, 3))
    lam0 = np.tile(eq3.lam_eq, (4, 1))
    noise = rng.uniform(-0.01, 0.01, size=(20, 4, 3))
    tp = Tape()
    chunks = ChunkTapes(adapter)
    leaves = {k: tp.leaf(np.array(v)) for k, v in adapter.raw.items()}
    loss, _ = episode_loss(
        chunks, net3, inc3, eq3, leaves, lam0, omega0, np.tile(net3.p_nom, (20, 1)), noise,
        40.0, 500.0, 5e-3,
    )
    assert loss.idx == len(tp) - 1 and tp.shapes[loss.idx] == ()
    kept = step_arrays(tp.aux[loss.idx])
    assert kept and all(a.ndim <= 3 for a in kept)
    assert not any({7, 8} & set(a.shape) for a in kept)
    tp.backward(loss)
    with pytest.raises(ValueError, match=f"node {loss.idx} "):
        tp.grad(loss)
    assert chunks.seen
    for chunk_tape, start, u in chunks.seen:
        state = chunk_tape.shapes[start]
        assert len(state) == 3 and state[1:] == (4, 3)
        assert all(chunk_tape.shapes[i] == state for i in range(start, len(chunk_tape)))
        counts = [a for a in cached_arrays(chunk_tape.aux[u.idx]) if a.dtype == np.uint8]
        assert counts and all(k.shape == (6,) + state for k in counts)
    grads = {k: tp.grad(leaf) for k, leaf in leaves.items()}
    assert all(grads[k].shape == adapter.raw[k].shape for k in grads)
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    assert any(np.any(g != 0.0) for g in grads.values())


def test_fully_active_39_bus_step_caches_no_more_than_six_nodes_did(net39, inc39, eq39):
    # B=8, every step live: the arrays the episode node keeps per step (the
    # states lam_k and omega_k, the noise and injection rows) take no more
    # than the six-node policy's step caches did
    adapter = fully_active_39(net39, inc39, eq39)
    rng = np.random.default_rng(6)
    omega0, noise = rng.uniform(-0.1, 0.1, (8, 39)), rng.uniform(-0.05, 0.05, (8, 8, 39))
    tp = Tape()
    leaves = {k: tp.leaf(np.array(v)) for k, v in adapter.raw.items()}
    loss, _ = episode_loss(adapter, net39, inc39, eq39, leaves, np.tile(eq39.lam_eq, (8, 1)), omega0,
                           np.tile(net39.p_nom, (8, 1)), noise, 40.0, 0.0, 5e-3)
    sweep = tp.aux[loss.idx]
    assert np.array_equal(np.concatenate(sweep.chunks), np.arange(8))
    kept = step_arrays(sweep)
    assert len(kept) == 4
    per_step = sum(a.nbytes for a in kept) / 8
    assert 0 < per_step <= SIX_NODE_STEP_CACHE_BYTES


@pytest.mark.parametrize("case", ["3-bus settling", "39-bus fully active"])
def test_backward_chunks_recompute_the_forward_controls_bitwise(request, spec_band, case):
    # every state a backward chunk re-runs is a live step of the rollout
    # (some bus active), none is re-run twice, a chunk holds at most
    # CHUNK_STATES / B steps, and the chunk's u equals the forward's as bytes
    if case.startswith("3"):
        net, inc, eq = (request.getfixturevalue(f"{name}3") for name in ("net", "inc", "eq"))
        adapter, batch, k_steps = make_adapter(net, inc, eq, spec_band, dz_amp=6.0), 4, 300
        omega0 = np.array([[0.15, -0.02, -0.14], [0.03, 0.0, -0.03], [0.01, 0.02, 0.0], [-0.1, 0.05, 0.12]])
    else:
        net, inc, eq = (request.getfixturevalue(f"{name}39") for name in ("net", "inc", "eq"))
        adapter, batch, k_steps = fully_active_39(net, inc, eq), 8, 40
        omega0 = np.random.default_rng(6).uniform(-0.1, 0.1, (batch, 39))
    noise = np.random.default_rng(8).uniform(-0.005, 0.005, (k_steps, batch, net.n_bus))
    log = ControlLog(adapter)
    loss_and_grad(log, net, inc, eq, adapter.raw, np.tile(eq.lam_eq, (batch, 1)), omega0,
                  np.tile(net.p_nom, (k_steps, 1)), noise, 40.0, 500.0, 5e-3)
    live = [key for key, (_, active) in log.forward.items() if active]
    rerun = [w.tobytes() for ws in log.chunk_omega for w in ws]
    assert sorted(rerun) == sorted(live) and 0 < len(live) <= k_steps
    assert max(len(ws) for ws in log.chunk_omega) <= -(-CHUNK_STATES // batch)
    for us, ws in zip(log.chunk_u, log.chunk_omega):
        for u, w in zip(us, ws):
            assert u.tobytes() == log.forward[w.tobytes()][0]


def episode_grid():
    """(kind, B, rho, noisy) of the gradient reference grid."""
    return [(kind, batch, rho, noisy) for kind in ("untrained", "fully active", "monotone")
            for batch in (1, 8, 50) for rho in (0.0, 500.0) for noisy in (False, True)]


@pytest.mark.parametrize("kind,batch,rho,noisy", episode_grid())
def test_gradients_match_the_per_step_taped_reference(net39, inc39, eq39, kind, batch, rho, noisy):
    # the one-node episode against the episode recorded step by step
    # (oracles.taped_episode_loss): losses and parts bitwise, every gradient
    # array within 1e-10 of its family's largest |entry|; a load step on bus
    # 5 mid-horizon moves settled batches out of their dead zones
    k_steps = 60
    if kind == "monotone":
        policy = init_monotone_params(39, 20, np.random.default_rng(3)).bind(
            SafetySpec.band(-0.2, 0.2, 39), net39, inc39, eq39)
    elif kind == "fully active":
        policy = fully_active_39(net39, inc39, eq39)
    else:
        policy = init_policy_params(39, 20, np.random.default_rng(3)).bind(
            SafetySpec.band(-0.2, 0.2, 39), net39, inc39, eq39)
    rng = np.random.default_rng(6)
    omega0 = rng.uniform(-0.1, 0.1, (batch, 39))
    noise = rng.uniform(-0.05, 0.05, (k_steps, batch, 39)) if noisy else None
    lam0 = np.tile(eq39.lam_eq, (batch, 1))
    if batch == 1:
        omega0, lam0, noise = omega0[0], lam0[0], None if noise is None else noise[:, 0]
    scen = Scenario(horizon=k_steps * 5e-3, dt=5e-3, disturbances=(Disturbance(5, -2.0, 0.05, 0.2),))
    args = (net39, inc39, eq39, policy.raw, lam0, omega0, injection_schedule(net39, scen, k_steps, 5e-3),
            noise, 40.0, rho, 5e-3)
    loss, parts, grads = loss_and_grad(policy, *args)
    ref_loss, ref_parts, ref_grads = taped_loss_and_grad(policy, *args)
    assert loss == ref_loss and parts == ref_parts
    assert any(np.any(g != 0.0) for g in ref_grads.values())
    for key in policy.keys:
        scale = np.abs(ref_grads[key]).max()
        assert np.abs(grads[key] - ref_grads[key]).max() <= 1e-10 * scale, key


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


class ThreeMethodPolicy:
    """A wrapper with only what a caller that recomposes the training loop
    forwards (the benchmark's traced adapter does so): keys, precompute and
    control, passing every argument on by position."""

    def __init__(self, inner):
        self.inner, self.keys = inner, inner.keys

    def precompute(self, raw_like):
        return self.inner.precompute(raw_like)

    def control(self, ready, *args):
        return self.inner.control(ready, *args)


def test_recomposed_loop_through_a_three_method_wrapper_gets_loss_and_grad_bitwise(net3, inc3, eq3, spec_band):
    # episode_loss on tape leaves, Tape.backward and Tape.grad through the
    # wrapper, with Adam between episodes, give loss_and_grad's losses,
    # parts and gradients as bytes
    adapter = make_adapter(net3, inc3, eq3, spec_band, dz_amp=6.0)
    wrapper = ThreeMethodPolicy(adapter)
    scen = Scenario(horizon=0.5, dt=5e-3, init_omega_range=0.15, init_p_frac=0.1, noise_bound=0.01)
    cfg = TrainConfig(episodes=3, steps=100, batch=4, rho=500.0, m_hidden=4)
    rng = np.random.default_rng(np.random.Philox(0))
    raw = {k: np.array(v) for k, v in adapter.raw.items()}
    state = AdamState.fresh(raw)
    p_steps = injection_schedule(net3, scen, cfg.steps, cfg.dt)
    for _ in range(cfg.episodes):
        omega0 = rng.uniform(-0.15, 0.15, (cfg.batch, 3))
        noise = rng.uniform(-0.01, 0.01, (cfg.steps, cfg.batch, 3))
        args = (net3, inc3, eq3, raw, np.tile(eq3.lam_eq, (cfg.batch, 1)), omega0, p_steps, noise,
                cfg.gamma, cfg.rho, cfg.dt)
        tp = Tape()
        leaves = {k: tp.leaf(raw[k]) for k in wrapper.keys}
        loss, parts = episode_loss(wrapper, *args[:3], leaves, *args[4:])
        tp.backward(loss)
        grads = {k: tp.grad(leaves[k]) for k in wrapper.keys}
        want_loss, want_parts, want_grads = loss_and_grad(adapter, *args)
        assert float(value(loss)) == want_loss and tuple(float(x) for x in parts) == want_parts
        assert all(grads[k].tobytes() == want_grads[k].tobytes() for k in adapter.keys)
        assert any(np.any(g != 0.0) for g in grads.values())
        raw = adam_step(raw, grads, state, cfg, adapter.keys)


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
    # at rho = 0 the variation sum never reaches the loss: the episode
    # neither sums it nor keeps the chunk tails' u that its adjoint reads,
    # which it keeps at rho > 0
    adapter = make_adapter(net3, inc3, eq3, spec_band, dz_amp=6.0)
    omega0 = np.random.default_rng(5).uniform(-0.19, 0.19, size=(4, 3))
    for rho in (0.0, 500.0):
        tp = Tape()
        leaves = {k: tp.leaf(np.array(v)) for k, v in adapter.raw.items()}
        loss, parts = episode_loss(
            adapter, net3, inc3, eq3, leaves, np.tile(eq3.lam_eq, (4, 1)), omega0,
            np.tile(net3.p_nom, (100, 1)), None, 40.0, rho, 5e-3,
        )
        sweep = tp.aux[loss.idx]
        assert (parts[2] == 0.0 and sweep.weights[2] == 0.0 and not sweep.tails) == (rho == 0.0)


class NanGradientStub(StubAdapter):
    """u = 0 * (1 / (x omega)) at x = 1e-200 with every bus active: zero
    control, a NaN derivative in omega, so a NaN costate."""

    keys = ("x",)
    raw = {"x": np.array([1e-200])}

    def __init__(self):
        super().__init__(None)

    def precompute(self, raw_like):
        return raw_like["x"]

    def control(self, ready, flows, omega, p):
        shape = np.shape(value(omega))
        u = 0.0 * (1.0 / (ready * omega))
        return ControlDecision(u=u, budgets=np.zeros(shape), active=np.ones(shape, dtype=bool))


def test_train_non_finite_gradient_is_a_training_error(net2, inc2, eq2):
    # the costate sweep meets the NaN at the last step first, going backward
    scen = Scenario(horizon=0.025, dt=5e-3, init_omega_range=0.1, init_p_frac=0.0)
    cfg = TrainConfig(episodes=2, steps=5, dt=5e-3, batch=1, m_hidden=4)
    with pytest.raises(TrainingError, match="^episode 0: non-finite adjoint at step 4, row 0, bus 0 ") as err:
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
    # a constrained episode with rho > 0 and active buses and a monotone
    # episode, each recorded step by step (the taped reference, which runs
    # the package's policy code on the tape), and the composed vector field
    # together record every op the tape has
    rules = set()
    policies = (
        (make_adapter(net3, inc3, eq3, spec_band, dz_amp=6.0), 500.0),
        (init_monotone_params(3, 4, np.random.default_rng(0)).bind(spec_band, net3, inc3, eq3), 0.0),
    )
    omega0 = np.array([[0.19, -0.15, 0.0], [0.05, -0.02, 0.01]])
    for policy, rho in policies:
        tp = Tape()
        leaves = {k: tp.leaf(v) for k, v in policy.raw.items()}
        taped_episode_loss(
            policy, net3, inc3, eq3, leaves, np.tile(eq3.lam_eq, (2, 1)), omega0,
            np.tile(net3.p_nom, (10, 1)), None, 40.0, rho, 5e-3,
        )
        rules |= set(tp.rules)
    tp = Tape()
    swing_rhs(net3, inc3, tp.leaf(eq3.lam_eq), tp.leaf(omega0[0]), tp.leaf(np.zeros(3)), net3.p_nom)
    rules |= set(tp.rules)
    assert tp_mod._bk_control_law in rules  # some bus left its dead zone
    assert {f for name, f in vars(tp_mod).items() if name.startswith("_bk_")} <= rules


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
