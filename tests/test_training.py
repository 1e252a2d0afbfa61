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
from swingctl.dynamics import Disturbance, Scenario, closed_loop, injection_schedule
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
    # the episode re-runs the policy at the steps of the blocks that hold a
    # live step only, and on the per-step taped reference the short-circuit
    # records fewer nodes
    log = ControlLog(adapter)
    loss_and_grad(log, *args)
    span = -(-CHUNK_STATES // 2)
    blocks = {k // span for k, a in enumerate(act) if a}
    assert sorted(k for steps in log.reruns() for k in steps) == [k for k in range(300) if k // span in blocks]
    assert len(blocks) < -(-300 // span)
    assert_reruns_are_the_live_blocks(log, span)
    nodes = []
    for policy in (adapter, full):
        tp = Tape()
        leaves = {k: tp.leaf(np.array(v)) for k, v in adapter.raw.items()}
        taped_episode_loss(policy, *args[:3], leaves, *args[4:])
        nodes.append(len(tp))
    assert nodes[0] < nodes[1]


class ControlLog:
    """Forwards to a bound policy and logs its control calls: at each of the
    rollout's states (shape (B, n) or (n,)), in step order, the measured
    frequency, u and whether some bus is active; at each stack of a
    backward chunk's states, the chunk's u and measured frequency."""

    def __init__(self, policy):
        self.policy, self.keys = policy, policy.keys
        self.forward, self.chunk_u, self.chunk_omega = [], [], []

    def precompute(self, raw_like):
        return self.policy.precompute(raw_like)

    def control(self, ready, flows, omega, p):
        dec = self.policy.control(ready, flows, omega, p)
        w, u = np.asarray(value(omega)), np.asarray(value(dec.u))
        if isinstance(omega, tp_mod.Node):
            self.chunk_u.append(u)
            self.chunk_omega.append(w)
        else:
            self.forward.append((w, u, bool(dec.active.any())))
        return dec

    def live(self) -> list:
        """Per rollout step, whether some bus is active or u is nonzero."""
        return [active or bool(u.any()) for _, u, active in self.forward]

    def reruns(self) -> list:
        """Per backward chunk, in call order, the rollout steps whose
        measured frequencies it re-ran, matched by their bytes."""
        step = {w.tobytes(): k for k, (w, _, _) in enumerate(self.forward)}
        return [[step[w.tobytes()] for w in ws] for ws in self.chunk_omega]


def assert_reruns_are_the_live_blocks(log, span, bitwise=True):
    """The backward chunks in `log` re-run, from the last block to the
    first, each block of `span` steps that holds a live step and no other,
    each as its own consecutive steps (so no step twice), and each re-run u
    equals the forward's as bytes, settled steps included (or, without
    `bitwise`, to rounding)."""
    k_steps, live = len(log.forward), log.live()
    blocks = [lo for lo in range(0, k_steps, span) if any(live[lo:lo + span])]
    assert [steps[0] for steps in log.reruns()] == blocks[::-1] and blocks
    for steps, us in zip(log.reruns(), log.chunk_u):
        assert steps == list(range(steps[0], min(steps[0] + span, k_steps)))
        forward = np.stack([log.forward[k][1] for k in steps])
        assert us.tobytes() == forward.tobytes() if bitwise else np.allclose(us, forward, rtol=1e-12, atol=0.0)


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
    # B=8, fully active, rho = 500: what an episode's tape keeps beyond its
    # inputs grows by at most (n + (m + n)/S) B 8 + 32 bytes per step, S =
    # CHUNK_STATES / B steps per block: omega_k, a block's share of its
    # angle mark, of u at its last step and of its live flag and
    # bookkeeping; not by lam_k nor a taped step's caches
    adapter = fully_active_39(net39, inc39, eq39)
    n, m, batch = 39, inc39.b_mat.shape[1], 8
    span = -(-CHUNK_STATES // batch)
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
    assert 0 < (held[1] - held[0]) / 400 <= (n + (m + n) / span) * batch * 8 + 32


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
    """The arrays an episode node keeps with one row per step or per block
    of steps: the rollout's frequencies, its angle marks and the inputs it
    re-reads."""
    rows = {(len(sweep.omegas),), (len(sweep.marks),)}
    fields = (sweep.marks, sweep.omegas, sweep.noise, sweep.p_steps)
    return [a for a in {id(a): a for a in cached_arrays(fields)}.values() if a.shape[:1] in rows]


def test_batched_episode_tape_stores_no_unit_temporaries(net3, inc3, eq3, spec_band):
    # B=4, K=20 and 7 units: the episode tape ends in the one 0-d episode
    # node, and no array it keeps per step has a unit axis, (B, n, m) or
    # (B, 6, n, m + 1)
    adapter = make_adapter(net3, inc3, eq3, spec_band, dz_amp=6.0, m=7)
    rng = np.random.default_rng(5)
    omega0 = rng.uniform(-0.19, 0.19, size=(4, 3))
    lam0 = np.tile(eq3.lam_eq, (4, 1))
    noise = rng.uniform(-0.01, 0.01, size=(20, 4, 3))
    tp = Tape()
    leaves = {k: tp.leaf(np.array(v)) for k, v in adapter.raw.items()}
    loss, _ = episode_loss(
        adapter, net3, inc3, eq3, leaves, lam0, omega0, np.tile(net3.p_nom, (20, 1)), noise,
        40.0, 500.0, 5e-3,
    )
    assert loss.idx == len(tp) - 1 and tp.shapes[loss.idx] == ()
    kept = step_arrays(tp.aux[loss.idx])
    assert kept and all(a.ndim <= 3 for a in kept)
    assert not any({7, 8} & set(a.shape) for a in kept)
    tp.backward(loss)
    with pytest.raises(ValueError, match=f"node {loss.idx} "):
        tp.grad(loss)
    grads = {k: tp.grad(leaf) for k, leaf in leaves.items()}
    assert all(grads[k].shape == adapter.raw[k].shape for k in grads)
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    assert any(np.any(g != 0.0) for g in grads.values())


def test_each_backward_chunk_runs_the_control_law_and_its_factor_pass_once(net3, inc3, eq3, spec_band,
                                                                            monkeypatch):
    # B=4, rho = 500, noise on: a live chunk makes one policy kernel call on
    # the tape (its states' shape, after the forward's values-only calls at
    # the live steps) and one linearization of that node, and no reverse
    # sweep runs but the episode's own, for the constrained policy
    # (control_law) and the monotone one (unit_sums). The chunk records
    # nodes of its states' shape only, the kernel node's active-unit counts,
    # one per live branch and entry, take one byte each, and the chunk's u
    # equals the forward's as bytes
    import swingctl.controller as controller_mod

    rng = np.random.default_rng(5)
    omega0 = rng.uniform(-0.19, 0.19, size=(4, 3))
    noise = rng.uniform(-0.01, 0.01, size=(60, 4, 3))
    backward, sweeps = Tape.backward, []
    monkeypatch.setattr(Tape, "backward", lambda self, *a, **kw: sweeps.append(a) or backward(self, *a, **kw))
    policies = (("control_law", make_adapter(net3, inc3, eq3, spec_band, dz_amp=6.0, m=7), (6,)),
                ("unit_sums", init_monotone_params(3, 7, np.random.default_rng(1)).bind(spec_band, net3, inc3, eq3), ()))
    for kernel, adapter, count_axes in policies:
        calls, factored = [], []
        law, factors = getattr(controller_mod, kernel), getattr(tp_mod, f"_bk_{kernel}").factors

        def spy_law(*args, law=law):
            out = law(*args)
            u = out[0] if kernel == "control_law" else out
            if isinstance(u, tp_mod.Node):
                t, omega = u.tape, args[1] if kernel == "control_law" else args[0][0][1]
                counts = [a for a in cached_arrays(t.aux[u.idx]) if a.dtype == np.uint8]
                calls.append((t.shapes[omega.idx], [t.shapes[i] for i in range(omega.idx, len(t))], counts))
            else:
                calls.append(None)
            return out

        monkeypatch.setattr(controller_mod, kernel, spy_law)
        monkeypatch.setattr(getattr(tp_mod, f"_bk_{kernel}"), "factors",
                            lambda aux, par, factors=factors: factored.append(len(calls)) or factors(aux, par))
        sweeps.clear()
        log = ControlLog(adapter)
        loss_and_grad(log, net3, inc3, eq3, adapter.raw, np.tile(eq3.lam_eq, (4, 1)), omega0,
                      np.tile(net3.p_nom, (60, 1)), noise, 40.0, 500.0, 5e-3)
        chunks = [i + 1 for i, call in enumerate(calls) if call is not None]
        assert len(chunks) == len(log.chunk_u) > 1 and factored == chunks and len(sweeps) == 1, kernel
        if kernel == "control_law":
            assert len(calls) - len(chunks) == sum(active for _, _, active in log.forward)
        for state, shapes, counts in filter(None, calls):
            assert len(state) == 3 and state[1:] == (4, 3) and all(s == state for s in shapes)
            assert counts and all(k.shape == count_axes + state for k in counts)
        assert_reruns_are_the_live_blocks(log, CHUNK_STATES // 4)


def test_fully_active_39_bus_step_caches_no_more_than_six_nodes_did(net39, inc39, eq39):
    # B=8, K=40, every step live: the arrays the episode node keeps (the
    # frequencies omega_k, the noise and injection rows, and lam at the
    # first step of each of the 3 blocks of 16 steps) take no more per step
    # than the six-node policy's step caches did
    adapter = fully_active_39(net39, inc39, eq39)
    rng = np.random.default_rng(6)
    omega0, noise = rng.uniform(-0.1, 0.1, (8, 39)), rng.uniform(-0.05, 0.05, (40, 8, 39))
    tp = Tape()
    log = ControlLog(adapter)
    leaves = {k: tp.leaf(np.array(v)) for k, v in adapter.raw.items()}
    loss, _ = episode_loss(log, net39, inc39, eq39, leaves, np.tile(eq39.lam_eq, (8, 1)), omega0,
                           np.tile(net39.p_nom, (40, 1)), noise, 40.0, 0.0, 5e-3)
    sweep = tp.aux[loss.idx]
    assert sweep.span == 16 and sweep.marks.shape == (3, 8, inc39.b_mat.shape[1])
    kept = step_arrays(sweep)
    assert len(kept) == 4
    per_step = sum(a.nbytes for a in kept) / 40
    assert 0 < per_step <= SIX_NODE_STEP_CACHE_BYTES
    tp.backward(loss)
    assert log.reruns() == [list(range(32, 40)), list(range(16, 32)), list(range(16))]
    assert_reruns_are_the_live_blocks(log, 16)


@pytest.mark.parametrize("case", ["3-bus settling", "39-bus fully active"])
def test_backward_chunks_recompute_the_forward_controls_bitwise(request, spec_band, case):
    # each backward chunk re-runs one block of CHUNK_STATES / B consecutive
    # steps, no step is re-run twice, a block without a live step (some bus
    # active) is not re-run, and each re-run u equals the forward's as
    # bytes, settled steps included
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
    assert len(log.forward) == k_steps
    assert_reruns_are_the_live_blocks(log, -(-CHUNK_STATES // batch))


def load_step_episode(net39, inc39, eq39, policy, batch, k_steps, noisy=False, rho=500.0):
    """(args, lam_k): the arguments after the raws of `loss_and_grad` for a
    39-bus episode from the synchronous angles with a load step on bus 5
    mid-horizon, which moves settled batches out of their dead zones, and
    the rollout's angles from `closed_loop` (K, ...)."""
    rng = np.random.default_rng(6)
    omega0, lam0 = rng.uniform(-0.1, 0.1, (batch, 39)), np.tile(eq39.lam_eq, (batch, 1))
    noise = rng.uniform(-0.05, 0.05, (k_steps, batch, 39)) if noisy else None
    if batch == 1:
        omega0, lam0, noise = omega0[0], lam0[0], None if noise is None else noise[:, 0]
    scen = Scenario(horizon=k_steps * 5e-3, dt=5e-3, disturbances=(Disturbance(5, -2.0, 0.05, 0.2),))
    p_steps = injection_schedule(net39, scen, k_steps, 5e-3)
    control = partial(policy.control, policy.precompute(policy.raw))
    lams = np.stack([lam for lam, _, _ in closed_loop(net39, inc39, control, lam0, omega0, p_steps, 5e-3, noise)])
    return (lam0, omega0, p_steps, noise, 40.0, rho, 5e-3), lams


def untrained_39(net39, inc39, eq39):
    return init_policy_params(39, 20, np.random.default_rng(3)).bind(
        SafetySpec.band(-0.2, 0.2, 39), net39, inc39, eq39)


@pytest.mark.parametrize("batch,k_steps", [(1, 300), (8, 53)])
def test_replayed_angles_are_the_rollouts_as_bytes(net39, inc39, eq39, monkeypatch, batch, k_steps):
    # the untrained policy is live at some steps only, so some live block of
    # S = CHUNK_STATES / B steps holds settled steps, and K is no multiple
    # of S: every block's angles replayed from its mark, and the angles each
    # chunk computes its line flows from, equal closed_loop's lam_k as bytes
    import swingctl.training as training_mod

    policy = untrained_39(net39, inc39, eq39)
    args, lams = load_step_episode(net39, inc39, eq39, policy, batch, k_steps)
    read, line_flows = [], training_mod.line_flows
    monkeypatch.setattr(training_mod, "line_flows", lambda inc, lam: read.append(lam.tobytes()) or line_flows(inc, lam))
    tp = Tape()
    log = ControlLog(policy)
    leaves = {k: tp.leaf(np.array(v)) for k, v in policy.raw.items()}
    loss, _ = episode_loss(log, net39, inc39, eq39, leaves, *args)
    sweep, span = tp.aux[loss.idx], -(-CHUNK_STATES // batch)
    assert sweep.span == span and k_steps % span and len(sweep.marks) == -(-k_steps // span)
    blocks = [sweep.angles(lo, min(lo + span, k_steps)) for lo in range(0, k_steps, span)]
    assert np.concatenate(blocks).tobytes() == lams.tobytes()
    tp.backward(loss)
    live = log.live()
    assert any(not live[k] for steps in log.reruns() for k in steps) and not all(live)
    assert read == [lams[k].tobytes() for steps in log.reruns() for k in steps]
    assert_reruns_are_the_live_blocks(log, span)


@pytest.mark.parametrize("kind,batch,k_steps", [("untrained", 1, 300), ("untrained", 8, 53), ("untrained", 8, 200),
                                                ("fully active", 8, 200), ("fully active", 1, 300)])
def test_an_episode_replays_each_angle_update_once(net39, inc39, eq39, monkeypatch, kind, batch, k_steps):
    # angles(lo, hi) steps from lo, a block's first step, to hi - 1: the
    # backward replays each block once, K - ceil(K / S) updates in all for
    # blocks of S = CHUNK_STATES / B steps, live or not
    import swingctl.training as training_mod

    policy = (untrained_39 if kind == "untrained" else fully_active_39)(net39, inc39, eq39)
    args, _ = load_step_episode(net39, inc39, eq39, policy, batch, k_steps)
    spans, angles = [], training_mod._Sweep.angles
    monkeypatch.setattr(training_mod._Sweep, "angles",
                        lambda sw, lo, hi: spans.append(hi - 1 - lo) or angles(sw, lo, hi))
    loss_and_grad(policy, net39, inc39, eq39, policy.raw, *args)
    n_blocks = -(-k_steps // -(-CHUNK_STATES // batch))
    assert len(spans) == n_blocks and sum(spans) == k_steps - n_blocks


def test_a_batch_1_episode_lays_its_chunks_over_the_steps_layout(net39, inc39, eq39):
    # fully active, B=1, K=300: chunks of (44, 39) and (128, 39) states,
    # one per block, run on the control law's layout for one step's (39,)
    # states, broadcast over the chunk's steps, so the template caches no
    # layout per chunk
    policy = fully_active_39(net39, inc39, eq39)
    args, _ = load_step_episode(net39, inc39, eq39, policy, 1, 300)
    tp = Tape()
    log = ControlLog(policy)
    leaves = {k: tp.leaf(np.array(v)) for k, v in policy.raw.items()}
    loss, _ = episode_loss(log, net39, inc39, eq39, leaves, *args)
    tp.backward(loss)
    sweep = tp.aux[loss.idx]
    assert [ws.shape for ws in log.chunk_omega] == [(44, 39), (128, 39), (128, 39)]
    # a batch-1 step's budgets are a vector-matrix product, a chunk's a
    # matrix product, so a re-run u may differ from the forward's in its
    # last bits
    assert_reruns_are_the_live_blocks(log, 128, bitwise=False)
    assert list(sweep.template.units[5]) == [(39,)]


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
    if kind == "monotone":
        policy = init_monotone_params(39, 20, np.random.default_rng(3)).bind(
            SafetySpec.band(-0.2, 0.2, 39), net39, inc39, eq39)
    else:
        policy = (fully_active_39 if kind == "fully active" else untrained_39)(net39, inc39, eq39)
    episode, _ = load_step_episode(net39, inc39, eq39, policy, batch, 60, noisy, rho)
    args = (net39, inc39, eq39, policy.raw, *episode)
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
    # neither sums it nor keeps u at the live blocks' last steps that its
    # adjoint reads, which it keeps at rho > 0
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


@tp_mod._linearized
def _bk_nan_slope(aux, par):
    # u = 0 * (1 / (x omega)): its slope in omega, -0 x / (x omega)^2, is
    # 0 / 0 where (x omega)^2 underflows; x gets 0 * u_bar
    x, omega = aux
    xw = x * omega
    return {par[0]: -0.0 * x / (xw * xw)}, lambda u_bar, shapes, adj: tp_mod._acc(adj, shapes, par[1], 0.0 * u_bar)


class NanGradientStub(StubAdapter):
    """u = 0 * (1 / (x omega)) at x = 1e-200 with every bus active, as one
    node of a per-entry kernel: zero control, a NaN derivative in omega, so
    a NaN costate."""

    keys = ("x",)
    raw = {"x": np.array([1e-200])}

    def __init__(self):
        super().__init__(None)

    def precompute(self, raw_like):
        return raw_like["x"]

    def control(self, ready, flows, omega, p):
        shape = np.shape(value(omega))
        u = tp_mod.record(_bk_nan_slope, (omega, ready), (value(ready), value(omega)), np.zeros(shape))
        return ControlDecision(u=u, budgets=np.zeros(shape), active=np.ones(shape, dtype=bool))


class ComposedStub(NanGradientStub):
    """u = build(x, omega) on the tape."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def control(self, ready, flows, omega, p):
        shape = np.shape(value(omega))
        return ControlDecision(u=self.build(ready, omega), budgets=np.zeros(shape), active=np.ones(shape, dtype=bool))


IDENTITY_UNITS = (np.array([[0.0, 1.0]] * 2), np.zeros((2, 2)), np.array([[-np.inf, np.inf]] * 2))  # u = x per bus


@pytest.mark.parametrize("op, build", [
    ("mul", lambda x, omega: x * omega),
    ("unit_sums", lambda x, omega: tp_mod.unit_sums(((IDENTITY_UNITS, x * omega, 1.0),))),
])
def test_a_policy_whose_u_is_composed_is_a_type_error_naming_the_op(net2, inc2, eq2, op, build):
    # a training chunk reads u's linearization from its one node: a u built
    # of tape ops has none, and a kernel's in a state formed by another node
    # does not reach the measured one; the backward names the op it got
    args = (net2, inc2, eq2, ComposedStub.raw, eq2.lam_eq, np.array([0.1, -0.1]), np.tile(net2.p_nom, (5, 1)), None,
            40.0, 0.0, 5e-3)
    with pytest.raises(TypeError, match=f"^the policy's u is op '{op}': "):
        loss_and_grad(ComposedStub(build), *args)


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
    # the package's policy code on the tape), together record every op the
    # tape has
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
