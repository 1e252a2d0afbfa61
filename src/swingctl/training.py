"""Training loop: discretized rollouts, loss, exact gradients, Adam.

The trainer runs the simulator's own closed loop (`dynamics.closed_loop`,
explicit Euler) on plain values, keeping the frequencies omega_k and, only
at the first step of each block of steps, the angles lam_k. It records the
whole episode as one tape node after the policy's per-rollout nodes. That
node's backward rule is the discrete adjoint (costate) recurrence of the
two Euler updates and the loss terms, swept step by step in reverse. The
policy is re-run there in time-batched chunks of live steps on a scratch
tape whose leaves are its ready tensors, rebound once per episode: u at a
bus reads only that bus's measured frequency and line flows, so its
Jacobian in them is diagonal and its adjoint is linear in the seed. u is
one node of a fused policy kernel, and its linearization (`factors`, from
one pass over the chunk's node) gives the exact per-entry derivatives the
recurrence multiplies by and a push of the chunk's u adjoints into the
policy tensors' adjoints (Griewank & Walther, *Evaluating Derivatives*,
SIAM 2008).
The sweep replays each block's angles from its mark and the kept omega_k
by the Euler angle update, bitwise, so memory per step is omega_k and a
mark's share of lam, not a taped step (checkpointed reverse mode:
Griewank & Walther, ACM TOMS 2000).

The policy is any bound policy (`controller.BoundPolicy`), so both policy
kinds train through the same code. A batch is carried as a leading axis on
the state arrays, and the sweep's order is fixed by construction (numpy's
reduction order per parameter entry), making training bit-reproducible for
a given seed.

Loss per episode of K rows (averaged over the batch):

    (1/K) sum_k [ gamma ||omega(k) - sync||^2 + ||u(k)||^2 ]
  + (rho/(K-1)) sum_k ||u(k) - u(k-1)||^2

Rows 0..K-1 take K-1 Euler steps; no step past the last row is taken. The
second term penalizes step-to-step control variation; with rho > 0 the
learned policy responds more smoothly to measurement noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from functools import partial
from typing import ClassVar

import numpy as np

from .controller import PolicyError
from .dynamics import (
    IntegrationError,
    Scenario,
    closed_loop,
    injection_schedule,
    line_flows,
    sample_initial_state,
)
from .equilibrium import Equilibrium
from .netgraph import Incidence, PowerNetwork
from .tape import Node, Tape, TapeError, _op_name, rebind, record, value


class TrainingError(RuntimeError):
    """Training diverged or produced a non-finite loss; carries the curve."""

    def __init__(self, msg: str, curve: list | None = None):
        super().__init__(msg)
        self.curve = curve or []


@dataclass
class TrainConfig:
    """Hyperparameters. Loss/optimizer defaults follow the reference protocol;
    steps/dt default to the desk scale (10 s at 5 ms)."""

    gamma: float = 40.0
    rho: float = 0.0
    lr: float = 0.05
    episodes: int = 150
    batch: int = 50
    steps: int = 2000
    dt: float = 5e-3
    m_hidden: int = 20
    seed: int = 0
    init_scale: float = 0.1
    dtilde_frac: float = 0.5
    # Constants, not settings: no run uses another value, so no file sets them.
    adam_beta1: ClassVar[float] = 0.9
    adam_beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8
    divergence_factor: ClassVar[float] = 1e3

    def __post_init__(self):
        for name in ("batch", "steps", "m_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("episodes", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        for name in ("gamma", "rho"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("lr", "init_scale"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.init_scale > np.finfo(float).max / 2:  # the initial draws span 2 * init_scale
            raise ValueError(f"init_scale must be at most half the largest float, got {self.init_scale}")

    def to_dict(self, kind: str = "constrained") -> dict:
        """The settings a run of policy `kind` reads: every field, less
        dtilde_frac for the monotone policy, which has no stability cap."""
        settings = asdict(self)
        if kind == "monotone":
            del settings["dtilde_frac"]
        return settings


# States (steps x batch rows) per chunk of the policy re-run in an episode's
# backward rule: enough to amortize a call over many steps at small batches,
# few enough that a chunk's scratch tape stays a few MB.
CHUNK_STATES = 128


def episode_loss(
    policy,
    net: PowerNetwork,
    inc: Incidence,
    eq: Equilibrium,
    raw_like: dict,
    lam0,
    omega0,
    p_steps: np.ndarray,
    noise: np.ndarray | None,
    gamma: float,
    rho: float,
    dt: float,
):
    """Rollout loss for one episode. `raw_like` holds tape leaves or arrays.

    lam0/omega0 may be single states (m,)/(n,) or batches (B, m)/(B, n);
    p_steps is (K, n); noise is (K, n) or (K, B, n) or None. Returns
    (loss, parts) where parts are the frequency/control/variation terms as
    plain scalars. The rollout runs on plain values (`dynamics.closed_loop`
    with the policy's ready tensors precomputed from the raw values). When
    raw_like holds leaves and the policy acts at some step, the loss is one
    tape node (`_bk_episode`) whose parents are the nodes of
    `policy.precompute(raw_like)`; otherwise the loss is a plain scalar.

    A step is live when its decision marks some bus active or its control
    is not exactly zero; any other step's control is constant (the
    constrained policy's settled short-circuit, or a monotone map at zero
    frequency, where relu'(0) = 0) and the backward rule skips it.
    """
    omega0 = np.asarray(omega0, dtype=float)
    lam0 = np.asarray(lam0, dtype=float)
    n_batch = omega0.shape[0] if omega0.ndim == 2 else 1
    k_steps = p_steps.shape[0]
    if k_steps == 0:
        return 0.0, (0.0, 0.0, 0.0)

    lip_on = rho > 0 and k_steps > 1  # at rho = 0 the term never reaches the loss
    span = -(-CHUNK_STATES // n_batch)  # live steps per chunk, and steps per block of the angle marks
    control = partial(policy.control, policy.precompute({k: value(v) for k, v in raw_like.items()}))
    marks, omegas = np.empty((-(-k_steps // span),) + lam0.shape), np.empty((k_steps,) + omega0.shape)
    live, n_live = np.zeros(k_steps, dtype=bool), 0
    tails = {}  # with the variation term: u at the last step of each full chunk
    freq = ctrl = lip = 0.0  # left-to-right sums of the per-step sums of squares
    u_prev = None
    for k, (lam, omega, dec) in enumerate(closed_loop(net, inc, control, lam0, omega0, p_steps, dt, noise)):
        if k % span == 0:
            marks[k // span] = lam
        omegas[k] = omega
        d = omega - eq.omega_sync
        freq = freq + (d * d).sum()
        ctrl = ctrl + (dec.u * dec.u).sum()
        if lip_on and u_prev is not None:
            d = dec.u - u_prev
            lip = lip + (d * d).sum()
        u_prev = dec.u
        if dec.active.any() or dec.u.any():
            live[k], n_live = True, n_live + 1
            if lip_on and n_live % span == 0:
                tails[k] = dec.u

    scale = 1.0 / (k_steps * n_batch)
    lip_scale = 1.0 / ((k_steps - 1) * n_batch) if lip_on else 0.0
    parts = (gamma * freq * scale, ctrl * scale, rho * lip * lip_scale if lip_on else 0.0)
    loss = parts[0] + parts[1] + parts[2]
    if not (live.any() and any(isinstance(v, Node) for v in raw_like.values())):
        return loss, parts
    scratch = Tape()
    template, nodes, _ = rebind(policy.precompute(raw_like), scratch)
    steps = np.flatnonzero(live)
    sweep = _Sweep(
        policy=policy, net=net, inc=inc, omega_sync=eq.omega_sync, dt=dt, tape=scratch, template=template,
        marks=marks, omegas=omegas, span=span, noise=noise, p_steps=p_steps, tails=tails,
        chunks=[steps[i:i + span] for i in range(0, len(steps), span)],
        weights=(gamma * scale, scale, rho * lip_scale),
    )
    return record(_bk_episode, tuple(nodes), sweep, np.asarray(loss)), parts


@dataclass
class _Sweep:
    """What an episode node's backward rule reads: the policy, the rollout's
    frequencies omega_k (K, ...) and its angles only at the first step of
    each block of `span` steps (`marks`, from which `angles` replays the
    rest), its inputs, the live steps in chunks in time order, u at the
    chunk tails the variation term needs, the loss weights of the three
    sums of squares, and `template`, the policy's ready tensors with their
    nodes rebound once per episode as the leaves of `tape`, in the order of
    the episode node's parents (leaf i is entry i), so no Node of the
    episode's own tape is held."""

    policy: object
    net: PowerNetwork
    inc: Incidence
    omega_sync: object
    dt: float
    tape: Tape
    template: object
    marks: np.ndarray
    omegas: np.ndarray
    span: int
    noise: np.ndarray | None
    p_steps: np.ndarray
    tails: dict
    chunks: list
    weights: tuple

    def angles(self, lo: int, hi: int) -> np.ndarray:
        """lam_k for lo <= k < hi, lo the first step of a block and hi at
        most the next one's: the block's mark, then `dynamics.euler_step`'s
        angle update one step at a time at the step's own shape, so bitwise
        the rollout's angles."""
        out = np.empty((hi - lo,) + self.marks.shape[1:])
        out[0] = self.marks[lo // self.span]
        for k in range(lo + 1, hi):
            out[k - lo] = out[k - lo - 1] + self.dt * (self.omegas[k - 1] @ self.inc.b_mat)
        return out


class _Chunk:
    """The policy re-run at one chunk of live steps on the sweep's tape: u
    and its per-entry derivatives in the measured frequency and the line
    flows (u at an entry reads only that entry's frequency and flows). The
    angles at the steps from `lo` on are rows of `lams`, the costate's
    block; those in earlier blocks are replayed from their marks. u must be
    one node of a per-entry kernel on those states, whose rule's `factors`
    give, from one pass over the node's cache, the derivatives and a push
    of the chunk's u adjoints into the ready tensors' adjoints; the chunk's
    entries then leave the tape. A TypeError names any other op."""

    def __init__(self, sw: _Sweep, steps: np.ndarray, lo: int, lams: np.ndarray):
        tape, ndim = sw.tape, sw.omegas.ndim
        self.steps, self.shapes, self.n_ready = steps, tape.shapes, len(tape)
        parts = []
        for block in dict.fromkeys((steps[steps < lo] // sw.span).tolist()):  # earlier blocks: replayed
            first = block * sw.span
            own = steps[(steps >= first) & (steps < first + sw.span)]
            parts.append(sw.angles(first, own[-1] + 1)[own - first])
        parts.append(lams[steps[steps >= lo] - lo])
        flows = tape.leaf(np.stack([line_flows(sw.inc, lam) for lam in np.concatenate(parts)]))
        measured = sw.omegas[steps] if sw.noise is None else sw.omegas[steps] + _rows(sw.noise, steps, ndim)
        omega = tape.leaf(measured)
        node = sw.policy.control(sw.template, flows, omega, _rows(sw.p_steps, steps, ndim)).u
        self.u, self.u_bar, self.push = value(node), np.empty(measured.shape), None
        self.du_domega = self.du_dflows = np.zeros(measured.shape)
        if isinstance(node, Node):
            factors = getattr(tape.rules[node.idx], "factors", None)
            derivs, self.push = factors(tape.aux[node.idx], tape.parents[node.idx]) if factors else ({}, None)
            self.du_domega = derivs.pop(omega.idx, self.du_domega)
            self.du_dflows = derivs.pop(flows.idx, self.du_dflows)
            if factors is None or derivs:  # no linearization, or one in a state reached through another node
                raise TypeError(f"the policy's u is op '{_op_name(tape.rules[node.idx])}': training needs one "
                                "per-entry kernel node (a rule with `factors`) on the measured states")
        tape.truncate(self.n_ready)

    def policy_adjoints(self) -> list:
        """Per ready leaf, its adjoint for the chunk's u adjoints u_bar, or
        None when none reaches it."""
        adj = [None] * self.n_ready
        if self.push is not None:
            self.push(self.u_bar, self.shapes, adj)
        return adj


def _rows(block: np.ndarray, steps: np.ndarray, ndim: int) -> np.ndarray:
    """block[steps] with unit axes after the first, to broadcast against
    (steps,) + state arrays of `ndim` axes."""
    a = block[steps]
    return a.reshape(a.shape[:1] + (1,) * (ndim - a.ndim) + a.shape[1:])


def _bk_episode(g, par, aux, shapes, adj, check_finite=False):
    # The discrete adjoint of the rollout, in reverse step order. wbar and
    # lbar are the costates of omega_k and lam_k: each takes the Euler
    # updates' shares from step k + 1 and the frequency term's, and at a
    # live step the policy's, u_bar times u's per-entry derivatives; u_bar
    # sums the rate's share and the control and variation terms'. A live
    # step's u and derivatives come from its chunk (`_Chunk`), re-run when
    # the sweep reaches the chunk's last step; once it passes the chunk's
    # first, the chunk's u_bar gives the ready tensors' adjoints, summed
    # over chunks and handed to `par`. The sweep replays a block's angles
    # from its mark when it enters the block (`_Sweep.angles`) and forms
    # cos(lam_k) and the frequency term's seed for the block at once; a
    # chunk reads its steps in that block from there and replays those in
    # earlier blocks, so each angle update is replayed at most twice.
    sw = aux
    net, inc = sw.net, sw.inc
    w_freq, w_ctrl, w_lip = (2.0 * g * w for w in sw.weights)  # slopes of the three sums of squares
    dt_m, b_dt = sw.dt / net.inertia, sw.dt * inc.b_mat.T  # of the rate u + p - D omega - flows; of lam's update
    k_steps = len(sw.omegas)
    lbar, wbar = np.zeros(sw.marks.shape[1:]), np.zeros(sw.omegas.shape[1:])
    totals = [None] * len(par)
    chunks, cur, j, u_after, lo = list(sw.chunks), None, -1, None, k_steps
    for k in range(k_steps - 1, -1, -1):
        if k < lo:
            lo = k - k % sw.span
            lams = sw.angles(lo, k + 1)
            cos_lam, seed = np.cos(lams), w_freq * (sw.omegas[lo:k + 1] - sw.omega_sync)
        gr = wbar * dt_m
        f_bar = -gr
        wbar = wbar - gr * net.damping + lbar @ b_dt + seed[k - lo]
        if cur is None and chunks and chunks[-1][-1] == k:
            cur = _Chunk(sw, chunks.pop(), lo, lams)
            j = len(cur.steps) - 1
        if cur is not None and cur.steps[j] == k:
            u = cur.u[j]
            u_bar = gr + w_ctrl * u
            if w_lip and k > 0:
                before = cur.u[j - 1] if j > 0 and cur.steps[j - 1] == k - 1 else sw.tails.get(k - 1, 0.0)
                u_bar = u_bar + w_lip * (u - before)
            if w_lip and k < k_steps - 1:
                u_bar = u_bar - w_lip * ((0.0 if u_after is None else u_after) - u)
            cur.u_bar[j] = u_bar
            f_bar = f_bar + u_bar * cur.du_dflows[j]
            wbar = wbar + u_bar * cur.du_domega[j]
            u_after, j = u, j - 1
            if j < 0:
                for i, a in enumerate(cur.policy_adjoints()):
                    if a is not None:
                        totals[i] = a if totals[i] is None else totals[i] + a
                cur = None
        else:
            u_after = None
        lbar = lbar + (f_bar @ inc.by_mat) * cos_lam[k - lo]
        if check_finite:
            for what, bar in (("bus", wbar), ("edge", lbar)):
                if not np.all(np.isfinite(bar)):
                    *row, at = np.argwhere(~np.isfinite(bar))[0]
                    raise TapeError(
                        f"non-finite adjoint at step {k}, row {row[0] if row else 0}, {what} {at} "
                        "in the episode's costate sweep"
                    )
    for i, total in zip(par, totals):
        if i is not None and total is not None:
            adj[i] = total if adj[i] is None else adj[i] + total


_bk_episode.checked = partial(_bk_episode, check_finite=True)


def loss_and_grad(policy, net, inc, eq, raw_values, lam0, omega0, p_steps, noise, gamma, rho, dt):
    """Episode loss plus exact gradients for every raw parameter array.

    A loss that never reaches the tape (an empty horizon, or an episode
    spent inside every dead zone) is constant and gets zero gradients. A
    non-finite gradient triggers a second, checked reverse sweep that names
    where it arose: the step, batch row and bus of the episode's first
    non-finite costate, or else the first offending tape node.
    """
    tp = Tape()
    leaves = {k: tp.leaf(raw_values[k]) for k in policy.keys}
    loss, parts = episode_loss(
        policy, net, inc, eq, leaves, lam0, omega0, p_steps, noise, gamma, rho, dt
    )
    part_vals = tuple(float(value(p)) for p in parts)
    if not isinstance(loss, Node):
        return float(loss), part_vals, {k: np.zeros_like(raw_values[k]) for k in policy.keys}
    tp.backward(loss)
    grads = {k: tp.grad(leaves[k]) for k in policy.keys}
    if any(not np.all(np.isfinite(g)) for g in grads.values()):
        tp.backward(loss, check_finite=True)  # raises TapeError at the source
        raise TrainingError("non-finite gradient with finite adjoints")
    return float(value(loss)), part_vals, grads


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @staticmethod
    def fresh(raw: dict) -> "AdamState":
        return AdamState(
            m={k: np.zeros_like(v) for k, v in raw.items()},
            v={k: np.zeros_like(v) for k, v in raw.items()},
            t=0,
        )


def adam_step(raw: dict, grads: dict, state: AdamState, cfg: TrainConfig, keys) -> dict:
    """One Adam update; returns new raw dict, mutates the moment state."""
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    state.t += 1
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    out = {}
    for k in keys:
        g = grads[k]
        state.m[k] = b1 * state.m[k] + (1.0 - b1) * g
        state.v[k] = b2 * state.v[k] + (1.0 - b2) * g * g
        m_hat = state.m[k] / corr1
        v_hat = state.v[k] / corr2
        out[k] = raw[k] - cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


@dataclass
class TrainResult:
    params: object
    curve: np.ndarray  # columns: episode, loss, loss_freq, loss_ctrl, loss_lip
    final_loss: float = field(default=np.nan)


def train(
    policy,
    net: PowerNetwork,
    inc: Incidence,
    eq: Equilibrium,
    scenario: Scenario,
    cfg: TrainConfig,
    progress=None,
) -> TrainResult:
    """Run the episode loop and return trained parameters plus the curve.

    Per episode (all randomness from one counter-based stream, in this order):
    batch initial states, then the per-step measurement noise block. The
    structural invariants of the parameterization are validated before the
    first episode and after every update; a policy that breaks them, a loss
    above divergence_factor times the first episode's, a non-finite one, a
    state that leaves the representable range, or a non-finite gradient
    aborts with a TrainingError that names the episode and carries the
    partial curve (the rows of the episodes whose loss was computed).
    """
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    p_steps = injection_schedule(net, scenario, cfg.steps, cfg.dt)
    raw = {k: np.array(v, dtype=float) for k, v in policy.raw.items()}
    try:
        policy.validate(policy.precompute(raw))
    except PolicyError as e:
        raise TrainingError(f"initial policy: {e}") from e
    state = AdamState.fresh(raw)
    curve_rows = []
    first_loss = None

    for ep in range(cfg.episodes):
        states = [sample_initial_state(net, inc, scenario, rng) for _ in range(cfg.batch)]
        lam0, omega0 = (np.stack(part) for part in zip(*states))
        noise = None
        if scenario.noise_bound > 0:
            noise = rng.uniform(
                -scenario.noise_bound, scenario.noise_bound, (cfg.steps, cfg.batch, net.n_bus)
            )
        try:
            loss, parts, grads = loss_and_grad(
                policy, net, inc, eq, raw, lam0, omega0, p_steps, noise, cfg.gamma, cfg.rho, cfg.dt
            )
        except (IntegrationError, TapeError) as e:
            raise TrainingError(f"episode {ep}: {e}", curve_rows) from e
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at episode {ep}", curve_rows)
        if first_loss is None:
            first_loss = loss
        elif loss > cfg.divergence_factor * max(first_loss, 1e-12):
            raise TrainingError(
                f"divergence at episode {ep}: loss {loss:.6g} vs initial {first_loss:.6g}",
                curve_rows,
            )
        raw = adam_step(raw, grads, state, cfg, policy.keys)
        curve_rows.append((float(ep), loss, parts[0], parts[1], parts[2]))
        try:
            policy.validate(policy.precompute(raw))
        except PolicyError as e:
            raise TrainingError(f"episode {ep}: the update broke the policy: {e}", curve_rows) from e
        if progress is not None:
            progress(ep, loss, parts)

    curve = np.asarray(curve_rows, dtype=float).reshape(-1, 5)
    final = curve[-1, 1] if curve_rows else np.nan
    return TrainResult(params=policy.rebuild(raw), curve=curve, final_loss=final)
