"""Training loop: discretized rollouts, loss, exact gradients, Adam.

The trainer runs the simulator's own closed loop (`dynamics.closed_loop`,
explicit Euler) on autodiff tape leaves and backpropagates through the whole
rollout. The policy is any bound policy (`controller.BoundPolicy`), so both
policy kinds train through the same code. A batch is carried as a leading
axis on the state arrays, so one tape serves the entire episode and gradient
accumulation order is fixed by construction (numpy's reduction order per
parameter entry), making training bit-reproducible for a given seed.

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

import numpy as np

from .controller import PolicyError
from .dynamics import (
    IntegrationError,
    Scenario,
    closed_loop,
    injection_schedule,
    sample_initial_state,
)
from .equilibrium import Equilibrium
from .netgraph import Incidence, PowerNetwork
from .tape import Node, Tape, TapeError, sq_dist, sum_seq, value


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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    divergence_factor: float = 1e3

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

    def to_dict(self) -> dict:
        return asdict(self)


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
    (loss, parts) where parts are the frequency/control/variation terms;
    both are tape nodes when raw_like holds leaves, plain scalars otherwise.
    """
    omega0 = np.asarray(omega0, dtype=float)
    lam0 = np.asarray(lam0, dtype=float)
    n_batch = omega0.shape[0] if omega0.ndim == 2 else 1
    k_steps = p_steps.shape[0]
    if k_steps == 0:
        return 0.0, (0.0, 0.0, 0.0)

    control = partial(policy.control, policy.precompute(raw_like))
    freq, ctrl, lip = [], [], []  # one sum-of-squares term per step
    u_prev = None
    for _, omega, dec in closed_loop(net, inc, control, lam0, omega0, p_steps, dt, noise):
        freq.append(sq_dist(omega, eq.omega_sync))
        ctrl.append(sq_dist(dec.u))
        if rho > 0 and u_prev is not None:  # at rho = 0 the term never reaches the loss
            lip.append(sq_dist(dec.u, u_prev))
        u_prev = dec.u

    freq_term = gamma * sum_seq(freq) * (1.0 / (k_steps * n_batch))
    ctrl_term = sum_seq(ctrl) * (1.0 / (k_steps * n_batch))
    if rho > 0 and k_steps > 1:
        lip_term = rho * sum_seq(lip) * (1.0 / ((k_steps - 1) * n_batch))
    else:
        lip_term = 0.0
    loss = freq_term + ctrl_term + lip_term
    return loss, (freq_term, ctrl_term, lip_term)


def loss_and_grad(policy, net, inc, eq, raw_values, lam0, omega0, p_steps, noise, gamma, rho, dt):
    """Episode loss plus exact gradients for every raw parameter array.

    A loss that never reaches the tape (an empty horizon, or an episode
    spent inside every dead zone) is constant and gets zero gradients. A
    non-finite gradient triggers a second, checked reverse sweep that names
    the first offending tape node.
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


def _sample_batch(net, inc, scenario: Scenario, batch: int, rng: np.random.Generator):
    """Batch initial states; per rollout: omega vector, then injection factors."""
    lam0 = np.empty((batch, inc.b_mat.shape[1]))
    omega0 = np.empty((batch, net.n_bus))
    for b in range(batch):
        lam0[b], omega0[b] = sample_initial_state(net, inc, scenario, rng)
    return lam0, omega0


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
        lam0, omega0 = _sample_batch(net, inc, scenario, cfg.batch, rng)
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
