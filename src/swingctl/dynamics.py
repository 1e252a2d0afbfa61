"""Swing dynamics: vector field, explicit stepping, scenarios, the closed loop.

States are (lam, omega) with lam the per-edge angle differences (so lam stays
in the row space of the incidence transpose by construction) and omega the
per-bus frequency deviation in Hz. Controls and injections enter the omega
equation only.

`closed_loop` is the one stepping loop: the simulator (`rollout`) records a
trajectory from it and the trainer (`training.episode_loss`) accumulates its
loss from it. It steps with explicit Euler, the discretization the trainer
differentiates through; `rollout` can ask for RK4 instead for cross-checks.
Controls are zero-order held over a step. Each step computes the line flows
into each bus, sin(lam) @ By^T, once and hands them to both the controller
and the Euler update: a controller reads the state through the flows and
the measured frequency only, per bus. The loop and the flows run on arrays
or tape nodes alike, so a test can record a whole rollout per step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import Equilibrium, energy, in_region, solve_equilibrium
from .netgraph import Incidence, PowerNetwork
from .tape import matvec, sin, value


class IntegrationError(RuntimeError):
    """State left the representable range (non-finite entries) mid-run."""


@dataclass(frozen=True)
class Disturbance:
    """Step change in injection at one bus over the half-open window (t0, t1]."""

    bus: int
    dp: float
    t0: float
    t1: float

    def active(self, t):
        """Whether t lies in the window; elementwise for an array of times."""
        return (self.t0 < t) & (t <= self.t1)


@dataclass(frozen=True)
class Scenario:
    """Evaluation protocol: horizon, step, events, and sampling ranges.

    init_omega_range: initial per-bus frequency drawn uniform in +/-range (Hz).
    init_p_frac: initial angles come from the equilibrium of injections scaled
        per bus by uniform factors in [1-frac, 1+frac].
    noise_bound: measurement noise on the frequency the controller sees,
        uniform in +/-bound (Hz). The true state is never noised.
    """

    horizon: float
    dt: float
    disturbances: tuple[Disturbance, ...] = ()
    init_omega_range: float = 0.1
    init_p_frac: float = 0.1
    noise_bound: float = 0.0
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "disturbances", tuple(self.disturbances))
        names = ("horizon", "dt", "noise_bound", "init_omega_range", "init_p_frac")
        fields = {k: getattr(self, k) for k in names}
        for i, d in enumerate(self.disturbances):
            fields.update({f"disturbances[{i}].{k}": getattr(d, k) for k in ("dp", "t0", "t1")})
        for name, v in fields.items():
            if not np.isfinite(v):
                raise ValueError(f"scenario {name} must be finite, got {v}")
        if self.horizon <= 0 or self.dt <= 0:
            raise ValueError("horizon and dt must be positive")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(
                f"horizon {self.horizon:g} is not an integer multiple of dt {self.dt:g}"
            )
        for name in ("noise_bound", "init_omega_range", "init_p_frac"):
            if getattr(self, name) < 0:
                raise ValueError(f"scenario {name} must be nonnegative, got {getattr(self, name):g}")
        for d in self.disturbances:
            if d.bus < 0:
                raise ValueError(f"disturbance bus index {d.bus} out of range")
            if not 0.0 <= d.t0 < d.t1 <= self.horizon:
                raise ValueError(
                    f"disturbance window ({d.t0:g}, {d.t1:g}] must lie inside (0, {self.horizon:g}]"
                )

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def injection_at(net: PowerNetwork, scenario: Scenario, t: float) -> np.ndarray:
    p = net.p_nom.copy()
    for d in scenario.disturbances:
        if d.active(t):
            p[d.bus] += d.dp
    return p


def injection_schedule(net: PowerNetwork, scenario: Scenario, rows: int, dt: float) -> np.ndarray:
    """Injections at t = k*dt for k < rows, shape (rows, n); row k equals
    `injection_at(net, scenario, k * dt)` bitwise.

    Raises ValueError if a disturbance names a bus outside the network.
    """
    t = np.arange(rows) * dt
    p = np.tile(net.p_nom, (rows, 1))
    for d in scenario.disturbances:
        if d.bus >= net.n_bus:
            raise ValueError(f"disturbance bus index {d.bus} out of range for a {net.n_bus}-bus network")
        p[d.active(t), d.bus] += d.dp
    return p


def line_flows(inc: Incidence, lam):
    """Line flows into each bus, sin(lam) @ By^T; arrays or tape nodes."""
    return matvec(inc.by_mat, sin(lam))


def swing_rhs(net: PowerNetwork, inc: Incidence, lam, omega, u, p):
    """Time derivatives (dlam, domega); accepts arrays or tape nodes."""
    dlam = matvec(inc.b_mat.T, omega)
    domega = (u + p - net.damping * omega - line_flows(inc, lam)) / net.inertia
    return dlam, domega


def euler_step(net: PowerNetwork, inc: Incidence, lam, omega, u, p, dt: float, flows=None):
    """(lam + dt * dlam, omega + dt * domega) with (dlam, domega) = swing_rhs,
    bitwise, given the step's line flows (computed here when None). Values
    only."""
    flows = line_flows(inc, lam) if flows is None else flows
    return (
        lam + dt * (omega @ inc.b_mat),
        omega + dt * ((u + p - net.damping * omega - flows) / net.inertia),
    )


def rk4_step(net: PowerNetwork, inc: Incidence, lam, omega, u, p, dt: float, flows=None):
    """Classic RK4 with u and p held constant over the step. Values only;
    each stage evaluates its own flows, so `flows` is not read."""
    k1l, k1w = swing_rhs(net, inc, lam, omega, u, p)
    k2l, k2w = swing_rhs(net, inc, lam + 0.5 * dt * k1l, omega + 0.5 * dt * k1w, u, p)
    k3l, k3w = swing_rhs(net, inc, lam + 0.5 * dt * k2l, omega + 0.5 * dt * k2w, u, p)
    k4l, k4w = swing_rhs(net, inc, lam + dt * k3l, omega + dt * k3w, u, p)
    lam2 = lam + dt / 6.0 * (k1l + 2 * k2l + 2 * k3l + k4l)
    omega2 = omega + dt / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
    return lam2, omega2


def sample_initial_state(
    net: PowerNetwork,
    inc: Incidence,
    scenario: Scenario,
    rng: np.random.Generator,
):
    """Draw (lam0, omega0) per the scenario ranges.

    Draw order (fixed for reproducibility): the omega vector first, then the
    per-bus injection scale factors. Angles come from the equilibrium of the
    scaled injections, so lam0 always lies in the incidence row space.
    """
    omega0 = rng.uniform(-scenario.init_omega_range, scenario.init_omega_range, net.n_bus)
    if scenario.init_p_frac > 0:
        factors = rng.uniform(1.0 - scenario.init_p_frac, 1.0 + scenario.init_p_frac, net.n_bus)
    else:
        factors = np.ones(net.n_bus)
    eq0 = solve_equilibrium(net, inc, factors * net.p_nom)
    return eq0.lam_eq.copy(), omega0


@dataclass
class Trajectory:
    """Time-indexed record of one closed-loop run.

    Row k holds the state at t = k*dt (edge angles `lam`, frequencies
    `omega`), the decision evaluated at that state (`u`, `budgets` and the
    dead-zone mask `active`, including the final row), and its energy.
    Per-row loss columns store gamma*||omega - sync||^2 and ||u||^2; the run
    cost averages the first n_steps rows. The trajectory CSV stores every
    column, so a loaded trajectory certifies exactly as the in-memory one,
    and its echo line holds every key of `meta`.
    """

    t: np.ndarray
    omega: np.ndarray
    u: np.ndarray
    budgets: np.ndarray
    v_energy: np.ndarray
    loss_freq: np.ndarray
    loss_ctrl: np.ndarray
    lam: np.ndarray
    active: np.ndarray
    dt: float
    gamma: float
    meta: dict = field(default_factory=dict)

    @property
    def n_bus(self) -> int:
        return self.omega.shape[1]

    @property
    def n_steps(self) -> int:
        return self.omega.shape[0] - 1

    def cost(self, window: float | None = None) -> float:
        """Average running cost over the first `window` seconds (default all).

        ValueError unless the window is finite and >= 0; a window shorter
        than half a step averages no rows and costs 0.
        """
        if window is not None:
            check_cost_window(window)
        k = self.n_steps if window is None else min(self.n_steps, int(round(window / self.dt)))
        if k <= 0:
            return 0.0
        return float((self.loss_freq[:k] + self.loss_ctrl[:k]).sum() / k)


def check_cost_window(window: float) -> None:
    """ValueError unless a cost window (seconds) is finite and >= 0."""
    if not (np.isfinite(window) and window >= 0):
        raise ValueError(f"cost window must be finite and >= 0, got {window:g}")


def closed_loop(net, inc, control, lam0, omega0, p_rows, dt: float, noise=None, step=euler_step):
    """Run the closed loop over the rows of the injection schedule `p_rows`.

    At row k it computes the line flows of lam (`line_flows`), evaluates
    `control(flows, measured, p_rows[k])` on the measured frequency (the
    true one plus `noise[k]` when a noise block is given), yields (lam,
    omega, decision) with the true state, then steps to row k+1 with
    `step(net, inc, lam, omega, decision.u, p_rows[k], dt, flows)`; the
    last row is not stepped. States may carry a leading batch axis and may
    be tape nodes when `step` takes them. Raises IntegrationError naming
    the step if the state goes non-finite.
    """
    lam, omega = lam0, omega0
    last = len(p_rows) - 1
    for k, p in enumerate(p_rows):
        measured = omega if noise is None else omega + noise[k]
        flows = line_flows(inc, lam)
        dec = control(flows, measured, p)
        yield lam, omega, dec
        if k == last:
            return
        lam, omega = step(net, inc, lam, omega, dec.u, p, dt, flows)
        if not (np.isfinite(value(lam)).all() and np.isfinite(value(omega)).all()):
            raise IntegrationError(f"non-finite state after step {k + 1} (t={k * dt + dt:g})")


def rollout(
    net: PowerNetwork,
    inc: Incidence,
    eq: Equilibrium,
    controller,
    scenario: Scenario,
    seed: int = 0,
    lam0: np.ndarray | None = None,
    omega0: np.ndarray | None = None,
    integrator: str = "euler",
    beta: float = 1.0,
    gamma: float = 40.0,
) -> Trajectory:
    """Simulate the closed loop over the scenario horizon.

    The controller is any callable (flows, omega, p) -> ControlDecision; it
    sees the line flows, the measured frequency (true plus per-row uniform
    noise when the scenario carries a noise bound) and the true injections. Draw order per run:
    initial state first (when not supplied), then the (rows, n) noise block.

    Warns if the initial state falls outside the invariant energy region for
    the given beta (ValueError unless beta >= 1); ValueError for a gamma that
    is not finite and >= 0 or a negative seed; raises IntegrationError (with
    the step index) if the state goes non-finite. Energy and loss columns are
    computed once over all recorded rows. `meta` records the run facts: seed, integrator, beta,
    horizon, noise bound and scenario label.
    """
    steppers = {"euler": euler_step, "rk4": rk4_step}
    if integrator not in steppers:
        raise ValueError(f"unknown integrator {integrator!r}")
    if not (np.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma:g}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    n, rows = net.n_bus, scenario.n_steps + 1
    p_rows = injection_schedule(net, scenario, rows, scenario.dt)
    rng = np.random.Generator(np.random.Philox(seed))
    if lam0 is None or omega0 is None:
        lam0, omega0 = sample_initial_state(net, inc, scenario, rng)
    lam0 = np.asarray(lam0, dtype=float).copy()
    omega0 = np.asarray(omega0, dtype=float).copy()
    if not in_region(net, inc, eq, lam0, omega0, beta):
        warnings.warn("initial state outside the invariant energy region", RuntimeWarning)
    noise = None
    if scenario.noise_bound > 0:
        noise = rng.uniform(-scenario.noise_bound, scenario.noise_bound, (rows, n))

    rec_lam = np.empty((rows, inc.b_mat.shape[1]))
    rec_omega = np.empty((rows, n))
    rec_u = np.empty((rows, n))
    rec_b = np.empty((rows, n))
    rec_act = np.empty((rows, n), dtype=bool)
    step = steppers[integrator]
    loop = closed_loop(net, inc, controller, lam0, omega0, p_rows, scenario.dt, noise, step)
    for k, (lam, omega, dec) in enumerate(loop):
        rec_lam[k], rec_omega[k], rec_u[k], rec_b[k], rec_act[k] = lam, omega, dec.u, dec.budgets, dec.active
    dev = rec_omega - eq.omega_sync
    return Trajectory(
        t=np.arange(rows) * scenario.dt,
        omega=rec_omega,
        u=rec_u,
        budgets=rec_b,
        v_energy=energy(net, eq, rec_lam, rec_omega),
        loss_freq=gamma * (dev**2).sum(axis=1),
        loss_ctrl=(rec_u**2).sum(axis=1),
        lam=rec_lam,
        active=rec_act,
        dt=scenario.dt,
        gamma=gamma,
        meta={"seed": seed, "integrator": integrator, "beta": beta, "horizon": scenario.horizon,
              "noise_bound": scenario.noise_bound, "scenario_label": scenario.label},
    )
