"""Trajectory certification.

Each check consumes a recorded trajectory plus the frozen constants it needs
(safety band, equilibrium) and returns a verdict with a signed margin:
positive = passed with that much slack, negative = worst violation size.
Asymptotic claims are checked as finite-horizon proxies with explicit
tolerances; the notes say so. A trajectory loaded back from its CSV carries
every column the checks read, so a report from a saved run equals the
in-memory one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import Trajectory
from .equilibrium import Equilibrium

__all__ = [
    "Verdict",
    "VerdictReport",
    "check_frequency_invariance",
    "check_lyapunov",
    "check_budgets",
    "check_convergence",
    "run_checks",
]

CHECK_NAMES = ("frequency_invariance", "lyapunov_descent", "budget_conservation", "convergence")
CONSERVE_TOL = 1e-9  # |sum of budgets| allowed at any step
VANISH_TOL = 1e-12  # |budget| allowed once every bus is back in its dead zone


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    margin: float
    worst_t: float = 0.0
    worst_bus: int = -1
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.margin):
            raise ValueError(f"verdict {self.name}: margin must be finite")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "margin": float(self.margin),
            "worst_t": float(self.worst_t),
            "worst_bus": int(self.worst_bus),
            "notes": dict(self.notes),
        }


@dataclass(frozen=True)
class VerdictReport:
    verdicts: tuple[Verdict, ...]

    def __post_init__(self):
        names = [v.name for v in self.verdicts]
        missing = [c for c in CHECK_NAMES if c not in names]
        if missing:
            raise ValueError(f"report is missing checks: {missing}")

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def __getitem__(self, name: str) -> Verdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"all_pass": self.all_pass, "checks": [v.to_dict() for v in self.verdicts]}


def check_frequency_invariance(traj: Trajectory, spec) -> Verdict:
    """Buses that start inside their band must never leave it.

    Margin is the minimum distance from any monitored bus to its nearer
    bound over the whole run; buses that start outside are not monitored.
    """
    lo, hi = spec.per_bus(traj.n_bus)
    monitored = (traj.omega[0] >= lo) & (traj.omega[0] <= hi)
    if not monitored.any():
        return Verdict(
            "frequency_invariance", True, 0.0, notes={"monitored_buses": 0}
        )
    dist = np.minimum(traj.omega - lo, hi - traj.omega)[:, monitored]
    k, j = np.unravel_index(np.argmin(dist), dist.shape)
    bus = int(np.flatnonzero(monitored)[j])
    margin = float(dist[k, j])
    return Verdict(
        "frequency_invariance",
        margin >= 0.0,
        margin,
        worst_t=float(traj.t[k]),
        worst_bus=bus,
        notes={"monitored_buses": int(monitored.sum())},
    )


def check_lyapunov(traj: Trajectory, eq: Equilibrium, beta: float = 1.0) -> Verdict:
    """Recorded energy must be non-increasing up to the step-error tolerance.

    eps_dt = 10 * (largest single-step energy drop), i.e. ten forward-Euler
    steps at the trajectory's own worst dissipation rate, floored at 1e-12.
    Only drops set the scale, so a genuine energy injection cannot loosen its
    own tolerance. Notes report whether the run stayed inside the invariant
    region: edge angles in the closed box and energy at most
    `eq.region_cap(beta)`, which rejects beta < 1.
    """
    cap = eq.region_cap(beta)
    v = traj.v_energy
    if v.shape[0] < 2:
        return Verdict("lyapunov_descent", True, 0.0, notes={"steps": 0})
    dv = np.diff(v)
    eps = max(10.0 * float(np.maximum(-dv, 0.0).max()), 1e-12)
    k = int(np.argmax(dv))
    margin = float(eps - dv.max())
    stayed = bool(np.all(v <= cap + 1e-12) and np.all(np.abs(traj.lam) <= np.pi / 2 + 1e-12))
    notes = {"eps_dt": eps, "energy_cap_over_beta": float(cap), "stayed_in_region": stayed}
    return Verdict(
        "lyapunov_descent", margin >= 0.0, margin, worst_t=float(traj.t[k + 1]), notes=notes
    )


def check_budgets(traj: Trajectory) -> Verdict:
    """Budgets must sum to zero at every step and vanish once all buses are
    back inside their dead zones, as read from the recorded dead-zone mask,
    up to CONSERVE_TOL and VANISH_TOL. Notes count the rows where some bus
    is active (`active_rows`).
    """
    b = traj.budgets
    sums = np.abs(b.sum(axis=1))
    k_sum = int(np.argmax(sums))
    conserve_margin = CONSERVE_TOL - float(sums.max())

    active_rows = np.flatnonzero(traj.active.any(axis=1))
    last_k = int(active_rows[-1]) if active_rows.size else -1
    settle_t = float(traj.t[last_k]) if active_rows.size else 0.0
    tail = np.abs(b[last_k + 1 :])
    tail_max = float(tail.max()) if tail.size else 0.0
    vanish_margin = VANISH_TOL - tail_max

    margin = min(conserve_margin, vanish_margin)
    if conserve_margin <= vanish_margin or tail.size == 0:
        worst_t, worst_bus = float(traj.t[k_sum]), -1
    else:
        k, j = np.unravel_index(np.argmax(tail), tail.shape)
        worst_t, worst_bus = float(traj.t[last_k + 1 + int(k)]), int(j)
    return Verdict(
        "budget_conservation",
        margin >= 0.0,
        margin,
        worst_t=worst_t,
        worst_bus=worst_bus,
        notes={
            "last_active_t": settle_t,
            "max_abs_sum": float(sums.max()),
            "active_rows": int(active_rows.size),
        },
    )


def check_convergence(traj: Trajectory, eq: Equilibrium, tol: float = 1e-3) -> Verdict:
    """Finite-horizon proxy for convergence to the synchronous equilibrium.

    Passes iff the final frequency is within tol of synchronous everywhere
    and the final edge angles are within tol of equilibrium (an angle
    violation reports bus -1). ValueError unless tol is finite and > 0.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"convergence tol must be finite and > 0, got {tol:g}")
    dev = np.abs(traj.omega[-1] - eq.omega_sync)
    bus = int(np.argmax(dev))
    margin = tol - float(dev.max())
    lam_margin = tol - float(np.abs(traj.lam[-1] - eq.lam_eq).max())
    if lam_margin < margin:
        margin, bus = lam_margin, -1
    notes = {"proxy": f"final-state check at t={traj.t[-1]:g}", "tol": tol}
    return Verdict(
        "convergence", margin >= 0.0, float(margin), worst_t=float(traj.t[-1]), worst_bus=bus, notes=notes
    )


def run_checks(
    traj: Trajectory,
    spec,
    eq: Equilibrium,
    beta: float = 1.0,
    tol: float = 1e-3,
) -> VerdictReport:
    """All registered checks on one trajectory."""
    return VerdictReport(
        (
            check_frequency_invariance(traj, spec),
            check_lyapunov(traj, eq, beta),
            check_budgets(traj),
            check_convergence(traj, eq, tol),
        )
    )
