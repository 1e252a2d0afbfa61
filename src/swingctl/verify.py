"""Trajectory certification.

Each check consumes a recorded trajectory plus the frozen constants it needs
(safety band, equilibrium) and returns a verdict with a signed margin:
positive = passed with that much slack, negative = worst violation size.
Asymptotic claims are checked as finite-horizon proxies with explicit
tolerances; the notes say so. Checks run off the stored columns alone, so a
trajectory loaded back from CSV (which drops the angle and dead-zone columns)
still verifies, with the documented fallbacks.
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
    region (energy below cap; angle clause included only when angles were
    recorded, otherwise the energy sublevel is used as a proxy).
    """
    v = traj.v_energy
    if v.shape[0] < 2:
        return Verdict("lyapunov_descent", True, 0.0, notes={"steps": 0})
    dv = np.diff(v)
    eps = max(10.0 * float(np.maximum(-dv, 0.0).max()), 1e-12)
    k = int(np.argmax(dv))
    margin = float(eps - dv.max())
    cap = eq.energy_cap / beta
    in_level = bool(np.all(v <= cap + 1e-12))
    notes = {"eps_dt": eps, "energy_cap_over_beta": float(cap), "stayed_in_region": in_level}
    if traj.lam is not None:
        ang_ok = bool(np.all(np.abs(traj.lam) <= np.pi / 2 + 1e-12))
        notes["stayed_in_region"] = in_level and ang_ok
    else:
        notes["region_proxy"] = "energy sublevel only (no angle columns)"
    return Verdict(
        "lyapunov_descent", margin >= 0.0, margin, worst_t=float(traj.t[k + 1]), notes=notes
    )


def check_budgets(traj: Trajectory, conserve_tol: float = 1e-9, vanish_tol: float = 1e-12) -> Verdict:
    """Budgets must sum to zero at every step and vanish once all buses are
    back inside their dead zones.

    When the dead-zone column was recorded, activity is read from it; from a
    CSV round-trip it is inferred as (u != 0) | (b != 0), which keeps the
    conservation clause exact and makes the vanish clause an inferred proxy.
    """
    b = traj.budgets
    sums = np.abs(b.sum(axis=1))
    k_sum = int(np.argmax(sums))
    conserve_margin = conserve_tol - float(sums.max())

    inferred = traj.active is None
    active = (traj.u != 0.0) | (b != 0.0) if inferred else traj.active
    any_active = active.any(axis=1)
    if any_active.any():
        last_k = int(np.flatnonzero(any_active)[-1])
        settle_t = float(traj.t[last_k])
    else:
        last_k = -1
        settle_t = 0.0
    tail = np.abs(b[last_k + 1 :])
    tail_max = float(tail.max()) if tail.size else 0.0
    vanish_margin = vanish_tol - tail_max

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
            "activity_inferred": inferred,
            "max_abs_sum": float(sums.max()),
        },
    )


def check_convergence(
    traj: Trajectory, eq: Equilibrium, tol: float = 1e-3, tol_lam: float | None = None
) -> Verdict:
    """Finite-horizon proxy for convergence to the synchronous equilibrium.

    Passes iff the final frequency is within tol of synchronous everywhere
    and, when angles were recorded, the final angle differences are within
    tol_lam of equilibrium. A CSV round-trip drops angles; the clause is then
    skipped and noted.
    """
    if tol_lam is None:
        tol_lam = tol
    dev = np.abs(traj.omega[-1] - eq.omega_sync)
    bus = int(np.argmax(dev))
    margin = tol - float(dev.max())
    notes = {"proxy": f"final-state check at t={traj.t[-1]:g}", "tol": tol}
    if traj.lam is not None:
        lam_dev = float(np.abs(traj.lam[-1] - eq.lam_eq).max())
        notes["tol_lam"] = tol_lam
        if tol_lam - lam_dev < margin:
            margin = tol_lam - lam_dev
            bus = -1
    else:
        notes["angle_clause"] = "skipped (no angle columns)"
    return Verdict(
        "convergence", margin >= 0.0, float(margin), worst_t=float(traj.t[-1]), worst_bus=bus, notes=notes
    )


def run_checks(
    traj: Trajectory,
    spec,
    eq: Equilibrium,
    beta: float = 1.0,
    tol: float = 1e-3,
    tol_lam: float | None = None,
) -> VerdictReport:
    """All registered checks on one trajectory."""
    return VerdictReport(
        (
            check_frequency_invariance(traj, spec),
            check_lyapunov(traj, eq, beta),
            check_budgets(traj),
            check_convergence(traj, eq, tol, tol_lam),
        )
    )
