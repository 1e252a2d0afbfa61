"""Synchronous equilibrium, energy function, and the invariant energy region.

The lossless swing model

    theta_dot = omega
    M omega_dot = -D omega - B Y_b sin(B^T theta) + u + p

synchronizes (u = 0) at omega_sync = sum(p) / sum(D) with edge angles
lam = B^T theta solving B Y_b sin(lam) = p_tilde, where p_tilde removes the
synchronous drift from p. A solution with every |lam_k| < pi/2 exists iff the
edge-wise infinity norm of pinv(L) p_tilde is below 1; we check that before
running a damped Newton iteration on the bus angles.

The energy function pairs kinetic terms with an edge potential that vanishes
at the equilibrium angles. Its minimum over the boundary of the closed box
|lam_k| <= pi/2 (attained with all other edges at their equilibrium angles)
caps the largest sublevel set that the box contains; sublevel sets of V below
that cap are invariant under any control satisfying the dissipation
inequality, which is what the controller module enforces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netgraph import Incidence, PowerNetwork, pseudo_inverse_apply

NEWTON_TOL = 1e-12  # max-norm of the angle-solve residual
NEWTON_MAX_ITER = 100


class EquilibriumError(RuntimeError):
    """No admissible equilibrium, or the angle solve failed."""


@dataclass(frozen=True)
class Equilibrium:
    """Synchronous operating point and the constants derived from it.

    Attributes:
        omega_sync: common frequency deviation at equilibrium (Hz).
        p_tilde: injections with the synchronous drift removed, shape (n,).
        lam_eq: edge angles B^T theta of the mean-zero bus angles, shape (m,).
        cond_value: edge-wise infinity norm of pinv(L) p_tilde; < 1 certifies
            existence inside the open box |lam_k| < pi/2.
        energy_cap: minimum of the energy over the boundary of the closed box
            at omega = omega_sync (the constant bounding invariant sublevels).
    """

    omega_sync: float
    p_tilde: np.ndarray
    lam_eq: np.ndarray
    cond_value: float
    energy_cap: float

    def region_cap(self, beta: float = 1.0) -> float:
        """Energy bound cap/beta of the certified region. beta shrinks the
        region, so ValueError unless it is finite and >= 1."""
        if not (np.isfinite(beta) and beta >= 1.0):
            raise ValueError(f"beta must be finite and >= 1, got {beta:g}")
        return self.energy_cap / beta


def solve_equilibrium(
    net: PowerNetwork,
    inc: Incidence,
    p: np.ndarray | None = None,
) -> Equilibrium:
    """Solve for the synchronous equilibrium of injections p (default nominal).

    Raises EquilibriumError when the network has no edges (no energy region
    exists), when the existence condition fails (cond >= 1), when Newton
    stalls or exceeds NEWTON_MAX_ITER, or when the converged angles fall
    outside the open box |lam_k| < pi/2.
    """
    if inc.b_mat.shape[1] == 0:
        raise EquilibriumError("the network has no edges, so no energy region exists")
    p = net.p_nom if p is None else np.asarray(p, dtype=float)
    omega_sync = float(p.sum() / net.damping.sum())
    p_tilde = p - omega_sync * net.damping

    dc = pseudo_inverse_apply(inc.laplacian, p_tilde)
    cond = float(np.abs(inc.b_mat.T @ dc).max())  # edge-wise infinity norm
    if cond >= 1.0:
        raise EquilibriumError(
            f"no equilibrium inside the angle box: existence condition {cond:.6g} >= 1"
        )

    theta = dc.copy()
    by, b_t = inc.by_mat, inc.b_mat.T
    ones_shift = np.ones((net.n_bus, net.n_bus)) / net.n_bus

    def residual(th: np.ndarray) -> np.ndarray:
        return by @ np.sin(b_t @ th) - p_tilde

    g = residual(theta)
    for _ in range(NEWTON_MAX_ITER):
        if np.abs(g).max() < NEWTON_TOL:
            break
        jac = by * np.cos(b_t @ theta) @ b_t  # B Yb diag(cos lam) B^T
        delta = np.linalg.solve(jac + ones_shift, -g)
        step = 1.0
        while step > 1e-10:
            cand = theta + step * delta
            g_cand = residual(cand)
            if np.abs(g_cand).max() < np.abs(g).max():
                theta, g = cand, g_cand
                break
            step *= 0.5
        else:
            raise EquilibriumError("angle solve stalled: no descent along Newton direction")
    else:
        raise EquilibriumError(
            f"angle solve did not reach tol={NEWTON_TOL:g} in {NEWTON_MAX_ITER} iterations"
        )

    theta = theta - theta.mean()
    lam_eq = b_t @ theta
    if np.any(np.abs(lam_eq) >= np.pi / 2):
        raise EquilibriumError("converged equilibrium has edge angles outside the open box")

    cap = _boundary_energy_min(net.susceptance, lam_eq)
    return Equilibrium(
        omega_sync=omega_sync,
        p_tilde=p_tilde,
        lam_eq=lam_eq,
        cond_value=cond,
        energy_cap=cap,
    )


def edge_potential(lam_eq: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Per-edge potential, zero and minimal at lam_eq, convex on the box."""
    return np.cos(lam_eq) - np.cos(lam) - lam * np.sin(lam_eq) + lam_eq * np.sin(lam_eq)


def _boundary_energy_min(y_edge: np.ndarray, lam_eq: np.ndarray) -> float:
    # The potential is separable and each term is minimal (zero) at lam_eq,
    # so the boundary minimum pins one edge at +/- pi/2 and leaves the rest
    # at equilibrium: min over edges and signs of y_k * a_k(+/- pi/2).
    half = np.pi / 2
    vals = []
    for s in (half, -half):
        vals.append(y_edge * edge_potential(lam_eq, np.full_like(lam_eq, s)))
    return float(np.min(np.concatenate(vals)))


def energy(net: PowerNetwork, eq: Equilibrium, lam: np.ndarray, omega: np.ndarray):
    """Energy V at a state: kinetic in omega plus the edge potential.

    States may carry a leading row axis; V then has one entry per row.
    """
    dev = np.asarray(omega, dtype=float) - eq.omega_sync
    kinetic = 0.5 * (dev**2 @ net.inertia)
    v = kinetic + edge_potential(eq.lam_eq, np.asarray(lam, dtype=float)) @ net.susceptance
    return float(v) if v.ndim == 0 else v


def in_region(
    net: PowerNetwork,
    inc: Incidence,
    eq: Equilibrium,
    lam: np.ndarray,
    omega: np.ndarray,
    beta: float = 1.0,
) -> bool:
    """Membership in the invariant set: angles in the closed box, V <= cap/beta.

    Raises ValueError for a beta that `Equilibrium.region_cap` rejects.
    """
    cap = eq.region_cap(beta)
    lam = np.asarray(lam, dtype=float)
    if np.any(np.abs(lam) > np.pi / 2):
        return False
    return energy(net, eq, lam, omega) <= cap
