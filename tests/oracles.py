"""Independent reference computations the tests check the package against.

None of these run in the package itself: they restate a quantity in its
plainest form (a dense Laplacian, a per-bus admissibility report, a
value-only loss) so the tests can compare the production code to it.
"""

from dataclasses import dataclass

import numpy as np

from swingctl.controller import (
    ControlDecision,
    active_mask,
    budget_vector,
    class_k_eval,
    deadzone_eval,
)
from swingctl.tape import barrier_bound, feedforward, gate, stability_cap, value
from swingctl.training import episode_loss


def unit_laplacian(inc) -> np.ndarray:
    """Unit-weight Laplacian B B^T."""
    return inc.b_mat @ inc.b_mat.T


def subgraph_laplacian(inc, active: np.ndarray) -> np.ndarray:
    """Unit-weight Laplacian of the subgraph induced by `active` buses.

    An edge survives iff both endpoints are active. Rows and columns of
    inactive buses are identically zero, so (L_sub @ xi)_i = 0 for any
    inactive bus i and column sums vanish exactly.
    """
    active = np.asarray(active, dtype=bool)
    on = active[inc.edge_ends[:, 0]] & active[inc.edge_ends[:, 1]]
    cols = inc.b_mat[:, on]
    return cols @ cols.T


def relu_units(w, s, b, sign: float) -> np.ndarray:
    """Dense ReLU-unit sum: sum_j w[..., j] * relu(sign * s + b[..., j]) on
    plain arrays, with w and b (n, m) and s (n,) or (..., n)."""
    w, s, b = (np.asarray(value(a), dtype=float) for a in (w, s, b))
    return (w * np.maximum(sign * s[..., None] + b, 0.0)).sum(axis=-1)


def unit_sum(wp, wm, bp, bm, s) -> np.ndarray:
    """Dense class-K map wp.relu(s + bp) + wm.relu(bm - s) on plain arrays."""
    return relu_units(wp, s, bp, 1.0) + relu_units(wm, s, bm, -1.0)


def dissipation_rate(net, eq, omega: np.ndarray, u: np.ndarray) -> float:
    """Time derivative of V along the flow: -sum D dev^2 + sum dev u."""
    dev = np.asarray(omega, dtype=float) - eq.omega_sync
    return float(-(net.damping @ dev**2) + dev @ np.asarray(u, dtype=float))


def forward_loss(policy, net, inc, eq, raw_values, lam0, omega0, p_steps, noise, gamma, rho, dt) -> float:
    """Value-only episode loss (no tape); used by finite-difference checks."""
    loss, _ = episode_loss(
        policy, net, inc, eq, raw_values, lam0, omega0, p_steps, noise, gamma, rho, dt
    )
    return float(value(loss))


@dataclass
class ConstraintReport:
    """Per-bus admissibility of a control against the branch bounds.

    branch: +1 above the upper threshold, -1 below the lower one, 0 inside.
    slack: distance to the binding bound (>= 0 means satisfied); inside the
    dead zone the slack is -|u|, so any nonzero u shows up as a violation.
    """

    ok: bool
    branch: np.ndarray
    slack: np.ndarray
    violations: list[int]


def constraint_check(params, spec, net, inc, eq, lam, omega, p, u, tol: float = 1e-9) -> ConstraintReport:
    policy = params.bind(spec, net, inc, eq)
    ready = policy.precompute(params.raw)
    out = policy.control(ready, lam, omega, p)
    w = np.asarray(omega, dtype=float)
    u = np.asarray(u, dtype=float)
    above = w > ready.whi_val
    below = w < ready.wlo_val
    branch = np.where(above, 1, np.where(below, -1, 0)).astype(np.int8)
    slack = np.where(
        above,
        np.asarray(value(out.upper)) - u,
        np.where(below, u - np.asarray(value(out.lower)), -np.abs(u)),
    )
    bad = np.nonzero(slack < -tol)[0]
    return ConstraintReport(ok=bad.size == 0, branch=branch, slack=slack, violations=bad.tolist())


def unguarded_control(policy, ready, lam, omega, p) -> ControlDecision:
    """The constrained policy's full formula at every state, with no
    short-circuit for states where every bus sits inside its dead zone."""
    active = active_mask(ready, omega)
    dhi, dlo = omega - ready.whi, ready.wlo - omega
    b = budget_vector(policy.inc, active, ready.edge_xi)
    q = feedforward(lam, omega, p, policy.net.damping, policy.inc.by_mat)
    cap = stability_cap(policy.dtilde, policy.eq.omega_sync, omega, b)
    ub = barrier_bound(cap, class_k_eval(ready.hi, policy.omega_max - omega), dhi, q, upper=True)
    lb = barrier_bound(cap, class_k_eval(ready.lo, policy.omega_min - omega), dlo, q, upper=False)
    u = gate(dhi, dlo, deadzone_eval(ready.dz, dhi, dlo), ub, lb)
    return ControlDecision(u=u, budgets=b, active=active, upper=ub, lower=lb)


class UnguardedPolicy:
    """A bound constrained policy whose control is `unguarded_control`."""

    def __init__(self, policy):
        self.policy = policy
        self.keys = policy.keys

    def precompute(self, raw_like):
        return self.policy.precompute(raw_like)

    def control(self, ready, lam, omega, p) -> ControlDecision:
        return unguarded_control(self.policy, ready, lam, omega, p)
