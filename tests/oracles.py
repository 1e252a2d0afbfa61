"""Independent reference computations the tests check the package against.

None of these run in the package itself: they restate a quantity in its
plainest form (a dense Laplacian, the control law composed from its
parts, a per-bus admissibility report, a value-only loss) so the tests can
compare the production code to it.
"""

from dataclasses import dataclass

import numpy as np

from swingctl.controller import ControlDecision, active_mask, class_k_eval, deadzone_eval
from swingctl.tape import _TINY, control_law, value
from swingctl.training import episode_loss


def unit_laplacian(inc) -> np.ndarray:
    """Unit-weight Laplacian B B^T."""
    return inc.b_mat @ inc.b_mat.T


def edges_on(inc, active: np.ndarray) -> np.ndarray:
    """Mask of the edges whose two ends are active, the edges of L_sub;
    `active` may be batched (..., n)."""
    return active[..., inc.edge_ends[:, 0]] & active[..., inc.edge_ends[:, 1]]


def subgraph_laplacian(inc, active: np.ndarray) -> np.ndarray:
    """Unit-weight Laplacian of the subgraph induced by `active` buses.

    An edge survives iff both endpoints are active. Rows and columns of
    inactive buses are identically zero, so (L_sub @ xi)_i = 0 for any
    inactive bus i and column sums vanish exactly.
    """
    cols = inc.b_mat[:, edges_on(inc, np.asarray(active, dtype=bool))]
    return cols @ cols.T


def budget_vector(inc, active: np.ndarray, edge_xi) -> np.ndarray:
    """b = L_sub @ xi without forming L_sub: the edge differences
    edge_xi = B^T xi gated by `edges_on`. `active` may be batched (..., n);
    the result matches its leading shape."""
    return (edges_on(inc, active).astype(float) * np.asarray(value(edge_xi), dtype=float)) @ inc.b_mat.T


def relu_units(w, s, b, sign: float) -> np.ndarray:
    """Dense ReLU-unit sum: sum_j w[..., j] * relu(sign * s + b[..., j]) on
    plain arrays, with w and b (n, m) and s (n,) or (..., n)."""
    w, s, b = (np.asarray(value(a), dtype=float) for a in (w, s, b))
    return (w * np.maximum(sign * s[..., None] + b, 0.0)).sum(axis=-1)


def piecewise(W, C, thr, s, sign: float) -> np.ndarray:
    """One ReLU-unit branch from its prefix tables (W, C, thr) at x = sign * s,
    on plain arrays, by the formula of the per-branch kernel that
    `tape.unit_sums` replaced: x W[k] + C[k] at the first column k with
    thr >= x. The tests compare the fused sum to a sum of these bit for bit."""
    W, C, s = (np.asarray(value(a), dtype=float) for a in (W, C, s))
    x = s if sign > 0 else -s
    flat = (thr < x[..., None]).argmin(-1) + np.arange(0, thr.size, thr.shape[-1])
    return x * W.reshape(-1)[flat] + C.reshape(-1)[flat]


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


def _floored(d: np.ndarray) -> np.ndarray:
    """d with its magnitude floored at the tape's _TINY."""
    return np.where(np.abs(d) >= _TINY, d, np.where(d < 0, -_TINY, _TINY))


def feedforward(lam, omega, p, damping, by_mat) -> np.ndarray:
    """Local injection mismatch q = D omega + sin(lam) @ by_mat.T - p."""
    return damping * omega + np.sin(lam) @ by_mat.T - p


def stability_cap(dtilde, omega_sync, omega, b) -> np.ndarray:
    """D_tilde dev + b / dev, dev = omega - omega_sync, |dev| floored."""
    dev = omega - omega_sync
    return dtilde * dev + b / _floored(dev)


def barrier_bound(cap, alpha, d, q, upper: bool) -> np.ndarray:
    """min(cap, alpha / d + q) when `upper`, else the max; |d| floored, and
    the cap taken on ties."""
    t = alpha / _floored(d) + q
    return np.where(cap <= t if upper else cap >= t, cap, t)


def gate(dhi, dlo, f, ub, lb) -> np.ndarray:
    """relu(dhi) (f - relu(f - ub)) + relu(dlo) (f + relu(lb - f))."""
    cut_hi, cut_lo = np.maximum(f - ub, 0.0), np.maximum(lb - f, 0.0)
    return np.maximum(dhi, 0.0) * (f - cut_hi) + np.maximum(dlo, 0.0) * (f + cut_lo)


def composed_law(lam, omega, p, edge_xi, mask, alpha_hi, alpha_lo, dhi, dlo, f,
                 b_mat, by_mat, damping, dtilde, omega_sync) -> tuple:
    """`tape.control_law`'s (u, b, ub, lb) on plain values, composed from
    the budgets, feedforward, stability cap, two barrier bounds and gate
    above, each in its own expression order; the tests compare the fused
    kernel to it bit for bit."""
    lam, omega, p, edge_xi, alpha_hi, alpha_lo, dhi, dlo, f = (
        np.asarray(value(a), dtype=float) for a in (lam, omega, p, edge_xi, alpha_hi, alpha_lo, dhi, dlo, f)
    )
    b = (mask * edge_xi) @ b_mat.T
    q = feedforward(lam, omega, p, damping, by_mat)
    cap = stability_cap(dtilde, omega_sync, omega, b)
    ub = barrier_bound(cap, alpha_hi, dhi, q, upper=True)
    lb = barrier_bound(cap, alpha_lo, dlo, q, upper=False)
    return gate(dhi, dlo, f, ub, lb), b, ub, lb


def law_args(policy, ready, lam, omega, p) -> tuple:
    """The arguments of the constrained policy's `control_law` call at a
    measured state, with the full formula at every state."""
    dhi, dlo = omega - ready.whi, ready.wlo - omega
    return (
        lam, omega, p, ready.edge_xi, edges_on(policy.inc, active_mask(ready, omega)).astype(float),
        class_k_eval(ready.hi, omega, policy.omega_max), class_k_eval(ready.lo, omega, policy.omega_min),
        dhi, dlo, deadzone_eval(ready.dz, dhi, dlo),
        policy.inc.b_mat, policy.inc.by_mat, policy.net.damping, policy.dtilde, policy.eq.omega_sync,
    )


def unguarded_control(policy, ready, lam, omega, p) -> ControlDecision:
    """The constrained policy's full formula at every state, with no
    short-circuit for states where every bus sits inside its dead zone."""
    u, b, ub, lb = control_law(*law_args(policy, ready, lam, omega, p))
    return ControlDecision(u=u, budgets=b, active=active_mask(ready, omega), upper=ub, lower=lb)


class UnguardedPolicy:
    """A bound constrained policy whose control is `unguarded_control`."""

    def __init__(self, policy):
        self.policy = policy
        self.keys = policy.keys

    def precompute(self, raw_like):
        return self.policy.precompute(raw_like)

    def control(self, ready, lam, omega, p) -> ControlDecision:
        return unguarded_control(self.policy, ready, lam, omega, p)
