"""Independent reference computations the tests check the package against.

None of these run in the package itself: they restate a quantity in its
plainest form (a dense Laplacian, the control law composed from its
parts, a per-bus admissibility report, a value-only loss) so the tests can
compare the production code to it. `reference_control` keeps the
constrained policy in the per-op form the fused `tape.control_law` node
replaced, on the tape, as its bitwise reference for values and gradients.
`two_sweep_adjoints` keeps the two reverse sweeps a backward chunk made
before `control_law`'s factor pass replaced them, as that pass's reference.
`taped_episode_loss` keeps the training episode recorded step by step (the
line flows through a `sin` node, the two Euler updates, the per-step sums
of squares and their sum, each a node with its own rule), as the gradient
reference for the one-node episode of `training.episode_loss`.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from swingctl.controller import ControlDecision, active_mask, class_k_eval
from swingctl.dynamics import line_flows
from swingctl.tape import _TINY, Node, Tape, _acc, _val, control_law, matvec, record, unit_sums, value
from swingctl.tape import _floored as _floored_live
from swingctl.training import TrainingError, episode_loss


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
    out = policy.control(ready, line_flows(inc, lam), omega, p)
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


def feedforward(flows, omega, p, damping) -> np.ndarray:
    """Local injection mismatch q = D omega + flows - p."""
    return damping * omega + flows - p


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
    """The selection 1[dhi > 0] min(f, ub) + 1[dlo > 0] max(f, lb)."""
    return np.where(dhi > 0, np.minimum(f, ub), 0.0) + np.where(dlo > 0, np.maximum(f, lb), 0.0)


def composed_law(flows, omega, p, edge_xi, mask, alpha_hi, alpha_lo, dhi, dlo, f,
                 b_mat, damping, dtilde, omega_sync) -> tuple:
    """`tape.control_law`'s (u, b, ub, lb) on plain values, composed from
    the budgets, feedforward, stability cap, two barrier bounds and gate
    above, each in its own expression order; the tests compare the fused
    kernel to it bit for bit."""
    flows, omega, p, edge_xi, alpha_hi, alpha_lo, dhi, dlo, f = (
        np.asarray(value(a), dtype=float) for a in (flows, omega, p, edge_xi, alpha_hi, alpha_lo, dhi, dlo, f)
    )
    b = (mask * edge_xi) @ b_mat.T
    q = feedforward(flows, omega, p, damping)
    cap = stability_cap(dtilde, omega_sync, omega, b)
    ub = barrier_bound(cap, alpha_hi, dhi, q, upper=True)
    lb = barrier_bound(cap, alpha_lo, dlo, q, upper=False)
    return gate(dhi, dlo, f, ub, lb), b, ub, lb


def deadzone_eval(tables, dhi, dlo):
    """Dead-zone response wp.relu(dhi + bp) + wm.relu(dlo + bm), dhi = omega
    - whi and dlo = wlo - omega, from `controller.deadzone_tables`, as one
    `unit_sums` node: exactly zero for omega in [wlo, whi]."""
    plus, minus = tables
    return unit_sums(((plus, dhi, 1.0), (minus, dlo, 1.0)))


def law_node(flows, omega, p, edge_xi, mask, alpha_hi, alpha_lo, dhi, dlo, f,
             b_mat, damping, dtilde, omega_sync) -> tuple:
    """`composed_law` as one tape node with a hand-written backward rule,
    taking the barrier values, gate inputs and dead-zone response as
    inputs, so that with `law_args` the policy is on the tape op by op.
    Returns (u, b, ub, lb) with only u a node."""
    vw, vhi, vlo, vf = _val(omega), _val(dhi), _val(dlo), _val(f)
    va_hi, va_lo = _val(alpha_hi), _val(alpha_lo)
    b = (mask * _val(edge_xi)) @ b_mat.T
    q = damping * vw + _val(flows) - _val(p)
    dev = vw - omega_sync
    live_w, dev_hat = _floored_live(dev)
    cap = dtilde * dev + b / dev_hat
    live_hi, dhi_hat = _floored_live(vhi)
    t = va_hi / dhi_hat + q
    take_hi = cap <= t
    ub = np.where(take_hi, cap, t)
    live_lo, dlo_hat = _floored_live(vlo)
    t = va_lo / dlo_hat + q
    take_lo = cap >= t
    lb = np.where(take_lo, cap, t)
    u = gate(vhi, vlo, vf, ub, lb)
    aux = (vhi, vlo, vf > ub, vf < lb, take_hi, va_hi, live_hi, dhi_hat, take_lo, va_lo, live_lo, dlo_hat,
           dtilde, b, live_w, dev_hat, mask, b_mat, damping)
    args = (flows, omega, p, edge_xi, alpha_hi, alpha_lo, dhi, dlo, f)
    return record(_bk_law_node, args, aux, u), b, ub, lb


def _bk_law_node(g, par, aux, shapes, adj):
    # the composed law's rules in its reverse order: gate, lower bound, upper
    # bound, cap, feedforward, budgets; the cap and q sum their adjoints from
    # the lower bound first. The gate's indicators pass nothing to dhi and
    # dlo, and min(f, ub), max(f, lb) send g to the bound only where it
    # binds strictly.
    i_fl, iw, ip, ix, iah, ial, ihi, ilo, i_f = par
    (vhi, vlo, over_hi, over_lo, take_hi, va_hi, live_hi, dhi_hat, take_lo, va_lo, live_lo, dlo_hat,
     dtilde, vb, live_w, dev_hat, mask, b_mat, damping) = aux
    g_hi, g_lo = np.where(vhi > 0, g, 0.0), np.where(vlo > 0, g, 0.0)
    to_ub, to_lb = np.where(over_hi, g_hi, 0.0), np.where(over_lo, g_lo, 0.0)
    if i_f is not None:
        _acc(adj, shapes, i_f, g_lo - to_lb + g_hi - to_ub)
    gt_lo, gt_hi = np.where(take_lo, 0.0, to_lb), np.where(take_hi, 0.0, to_ub)
    if ial is not None:
        _acc(adj, shapes, ial, gt_lo / dlo_hat)
    if iah is not None:
        _acc(adj, shapes, iah, gt_hi / dhi_hat)
    if ilo is not None:
        gd = -gt_lo * va_lo / (dlo_hat * dlo_hat)
        _acc(adj, shapes, ilo, gd if live_lo is None else np.where(live_lo, gd, 0.0))
    if ihi is not None:
        gd = -gt_hi * va_hi / (dhi_hat * dhi_hat)
        _acc(adj, shapes, ihi, gd if live_hi is None else np.where(live_hi, gd, 0.0))
    g_cap = np.where(take_lo, to_lb, 0.0) + np.where(take_hi, to_ub, 0.0)
    g_q = gt_lo + gt_hi
    if iw is not None:
        gw = -g_cap * vb / (dev_hat * dev_hat)
        gw = gw if live_w is None else np.where(live_w, gw, 0.0)
        _acc(adj, shapes, iw, gw + g_cap * dtilde + g_q * damping)
    if ix is not None:
        _acc(adj, shapes, ix, ((g_cap / dev_hat) @ b_mat) * mask)
    if i_fl is not None:
        _acc(adj, shapes, i_fl, g_q)
    if ip is not None:
        _acc(adj, shapes, ip, -g_q)


def law_args(policy, ready, flows, omega, p) -> tuple:
    """The arguments of `law_node` and `composed_law` for the constrained
    policy at a measured state, formed per op on the tape: the differences
    dhi and dlo, both barriers' class-K maps at omega_max - omega and
    omega_min - omega and the dead-zone response, each its own node."""
    dhi, dlo = omega - ready.whi, ready.wlo - omega
    return (
        flows, omega, p, ready.edge_xi, edges_on(policy.inc, active_mask(ready, omega)).astype(float),
        class_k_eval(ready.hi, policy.omega_max - omega), class_k_eval(ready.lo, policy.omega_min - omega),
        dhi, dlo, deadzone_eval(ready.dz, dhi, dlo),
        policy.inc.b_mat, policy.net.damping, policy.dtilde, policy.eq.omega_sync,
    )


def reference_control(policy, ready, flows, omega, p) -> tuple:
    """The constrained policy's (u, b, ub, lb) at every state in the per-op
    form: `law_node` over `law_args`."""
    return law_node(*law_args(policy, ready, flows, omega, p))


def unguarded_control(policy, ready, flows, omega, p) -> ControlDecision:
    """The constrained policy's fused node at every state, with no
    short-circuit for states where every bus sits inside its dead zone."""
    active = active_mask(ready, omega)
    u, b, ub, lb = control_law(flows, omega, p, ready.edge_xi, edges_on(policy.inc, active), ready.units,
                               policy.inc.b_mat, policy.net.damping, policy.dtilde)
    return ControlDecision(u=u, budgets=b, active=active, upper=ub, lower=lb)


def two_sweep_adjoints(tape, u, states, ready, u_bar) -> tuple:
    """What two reverse sweeps over a per-entry u give: its per-entry
    derivatives in each of the `states` leaves, from a sweep seeded with
    ones, and the adjoints of the `ready` leaves for the u adjoint u_bar,
    from a second sweep seeded with u_bar."""
    tape.backward(u)
    derivs = [tape.grad(leaf) for leaf in states]
    tape.backward(u * u_bar)
    return derivs, [tape.grad(leaf) for leaf in ready]


class UnguardedPolicy:
    """A bound constrained policy whose control is `unguarded_control`."""

    def __init__(self, policy):
        self.policy = policy
        self.keys = policy.keys

    def precompute(self, raw_like):
        return self.policy.precompute(raw_like)

    def control(self, ready, flows, omega, p) -> ControlDecision:
        return unguarded_control(self.policy, ready, flows, omega, p)


# ------------------------------------------------ the per-step taped episode


def sin(a):
    """Elementwise sin as one node."""
    va = _val(a)
    return record(_bk_sin, (a,), va, np.sin(va))


def taped_line_flows(inc, lam):
    """`dynamics.line_flows` on arrays or tape nodes, sin(lam) @ By^T,
    bitwise its value."""
    return matvec(inc.by_mat, sin(lam))


def taped_swing_rhs(net, inc, lam, omega, u, p):
    """`dynamics.swing_rhs` composed of tape ops, on arrays or nodes."""
    dlam = matvec(inc.b_mat.T, omega)
    return dlam, (u + p - net.damping * omega - taped_line_flows(inc, lam)) / net.inertia


def euler_angles(lam, omega, b_mat: np.ndarray, dt: float):
    """Explicit Euler update of the edge angles, lam + dt * (omega @ b_mat),
    for the constant (n, m) incidence matrix b_mat, as one node."""
    out = _val(lam) + dt * (_val(omega) @ b_mat)
    return record(_bk_euler_angles, (lam, omega), (b_mat, dt), out)


def euler_freqs(flows, omega, u, p, damping, inertia, dt: float):
    """Explicit Euler update of the bus frequencies,
    omega + dt * (u + p - D omega - flows) / M, for constant per-bus damping
    D and inertia M and the step's line flows, as one node."""
    vomega = _val(omega)
    rate = (_val(u) + _val(p) - damping * vomega - _val(flows)) / inertia
    return record(_bk_euler_freqs, (flows, omega, u, p), (damping, inertia, dt), vomega + dt * rate)


def sq_dist(a, b=None):
    """Scalar sum((a - b)^2), or sum(a^2) without b, as one node."""
    d = _val(a) if b is None else _val(a) - _val(b)
    return record(_bk_sq_dist, (a, b), d, np.asarray((d * d).sum()))


def sum_seq(terms):
    """Left-to-right sum 0.0 + t0 + t1 + ... of a sequence, as one node."""
    total = 0.0
    for t in terms:
        total = total + _val(t)
    return record(_bk_sum_seq, tuple(terms), None, np.asarray(total))


def _bk_sin(g, par, aux, shapes, adj):
    _acc(adj, shapes, par[0], g * np.cos(aux))


def _bk_euler_angles(g, par, aux, shapes, adj):
    b_mat, dt = aux
    _acc(adj, shapes, par[0], g)
    if par[1] is not None:
        _acc(adj, shapes, par[1], (g * dt) @ b_mat.T)


def _bk_euler_freqs(g, par, aux, shapes, adj):
    i_fl, iw, iu, ip = par
    damping, inertia, dt = aux
    gr = g * dt / inertia  # adjoint of u + p - D omega - flows
    if i_fl is not None:
        _acc(adj, shapes, i_fl, -gr)
    if iw is not None:
        _acc(adj, shapes, iw, g + (-gr) * damping)
    _acc(adj, shapes, iu, gr)
    _acc(adj, shapes, ip, gr)


def _bk_sq_dist(g, par, aux, shapes, adj):
    ia, ib = par
    gd = g * 2.0 * aux
    _acc(adj, shapes, ia, gd)
    if ib is not None:
        _acc(adj, shapes, ib, -gd)


def _bk_sum_seq(g, par, aux, shapes, adj):
    for i in par:
        _acc(adj, shapes, i, g)


def taped_euler_step(net, inc, lam, omega, u, p, dt: float, flows):
    """`dynamics.euler_step` as the two Euler nodes, on arrays or nodes."""
    return (
        euler_angles(lam, omega, inc.b_mat, dt),
        euler_freqs(flows, omega, u, p, net.damping, net.inertia, dt),
    )


def taped_episode_loss(policy, net, inc, eq, raw_like, lam0, omega0, p_steps, noise, gamma, rho, dt):
    """`training.episode_loss` recorded step by step: the steps of
    `dynamics.closed_loop` on tape nodes (the line flows, the policy's
    nodes, the two Euler nodes), one sum-of-squares node per loss term and
    step, and their sums. Returns (loss, parts), nodes once the loss
    reaches the tape."""
    omega0 = np.asarray(omega0, dtype=float)
    lam0 = np.asarray(lam0, dtype=float)
    n_batch = omega0.shape[0] if omega0.ndim == 2 else 1
    k_steps = p_steps.shape[0]
    if k_steps == 0:
        return 0.0, (0.0, 0.0, 0.0)
    control = partial(policy.control, policy.precompute(raw_like))
    freq, ctrl, lip = [], [], []
    u_prev, lam, omega = None, lam0, omega0
    for k, p in enumerate(p_steps):
        flows = taped_line_flows(inc, lam)
        dec = control(flows, omega if noise is None else omega + noise[k], p)
        freq.append(sq_dist(omega, eq.omega_sync))
        ctrl.append(sq_dist(dec.u))
        if rho > 0 and u_prev is not None:
            lip.append(sq_dist(dec.u, u_prev))
        u_prev = dec.u
        if k < k_steps - 1:
            lam, omega = taped_euler_step(net, inc, lam, omega, dec.u, p, dt, flows)
    freq_term = gamma * sum_seq(freq) * (1.0 / (k_steps * n_batch))
    ctrl_term = sum_seq(ctrl) * (1.0 / (k_steps * n_batch))
    if rho > 0 and k_steps > 1:
        lip_term = rho * sum_seq(lip) * (1.0 / ((k_steps - 1) * n_batch))
    else:
        lip_term = 0.0
    loss = freq_term + ctrl_term + lip_term
    return loss, (freq_term, ctrl_term, lip_term)


def taped_loss_and_grad(policy, net, inc, eq, raw_values, lam0, omega0, p_steps, noise, gamma, rho, dt):
    """`training.loss_and_grad` over `taped_episode_loss`: (loss, parts,
    grads), zero gradients for a loss that never reaches the tape."""
    tp = Tape()
    leaves = {k: tp.leaf(raw_values[k]) for k in policy.keys}
    loss, parts = taped_episode_loss(policy, net, inc, eq, leaves, lam0, omega0, p_steps, noise, gamma, rho, dt)
    part_vals = tuple(float(value(p)) for p in parts)
    if not isinstance(loss, Node):
        return float(loss), part_vals, {k: np.zeros_like(raw_values[k]) for k in policy.keys}
    tp.backward(loss)
    grads = {k: tp.grad(leaves[k]) for k in policy.keys}
    if any(not np.all(np.isfinite(g)) for g in grads.values()):
        raise TrainingError("non-finite gradient in the taped reference")
    return float(value(loss)), part_vals, grads
