"""Reverse-mode automatic differentiation on a flat tape of numpy ops.

The op set is exactly what the rollout, controller and loss need, nothing
more. General ops: elementwise arithmetic and activations, `minimum`, a
constant matvec, a min reduction, last-axis prefix sums, differences and zero
padding, and `permute_last` (a constant per-row reordering of the last axis).
`sin` serves `dynamics.swing_rhs`, the composed vector field that the
values-only RK4 step evaluates and that, recorded on a tape, is the
reference the fused Euler kernels' gradients are checked against.
Fused kernels, one node each with a hand-written backward rule, for the
per-step hot path of a training episode:

  * `unit_sums`: the class-K and dead-zone maps, each a sum of ReLU-unit
    branches evaluated as one linear piece per branch from prefix tables;
  * `euler_angles`, `euler_freqs`: the two explicit Euler updates of the
    swing state;
  * `control_law`: the constrained control law (budgets, feedforward,
    stability cap, both barrier bounds and the gate) at one state, whose
    only node output is u;
  * `sq_dist`, `sum_seq`: a loss term's sum of squares and the left-to-right
    sum of the per-step terms.

Each fused kernel evaluates the numpy expression of the composed ops it
stands for, in the same order, so its value is bitwise the composed one.
Every recorded node stores its backward rule (whose name gives the op),
parent indices, output shape and the cached locals the rule needs; a value
stays alive only while a Node handle or such a cache holds it. Adjoints fill
a parallel buffer in a single reverse sweep that keeps only leaf ones.

A `unit_sums` node stores no (..., n, m) temporary: per branch it keeps the
weight table, the input and the count k of active units per entry in the
smallest unsigned type that holds m (one byte up to 255 units), and nothing
for a branch with no active unit, which it skips.

Subgradient conventions (pinned by tests):
  * relu'(0) = 0 (the mask is x > 0, strictly; a unit exactly at its
    threshold is inactive in `unit_sums`, and `control_law`'s gate treats
    its ReLUs so)
  * minimum, and the min/max of `control_law`'s barrier bounds, route the
    adjoint entirely to the attaining argument: minimum's first argument,
    and the bounds' cap, on ties
  * reduce_min routes to the first attaining index in C order
  * a denominator of `control_law` floored at +/-_TINY gets no adjoint

All functions below accept either `Node`s or plain numpy arrays / scalars and
broadcast like numpy. Each computes its value and backward cache once and
hands them to `_node`, the one place that decides between returning the plain
value (no argument is a Node) and recording it, so the same model code serves
both simulation and training.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np

_TINY = 1e-12  # floor of |denominator| in control_law


class TapeError(RuntimeError):
    """Reverse sweep produced a non-finite adjoint; message names the node."""


class Node:
    """Handle to one tape entry and its value. Supports +, -, *, / against
    Nodes or arrays."""

    __slots__ = ("tape", "idx", "value")
    __array_ufunc__ = None  # force numpy to defer to our reflected operators

    def __init__(self, tape: "Tape", idx: int, value: np.ndarray):
        self.tape = tape
        self.idx = idx
        self.value = value

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Node(idx={self.idx}, value={self.value!r})"


class Tape:
    """Append-only op record; parents always precede children.

    The tape keeps each node's shape, not its value: a value lives while a
    Node handle or a backward cache (a child's aux) holds it, so a value no
    backward rule reads is freed once the model code drops its handle.
    """

    def __init__(self):
        self.rules: list = []  # each node's backward rule; None for a leaf
        self.parents: list[tuple] = []
        self.aux: list = []
        self.shapes: list[tuple] = []
        self._refs: list[weakref.ref] = []
        self._shape_ids: dict = {}  # one tuple object per distinct shape
        self.adj: list = []

    def __len__(self) -> int:
        return len(self.rules)

    @property
    def vals(self) -> list:
        """Each node's value while something still holds it, else None."""
        return [ref() for ref in self._refs]

    def leaf(self, value) -> Node:
        return self._rec(None, (), None, np.asarray(value, dtype=float))

    def _rec(self, rule, parents: tuple, aux, val) -> Node:
        val = np.asarray(val)  # a 0-d array, not a numpy scalar, takes a weakref
        self.rules.append(rule)
        self.parents.append(parents)
        self.aux.append(aux)
        self.shapes.append(self._shape_ids.setdefault(val.shape, val.shape))
        self._refs.append(weakref.ref(val))
        return Node(self, len(self.rules) - 1, val)

    def backward(self, root: Node, check_finite: bool = False) -> None:
        """Fill the leaf adjoints of the sum of `root`'s entries by one reverse
        sweep; an interior adjoint is dropped as soon as its rule has pushed
        it to the parents.

        With check_finite=True every visited adjoint is tested and the first
        non-finite one aborts the sweep; the checked mode exists to locate
        the source after a cheap unchecked sweep came back non-finite.
        """
        if root.tape is not self:
            raise ValueError("root node belongs to a different tape")
        adj = [None] * len(self)
        adj[root.idx] = np.ones(self.shapes[root.idx])
        rules, parents, aux, shapes = self.rules, self.parents, self.aux, self.shapes
        for i in range(root.idx, -1, -1):
            g = adj[i]
            if g is None:
                continue
            if check_finite and not np.all(np.isfinite(g)):
                raise TapeError(
                    f"non-finite adjoint at node {i} (op '{_op_name(rules[i])}') "
                    f"in reverse sweep from node {root.idx}"
                )
            if rules[i] is None:
                continue
            rules[i](g, parents[i], aux[i], shapes, adj)
            adj[i] = None
        self.adj = adj

    def grad(self, node: Node) -> np.ndarray:
        """Adjoint of a leaf after `backward` (zeros if the root ignores it);
        ValueError naming the node for an interior one, which is dropped.
        The array may be another leaf's too: copy it before writing to it."""
        if self.rules[node.idx] is not None:
            raise ValueError(f"node {node.idx} (op '{_op_name(self.rules[node.idx])}') is not a leaf")
        g = self.adj[node.idx]
        return np.zeros(self.shapes[node.idx]) if g is None else g


def _op_name(rule) -> str:
    """A tape entry's op: its rule's name without `_bk_`, or 'leaf'."""
    return "leaf" if rule is None else rule.__name__.removeprefix("_bk_")


def value(x):
    """Plain numpy value of a Node, or x itself."""
    return x.value if isinstance(x, Node) else x


def _val(x) -> np.ndarray:
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=float)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to `shape` by summing expanded axes."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(ax for ax, s in enumerate(shape) if s == 1 and g.shape[ax] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


def _acc(adj, shapes, idx, g):
    """Add g to node idx's adjoint. The sum is out of place, so a rule may
    hand one array to several parents."""
    if idx is None:
        return
    if g.shape != shapes[idx]:
        g = _unbroadcast(g, shapes[idx])
    prev = adj[idx]
    adj[idx] = g if prev is None else prev + g


def _node(rule, args: tuple, aux, out):
    """The one recording path: `out` itself when no argument is a Node, else
    `out` recorded on the first Node's tape with its backward `rule` and
    the `aux` that rule reads."""
    for x in args:
        if isinstance(x, Node):
            return x.tape._rec(rule, tuple([a.idx if isinstance(a, Node) else None for a in args]), aux, out)
    return out


# ---------------------------------------------------------------- primitives


def add(a, b):
    return _node(_bk_add, (a, b), None, _val(a) + _val(b))


def sub(a, b):
    return _node(_bk_sub, (a, b), None, _val(a) - _val(b))


def mul(a, b):
    va, vb = _val(a), _val(b)
    return _node(_bk_mul, (a, b), (va, vb), va * vb)


def div(a, b):
    """Plain division; denominators must stay away from zero."""
    va, vb = _val(a), _val(b)
    return _node(_bk_div, (a, b), (va, vb), va / vb)


def neg(a):
    return _node(_bk_neg, (a,), None, -_val(a))


def sin(a):
    va = _val(a)
    return _node(_bk_sin, (a,), va, np.sin(va))


def sigmoid(a):
    out = _sigmoid_val(_val(a))
    return _node(_bk_sigmoid, (a,), out, out)


def _sigmoid_val(x: np.ndarray) -> np.ndarray:
    pos = x >= 0
    ex = np.exp(np.where(pos, -x, x))  # exp of a non-positive number, stable
    return np.where(pos, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def softplus(a):
    va = _val(a)
    return _node(_bk_softplus, (a,), va, np.maximum(va, 0.0) + np.log1p(np.exp(-np.abs(va))))


def tanh(a):
    out = np.tanh(_val(a))
    return _node(_bk_tanh, (a,), out, out)


def square(a):
    va = _val(a)
    return _node(_bk_square, (a,), va, va * va)


def minimum(a, b):
    va, vb = _val(a), _val(b)
    take = va <= vb  # first argument wins ties
    return _node(_bk_minimum, (a, b), take, np.where(take, va, vb))


def matvec(mat: np.ndarray, x):
    """x @ mat.T for a constant matrix (equals mat @ x on 1-d input).

    Batches over leading axes of x: (..., k) -> (..., r) for mat (r, k).
    """
    return _node(_bk_matvec, (x,), mat, _val(x) @ mat.T)


def reduce_min(a):
    """Scalar minimum of an array; adjoint goes to the first attaining entry."""
    va = _val(a)
    k = int(np.argmin(va))
    return _node(_bk_reduce_min, (a,), k, np.asarray(va.reshape(-1)[k]))


def permute_last(a, perm: np.ndarray):
    """a reordered along its last axis by a constant index array `perm` of
    a's shape, each row of it a permutation."""
    return _node(_bk_permute_last, (a,), perm, np.take_along_axis(_val(a), perm, axis=-1))


def cumsum_last(a):
    return _node(_bk_cumsum_last, (a,), None, np.cumsum(_val(a), axis=-1))


def diff_keepfirst(a):
    """out[..., 0] = a[..., 0]; out[..., j] = a[..., j] - a[..., j-1]."""
    va = _val(a)
    out = np.empty_like(va)
    out[..., 0] = va[..., 0]
    out[..., 1:] = va[..., 1:] - va[..., :-1]
    return _node(_bk_diff_keepfirst, (a,), None, out)


def pad_zero_first(a):
    """Prepend a zero column along the last axis: (..., k) -> (..., k+1)."""
    va = _val(a)
    out = np.zeros(va.shape[:-1] + (va.shape[-1] + 1,), dtype=float)
    out[..., 1:] = va
    return _node(_bk_pad_zero_first, (a,), None, out)


# ------------------------------------------------ fused per-step kernels


def unit_sums(branches, bound=None):
    """Left-to-right sum over branches ((W, C, thr), s, sign) of
    sum_j w[n, j] * relu(x + b[n, j]), x = sign * r, with r = s or, for a
    plain `bound`, r = bound - s. Each s is (n,) or (..., n), as the result.

    The biases of each row n must be non-increasing, so the units active at
    x form a prefix: W and C are (n, m+1) with W[n, k] = sum_{j<k} w[n, j]
    and C[n, k] = sum_{j<k} w[n, j] b[n, j], thr is the plain (n, m+1) array
    [-b, +inf], and a branch is x W[k] + C[k] at the first column k with
    thr >= x: exactly 0.0 with no unit active. A branch with every entry at
    or below its first threshold is skipped forward and backward; the sum
    then ends in + 0.0, as adding its zeros would.
    """
    total, args, aux, last_s = None, [], [], None
    for (W, C, thr), s, sign in branches:
        args += (W, C, s)
        if s is not last_s:
            last_s, r = s, _val(s) if bound is None else bound - _val(s)
        x = r if sign > 0 else -r
        if np.count_nonzero(x <= thr[..., 0]) == x.size:
            aux.append(None)
            continue
        k = (thr < x[..., None]).argmin(-1)
        flat = k + _row_offsets(thr.shape)
        vW = _val(W)
        out = x * vW.reshape(-1)[flat] + _val(C).reshape(-1)[flat]
        total = out if total is None else total + out
        aux.append((vW, r, k.astype(np.min_scalar_type(thr.shape[-1] - 1)), sign))
    if total is None:
        total = np.zeros(r.shape)
    elif None in aux:
        total = total + 0.0
    return _node(_bk_unit_sums, tuple(args), (aux, bound is not None), total)


@functools.lru_cache(maxsize=None)
def _row_offsets(shape: tuple) -> np.ndarray:
    """Flat index of column 0 of each row of an (n, m+1) table (read-only)."""
    off = np.arange(0, shape[0] * shape[1], shape[1])
    off.flags.writeable = False
    return off


def _floored(vd):
    """(live, dhat): where |d| >= _TINY, and d with its magnitude floored
    there; (None, d) when no entry needs the floor."""
    live = np.abs(vd) >= _TINY
    if np.count_nonzero(live) == live.size:
        return None, vd
    return live, np.where(live, vd, np.where(vd < 0, -_TINY, _TINY))


def euler_angles(lam, omega, b_mat: np.ndarray, dt: float):
    """Explicit Euler update of the edge angles, lam + dt * (omega @ b_mat),
    for the constant (n, m) incidence matrix b_mat."""
    out = _val(lam) + dt * (_val(omega) @ b_mat)
    return _node(_bk_euler_angles, (lam, omega), (b_mat, dt), out)


def euler_freqs(lam, omega, u, p, damping, inertia, by_mat: np.ndarray, dt: float):
    """Explicit Euler update of the bus frequencies,
    omega + dt * (u + p - D omega - sin(lam) @ by_mat.T) / M, for constant
    per-bus damping D and inertia M and the (n, m) matrix by_mat."""
    vlam, vomega = _val(lam), _val(omega)
    rate = (_val(u) + _val(p) - damping * vomega - np.sin(vlam) @ by_mat.T) / inertia
    return _node(_bk_euler_freqs, (lam, omega, u, p), (vlam, damping, inertia, by_mat, dt), vomega + dt * rate)


def control_law(lam, omega, p, edge_xi, mask, alpha_hi, alpha_lo, dhi, dlo, f,
                b_mat, by_mat, damping, dtilde, omega_sync):
    """The constrained control law at one measured state, as one node:

      b   = (mask * edge_xi) @ b_mat.T             budgets B (on * B^T xi)
      q   = D omega + sin(lam) @ by_mat.T - p      local feedforward
      cap = D_tilde dev + b / dev                  stability cap, dev = omega - omega_sync
      ub  = min(cap, alpha_hi / dhi + q)           upper barrier bound
      lb  = max(cap, alpha_lo / dlo + q)           lower barrier bound
      u   = relu(dhi) (f - relu(f - ub)) + relu(dlo) (f + relu(lb - f))

    with |dev|, |dhi| and |dlo| floored at _TINY and the cap taken on ties.
    mask is a plain float edge mask; b_mat (n, m), by_mat (n, m), D, D_tilde
    and omega_sync are constants. Returns (u, b, ub, lb): u is a node when
    any argument is one, and b, ub and lb are plain arrays, since nothing
    backpropagates through them.
    """
    vlam, vw, vhi, vlo, vf = _val(lam), _val(omega), _val(dhi), _val(dlo), _val(f)
    va_hi, va_lo = _val(alpha_hi), _val(alpha_lo)
    b = (mask * _val(edge_xi)) @ b_mat.T
    q = damping * vw + np.sin(vlam) @ by_mat.T - _val(p)
    dev = vw - omega_sync
    live_w, dev_hat = _floored(dev)
    cap = dtilde * dev + b / dev_hat
    live_hi, dhi_hat = _floored(vhi)
    t = va_hi / dhi_hat + q
    take_hi = cap <= t
    ub = np.where(take_hi, cap, t)
    live_lo, dlo_hat = _floored(vlo)
    t = va_lo / dlo_hat + q
    take_lo = cap >= t
    lb = np.where(take_lo, cap, t)
    cut_hi, cut_lo = np.maximum(vf - ub, 0.0), np.maximum(lb - vf, 0.0)
    u = np.maximum(vhi, 0.0) * (vf - cut_hi) + np.maximum(vlo, 0.0) * (vf + cut_lo)
    aux = (vhi, vlo, vf, cut_hi, cut_lo, take_hi, va_hi, live_hi, dhi_hat, take_lo, va_lo, live_lo, dlo_hat,
           dtilde, b, live_w, dev_hat, mask, b_mat, vlam, damping, by_mat)
    args = (lam, omega, p, edge_xi, alpha_hi, alpha_lo, dhi, dlo, f)
    return _node(_bk_control_law, args, aux, u), b, ub, lb


def sq_dist(a, b=None):
    """Scalar sum((a - b)^2), or sum(a^2) without b."""
    d = _val(a) if b is None else _val(a) - _val(b)
    return _node(_bk_sq_dist, (a, b), d, np.asarray((d * d).sum()))


def sum_seq(terms):
    """Left-to-right sum 0.0 + t0 + t1 + ... of a sequence, as one node."""
    total = 0.0
    for t in terms:
        total = total + _val(t)
    return _node(_bk_sum_seq, tuple(terms), None, np.asarray(total))


# ------------------------------------------------------------ backward rules


def _bk_add(g, par, aux, shapes, adj):
    _acc(adj, shapes, par[0], g)
    _acc(adj, shapes, par[1], g)


def _bk_sub(g, par, aux, shapes, adj):
    ia, ib = par
    _acc(adj, shapes, ia, g)
    if ib is not None:
        _acc(adj, shapes, ib, -g)


def _bk_mul(g, par, aux, shapes, adj):
    ia, ib = par
    va, vb = aux
    if ia is not None:
        _acc(adj, shapes, ia, g * vb)
    if ib is not None:
        _acc(adj, shapes, ib, g * va)


def _bk_div(g, par, aux, shapes, adj):
    ia, ib = par
    va, vb = aux
    if ia is not None:
        _acc(adj, shapes, ia, g / vb)
    if ib is not None:
        _acc(adj, shapes, ib, -g * va / (vb * vb))


def _bk_neg(g, par, aux, shapes, adj):
    _acc(adj, shapes, par[0], -g)


def _bk_sin(g, par, aux, shapes, adj):
    _acc(adj, shapes, par[0], g * np.cos(aux))


def _bk_sigmoid(g, par, aux, shapes, adj):
    _acc(adj, shapes, par[0], g * aux * (1.0 - aux))


def _bk_softplus(g, par, aux, shapes, adj):
    _acc(adj, shapes, par[0], g * _sigmoid_val(aux))


def _bk_tanh(g, par, aux, shapes, adj):
    _acc(adj, shapes, par[0], g * (1.0 - aux * aux))


def _bk_square(g, par, aux, shapes, adj):
    _acc(adj, shapes, par[0], g * 2.0 * aux)


def _bk_minimum(g, par, aux, shapes, adj):
    ia, ib = par
    if ia is not None:
        _acc(adj, shapes, ia, np.where(aux, g, 0.0))
    if ib is not None:
        _acc(adj, shapes, ib, np.where(aux, 0.0, g))


def _bk_matvec(g, par, aux, shapes, adj):
    _acc(adj, shapes, par[0], g @ aux)


def _bk_reduce_min(g, par, aux, shapes, adj):
    full = np.zeros(shapes[par[0]])
    full.reshape(-1)[aux] = g
    _acc(adj, shapes, par[0], full)


def _bk_unit_sums(g, par, aux, shapes, adj):
    # Branches in reverse, as the composed sum would sweep them; g, r and the
    # gather index have the output's shape, so the table adjoints are plain
    # bincounts over the flat index. With a bound, the branches of one s sum
    # the adjoint of bound - s and push it to s once, at the end, so the
    # gradient is bitwise that of the map evaluated at a bound - s node.
    branches, shifted = aux
    through = {}
    for b in range(len(branches) - 1, -1, -1):
        if branches[b] is None:
            continue
        (iW, iC, i_s), (vW, r, k, sign) = par[3 * b : 3 * b + 3], branches[b]
        flat = (k + _row_offsets(vW.shape)).reshape(-1)
        gs = sign * g * vW.reshape(-1)[flat].reshape(g.shape)
        if not shifted:
            _acc(adj, shapes, i_s, gs)
        else:
            through[i_s] = through[i_s] + gs if i_s in through else gs
        if iW is not None:
            _acc(adj, shapes, iW, sign * np.bincount(flat, (g * r).reshape(-1), vW.size).reshape(vW.shape))
        if iC is not None:
            _acc(adj, shapes, iC, np.bincount(flat, g.reshape(-1), vW.size).reshape(vW.shape))
    for i_s, gs in through.items():
        _acc(adj, shapes, i_s, -gs)


def _bk_euler_angles(g, par, aux, shapes, adj):
    b_mat, dt = aux
    _acc(adj, shapes, par[0], g)
    if par[1] is not None:
        _acc(adj, shapes, par[1], (g * dt) @ b_mat.T)


def _bk_euler_freqs(g, par, aux, shapes, adj):
    il, iw, iu, ip = par
    vlam, damping, inertia, by_mat, dt = aux
    gr = g * dt / inertia  # adjoint of u + p - D omega - sin(lam) @ by_mat.T
    if il is not None:
        _acc(adj, shapes, il, ((-gr) @ by_mat) * np.cos(vlam))
    if iw is not None:
        _acc(adj, shapes, iw, g + (-gr) * damping)
    _acc(adj, shapes, iu, gr)
    _acc(adj, shapes, ip, gr)


def _bk_control_law(g, par, aux, shapes, adj):
    # The composed law's rules in its reverse order: gate, lower bound, upper
    # bound, cap, feedforward, budgets; the cap and q sum their adjoints from
    # the lower bound first, as the composed sweep did.
    il, iw, ip, ix, iah, ial, ihi, ilo, i_f = par
    (vhi, vlo, vf, cut_hi, cut_lo, take_hi, va_hi, live_hi, dhi_hat, take_lo, va_lo, live_lo, dlo_hat,
     dtilde, vb, live_w, dev_hat, mask, b_mat, vlam, damping, by_mat) = aux
    ghi, glo = np.maximum(vhi, 0.0), np.maximum(vlo, 0.0)
    g_hi, g_lo = g * ghi, g * glo  # adjoints of the two gated branches
    to_ub, to_lb = g_hi * (cut_hi > 0), g_lo * (cut_lo > 0)
    if i_f is not None:
        _acc(adj, shapes, i_f, g_lo - to_lb + g_hi - to_ub)
    gt_lo, gt_hi = np.where(take_lo, 0.0, to_lb), np.where(take_hi, 0.0, to_ub)  # of alpha / d + q
    if ial is not None:
        _acc(adj, shapes, ial, gt_lo / dlo_hat)
    if iah is not None:
        _acc(adj, shapes, iah, gt_hi / dhi_hat)
    if ilo is not None:
        gd = -gt_lo * va_lo / (dlo_hat * dlo_hat)
        gd = gd if live_lo is None else np.where(live_lo, gd, 0.0)
        _acc(adj, shapes, ilo, (g * (vf + cut_lo)) * (glo > 0) + gd)
    if ihi is not None:
        gd = -gt_hi * va_hi / (dhi_hat * dhi_hat)
        gd = gd if live_hi is None else np.where(live_hi, gd, 0.0)
        _acc(adj, shapes, ihi, (g * (vf - cut_hi)) * (ghi > 0) + gd)
    g_cap = np.where(take_lo, to_lb, 0.0) + np.where(take_hi, to_ub, 0.0)
    g_q = gt_lo + gt_hi
    if iw is not None:
        gw = -g_cap * vb / (dev_hat * dev_hat)
        gw = gw if live_w is None else np.where(live_w, gw, 0.0)
        _acc(adj, shapes, iw, gw + g_cap * dtilde + g_q * damping)
    if ix is not None:
        _acc(adj, shapes, ix, ((g_cap / dev_hat) @ b_mat) * mask)
    if il is not None:
        _acc(adj, shapes, il, (g_q @ by_mat) * np.cos(vlam))
    if ip is not None:
        _acc(adj, shapes, ip, -g_q)


def _bk_sq_dist(g, par, aux, shapes, adj):
    ia, ib = par
    gd = g * 2.0 * aux
    _acc(adj, shapes, ia, gd)
    if ib is not None:
        _acc(adj, shapes, ib, -gd)


def _bk_sum_seq(g, par, aux, shapes, adj):
    for i in par:
        _acc(adj, shapes, i, g)


def _bk_permute_last(g, par, aux, shapes, adj):
    full = np.empty_like(g)
    np.put_along_axis(full, aux, g, axis=-1)
    _acc(adj, shapes, par[0], full)


def _bk_cumsum_last(g, par, aux, shapes, adj):
    rev = np.flip(np.cumsum(np.flip(g, axis=-1), axis=-1), axis=-1)
    _acc(adj, shapes, par[0], rev)


def _bk_diff_keepfirst(g, par, aux, shapes, adj):
    gx = np.array(g, dtype=float, copy=True)
    gx[..., :-1] -= g[..., 1:]
    _acc(adj, shapes, par[0], gx)


def _bk_pad_zero_first(g, par, aux, shapes, adj):
    _acc(adj, shapes, par[0], np.asarray(g)[..., 1:])

