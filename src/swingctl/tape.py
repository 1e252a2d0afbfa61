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

  * `unit_sums`: the monotone baseline's class-K map, a sum of ReLU-unit
    branches evaluated as one linear piece per branch from prefix tables;
  * `euler_angles`, `euler_freqs`: the two explicit Euler updates of the
    swing state;
  * `control_law`: the whole constrained policy at one measured state (gate
    inputs, both class-K barriers and the dead-zone response from their six
    ReLU-unit branches, budgets, feedforward, stability cap, both barrier
    bounds and the gate), whose only node output is u, and `stack_units`,
    the per-rollout node that stacks the prefix tables it reads;
  * `sq_dist`, `sum_seq`: a loss term's sum of squares and the left-to-right
    sum of the per-step terms.

Each fused kernel evaluates the numpy expression of the composed ops it
stands for, in the same order, so its value is bitwise the composed one,
and its rule sums adjoints in the order of the composed reverse sweep, so
gradients are bitwise too. Every recorded node stores its backward rule
(whose name gives the op), parent indices, output shape and the cached
locals the rule needs; a value stays alive only while a Node handle or such
a cache holds it. Adjoints fill a parallel buffer in a single reverse sweep
that keeps only leaf ones.

No node stores an (..., n, m) temporary. A `unit_sums` node keeps, per
branch, the weight table, the input and the count k of active units per
entry in the smallest unsigned type that holds m (one byte up to 255
units), and nothing for a branch with no active unit, which it skips. A
`control_law` node keeps the measured omega, a few (..., n) values and the
six branches' counts, and recomputes the branch inputs from omega.

Subgradient conventions (pinned by tests):
  * relu'(0) = 0 (the mask is x > 0, strictly; a unit exactly at its
    threshold is inactive in `unit_sums` and `control_law`, and the
    latter's gate treats its ReLUs so)
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
import math
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


def unit_sums(branches):
    """Left-to-right sum over branches ((W, C, thr), s, sign) of
    sum_j w[n, j] * relu(x + b[n, j]), x = sign * s. Each s is (n,) or
    (..., n), as the result.

    The biases of each row n must be non-increasing, so the units active at
    x form a prefix: W and C are (n, m+1) with W[n, k] = sum_{j<k} w[n, j]
    and C[n, k] = sum_{j<k} w[n, j] b[n, j], thr is the plain (n, m+1) array
    [-b, +inf], and a branch is x W[k] + C[k] at the first column k with
    thr >= x: exactly 0.0 with no unit active. A branch with every entry at
    or below its first threshold is skipped forward and backward; the sum
    then ends in + 0.0, as adding its zeros would.
    """
    total, args, aux = None, [], []
    for (W, C, thr), s, sign in branches:
        args += (W, C, s)
        x = _val(s) if sign > 0 else -_val(s)
        if np.count_nonzero(x <= thr[..., 0]) == x.size:
            aux.append(None)
            continue
        k = (thr < x[..., None]).argmin(-1)
        flat = k + _row_offsets(thr.shape)
        vW = _val(W)
        out = x * vW.reshape(-1)[flat] + _val(C).reshape(-1)[flat]
        total = out if total is None else total + out
        aux.append((vW, _val(s), k.astype(np.min_scalar_type(thr.shape[-1] - 1)), sign))
    if total is None:
        total = np.zeros(x.shape)
    elif None in aux:
        total = total + 0.0
    return _node(_bk_unit_sums, tuple(args), aux, total)


@functools.lru_cache(maxsize=None)
def _row_offsets(shape: tuple) -> np.ndarray:
    """Flat index of column 0 of each row of a (..., n, m+1) table (read-only)."""
    off = np.arange(0, math.prod(shape), shape[-1]).reshape(shape[:-1])
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


def stack_units(tables, whi, wlo, omega_min, omega_max, omega_sync) -> tuple:
    """`control_law`'s per-rollout units (WC, thr, c, whi, wlo, layouts).

    tables are the six (W, C, thr) prefix tables of its ReLU-unit branches
    in the order dead-zone plus and minus, upper barrier plus, lower barrier
    minus, upper barrier minus, lower barrier plus: the last two have no
    active unit inside the band, where a step evaluates only the first four.
    WC stacks their W and C as
    (2, 6, n, m+1), one node when any table is one; thr holds the
    thresholds below +inf as (m, 6, n); c is [omega_sync, whi, wlo,
    omega_max, omega_min, omega_max, omega_min] (7, n), the values dev, the
    gate inputs and the branch inputs are formed from; whi and wlo are the
    threshold nodes (or arrays). layouts caches, per state shape, thr, c
    and the gather offsets laid out like the (6, ..., n) branch inputs.
    """
    vals = np.array([[_val(W) for W, _, _ in tables], [_val(C) for _, C, _ in tables]])
    args = tuple(W for W, _, _ in tables) + tuple(C for _, C, _ in tables)
    thr = np.ascontiguousarray(np.stack([t[..., :-1] for _, _, t in tables]).transpose(2, 0, 1))
    c = np.stack(np.broadcast_arrays(omega_sync, _val(whi), _val(wlo), omega_max, omega_min, omega_max, omega_min))
    return _node(_bk_stack_units, args, None, vals), thr, c, whi, wlo, {}


_SIGNS = np.array([1.0, 1.0, 1.0, -1.0, -1.0, 1.0])  # x = sign * r per branch


def _layout(units, shape: tuple) -> tuple:
    """(thr, off, c, sign) of `units` for states of shape `shape`, laid out
    like the branch inputs, (6,) + shape, so each op runs on contiguous
    arrays: the thresholds (m, 6) + shape, each entry's flat offset into a
    (6, n, m+1) table, c (7,) + shape and the branch signs. Built once per
    state shape."""
    _, thr, c, _, _, layouts = units
    if shape not in layouts:
        m, n, ones = thr.shape[0], shape[-1], (1,) * (len(shape) - 1)
        off = _row_offsets((6, n, m + 1)).reshape((6,) + ones + (n,))
        layouts[shape] = tuple(np.ascontiguousarray(np.broadcast_to(a, lead + shape)) for a, lead in (
            (thr.reshape((m, 6) + ones + (n,)), (m, 6)), (off, (6,)), (c.reshape((7,) + ones + (n,)), (7,)),
            (_SIGNS.reshape((6,) + ones + (1,)), (6,))))
    return layouts[shape]


def _inputs(vw, c) -> np.ndarray:
    """(7, ..., n) at omega, from a `_layout` c: dev = omega - omega_sync,
    dhi = omega - whi and dlo = wlo - omega, then the r of the upper and
    lower barrier branches, omega_max - omega and omega_min - omega, twice;
    the branch inputs are r[1:] times the branch signs."""
    r = c - vw
    np.subtract(vw, c[:2], out=r[:2])
    return r


def control_law(lam, omega, p, edge_xi, mask, units, b_mat, by_mat, damping, dtilde):
    """The constrained policy at one measured state, as one node:

      dhi = omega - whi, dlo = wlo - omega          gate inputs
      a_hi = k_hi(omega_max - omega)                upper class-K barrier
      a_lo = k_lo(omega_min - omega)                lower class-K barrier
      f   = z+(dhi) + z-(dlo)                       dead-zone response
      b   = (mask * edge_xi) @ b_mat.T              budgets B (on * B^T xi)
      q   = D omega + sin(lam) @ by_mat.T - p       local feedforward
      cap = D_tilde dev + b / dev                   stability cap, dev = omega - omega_sync
      ub  = min(cap, a_hi / dhi + q)                upper barrier bound
      lb  = max(cap, a_lo / dlo + q)                lower barrier bound
      u   = relu(dhi) (f - relu(f - ub)) + relu(dlo) (f + relu(lb - f))

    with k(r) = k+(r) + k-(-r). Each of the six ReLU-unit branches
    sum_j w_j relu(x + b_j) is one linear piece x W[k] + C[k], k the count
    of its thresholds below x (they are non-decreasing along the units),
    counted and gathered at once from `units` (`stack_units`) for the
    leading branches up to the last with an active unit; a branch with no
    active unit gives exactly +0.0. |dev|, |dhi| and |dlo| are floored at
    _TINY and the cap is taken on ties. mask is a plain edge mask; b_mat
    (n, m), by_mat (n, m), D and D_tilde are constants. Returns (u, b, ub,
    lb): u is a node when any argument is one, and b, ub and lb are plain
    arrays, since nothing backpropagates through them.
    """
    WC, _, _, whi, wlo, _ = units
    vWC, vlam, vw = _val(WC), _val(lam), _val(omega)
    layout = _layout(units, vw.shape)
    thr, off, c, sign = layout
    r = _inputs(vw, c)
    x = sign * r[1:]
    on = (x > thr[0]).reshape(6, -1).any(1).tolist()  # branches with an active unit
    n_on = max((j + 1 for j in range(6) if on[j]), default=0)
    k = np.zeros(x.shape, dtype=np.min_scalar_type(thr.shape[0]))
    np.sum(thr[:, :n_on] < x[:n_on], axis=0, dtype=k.dtype, out=k[:n_on])
    flat = k[:n_on].astype(np.intp) + off[:n_on]
    part = np.zeros(x.shape)
    part[:n_on] = x[:n_on] * vWC[0].reshape(-1)[flat] + vWC[1].reshape(-1)[flat]
    f, a = part[0] + part[1], part[2:4] + part[4:]  # f and a_hi, a_lo
    floors = None if np.abs(r[:3]).min() >= _TINY else _floored(r[:3])  # of dev, dhi, dlo
    hat = r[:3] if floors is None else floors[1]
    b = (mask * _val(edge_xi)) @ b_mat.T
    q = damping * vw + np.sin(vlam) @ by_mat.T - _val(p)
    cap = dtilde * r[0] + b / hat[0]
    t = a / hat[1:] + q  # a / d + q of both bounds
    take = np.empty(t.shape, dtype=bool)  # where the cap binds
    np.less_equal(cap, t[0], out=take[0])
    np.greater_equal(cap, t[1], out=take[1])
    bound = np.where(take, cap, t)  # ub, lb
    cut = np.empty(t.shape)  # relu(f - ub), relu(lb - f)
    np.subtract(f, bound[0], out=cut[0])
    np.subtract(bound[1], f, out=cut[1])
    np.maximum(cut, 0.0, out=cut)
    gated = np.maximum(r[1:3], 0.0) * _clipped(f, cut)
    u = gated[0] + gated[1]
    aux = (vw, f, a, cut, take, b, floors, mask, k, on, n_on, vlam, vWC, layout, (b_mat, by_mat, damping, dtilde))
    return _node(_bk_control_law, (lam, omega, p, edge_xi, whi, wlo, WC), aux, u), b, bound[0], bound[1]


def _clipped(f, cut) -> np.ndarray:
    """f - relu(f - ub) and f + relu(lb - f), stacked like cut."""
    out = np.empty(cut.shape)
    np.subtract(f, cut[0], out=out[0])
    np.add(f, cut[1], out=out[1])
    return out


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
    # Branches in reverse, as the composed sum would sweep them; g, s and the
    # gather index have the output's shape, so the table adjoints are plain
    # bincounts over the flat index.
    for b in range(len(aux) - 1, -1, -1):
        if aux[b] is None:
            continue
        (iW, iC, i_s), (vW, vs, k, sign) = par[3 * b : 3 * b + 3], aux[b]
        flat = (k + _row_offsets(vW.shape)).reshape(-1)
        _acc(adj, shapes, i_s, sign * g * vW.reshape(-1)[flat].reshape(g.shape))
        if iW is not None:
            _acc(adj, shapes, iW, sign * np.bincount(flat, (g * vs).reshape(-1), vW.size).reshape(vW.shape))
        if iC is not None:
            _acc(adj, shapes, iC, np.bincount(flat, g.reshape(-1), vW.size).reshape(vW.shape))


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
    # The composed policy's rules in its reverse order: the gate, both
    # bounds, the cap, feedforward and budgets; then the six branches, the
    # dead-zone ones adding to the adjoints of dlo and dhi and the lower and
    # upper barrier each sending -(minus + plus) to omega; and last the
    # differences dlo = wlo - omega and dhi = omega - whi. The branch inputs
    # and dev are recomputed from the cached omega. A branch with no active
    # unit adds nothing anywhere: its slices of the table adjoint are -0.0.
    il, iw, ip, ix, iwhi, iwlo, iu = par
    vw, f, a, cut, take, vb, floors, mask, k, on, n_on, vlam, vWC, (_, off, c, sign), consts = aux
    b_mat, by_mat, damping, dtilde = consts
    r = _inputs(vw, c)
    live, hat = floors or (None, r[:3])
    gate = np.maximum(r[1:3], 0.0)
    gg = g * gate  # of the two gated branches
    to = gg * (cut > 0)  # of ub and lb
    g_f = gg[1] - to[1] + gg[0] - to[0]
    gt = np.where(take, 0.0, to)  # of a / d + q
    gd = -gt * a / (hat[1:] * hat[1:])
    gd = gd if live is None else np.where(live[1:], gd, 0.0)
    g_d = (g * _clipped(f, cut)) * (gate > 0) + gd  # of dhi, dlo
    g_cap = np.where(take, to, 0.0)
    g_cap = g_cap[1] + g_cap[0]
    g_q = gt[1] + gt[0]
    to_w = []
    if iw is not None:
        gw = -g_cap * vb / (hat[0] * hat[0])
        gw = gw if live is None else np.where(live[0], gw, 0.0)
        to_w.append(gw + g_cap * dtilde + g_q * damping)
    if ix is not None:
        _acc(adj, shapes, ix, ((g_cap / hat[0]) @ b_mat) * mask)
    if il is not None:
        _acc(adj, shapes, il, (g_q @ by_mat) * np.cos(vlam))
    if ip is not None:
        _acc(adj, shapes, ip, -g_q)
    gb = np.empty(k.shape)  # of each branch: f's or its class-K map's
    gb[:2] = g_f
    gb[2:4] = gt / hat[1:]
    gb[4:] = gb[2:4]
    flat = (k[:n_on].astype(np.intp) + off[:n_on]).reshape(-1)
    gs = sign[:n_on] * gb[:n_on] * vWC[0].reshape(-1)[flat].reshape((n_on,) + g.shape)
    if iu is not None:
        size = vWC[0].size
        tables = np.concatenate((np.bincount(flat, (gb[:n_on] * r[1:n_on + 1]).reshape(-1), size),
                                 np.bincount(flat, gb[:n_on].reshape(-1), size))).reshape(vWC.shape)
        for j in range(6):
            if not on[j]:
                tables[:, j] = -0.0
            elif _SIGNS[j] < 0:
                np.negative(tables[0, j], out=tables[0, j])
        _acc(adj, shapes, iu, tables)
    g_dhi, g_dlo = g_d[0] + gs[0] if on[0] else g_d[0], g_d[1] + gs[1] if on[1] else g_d[1]
    if iw is not None:
        for branches in ((3, 5), (4, 2)):  # lower, then upper barrier: minus, plus
            through = [gs[j] for j in branches if on[j]]
            if through:
                to_w.append(-functools.reduce(np.add, through))
        to_w += [-g_dlo, g_dhi]
        for gw in to_w:
            _acc(adj, shapes, iw, gw)
    _acc(adj, shapes, iwlo, g_dlo)
    if iwhi is not None:
        _acc(adj, shapes, iwhi, -g_dhi)


def _bk_stack_units(g, par, aux, shapes, adj):
    # Per branch, W's adjoint then C's. A branch that no control_law node
    # evaluated holds only their -0.0 fills, which no C push (a bincount)
    # contains, and passes nothing on, as if never recorded.
    n = g.shape[1]
    for j in range(n):
        if g[1, j].any() or not np.signbit(g[1, j]).all():
            _acc(adj, shapes, par[j], g[0, j])
            _acc(adj, shapes, par[n + j], g[1, j])


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

