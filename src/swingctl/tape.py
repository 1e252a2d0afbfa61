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

  * `piecewise`: the ReLU-unit sum of the class-K and dead-zone maps,
    evaluated as one linear piece from prefix tables;
  * `euler_angles`, `euler_freqs`: the two explicit Euler updates of the
    swing state;
  * `feedforward`, `stability_cap`, `barrier_bound`, `gate`: the terms of
    the constrained control law;
  * `sq_dist`, `sum_seq`: a loss term's sum of squares and the left-to-right
    sum of the per-step terms.

Each fused kernel evaluates the numpy expression of the composed ops it
stands for, in the same order, so its value is bitwise the composed one.
Every recorded node stores its op kind, parent indices, output shape and the
cached locals its backward rule needs; a value stays alive only while a Node
handle or such a cache holds it. Adjoints fill a parallel buffer in a single
reverse sweep that keeps only leaf ones.

A `piecewise` node stores no (..., n, m) temporary: it keeps references to
the weight table and to s, plus the count k of active units per entry in the
smallest unsigned type that holds m (one byte up to 255 units).

Subgradient conventions (pinned by tests):
  * relu'(0) = 0 (the mask is x > 0, strictly; a unit exactly at its
    threshold is inactive in `piecewise`, and `gate` treats its ReLUs so)
  * minimum, and the min/max of `barrier_bound`, route the adjoint entirely
    to the attaining argument, first argument on ties
  * reduce_min routes to the first attaining index in C order
  * a denominator floored at +/-_TINY (`stability_cap`, `barrier_bound`)
    gets no adjoint

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

_TINY = 1e-12  # floor of |denominator| in stability_cap and barrier_bound


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
        self.kinds: list[str] = []
        self.parents: list[tuple] = []
        self.aux: list = []
        self.shapes: list[tuple] = []
        self._refs: list[weakref.ref] = []
        self._shape_ids: dict = {}  # one tuple object per distinct shape
        self.adj: list = []

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def vals(self) -> list:
        """Each node's value while something still holds it, else None."""
        return [ref() for ref in self._refs]

    def leaf(self, value) -> Node:
        return self._rec("leaf", (), None, np.asarray(value, dtype=float))

    def _rec(self, kind: str, parents: tuple, aux, val) -> Node:
        val = np.asarray(val)  # a 0-d array, not a numpy scalar, takes a weakref
        self.kinds.append(kind)
        self.parents.append(parents)
        self.aux.append(aux)
        self.shapes.append(self._shape_ids.setdefault(val.shape, val.shape))
        self._refs.append(weakref.ref(val))
        return Node(self, len(self.kinds) - 1, val)

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
        kinds, parents, aux, shapes = self.kinds, self.parents, self.aux, self.shapes
        rules = _BACKWARD
        for i in range(root.idx, -1, -1):
            g = adj[i]
            if g is None:
                continue
            if check_finite and not np.all(np.isfinite(g)):
                raise TapeError(
                    f"non-finite adjoint at node {i} (op '{kinds[i]}') "
                    f"in reverse sweep from node {root.idx}"
                )
            if kinds[i] == "leaf":
                continue
            rules[kinds[i]](g, parents[i], aux[i], shapes, adj)
            adj[i] = None
        self.adj = adj

    def grad(self, node: Node) -> np.ndarray:
        """Adjoint of a leaf after `backward` (zeros if the root ignores it);
        ValueError naming the node for an interior one, which is dropped."""
        if self.kinds[node.idx] != "leaf":
            raise ValueError(f"node {node.idx} (op '{self.kinds[node.idx]}') is not a leaf")
        g = self.adj[node.idx]
        return np.zeros(self.shapes[node.idx]) if g is None else g


def value(x):
    """Plain numpy value of a Node, or x itself."""
    return x.value if isinstance(x, Node) else x


def _val(x) -> np.ndarray:
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=float)


def _idx(x):
    return x.idx if isinstance(x, Node) else None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to `shape` by summing expanded axes."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(ax for ax, s in enumerate(shape) if s == 1 and g.shape[ax] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


def _acc(adj, shapes, idx, g):
    """Add g to node idx's adjoint; the first contribution is copied in, since
    a rule may hand one array to several parents."""
    if idx is None:
        return
    g = _unbroadcast(np.asarray(g), shapes[idx])
    if adj[idx] is None:
        adj[idx] = g.copy()
    else:
        adj[idx] += g


def _node(kind: str, args: tuple, aux, out):
    """The one recording path: `out` itself when no argument is a Node, else
    `out` recorded as `kind` on the first Node's tape, with `aux` kept for
    the backward rule."""
    for x in args:
        if isinstance(x, Node):
            return x.tape._rec(kind, tuple(map(_idx, args)), aux, out)
    return out


# ---------------------------------------------------------------- primitives


def add(a, b):
    return _node("add", (a, b), None, _val(a) + _val(b))


def sub(a, b):
    return _node("sub", (a, b), None, _val(a) - _val(b))


def mul(a, b):
    va, vb = _val(a), _val(b)
    return _node("mul", (a, b), (va, vb), va * vb)


def div(a, b):
    """Plain division; denominators must stay away from zero."""
    va, vb = _val(a), _val(b)
    return _node("div", (a, b), (va, vb), va / vb)


def neg(a):
    return _node("neg", (a,), None, -_val(a))


def sin(a):
    va = _val(a)
    return _node("sin", (a,), va, np.sin(va))


def sigmoid(a):
    out = _sigmoid_val(_val(a))
    return _node("sigmoid", (a,), out, out)


def _sigmoid_val(x: np.ndarray) -> np.ndarray:
    pos = x >= 0
    ex = np.exp(np.where(pos, -x, x))  # exp of a non-positive number, stable
    return np.where(pos, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def softplus(a):
    va = _val(a)
    return _node("softplus", (a,), va, np.maximum(va, 0.0) + np.log1p(np.exp(-np.abs(va))))


def tanh(a):
    out = np.tanh(_val(a))
    return _node("tanh", (a,), out, out)


def square(a):
    va = _val(a)
    return _node("square", (a,), va, va * va)


def minimum(a, b):
    va, vb = _val(a), _val(b)
    take = va <= vb  # first argument wins ties
    return _node("minimum", (a, b), take, np.where(take, va, vb))


def matvec(mat: np.ndarray, x):
    """x @ mat.T for a constant matrix (equals mat @ x on 1-d input).

    Batches over leading axes of x: (..., k) -> (..., r) for mat (r, k).
    """
    return _node("matvec", (x,), mat, _val(x) @ mat.T)


def reduce_min(a):
    """Scalar minimum of an array; adjoint goes to the first attaining entry."""
    va = _val(a)
    k = int(np.argmin(va))
    return _node("reduce_min", (a,), k, np.asarray(va.reshape(-1)[k]))


def permute_last(a, perm: np.ndarray):
    """a reordered along its last axis by a constant index array `perm` of
    a's shape, each row of it a permutation."""
    return _node("permute_last", (a,), perm, np.take_along_axis(_val(a), perm, axis=-1))


def cumsum_last(a):
    return _node("cumsum_last", (a,), None, np.cumsum(_val(a), axis=-1))


def diff_keepfirst(a):
    """out[..., 0] = a[..., 0]; out[..., j] = a[..., j] - a[..., j-1]."""
    va = _val(a)
    out = np.empty_like(va)
    out[..., 0] = va[..., 0]
    out[..., 1:] = va[..., 1:] - va[..., :-1]
    return _node("diff_keepfirst", (a,), None, out)


def pad_zero_first(a):
    """Prepend a zero column along the last axis: (..., k) -> (..., k+1)."""
    va = _val(a)
    out = np.zeros(va.shape[:-1] + (va.shape[-1] + 1,), dtype=float)
    out[..., 1:] = va
    return _node("pad_zero_first", (a,), None, out)


# ------------------------------------------------ fused per-step kernels


def piecewise(W, C, thr, s, sign: float):
    """sum_j w[n, j] * relu(x + b[n, j]) with x = sign * s, from prefix tables.

    The biases of each row n must be non-increasing, so the units active at
    x form a prefix; W and C are (n, m+1) with W[n, k] = sum_{j<k} w[n, j]
    and C[n, k] = sum_{j<k} w[n, j] b[n, j], and thr is the plain (n, m+1)
    array [-b, +inf]. The active count k is the first column with thr >= x
    (the +inf column bounds it), so the active set is exactly x + b > 0 and
    the value x W[k] + C[k] is exactly 0.0 where no unit is active. s is
    (n,) or batched (..., n); the result has s's shape.
    """
    vW, vC, vs = _val(W), _val(C), _val(s)
    x = vs if sign > 0 else -vs
    k = (thr < x[..., None]).argmin(-1)
    flat = k + _row_offsets(thr.shape)
    out = x * vW.reshape(-1)[flat] + vC.reshape(-1)[flat]
    k = k.astype(np.min_scalar_type(thr.shape[-1] - 1))
    return _node("piecewise", (W, C, s), (vW, vs, k, sign), out)


@functools.lru_cache(maxsize=None)
def _row_offsets(shape: tuple) -> np.ndarray:
    """Flat index of column 0 of each row of an (n, m+1) table (read-only)."""
    off = np.arange(0, shape[0] * shape[1], shape[1])
    off.flags.writeable = False
    return off


def _floored(vd):
    """(live, dhat): where |d| >= _TINY, and d with its magnitude floored
    there (d itself when no entry needs the floor)."""
    live = np.abs(vd) >= _TINY
    if np.count_nonzero(live) == live.size:
        return live, vd
    return live, np.where(live, vd, np.where(vd < 0, -_TINY, _TINY))


def euler_angles(lam, omega, b_mat: np.ndarray, dt: float):
    """Explicit Euler update of the edge angles, lam + dt * (omega @ b_mat),
    for the constant (n, m) incidence matrix b_mat."""
    out = _val(lam) + dt * (_val(omega) @ b_mat)
    return _node("euler_angles", (lam, omega), (b_mat, dt), out)


def euler_freqs(lam, omega, u, p, damping, inertia, by_mat: np.ndarray, dt: float):
    """Explicit Euler update of the bus frequencies,
    omega + dt * (u + p - D omega - sin(lam) @ by_mat.T) / M, for constant
    per-bus damping D and inertia M and the (n, m) matrix by_mat."""
    vlam, vomega = _val(lam), _val(omega)
    rate = (_val(u) + _val(p) - damping * vomega - np.sin(vlam) @ by_mat.T) / inertia
    return _node("euler_freqs", (lam, omega, u, p), (vlam, damping, inertia, by_mat, dt), vomega + dt * rate)


def feedforward(lam, omega, p, damping, by_mat: np.ndarray):
    """Local injection mismatch q = D omega + sin(lam) @ by_mat.T - p."""
    vlam = _val(lam)
    out = damping * _val(omega) + np.sin(vlam) @ by_mat.T - _val(p)
    return _node("feedforward", (lam, omega, p), (vlam, damping, by_mat), out)


def stability_cap(dtilde, omega_sync, omega, b):
    """Damping-budget cap D_tilde dev + b / dev with dev = omega - omega_sync,
    |dev| floored at _TINY; D_tilde and omega_sync are constants."""
    dev = _val(omega) - omega_sync
    vb = _val(b)
    return _node("stability_cap", (omega, b), (dtilde, vb, dev), dtilde * dev + vb / _floored(dev)[1])


def barrier_bound(cap, alpha, d, q, upper: bool):
    """min(cap, alpha / d + q) when `upper`, else max(cap, alpha / d + q);
    |d| floored at _TINY, and cap taken on ties."""
    vc, va, vd = _val(cap), _val(alpha), _val(d)
    t = va / _floored(vd)[1] + _val(q)
    take = vc <= t if upper else vc >= t
    return _node("barrier_bound", (cap, alpha, d, q), (take, va, vd), np.where(take, vc, t))


def gate(dhi, dlo, f, ub, lb):
    """The gated control relu(dhi) (f - relu(f - ub)) + relu(dlo) (f + relu(lb - f))."""
    vhi, vlo, vf = _val(dhi), _val(dlo), _val(f)
    cut_hi, cut_lo = np.maximum(vf - _val(ub), 0.0), np.maximum(_val(lb) - vf, 0.0)
    out = np.maximum(vhi, 0.0) * (vf - cut_hi) + np.maximum(vlo, 0.0) * (vf + cut_lo)
    return _node("gate", (dhi, dlo, f, ub, lb), (vhi, vlo, vf, cut_hi, cut_lo), out)


def sq_dist(a, b=None):
    """Scalar sum((a - b)^2), or sum(a^2) without b."""
    d = _val(a) if b is None else _val(a) - _val(b)
    return _node("sq_dist", (a, b), d, np.asarray((d * d).sum()))


def sum_seq(terms):
    """Left-to-right sum 0.0 + t0 + t1 + ... of a sequence, as one node."""
    total = 0.0
    for t in terms:
        total = total + _val(t)
    return _node("sum_seq", tuple(terms), None, np.asarray(total))


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


def _bk_piecewise(g, par, aux, shapes, adj):
    # g, s and the gather index all have the output's shape, so the table
    # adjoints are plain bincounts over the flat index.
    iW, iC, i_s = par
    vW, vs, k, sign = aux
    flat = (k + _row_offsets(vW.shape)).reshape(-1)
    if i_s is not None:
        _acc(adj, shapes, i_s, sign * g * vW.reshape(-1)[flat].reshape(g.shape))
    if iW is not None:
        gx = (g * vs).reshape(-1)
        _acc(adj, shapes, iW, sign * np.bincount(flat, gx, vW.size).reshape(vW.shape))
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


def _bk_feedforward(g, par, aux, shapes, adj):
    il, iw, ip = par
    vlam, damping, by_mat = aux
    if il is not None:
        _acc(adj, shapes, il, (g @ by_mat) * np.cos(vlam))
    if iw is not None:
        _acc(adj, shapes, iw, g * damping)
    if ip is not None:
        _acc(adj, shapes, ip, -g)


def _bk_stability_cap(g, par, aux, shapes, adj):
    iw, ib = par
    dtilde, vb, dev = aux
    live, dhat = _floored(dev)
    if iw is not None:
        _acc(adj, shapes, iw, np.where(live, -g * vb / (dhat * dhat), 0.0) + g * dtilde)
    if ib is not None:
        _acc(adj, shapes, ib, g / dhat)


def _bk_barrier_bound(g, par, aux, shapes, adj):
    ic, ia, i_d, iq = par
    take, va, vd = aux
    live, dhat = _floored(vd)
    if ic is not None:
        _acc(adj, shapes, ic, np.where(take, g, 0.0))
    gt = np.where(take, 0.0, g)  # adjoint of alpha / d + q
    if ia is not None:
        _acc(adj, shapes, ia, gt / dhat)
    if i_d is not None:
        _acc(adj, shapes, i_d, np.where(live, -gt * va / (dhat * dhat), 0.0))
    _acc(adj, shapes, iq, gt)


def _bk_gate(g, par, aux, shapes, adj):
    ihi, ilo, i_f, iub, ilb = par
    vhi, vlo, vf, cut_hi, cut_lo = aux
    ghi, glo = np.maximum(vhi, 0.0), np.maximum(vlo, 0.0)
    hi, lo = vf - cut_hi, vf + cut_lo
    g_hi, g_lo = g * ghi, g * glo  # adjoints of the two gated branches
    to_ub, to_lb = g_hi * (cut_hi > 0), g_lo * (cut_lo > 0)
    if ihi is not None:
        _acc(adj, shapes, ihi, (g * hi) * (ghi > 0))
    if ilo is not None:
        _acc(adj, shapes, ilo, (g * lo) * (glo > 0))
    if i_f is not None:
        _acc(adj, shapes, i_f, g_lo - to_lb + g_hi - to_ub)
    _acc(adj, shapes, iub, to_ub)
    _acc(adj, shapes, ilb, to_lb)


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


_BACKWARD = {
    "add": _bk_add,
    "sub": _bk_sub,
    "mul": _bk_mul,
    "div": _bk_div,
    "neg": _bk_neg,
    "sin": _bk_sin,
    "sigmoid": _bk_sigmoid,
    "softplus": _bk_softplus,
    "tanh": _bk_tanh,
    "square": _bk_square,
    "minimum": _bk_minimum,
    "matvec": _bk_matvec,
    "reduce_min": _bk_reduce_min,
    "permute_last": _bk_permute_last,
    "cumsum_last": _bk_cumsum_last,
    "diff_keepfirst": _bk_diff_keepfirst,
    "pad_zero_first": _bk_pad_zero_first,
    "piecewise": _bk_piecewise,
    "euler_angles": _bk_euler_angles,
    "euler_freqs": _bk_euler_freqs,
    "feedforward": _bk_feedforward,
    "stability_cap": _bk_stability_cap,
    "barrier_bound": _bk_barrier_bound,
    "gate": _bk_gate,
    "sq_dist": _bk_sq_dist,
    "sum_seq": _bk_sum_seq,
}
