"""Reverse-mode automatic differentiation on a flat tape of numpy ops.

The op set is exactly what the rollout, controller and loss need, nothing
more; `relu_dot` is the fused ReLU-unit sum of the class-K and dead-zone
maps. Every recorded node stores its op kind, parent indices and the cached
locals its backward rule needs; values live in one buffer, adjoints in a
parallel buffer filled by a single reverse sweep that keeps only leaf ones.

Subgradient conventions (pinned by tests):
  * relu'(0) = 0 (the mask is x > 0, strictly)
  * minimum/maximum route the adjoint entirely to the attaining argument,
    first argument on ties
  * reduce_min routes to the first attaining index in C order

All functions below accept either `Node`s or plain numpy arrays / scalars and
broadcast like numpy. Each computes its value and backward cache once and
hands them to `_node`, the one place that decides between returning the plain
value (no argument is a Node) and recording it, so the same model code serves
both simulation and training.
"""

from __future__ import annotations

import numpy as np

_TINY = 1e-12  # safe_div denominator floor


class TapeError(RuntimeError):
    """Reverse sweep produced a non-finite adjoint; message names the node."""


class Node:
    """Handle to one tape entry. Supports +, -, *, / against Nodes or arrays."""

    __slots__ = ("tape", "idx")
    __array_ufunc__ = None  # force numpy to defer to our reflected operators

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> np.ndarray:
        return self.tape.vals[self.idx]

    @property
    def shape(self):
        return self.tape.vals[self.idx].shape

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
    """Append-only op record; parents always precede children."""

    def __init__(self):
        self.kinds: list[str] = []
        self.parents: list[tuple] = []
        self.aux: list = []
        self.vals: list[np.ndarray] = []
        self.adj: list = []

    def __len__(self) -> int:
        return len(self.vals)

    def leaf(self, value) -> Node:
        return self._rec("leaf", (), None, np.asarray(value, dtype=float))

    def _rec(self, kind: str, parents: tuple, aux, val: np.ndarray) -> Node:
        self.kinds.append(kind)
        self.parents.append(parents)
        self.aux.append(aux)
        self.vals.append(val)
        return Node(self, len(self.vals) - 1)

    def backward(self, root: Node, check_finite: bool = False) -> None:
        """Fill the leaf adjoints by one reverse sweep from `root`; an interior
        adjoint is dropped as soon as its rule has pushed it to the parents.

        With check_finite=True every visited adjoint is tested and the first
        non-finite one aborts the sweep; the checked mode exists to locate
        the source after a cheap unchecked sweep came back non-finite.
        """
        if root.tape is not self:
            raise ValueError("root node belongs to a different tape")
        n = len(self.vals)
        adj = [None] * n
        adj[root.idx] = np.ones_like(self.vals[root.idx])
        kinds, parents, aux, vals = self.kinds, self.parents, self.aux, self.vals
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
            rules[kinds[i]](g, parents[i], aux[i], vals, adj)
            adj[i] = None
        self.adj = adj

    def grad(self, node: Node) -> np.ndarray:
        """Adjoint of a leaf after `backward` (zeros if the root ignores it);
        ValueError naming the node for an interior one, which is dropped."""
        if self.kinds[node.idx] != "leaf":
            raise ValueError(f"node {node.idx} (op '{self.kinds[node.idx]}') is not a leaf")
        g = self.adj[node.idx]
        return np.zeros_like(self.vals[node.idx]) if g is None else g


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


def _acc(adj, vals, idx, g):
    if idx is None:
        return
    cur = adj[idx]
    if cur is None:
        adj[idx] = np.zeros_like(vals[idx])
        cur = adj[idx]
    cur += _unbroadcast(np.asarray(g), vals[idx].shape)


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


def safe_div(a, b):
    """a / b with |denominator| floored at _TINY.

    The floor keeps forward values finite where a surrounding gate is exactly
    zero anyway; the backward rule treats the floored region as constant in b,
    which is the a.e. derivative of the clamped function.
    """
    va, vb = _val(a), _val(b)
    live = np.abs(vb) >= _TINY
    bhat = np.where(live, vb, np.where(vb < 0, -_TINY, _TINY))
    return _node("safe_div", (a, b), (va, bhat, live), va / bhat)


def neg(a):
    return _node("neg", (a,), None, -_val(a))


def sin(a):
    va = _val(a)
    return _node("sin", (a,), va, np.sin(va))


def relu(a):
    va = _val(a)
    return _node("relu", (a,), va, np.maximum(va, 0.0))


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


def maximum(a, b):
    va, vb = _val(a), _val(b)
    take = va >= vb  # first argument wins ties
    return _node("maximum", (a, b), take, np.where(take, va, vb))


def matvec(mat: np.ndarray, x):
    """x @ mat.T for a constant matrix (equals mat @ x on 1-d input).

    Batches over leading axes of x: (..., k) -> (..., r) for mat (r, k).
    """
    return _node("matvec", (x,), mat, _val(x) @ mat.T)


def sum_all(a):
    va = _val(a)
    return _node("sum_all", (a,), va.shape, np.asarray(va.sum()))


def reduce_min(a):
    """Scalar minimum of an array; adjoint goes to the first attaining entry."""
    va = _val(a)
    k = int(np.argmin(va))
    return _node("reduce_min", (a,), k, np.asarray(va.reshape(-1)[k]))


def relu_dot(w, s, b, sign: float):
    """sum_j w[..., j] * relu(s + b[..., j]) for sign +1, relu(b - s) for -1.

    w and b are (n, m), s is (n,) or batched (..., n); the result has s's
    shape. The node stores no (..., n, m) temporary: its backward rule
    recomputes the pre-activation and its mask from w, s and b.
    """
    vw, vs, vb = _val(w), _val(s), _val(b)
    out = (vw * np.maximum(_relu_dot_pre(vs, vb, sign), 0.0)).sum(axis=-1)
    return _node("relu_dot", (w, s, b), (vw, vs, vb, sign), out)


def _relu_dot_pre(vs, vb, sign):
    return vs[..., None] + vb if sign > 0 else vb - vs[..., None]


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


# ------------------------------------------------------------ backward rules


def _bk_add(g, par, aux, vals, adj):
    _acc(adj, vals, par[0], g)
    _acc(adj, vals, par[1], g)


def _bk_sub(g, par, aux, vals, adj):
    ia, ib = par
    _acc(adj, vals, ia, g)
    if ib is not None:
        _acc(adj, vals, ib, -g)


def _bk_mul(g, par, aux, vals, adj):
    ia, ib = par
    va, vb = aux
    if ia is not None:
        _acc(adj, vals, ia, g * vb)
    if ib is not None:
        _acc(adj, vals, ib, g * va)


def _bk_div(g, par, aux, vals, adj):
    ia, ib = par
    va, vb = aux
    if ia is not None:
        _acc(adj, vals, ia, g / vb)
    if ib is not None:
        _acc(adj, vals, ib, -g * va / (vb * vb))


def _bk_safe_div(g, par, aux, vals, adj):
    ia, ib = par
    va, bhat, live = aux
    if ia is not None:
        _acc(adj, vals, ia, g / bhat)
    if ib is not None:
        _acc(adj, vals, ib, np.where(live, -g * va / (bhat * bhat), 0.0))


def _bk_neg(g, par, aux, vals, adj):
    _acc(adj, vals, par[0], -g)


def _bk_sin(g, par, aux, vals, adj):
    _acc(adj, vals, par[0], g * np.cos(aux))


def _bk_relu(g, par, aux, vals, adj):
    _acc(adj, vals, par[0], g * (aux > 0))


def _bk_sigmoid(g, par, aux, vals, adj):
    _acc(adj, vals, par[0], g * aux * (1.0 - aux))


def _bk_softplus(g, par, aux, vals, adj):
    _acc(adj, vals, par[0], g * _sigmoid_val(aux))


def _bk_tanh(g, par, aux, vals, adj):
    _acc(adj, vals, par[0], g * (1.0 - aux * aux))


def _bk_square(g, par, aux, vals, adj):
    _acc(adj, vals, par[0], g * 2.0 * aux)


def _bk_minmax(g, par, aux, vals, adj):
    ia, ib = par
    if ia is not None:
        _acc(adj, vals, ia, np.where(aux, g, 0.0))
    if ib is not None:
        _acc(adj, vals, ib, np.where(aux, 0.0, g))


def _bk_matvec(g, par, aux, vals, adj):
    _acc(adj, vals, par[0], g @ aux)


def _bk_sum_all(g, par, aux, vals, adj):
    _acc(adj, vals, par[0], np.broadcast_to(g, aux))


def _bk_reduce_min(g, par, aux, vals, adj):
    full = np.zeros_like(vals[par[0]])
    full.reshape(-1)[aux] = g
    _acc(adj, vals, par[0], full)


def _bk_relu_dot(g, par, aux, vals, adj):
    # The rules of the unfused chain rowsum(w * relu(pre)) with the same
    # products and sums, so gradients match it bit for bit.
    iw, i_s, ib = par
    vw, vs, vb, sign = aux
    pre = _relu_dot_pre(vs, vb, sign)
    ge = np.asarray(g)[..., None]
    _acc(adj, vals, iw, ge * np.maximum(pre, 0.0))
    gz = ge * vw * (pre > 0)
    _acc(adj, vals, ib, gz)
    _acc(adj, vals, i_s, (gz if sign > 0 else -gz).sum(axis=-1))


def _bk_cumsum_last(g, par, aux, vals, adj):
    rev = np.flip(np.cumsum(np.flip(g, axis=-1), axis=-1), axis=-1)
    _acc(adj, vals, par[0], rev)


def _bk_diff_keepfirst(g, par, aux, vals, adj):
    gx = np.array(g, dtype=float, copy=True)
    gx[..., :-1] -= g[..., 1:]
    _acc(adj, vals, par[0], gx)


def _bk_pad_zero_first(g, par, aux, vals, adj):
    _acc(adj, vals, par[0], np.asarray(g)[..., 1:])


_BACKWARD = {
    "add": _bk_add,
    "sub": _bk_sub,
    "mul": _bk_mul,
    "div": _bk_div,
    "safe_div": _bk_safe_div,
    "neg": _bk_neg,
    "sin": _bk_sin,
    "relu": _bk_relu,
    "sigmoid": _bk_sigmoid,
    "softplus": _bk_softplus,
    "tanh": _bk_tanh,
    "square": _bk_square,
    "minimum": _bk_minmax,
    "maximum": _bk_minmax,
    "matvec": _bk_matvec,
    "sum_all": _bk_sum_all,
    "reduce_min": _bk_reduce_min,
    "relu_dot": _bk_relu_dot,
    "cumsum_last": _bk_cumsum_last,
    "diff_keepfirst": _bk_diff_keepfirst,
    "pad_zero_first": _bk_pad_zero_first,
}
