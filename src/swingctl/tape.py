"""Reverse-mode automatic differentiation on a flat tape of numpy ops.

The op set is exactly what the policies need, nothing more. General ops:
elementwise arithmetic and activations, `minimum`, a constant matvec, a min
reduction, last-axis prefix sums, differences and zero padding, and
`permute_last` (a constant per-row reordering of the last axis). Fused
policy kernels, one node each:

  * `unit_sums`: the monotone baseline's class-K map (or its negative), a
    sum of ReLU-unit branches evaluated as one linear piece per branch from
    prefix tables;
  * `control_law`: the whole constrained policy at measured states (gate
    inputs, both class-K barriers and the dead-zone response from their six
    ReLU-unit branches, budgets, feedforward, stability cap, both barrier
    bounds and the selecting gate), whose only node output is u; the
    prefix tables it reads are one `stack_units` node per rollout.

Each fused kernel evaluates the numpy expression of the composed ops it
stands for, in the same order, so its value is bitwise the composed one.
Its output is per entry in its state arguments, so its Jacobian in them is
diagonal and its one backward is its linearization (Griewank & Walther,
*Evaluating Derivatives*, SIAM 2008): `factors(aux, parents)` gives, from
one pass over the node's cache, each state parent's per-entry derivative
and a `push(u_bar, shapes, adj)` of any output adjoint into the other
parents' adjoints. The tape rule seeds it with the node's adjoint
(`_linearized`); a training chunk seeds it with its own, with no reverse
sweep. Gradients agree with the composed ops' to rounding.

Every recorded node stores its backward rule (whose name gives the op),
parent indices, output shape and the cached locals the rule needs; a value
stays alive only while a Node handle or such a cache holds it. Adjoints
fill a parallel buffer in a single reverse sweep that keeps only leaf ones.
A module may record an op of its own with `record` (the training episode is
one such node), and `rebind` copies a structure of nodes onto another tape
as leaves, so a rule can re-run model code on a scratch tape of its own and
`truncate` it after.

No node stores an (..., n, m) temporary. A `unit_sums` node keeps, per
branch, the weight table, the input and the count k of active units per
entry in the smallest unsigned type that holds m (one byte up to 255
units), and nothing for a branch with no active unit, which it skips. A
`control_law` node keeps its (7, ..., n) inputs (dev, the gate inputs and
the barrier branches'), a few (..., n) values and the six branches' counts.

Subgradient conventions (pinned by tests):
  * relu'(0) = 0 (the mask is x > 0, strictly; a unit exactly at its
    threshold is inactive in `unit_sums` and `control_law`, and the
    latter's gate 1[d > 0] is shut at d = 0 and passes no adjoint to d)
  * minimum, the min/max of `control_law`'s barrier bounds and its
    min(f, ub), max(f, lb) route the adjoint entirely to the attaining
    argument: minimum's first argument, the bounds' cap and f on ties
  * reduce_min routes to the first attaining index in C order
  * a denominator of `control_law` floored at +/-_TINY gets no adjoint

All functions below accept either `Node`s or plain numpy arrays / scalars and
broadcast like numpy. Each computes its value and backward cache once and
hands them to `record`, the one place that decides between returning the
plain value (no argument is a Node) and recording it, so the same model code
serves both simulation and training.
"""

from __future__ import annotations

import dataclasses
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
        the source after a cheap unchecked sweep came back non-finite. A rule
        with adjoints of its own inside (see `record`) runs its `checked`
        attribute in this mode, which tests those too.
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
            rule = rules[i]
            if rule is None:
                continue
            if check_finite:
                rule = getattr(rule, "checked", rule)
            rule(g, parents[i], aux[i], shapes, adj)
            adj[i] = None
        self.adj = adj

    def truncate(self, n: int) -> None:
        """Drop the entries from index n on, and with them their caches; a
        Node of a dropped entry must not be used again."""
        for entries in (self.rules, self.parents, self.aux, self.shapes, self._refs):
            del entries[n:]

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


def record(rule, args: tuple, aux, out):
    """The one recording path: `out` itself when no argument is a Node, else
    `out` recorded on the first Node's tape with its backward `rule` and
    the `aux` that rule reads.

    A rule is called as rule(g, parents, aux, shapes, adj) with g the
    node's adjoint, and adds each parent's share into adj (`_acc`). The aux
    must hold no Node: the Node's tape would then hold the cache that holds
    it, a reference cycle that only the cycle collector frees."""
    for x in args:
        if isinstance(x, Node):
            return x.tape._rec(rule, tuple([a.idx if isinstance(a, Node) else None for a in args]), aux, out)
    return out


def rebind(obj, tape: Tape) -> tuple:
    """(copy, nodes, leaves): `obj` with every Node in it replaced by a leaf
    of `tape` holding the same value, one leaf per distinct Node (by
    identity, so a Node met twice maps to one leaf); `nodes` and `leaves`
    pair them in the order first met. Tuples, lists and dataclass instances
    are copied on the way down; anything else is shared."""
    memo = {}  # id(node) -> (node, leaf), in the order first met
    copy = _rebind(obj, tape, memo)
    return copy, [node for node, _ in memo.values()], [leaf for _, leaf in memo.values()]


def _rebind(x, tape: Tape, memo: dict):
    if isinstance(x, Node):
        if id(x) not in memo:
            memo[id(x)] = (x, tape.leaf(x.value))
        return memo[id(x)][1]
    if isinstance(x, (tuple, list)):
        return type(x)(_rebind(a, tape, memo) for a in x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        fields = (f.name for f in dataclasses.fields(x) if f.init)
        return dataclasses.replace(x, **{name: _rebind(getattr(x, name), tape, memo) for name in fields})
    return x


# ---------------------------------------------------------------- primitives


def add(a, b):
    return record(_bk_add, (a, b), None, _val(a) + _val(b))


def sub(a, b):
    return record(_bk_sub, (a, b), None, _val(a) - _val(b))


def mul(a, b):
    va, vb = _val(a), _val(b)
    return record(_bk_mul, (a, b), (va, vb), va * vb)


def div(a, b):
    """Plain division; denominators must stay away from zero."""
    va, vb = _val(a), _val(b)
    return record(_bk_div, (a, b), (va, vb), va / vb)


def neg(a):
    return record(_bk_neg, (a,), None, -_val(a))


def sigmoid(a):
    out = _sigmoid_val(_val(a))
    return record(_bk_sigmoid, (a,), out, out)


def _sigmoid_val(x: np.ndarray) -> np.ndarray:
    pos = x >= 0
    ex = np.exp(np.where(pos, -x, x))  # exp of a non-positive number, stable
    return np.where(pos, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def softplus(a):
    va = _val(a)
    return record(_bk_softplus, (a,), va, np.maximum(va, 0.0) + np.log1p(np.exp(-np.abs(va))))


def tanh(a):
    out = np.tanh(_val(a))
    return record(_bk_tanh, (a,), out, out)


def square(a):
    va = _val(a)
    return record(_bk_square, (a,), va, va * va)


def minimum(a, b):
    va, vb = _val(a), _val(b)
    take = va <= vb  # first argument wins ties
    return record(_bk_minimum, (a, b), take, np.where(take, va, vb))


def matvec(mat: np.ndarray, x):
    """x @ mat.T for a constant matrix (equals mat @ x on 1-d input).

    Batches over leading axes of x: (..., k) -> (..., r) for mat (r, k).
    """
    return record(_bk_matvec, (x,), mat, _val(x) @ mat.T)


def reduce_min(a):
    """Scalar minimum of an array; adjoint goes to the first attaining entry."""
    va = _val(a)
    k = int(np.argmin(va))
    return record(_bk_reduce_min, (a,), k, np.asarray(va.reshape(-1)[k]))


def permute_last(a, perm: np.ndarray):
    """a reordered along its last axis by a constant index array `perm` of
    a's shape, each row of it a permutation."""
    return record(_bk_permute_last, (a,), perm, np.take_along_axis(_val(a), perm, axis=-1))


def cumsum_last(a):
    return record(_bk_cumsum_last, (a,), None, np.cumsum(_val(a), axis=-1))


def diff_keepfirst(a):
    """out[..., 0] = a[..., 0]; out[..., j] = a[..., j] - a[..., j-1]."""
    va = _val(a)
    out = np.empty_like(va)
    out[..., 0] = va[..., 0]
    out[..., 1:] = va[..., 1:] - va[..., :-1]
    return record(_bk_diff_keepfirst, (a,), None, out)


def pad_zero_first(a):
    """Prepend a zero column along the last axis: (..., k) -> (..., k+1)."""
    va = _val(a)
    out = np.zeros(va.shape[:-1] + (va.shape[-1] + 1,), dtype=float)
    out[..., 1:] = va
    return record(_bk_pad_zero_first, (a,), None, out)


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
    threshold nodes (or arrays). layouts caches thr, c and the gather
    offsets laid out like the (6, ..., n) branch inputs (`_layout`).
    """
    vals = np.array([[_val(W) for W, _, _ in tables], [_val(C) for _, C, _ in tables]])
    args = tuple(W for W, _, _ in tables) + tuple(C for _, C, _ in tables)
    thr = np.ascontiguousarray(np.stack([t[..., :-1] for _, _, t in tables]).transpose(2, 0, 1))
    c = np.stack(np.broadcast_arrays(omega_sync, _val(whi), _val(wlo), omega_max, omega_min, omega_max, omega_min))
    return record(_bk_stack_units, args, None, vals), thr, c, whi, wlo, {}


# ------------------------------------------------ fused policy kernels


def unit_sums(branches, negate: bool = False):
    """Left-to-right sum over branches ((W, C, thr), s, sign) of
    sum_j w[n, j] * relu(x + b[n, j]), x = sign * s, negated with `negate`.
    Each s is (n,) or (..., n), as the result.

    The biases of each row n must be non-increasing, so the units active at
    x form a prefix: W and C are (n, m+1) with W[n, k] = sum_{j<k} w[n, j]
    and C[n, k] = sum_{j<k} w[n, j] b[n, j], thr is the plain (n, m+1) array
    [-b, +inf], and a branch is x W[k] + C[k] at the first column k with
    thr >= x: exactly 0.0 with no unit active. A branch with every entry at
    or below its first threshold is skipped forward and backward; the sum
    then ends in + 0.0, as adding its zeros would.
    """
    total, args, aux = None, [], []
    out = -1.0 if negate else 1.0
    for (W, C, thr), s, sign in branches:
        args += (W, C, s)
        x = _val(s) if sign > 0 else -_val(s)
        if np.count_nonzero(x <= thr[..., 0]) == x.size:
            aux.append(None)
            continue
        k = (thr < x[..., None]).argmin(-1)
        flat = k + _row_offsets(thr.shape)
        vW = _val(W)
        part = x * vW.reshape(-1)[flat] + _val(C).reshape(-1)[flat]
        total = part if total is None else total + part
        aux.append((vW, _val(s), k.astype(np.min_scalar_type(thr.shape[-1] - 1)), sign, out))
    if total is None:
        total = np.zeros(x.shape)
    elif None in aux:
        total = total + 0.0
    return record(_bk_unit_sums, tuple(args), aux, -total if negate else total)


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


_SIGNS = np.array([1.0, 1.0, 1.0, -1.0, -1.0, 1.0])  # x = sign * r per branch


def _layout(units, shape: tuple, steps: int = 0) -> tuple:
    """(thr, off, c, sign) of `units` for states of shape `shape` whose
    first `steps` axes stack steps, laid out like the branch inputs, (6,) +
    shape: the thresholds (m, 6) + shape, each entry's flat offset into a
    (6, n, m+1) table, c (7,) + shape and the branch signs. Each is
    materialized over a step's states' last two axes only, once per such
    shape, so a step's (B, n) or (n,) states run on contiguous arrays, and
    broadcast over any axes before them: a (steps, B, n) or (steps, n)
    chunk shares its steps' copy instead of an (m, 6) + shape one."""
    _, thr, c, _, _, layouts = units
    tail = shape[steps:][-2:]
    if tail not in layouts:
        m, n, ones = thr.shape[0], tail[-1], (1,) * (len(tail) - 1)
        off = _row_offsets((6, n, m + 1)).reshape((6,) + ones + (n,))
        layouts[tail] = tuple(np.ascontiguousarray(np.broadcast_to(a, lead + tail)) for a, lead in (
            (thr.reshape((m, 6) + ones + (n,)), (m, 6)), (off, (6,)), (c.reshape((7,) + ones + (n,)), (7,)),
            (_SIGNS.reshape((6,) + ones + (1,)), (6,))))
    if len(shape) == len(tail):
        return layouts[tail]
    lead = (1,) * (len(shape) - len(tail))
    return tuple(a.reshape(a.shape[:a.ndim - len(tail)] + lead + tail) for a in layouts[tail])


def _inputs(vw, c) -> np.ndarray:
    """(7, ..., n) at omega, from a `_layout` c: dev = omega - omega_sync,
    dhi = omega - whi and dlo = wlo - omega, then the r of the upper and
    lower barrier branches, omega_max - omega and omega_min - omega, twice;
    the branch inputs are r[1:] times the branch signs."""
    r = c - vw
    np.subtract(vw, c[:2], out=r[:2])
    return r


def control_law(flows, omega, p, edge_xi, mask, units, b_mat, damping, dtilde):
    """The constrained policy at measured states, as one node:

      dhi = omega - whi, dlo = wlo - omega          gate inputs
      a_hi = k_hi(omega_max - omega)                upper class-K barrier
      a_lo = k_lo(omega_min - omega)                lower class-K barrier
      f   = z+(dhi) + z-(dlo)                       dead-zone response
      b   = (mask * edge_xi) @ b_mat.T              budgets B (on * B^T xi)
      q   = D omega + flows - p                     local feedforward
      cap = D_tilde dev + b / dev                   stability cap, dev = omega - omega_sync
      ub  = min(cap, a_hi / dhi + q)                upper barrier bound
      lb  = max(cap, a_lo / dlo + q)                lower barrier bound
      u   = 1[dhi > 0] min(f, ub) + 1[dlo > 0] max(f, lb)

    with k(r) = k+(r) + k-(-r). Each of the six ReLU-unit branches
    sum_j w_j relu(x + b_j) is one linear piece x W[k] + C[k], k the count
    of its thresholds below x (they are non-decreasing along the units),
    counted and gathered at once from `units` (`stack_units`) for the
    leading branches up to the last with an active unit; a branch with no
    active unit gives exactly +0.0. |dev|, |dhi| and |dlo| are floored at
    _TINY and the cap is taken on ties. The gate selects, and min(f, ub)
    and max(f, lb) are the attained argument itself, so u <= ub wherever
    dhi > 0 and u >= lb wherever dlo > 0 hold bit for bit. flows are the
    line flows into each bus, sin(lam) @ by_mat.T (`dynamics.line_flows`);
    mask is a plain edge mask; b_mat (n, m), D and D_tilde are constants.
    Everything but the budgets' edge mask is per entry: u at an entry reads
    only that entry's omega, flows and p (and the policy's tensors).
    Returns (u, b, ub, lb):
    u is a node when any argument is one, and b, ub and lb are plain
    arrays, since nothing backpropagates through them.
    """
    WC, _, _, whi, wlo, _ = units
    vWC, vw = _val(WC), _val(omega)
    # a step's p is one (n,) row; a chunk of steps stacks its rows with the
    # states' axes, so there the states' first axis indexes the steps
    layout = _layout(units, vw.shape, int(vw.ndim > 1 and np.ndim(_val(p)) == vw.ndim))
    thr, off, c, sign = layout
    r = _inputs(vw, c)
    x = sign * r[1:]
    on = (x > thr[0]).reshape(6, -1).any(1).tolist()  # branches with an active unit
    n_on = max((j + 1 for j in range(6) if on[j]), default=0)
    k = np.zeros(x.shape, dtype=np.min_scalar_type(thr.shape[0]))
    np.add.reduce((thr[:, :n_on] < x[:n_on]).view(np.uint8), axis=0, out=k[:n_on])  # bools as bytes: no cast
    flat = k[:n_on].astype(np.intp) + off[:n_on]
    part = np.zeros(x.shape)
    part[:n_on] = x[:n_on] * vWC[0].reshape(-1)[flat] + vWC[1].reshape(-1)[flat]
    f, a = part[0] + part[1], part[2:4] + part[4:]  # f and a_hi, a_lo
    floors = None if np.abs(r[:3]).min() >= _TINY else _floored(r[:3])  # of dev, dhi, dlo
    hat = r[:3] if floors is None else floors[1]
    b = (mask * _val(edge_xi)) @ b_mat.T
    q = damping * vw + _val(flows) - _val(p)
    cap = dtilde * r[0] + b / hat[0]
    t = a / hat[1:] + q  # a / d + q of both bounds
    take = np.empty(t.shape, dtype=bool)  # where the cap binds
    np.less_equal(cap, t[0], out=take[0])
    np.greater_equal(cap, t[1], out=take[1])
    bound = np.where(take, cap, t)  # ub, lb
    gated = np.empty(t.shape)  # min(f, ub), max(f, lb), 0 where the gate is shut
    np.minimum(f, bound[0], out=gated[0])
    np.maximum(f, bound[1], out=gated[1])
    gated[r[1:3] <= 0] = 0.0
    u = gated[0] + gated[1]
    args = (flows, omega, p, edge_xi, whi, wlo, WC)
    if not any(isinstance(x, Node) for x in args):
        return u, b, bound[0], bound[1]  # values only: nothing below is read
    over = np.empty(t.shape, dtype=bool)  # where the bound binds: f > ub, f < lb
    np.greater(f, bound[0], out=over[0])
    np.less(f, bound[1], out=over[1])
    aux = (r, a, over, take, b, floors, mask, k, on, n_on, vWC, layout, (b_mat, damping, dtilde))
    return record(_bk_control_law, args, aux, u), b, bound[0], bound[1]


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


def _linearized(factors):
    """A per-entry kernel's backward rule from its linearization
    factors(aux, par) -> ({state parent: its per-entry derivative}, push):
    the node's adjoint g times each derivative goes to its state parent,
    and push(g, shapes, adj) adds the other parents' adjoints. The rule
    carries `factors` and its name."""

    def rule(g, par, aux, shapes, adj):
        derivs, push = factors(aux, par)
        for i, d in derivs.items():
            _acc(adj, shapes, i, g * d)
        push(g, shapes, adj)

    rule.__name__, rule.factors = factors.__name__, factors
    return rule


def _by_parent(pairs) -> dict:
    """{parent: the sum of its derivatives} over (parent, derivative) pairs,
    leaving out plain arguments (parent None)."""
    derivs = {}
    for i, d in pairs:
        if i is not None:
            derivs[i] = d if i not in derivs else derivs[i] + d
    return derivs


@_linearized
def _bk_unit_sums(aux, par):
    # Per branch with an active unit: u's slope in s is out * sign * W[k],
    # and for an adjoint u_bar the tables' are bincounts over the gather
    # index of u_bar * out * s (W's, times sign) and of u_bar * out (C's).
    pairs, live = [], []
    for b, branch in enumerate(aux):
        if branch is not None:
            (iW, iC, i_s), (vW, vs, k, sign, out) = par[3 * b : 3 * b + 3], branch
            flat = (k + _row_offsets(vW.shape)).reshape(-1)
            pairs.append((i_s, (out * sign) * vW.reshape(-1)[flat].reshape(k.shape)))
            live.append((iW, iC, vW, out * vs, out, sign, flat))

    def push(u_bar, shapes, adj):
        for iW, iC, vW, xs, out, sign, flat in live:
            if iW is not None:
                _acc(adj, shapes, iW, sign * np.bincount(flat, (u_bar * xs).reshape(-1), vW.size).reshape(vW.shape))
            if iC is not None:
                _acc(adj, shapes, iC, np.bincount(flat, (u_bar * out).reshape(-1), vW.size).reshape(vW.shape))

    return _by_parent(pairs), push


@_linearized
def _bk_control_law(aux, par):
    """A `control_law` node's linearization: u's derivatives in omega, the
    flows and p, and a push that adds edge_xi's, whi's, wlo's and the
    stacked tables' adjoints for the u adjoint u_bar, as per-entry
    coefficients weighted by u_bar and summed (a bincount per table family).

    The coefficients follow the composed policy's rules in its reverse
    order at a seed of ones: the selection, both bounds, the cap,
    feedforward and budgets; then the six branches, the dead-zone ones
    adding to the coefficients of dlo and dhi and the lower and upper
    barrier each sending -(minus + plus) to omega; and last the differences
    dlo = wlo - omega and dhi = omega - whi. The gate is an indicator, so
    dhi and dlo get adjoints only as the bounds' denominators."""
    i_fl, iw, ip, ix, iwhi, iwlo, iu = par
    r, a, over, take, vb, floors, mask, k, on, n_on, vWC, (_, off, _, sign), (b_mat, damping, dtilde) = aux
    live, hat = floors or (None, r[:3])
    gg = np.where(r[1:3] > 0, 1.0, 0.0)  # of min(f, ub) and max(f, lb)
    to = np.where(over, gg, 0.0)  # of ub and lb
    g_f = gg[1] - to[1] + gg[0] - to[0]
    gt = np.where(take, 0.0, to)  # of a / d + q
    g_d = -gt * a / (hat[1:] * hat[1:])  # of dhi, dlo
    g_d = g_d if live is None else np.where(live[1:], g_d, 0.0)
    g_cap = np.where(take, to, 0.0)
    g_cap = g_cap[1] + g_cap[0]
    g_q = gt[1] + gt[0]  # of q: the flows', and p's negated
    gw = -g_cap * vb / (hat[0] * hat[0])
    gw = gw if live is None else np.where(live[0], gw, 0.0)
    du_dw = gw + g_cap * dtilde + g_q * damping
    g_x = g_cap / hat[0]  # of the budgets: edge_xi gets (g_x @ b_mat) * mask
    gb = np.empty(k.shape)  # of each branch: f's or its class-K map's
    gb[:2] = g_f
    gb[2:4] = gt / hat[1:]
    gb[4:] = gb[2:4]
    gb = gb[:n_on]
    flat = (k[:n_on].astype(np.intp) + off[:n_on]).reshape(-1)
    gs = sign[:n_on] * gb * vWC[0].reshape(-1)[flat].reshape(gb.shape)
    g_dhi, g_dlo = g_d[0] + gs[0] if on[0] else g_d[0], g_d[1] + gs[1] if on[1] else g_d[1]
    for branches in ((3, 5), (4, 2)):  # lower, then upper barrier: minus, plus
        through = [gs[j] for j in branches if on[j]]
        if through:
            du_dw = du_dw - functools.reduce(np.add, through)
    du_dw = du_dw - g_dlo + g_dhi

    def push(u_bar, shapes, adj):
        if ix is not None:
            _acc(adj, shapes, ix, ((u_bar * g_x) @ b_mat) * mask)
        if iwhi is not None:
            _acc(adj, shapes, iwhi, -(u_bar * g_dhi))
        if iwlo is not None:
            _acc(adj, shapes, iwlo, u_bar * g_dlo)
        if iu is not None:  # W's and C's: bincounts of the branches' adjoints times x = sign * r, and alone
            g = u_bar * gb
            tables = np.concatenate((np.bincount(flat, (g * r[1:n_on + 1]).reshape(-1), vWC[0].size),
                                     np.bincount(flat, g.reshape(-1), vWC[0].size))).reshape(vWC.shape)
            np.negative(tables[0, 3:5], out=tables[0, 3:5])  # the branches at sign -1
            _acc(adj, shapes, iu, tables)

    return _by_parent(((iw, du_dw), (i_fl, g_q), (ip, -g_q))), push


def _bk_stack_units(g, par, aux, shapes, adj):
    # per branch, W's adjoint then C's
    n = g.shape[1]
    for j in range(n):
        _acc(adj, shapes, par[j], g[0, j])
        _acc(adj, shapes, par[n + j], g[1, j])


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

