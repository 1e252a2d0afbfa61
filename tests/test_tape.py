"""Finite-difference checks of every tape op and fused kernel plus the pinned
subgradient conventions: relu'(0) = 0 (for a unit exactly at its threshold
inside `piecewise` and at the kinks of `gate`), minimum and the min/max of
`barrier_bound` route ties to the first argument, reduce_min routes to the
first attaining index, and a floored denominator gets no adjoint.
"""

from functools import partial

import numpy as np
import pytest

from oracles import relu_units
from swingctl import tape as tp
from swingctl.tape import Node, Tape, TapeError, value


def fd_grad(fn, x, h=1e-6):
    """Central finite differences of scalar fn at array x."""
    g = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = fn(x)
        flat[i] = keep - h
        dn = fn(x)
        flat[i] = keep
        gf[i] = (up - dn) / (2 * h)
    return g


def tape_grad(build, x):
    """Gradient of the entry sum of build(leaf) w.r.t. x through the tape,
    and build's value."""
    t = Tape()
    leaf = t.leaf(x)
    loss = build(leaf)
    t.backward(loss)
    return t.grad(leaf), value(loss)


UNARY = {
    "neg": (tp.neg, (-2.0, 2.0)),
    "sin": (tp.sin, (-2.0, 2.0)),
    "sigmoid": (tp.sigmoid, (-3.0, 3.0)),
    "softplus": (tp.softplus, (-3.0, 3.0)),
    "tanh": (tp.tanh, (-2.0, 2.0)),
    "square": (tp.square, (-2.0, 2.0)),
    "cumsum_last": (tp.cumsum_last, (-1.0, 1.0)),
    "diff_keepfirst": (tp.diff_keepfirst, (-1.0, 1.0)),
    "pad_zero_first": (tp.pad_zero_first, (-1.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(UNARY))
def test_unary_ops_match_fd(name):
    op, (lo, hi) = UNARY[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    x = rng.uniform(lo, hi, size=(2, 3))
    w = rng.normal(size=np.asarray(value(op(x))).shape)  # random projection

    def scalar(a):
        return float(np.sum(np.asarray(value(op(a))) * w))

    g, _ = tape_grad(lambda leaf: op(leaf) * w, x.copy())
    assert np.abs(g - fd_grad(scalar, x.copy())).max() < 1e-6


BINARY = {
    "add": tp.add,
    "sub": tp.sub,
    "mul": tp.mul,
    "div": tp.div,
    "minimum": tp.minimum,
}


@pytest.mark.parametrize("name", sorted(BINARY))
@pytest.mark.parametrize("shapes", [((2, 3), (2, 3)), ((2, 3), (3,)), ((2, 3), ())])
def test_binary_ops_match_fd(name, shapes):
    op = BINARY[name]
    rng = np.random.default_rng(abs(hash((name, shapes))) % 2**32)
    a = rng.uniform(0.5, 2.0, size=shapes[0])
    b = rng.uniform(0.5, 2.0, size=shapes[1]) + (0.5 if name == "div" else 0.0)
    if name == "minimum":
        b = b + 0.05  # keep the selector away from exact ties for FD
    w = rng.normal(size=np.broadcast_shapes(*shapes))

    for side in (0, 1):
        x0 = (a, b)[side]

        def scalar(x):
            args = (x, b) if side == 0 else (a, x)
            return float(np.sum(np.asarray(value(op(*args))) * w))

        def build(leaf):
            args = (leaf, b) if side == 0 else (a, leaf)
            return op(*args) * w

        g, _ = tape_grad(build, np.asarray(x0, dtype=float).copy())
        ref = fd_grad(scalar, np.asarray(x0, dtype=float).copy())
        assert np.abs(g - ref).max() < 1e-6, f"{name} arg {side} shapes {shapes}"


def test_matvec_value_and_grad():
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(4, 3))
    x = rng.normal(size=3)
    assert np.allclose(value(tp.matvec(mat, x)), mat @ x)
    xb = rng.normal(size=(5, 3))
    assert np.allclose(value(tp.matvec(mat, xb)), xb @ mat.T)
    w = rng.normal(size=(5, 4))
    g, _ = tape_grad(lambda leaf: tp.matvec(mat, leaf) * w, xb.copy())
    ref = fd_grad(lambda v: float(np.sum((v @ mat.T) * w)), xb.copy())
    assert np.abs(g - ref).max() < 1e-6


def test_reduce_min_and_sq_dist_grads():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(3, 4))
    g, _ = tape_grad(lambda leaf: tp.sq_dist(leaf, w), x.copy())
    assert np.array_equal(g, 2.0 * (x - w))
    g, total = tape_grad(lambda leaf: tp.sq_dist(leaf), x.copy())
    assert np.array_equal(g, 2.0 * x) and total == (x * x).sum()
    g, lo = tape_grad(lambda leaf: tp.reduce_min(leaf), x.copy())
    assert lo == x.min()
    expect = np.zeros_like(x)
    expect.reshape(-1)[np.argmin(x)] = 1.0
    assert np.array_equal(g, expect)


def unit_tables(w, b):
    """(W, C, thr) of sum_j w_j relu(x + b_j) for non-increasing b, with W and
    C built by tape ops (so w and b may be leaves)."""
    vb = np.asarray(value(b))
    thr = np.concatenate([-vb, np.full(vb.shape[:-1] + (1,), np.inf)], axis=-1)
    return tp.pad_zero_first(tp.cumsum_last(w)), tp.pad_zero_first(tp.cumsum_last(w * b)), thr


def piecewise_args(s_shape, seed):
    """(W, C, thr, s) for 3 rows of 5 units, biases non-increasing, with
    every x + b_j off the kink at both signs, for FD."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(3, 5))
    b = -np.sort(rng.uniform(-1.0, 1.0, size=(3, 5)), axis=-1)
    s = rng.uniform(-1.0, 1.0, size=s_shape)
    assert min(np.abs(s[..., None] + b).min(), np.abs(b - s[..., None]).min()) > 1e-4
    W, C, thr = unit_tables(w, b)
    return {"W": W, "C": C, "s": s}, thr, (w, b)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("s_shape", [(4, 3), (3,)])
def test_piecewise_matches_fd(sign, s_shape):
    args, thr, _ = piecewise_args(s_shape, seed=int(sign > 0) + 2 * len(s_shape))
    proj = np.random.default_rng(1).normal(size=s_shape)

    def call(a):
        return tp.piecewise(a["W"], a["C"], thr, a["s"], sign)

    fd = {}
    for name in args:  # one argument a tape leaf, the other two plain arrays

        def only(x):
            return call(dict(args, **{name: x}))

        g, _ = tape_grad(lambda leaf: only(leaf) * proj, args[name].copy())
        fd[name] = fd_grad(lambda x: float(np.sum(only(x) * proj)), args[name].copy())
        assert np.abs(g - fd[name]).max() < 1e-6, name
    t = Tape()  # all three tape leaves at once
    leaves = {k: t.leaf(v) for k, v in args.items()}
    t.backward(call(leaves) * proj)
    for name in args:
        assert np.abs(t.grad(leaves[name]) - fd[name]).max() < 1e-6, name


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_piecewise_subgradient_zero_at_threshold(sign):
    # unit 0 is active (x + b = 1), unit 1 sits exactly at its threshold
    w = np.array([[2.0, 3.0]])
    b = np.array([[0.0, -1.0]]) if sign > 0 else np.array([[2.0, 1.0]])
    t = Tape()
    lw, ls, lb = t.leaf(w), t.leaf(np.array([1.0])), t.leaf(b)
    out = tp.piecewise(*unit_tables(lw, lb), ls, sign)
    assert np.array_equal(value(out), [2.0])
    t.backward(out)
    assert np.array_equal(t.grad(lw), [[1.0, 0.0]])
    assert np.array_equal(t.grad(lb), [[2.0, 0.0]])
    assert np.array_equal(t.grad(ls), [2.0 * sign])


@pytest.mark.parametrize("s_shape", [(4, 3), (3,)])
def test_piecewise_value_matches_dense_sum(s_shape):
    args, _, (w, b) = piecewise_args(s_shape, seed=7)
    b[0, 1:3] = b[0, 3]  # tied biases
    W, C, thr = unit_tables(w, b)
    s = args["s"].copy()
    s[..., 0] = -b[0, 3]  # on a threshold at sign +1
    s[..., 1] = b[1, 2]  # on a threshold at sign -1
    for sign in (1.0, -1.0):
        dense = relu_units(w, s, b, sign)
        scale = relu_units(np.abs(w), s, b, sign) + np.abs(s) * np.abs(w).sum(-1)
        got = tp.piecewise(W, C, thr, s, sign)
        assert np.all(np.abs(got - dense) <= 1e-13 * scale), sign
        t = Tape()
        assert value(tp.piecewise(t.leaf(W), C, thr, t.leaf(s), sign)).tobytes() == got.tobytes()


def test_piecewise_is_exactly_zero_with_no_unit_active():
    w = np.array([[0.7, -1.3, 2.0], [1.0, 1.0, 1.0]])
    b = np.array([[0.0, -0.5, -0.5], [-0.1, -0.2, -0.3]])
    W, C, thr = unit_tables(w, b)
    s = np.array([[0.0, 0.1], [-0.0, -2.0], [-0.5, 0.05]])  # x <= -b_0 on every row
    out = tp.piecewise(W, C, thr, s, 1.0)
    assert out.tobytes() == np.zeros_like(out).tobytes()
    out = tp.piecewise(W, C, thr, -s, -1.0)
    assert out.tobytes() == np.zeros_like(out).tobytes()


@pytest.mark.parametrize("a_shape", [(2, 4), (3, 2, 4)])
def test_permute_last_matches_fd_and_reorders(a_shape):
    rng = np.random.default_rng(6)
    a = rng.normal(size=a_shape)
    perm = np.argsort(rng.normal(size=a_shape), axis=-1)
    out = tp.permute_last(a, perm)
    assert np.array_equal(out, np.take_along_axis(a, perm, axis=-1))
    proj = rng.normal(size=a_shape)
    g, _ = tape_grad(lambda leaf: tp.permute_last(leaf, perm) * proj, a.copy())
    ref = fd_grad(lambda x: float(np.sum(np.take_along_axis(x, perm, axis=-1) * proj)), a.copy())
    assert np.abs(g - ref).max() < 1e-6


def test_quadratic_toy():
    g, loss = tape_grad(lambda leaf: tp.square(leaf), np.array(3.0))
    assert loss == 9.0
    assert g == 6.0


def test_min_max_tie_first_argument():
    a = np.array([1.0, 2.0])
    b = np.array([1.0, 2.0])
    t = Tape()
    la, lb = t.leaf(a), t.leaf(b)
    t.backward(tp.minimum(la, lb))
    assert np.array_equal(t.grad(la), [1.0, 1.0])
    assert np.array_equal(t.grad(lb), [0.0, 0.0])
    # barrier_bound at cap == alpha / d + q: the cap takes the adjoint
    cap, alpha, d, q = np.array([1.5, -0.5]), np.array([1.0, -1.0]), np.array([2.0, 4.0]), np.array([1.0, -0.25])
    for upper in (True, False):
        t = Tape()
        leaves = [t.leaf(x) for x in (cap, alpha, d, q)]
        out = tp.barrier_bound(*leaves, upper=upper)
        assert np.array_equal(value(out), cap)
        t.backward(out)
        assert np.array_equal(t.grad(leaves[0]), [1.0, 1.0])
        assert all(np.array_equal(t.grad(x), [0.0, 0.0]) for x in leaves[1:])


def test_reduce_min_tie_first_index():
    x = np.array([[2.0, 1.0], [1.0, 3.0]])  # min 1.0 attained twice; index 1 first
    g, _ = tape_grad(lambda leaf: tp.reduce_min(leaf), x.copy())
    assert np.array_equal(g, [[0.0, 1.0], [0.0, 0.0]])


B_MAT = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])  # 3 buses, 2 edges
BY_MAT = B_MAT * np.array([0.8, 1.3])
DAMPING, INERTIA, DTILDE = np.array([1.0, 0.7, 1.2]), np.array([0.9, 1.1, 1.4]), np.array([0.5, 0.3, 0.6])


def _signed(rng, shape, lo, hi):
    """Uniform magnitudes in [lo, hi] with random signs."""
    return rng.uniform(lo, hi, shape) * rng.choice([-1.0, 1.0], shape)


def kernel_case(name, batch, rng):
    """(op, args) of one fused kernel with per-bus arrays of shape batch + (3,)
    and per-edge arrays of shape batch + (2,), every argument a float array
    off the kernel's kinks (for FD); constants are fixed inside op."""
    bus, edge = batch + (3,), batch + (2,)
    if name == "euler_angles":
        return (lambda lam, w: tp.euler_angles(lam, w, B_MAT, 0.1)), [rng.normal(size=edge), rng.normal(size=bus)]
    if name == "euler_freqs":
        op = lambda lam, w, u, p: tp.euler_freqs(lam, w, u, p, DAMPING, INERTIA, BY_MAT, 0.1)  # noqa: E731
        return op, [rng.normal(size=edge)] + [rng.normal(size=bus) for _ in range(3)]
    if name == "feedforward":
        op = lambda lam, w, p: tp.feedforward(lam, w, p, DAMPING, BY_MAT)  # noqa: E731
        return op, [rng.normal(size=edge), rng.normal(size=bus), rng.normal(size=bus)]
    if name == "stability_cap":
        op = lambda w, b: tp.stability_cap(DTILDE, 0.02, w, b)  # noqa: E731
        return op, [0.02 + _signed(rng, bus, 0.1, 0.5), rng.normal(size=bus)]
    if name.startswith("barrier_bound"):
        alpha, d, q = rng.normal(size=bus), _signed(rng, bus, 0.2, 1.0), rng.normal(size=bus)
        cap = alpha / d + q + _signed(rng, bus, 0.1, 0.5)  # each side of the min/max
        return partial(tp.barrier_bound, upper=name.endswith("upper")), [cap, alpha, d, q]
    if name == "gate":
        f = rng.normal(size=bus)
        args = [_signed(rng, bus, 0.05, 0.5), _signed(rng, bus, 0.05, 0.5), f]
        return tp.gate, args + [f + _signed(rng, bus, 0.05, 0.5), f + _signed(rng, bus, 0.05, 0.5)]
    if name == "sq_dist":
        return tp.sq_dist, [rng.normal(size=bus), rng.normal(size=bus)]
    if name == "sq_dist_one":
        return tp.sq_dist, [rng.normal(size=bus)]
    assert name == "sum_seq"
    return (lambda *terms: tp.sum_seq(terms)), [rng.normal(size=bus) for _ in range(3)]


KERNELS = {  # case name -> tape kind
    "euler_angles": "euler_angles",
    "euler_freqs": "euler_freqs",
    "feedforward": "feedforward",
    "stability_cap": "stability_cap",
    "barrier_bound_upper": "barrier_bound",
    "barrier_bound_lower": "barrier_bound",
    "gate": "gate",
    "sq_dist": "sq_dist",
    "sq_dist_one": "sq_dist",
    "sum_seq": "sum_seq",
}


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("batch", [(), (4,)])
def test_fused_kernels_match_fd(name, batch):
    rng = np.random.default_rng(abs(hash((name, batch))) % 2**32)
    op, args = kernel_case(name, batch, rng)
    proj = rng.normal(size=np.shape(op(*args)))
    fd = []
    for i in range(len(args)):  # one argument a tape leaf, the others plain arrays

        def only(x, i=i):
            return op(*args[:i], x, *args[i + 1:])

        g, _ = tape_grad(lambda leaf: only(leaf) * proj, args[i].copy())
        fd.append(fd_grad(lambda x: float(np.sum(value(only(x)) * proj)), args[i].copy()))
        assert np.abs(g - fd[i]).max() < 1e-6 * max(1.0, np.abs(fd[i]).max()), (name, i)
    t = Tape()  # every argument a tape leaf at once
    leaves = [t.leaf(a) for a in args]
    t.backward(op(*leaves) * proj)
    for i, leaf in enumerate(leaves):
        assert np.abs(t.grad(leaf) - fd[i]).max() < 1e-6 * max(1.0, np.abs(fd[i]).max()), (name, i)


def test_gate_subgradient_zero_at_kinks():
    # per entry: 0 upper gate at dhi = 0; 1 upper branch at f = ub;
    # 2 lower branch at f = lb; 3 lower gate at dlo = 0
    dhi = np.array([0.0, 0.3, -0.1, -0.1])
    dlo = np.array([-0.1, -0.1, 0.2, 0.0])
    f = np.array([0.5, 0.5, -0.4, 1.0])
    ub = np.array([1.0, 0.5, 9.0, 9.0])
    lb = np.array([-9.0, -9.0, -0.4, -9.0])
    t = Tape()
    leaves = [t.leaf(x) for x in (dhi, dlo, f, ub, lb)]
    out = tp.gate(*leaves)
    assert np.allclose(value(out), [0.0, 0.15, -0.08, 0.0], rtol=0.0, atol=1e-15)
    t.backward(out)
    g_dhi, g_dlo, g_f, g_ub, g_lb = (t.grad(x) for x in leaves)
    assert np.array_equal(g_dhi, [0.0, 0.5, 0.0, 0.0])
    assert np.array_equal(g_dlo, [0.0, 0.0, -0.4, 0.0])
    assert np.array_equal(g_f, [0.0, 0.3, 0.2, 0.0])
    assert np.array_equal(g_ub, [0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(g_lb, [0.0, 0.0, 0.0, 0.0])


def test_floored_denominators_in_cap_and_bound():
    # an exact zero denominator gives a finite value, and the floored region
    # is constant in the denominator
    t = Tape()
    w, b = t.leaf(np.array([0.0, 0.25])), t.leaf(np.array([1.0, 0.125]))
    cap = tp.stability_cap(np.array([0.5, 0.5]), 0.0, w, b)
    assert np.array_equal(value(cap), [1.0 / 1e-12, 0.625])
    t.backward(cap)
    assert np.array_equal(t.grad(w), [0.5, -1.5])
    assert np.array_equal(t.grad(b), [1.0 / 1e-12, 4.0])
    for upper, alpha in ((True, -1.0), (False, 1.0)):  # the alpha / d + q branch binds
        t = Tape()
        leaves = [t.leaf(np.array([x])) for x in (0.0, alpha, 0.0, 0.5)]
        out = tp.barrier_bound(*leaves, upper=upper)
        assert value(out)[0] == alpha / 1e-12 + 0.5
        t.backward(out)
        assert [t.grad(x)[0] for x in leaves] == [0.0, 1.0 / 1e-12, 0.0, 1.0]


def dispatch_cases():
    """(kind, op, args, leaf positions): every op with a tape leaf in turn at
    each listed argument and plain arrays elsewhere."""
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(2, 3)), rng.normal(size=(3,))
    x[0, 2] = y[2]  # a minimum tie
    mat = rng.normal(size=(4, 3))
    w, b = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
    s = rng.normal(size=(3, 2))
    unary = [op for op, _ in UNARY.values()] + [tp.reduce_min]
    cases = [(op.__name__, op, (x,), (0,)) for op in unary]
    cases += [(name, op, (x, y), (0, 1)) for name, op in BINARY.items()]
    cases += [("matvec", partial(tp.matvec, mat), (x,), (0,))]
    W, C, thr = unit_tables(w, -np.sort(b, axis=-1))
    s[0, 0] = -thr[0, 1]  # an input exactly on a threshold
    for sign in (1.0, -1.0):
        op = lambda W_, C_, s_, sg=sign: tp.piecewise(W_, C_, thr, s_, sg)  # noqa: E731
        cases.append(("piecewise", op, (W, C, s), (0, 1, 2)))
    perm = np.argsort(b, axis=-1)
    cases.append(("permute_last", lambda a: tp.permute_last(a, perm), (b,), (0,)))
    for name, kind in KERNELS.items():
        for batch in ((), (4,)):
            op, args = kernel_case(name, batch, rng)
            cases.append((kind, op, tuple(args), tuple(range(len(args)))))
    # kinks and floors: the gate at f = ub and f = lb, zero denominators
    f = rng.normal(size=3)
    cases.append(("gate", tp.gate, (x[0], -x[0], f, f, f), (0, 1, 2, 3, 4)))
    cases.append(("stability_cap", lambda w, b_: tp.stability_cap(DTILDE, 0.02, w, b_),
                  (np.array([0.02, 0.02 + 1e-14, -0.3]), y), (0, 1)))
    for upper in (True, False):
        zero_d = np.array([0.0, -1e-14, 0.5])
        cases.append(("barrier_bound", partial(tp.barrier_bound, upper=upper), (y, x, zero_d, y), (0, 1, 2, 3)))
    return cases


def test_plain_array_dispatch_matches_tape_values():
    covered = set()
    for kind, op, args, positions in dispatch_cases():
        plain = op(*args)
        assert not isinstance(plain, Node), kind
        for i in positions:
            t = Tape()
            node = op(*(t.leaf(a) if j == i else a for j, a in enumerate(args)))
            assert isinstance(node, Node) and t.kinds[node.idx] == kind, (kind, i)
            got = value(node)
            assert (got.shape, got.dtype) == (plain.shape, plain.dtype), (kind, i)
            assert got.tobytes() == plain.tobytes(), (kind, i)
            covered.add(kind)
    assert covered == set(tp._BACKWARD)


def test_operator_overloads_and_mixed_args():
    t = Tape()
    a = t.leaf(np.array([1.0, 2.0]))
    out = (a + 1.0) * np.array([2.0, 3.0]) - a / 2.0
    assert np.allclose(value(out), [3.5, 8.0])
    t.backward(out)
    assert np.allclose(t.grad(a), [1.5, 2.5])


def test_grad_of_unused_leaf_is_zero():
    t = Tape()
    a = t.leaf(np.array([1.0, 2.0]))
    b = t.leaf(np.array([3.0]))
    t.backward(tp.square(a))
    assert np.array_equal(t.grad(b), [0.0])


def test_grad_of_interior_node_raises():
    t = Tape()
    a = t.leaf(np.array([1.0, 2.0]))
    mid = tp.square(a)
    t.backward(mid)
    with pytest.raises(ValueError, match=f"node {mid.idx} \\(op 'square'\\) is not a leaf"):
        t.grad(mid)
    assert np.array_equal(t.grad(a), [2.0, 4.0])
    assert all(g is None for i, g in enumerate(t.adj) if i != a.idx)


def test_tape_keeps_a_value_only_while_a_handle_or_rule_holds_it():
    t = Tape()
    a = t.leaf(np.array([1.0, -2.0]))
    b = tp.add(a, 1.0)  # square's rule reads b's value
    c = tp.square(b)
    d = tp.add(c, 3.0)  # no rule reads c's or d's value
    ids = b.idx, c.idx, d.idx
    root = tp.add(d, 0.0)
    del b, c, d
    vals = t.vals
    assert np.array_equal(vals[ids[0]], [2.0, -1.0])
    assert vals[ids[1]] is None and vals[ids[2]] is None
    assert t.shapes[ids[2]] == (2,)
    t.backward(root)
    assert np.array_equal(t.grad(a), [4.0, -2.0])


def test_backward_rejects_foreign_root():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.array([1.0]))
    with pytest.raises(ValueError, match="different tape"):
        t2.backward(a)


def test_non_finite_adjoint_diagnostic():
    t = Tape()
    x = t.leaf(np.array([0.0]))
    with np.errstate(divide="ignore"):
        loss = tp.div(1.0, x)
        t.backward(loss)
        assert not np.isfinite(t.grad(x)).all()
        with pytest.raises(TapeError, match="non-finite adjoint at node"):
            t.backward(loss, check_finite=True)
