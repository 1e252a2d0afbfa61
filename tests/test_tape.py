"""Finite-difference checks of every tape op and fused kernel plus the pinned
subgradient conventions: relu'(0) = 0 (for a unit exactly at its threshold
inside `unit_sums`), `control_law`'s gate is shut at its kink and passes no
adjoint, minimum routes ties to its first argument, `control_law`'s barrier
bounds to the cap and its clip of f to f, reduce_min routes to the first
attaining index, a floored denominator gets no adjoint, and `stack_units`
passes nothing to a branch no step evaluated.
"""

import dataclasses
import zlib
from functools import partial

import numpy as np
import pytest

import oracles
from oracles import piecewise, relu_units
from swingctl import controller as C
from swingctl import tape as tp
from swingctl.dynamics import line_flows
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


def stable_seed(key) -> int:
    """A seed from the repr of a test case's key, the same in every process
    (Python's str hash is salted per process)."""
    return zlib.crc32(repr(key).encode())


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
    "sin": (oracles.sin, (-2.0, 2.0)),
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
    rng = np.random.default_rng(stable_seed(name))
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
    rng = np.random.default_rng(stable_seed((name, shapes)))
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
    g, _ = tape_grad(lambda leaf: oracles.sq_dist(leaf, w), x.copy())
    assert np.array_equal(g, 2.0 * (x - w))
    g, total = tape_grad(lambda leaf: oracles.sq_dist(leaf), x.copy())
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


def one_branch(W, C, thr, s, sign, bound=None):
    """`unit_sums` of the single branch sum_j w_j relu(sign * r + b_j), with
    r = s or, for a plain `bound`, r = bound - s (a tape node when s is)."""
    return tp.unit_sums((((W, C, thr), s if bound is None else bound - s, sign),))


def check_fd(call, args, proj):
    """call's tape gradients against finite differences, with each argument
    a tape leaf alone and then all of them at once."""
    fd = {}
    for name in args:  # one argument a tape leaf, the others plain arrays

        def only(x):
            return call(dict(args, **{name: x}))

        g, _ = tape_grad(lambda leaf: only(leaf) * proj, args[name].copy())
        fd[name] = fd_grad(lambda x: float(np.sum(value(only(x)) * proj)), args[name].copy())
        assert np.abs(g - fd[name]).max() < 1e-6, name
    t = Tape()
    leaves = {k: t.leaf(v) for k, v in args.items()}
    t.backward(call(leaves) * proj)
    for name in args:
        assert np.abs(t.grad(leaves[name]) - fd[name]).max() < 1e-6, name
    return fd


# The unit-sum kernel evaluates each branch as one linear piece; these tests
# pin one branch at a time, then shifted, paired and skipped branches.


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("s_shape", [(4, 3), (3,)])
def test_piecewise_matches_fd(sign, s_shape):
    args, thr, _ = piecewise_args(s_shape, seed=int(sign > 0) + 2 * len(s_shape))
    proj = np.random.default_rng(1).normal(size=s_shape)
    check_fd(lambda a: one_branch(a["W"], a["C"], thr, a["s"], sign), args, proj)


def two_branch_args(seed, shift):
    """Two 3-row, 5-unit branches on s of shape (4, 3): tables W0, C0, W1, C1
    and thresholds thr0, thr1, every input off the kinks at both signs."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(2, 3, 5))
    b = -np.sort(rng.uniform(-1.0, 1.0, size=(2, 3, 5)), axis=-1)
    s = rng.uniform(-1.0, 1.0, size=(4, 3))
    r = s if shift is None else shift - s
    assert min(np.abs(r[..., None] + b[:, None]).min(), np.abs(b[:, None] - r[..., None]).min()) > 1e-4
    (W0, C0, thr0), (W1, C1, thr1) = unit_tables(w[0], b[0]), unit_tables(w[1], b[1])
    return {"W0": W0, "C0": C0, "W1": W1, "C1": C1, "s": s}, (thr0, thr1)


@pytest.mark.parametrize("shift", [None, 0.3])
def test_unit_sums_two_branches_match_fd(shift):
    # a class-K pair alpha(r) = plus(r) + minus(-r) on one input, r = s or
    # r = shift - s, a tape node
    args, (thr0, thr1) = two_branch_args(seed=11, shift=shift)

    def call(a):
        r = a["s"] if shift is None else np.full(3, shift) - a["s"]
        return tp.unit_sums((((a["W0"], a["C0"], thr0), r, 1.0), ((a["W1"], a["C1"], thr1), r, -1.0)))

    check_fd(call, args, np.random.default_rng(2).normal(size=(4, 3)))


def test_unit_sums_two_inputs_match_fd():
    # the dead-zone pair: each branch on its own input, both at sign +1
    args, (thr0, thr1) = two_branch_args(seed=12, shift=None)
    args["t"] = np.random.default_rng(13).uniform(-1.0, 1.0, size=(4, 3))
    assert np.abs(args["t"][..., None] - thr1[:, :-1]).min() > 1e-4

    def call(a):
        return tp.unit_sums((((a["W0"], a["C0"], thr0), a["s"], 1.0),
                             ((a["W1"], a["C1"], thr1), a["t"], 1.0)))

    check_fd(call, args, np.random.default_rng(3).normal(size=(4, 3)))


@pytest.mark.parametrize("bound, skipped", [(1.2, 1), (-1.2, 0)])
def test_unit_sums_skipped_branch_matches_fd(bound, skipped):
    # a class-K pair with first biases pinned at zero: where r = bound - s
    # keeps one sign, as inside a band, one branch has no active unit. It is
    # skipped forward and backward, so its weights get no adjoint at all.
    rng = np.random.default_rng(14)
    b = -np.sort(rng.uniform(0.0, 1.0, size=(2, 3, 5)), axis=-1)
    b[..., 0] = 0.0
    args = {"w0": rng.normal(size=(3, 5)), "w1": rng.normal(size=(3, 5)), "s": rng.uniform(-1.0, 1.0, size=(4, 3))}
    assert np.abs(np.abs(bound - args["s"])[..., None] + b[:, None]).min() > 1e-4

    def call(a):
        r = np.full(3, bound) - a["s"]
        return tp.unit_sums(((unit_tables(a["w0"], b[0]), r, 1.0), (unit_tables(a["w1"], b[1]), r, -1.0)))

    fd = check_fd(call, args, np.random.default_rng(4).normal(size=(4, 3)))
    assert not fd[f"w{skipped}"].any() and fd[f"w{1 - skipped}"].any()
    t = Tape()
    leaves = {k: t.leaf(v) for k, v in args.items()}
    out = call(leaves)
    assert [br is None for br in t.aux[out.idx]] == [skipped == 0, skipped == 1]
    t.backward(out)
    assert t.adj[leaves[f"w{skipped}"].idx] is None


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_piecewise_subgradient_zero_at_threshold(sign):
    # unit 0 is active (x + b = 1), unit 1 sits exactly at its threshold
    w = np.array([[2.0, 3.0]])
    b = np.array([[0.0, -1.0]]) if sign > 0 else np.array([[2.0, 1.0]])
    t = Tape()
    lw, ls, lb = t.leaf(w), t.leaf(np.array([1.0])), t.leaf(b)
    out = one_branch(*unit_tables(lw, lb), ls, sign)
    assert np.array_equal(value(out), [2.0])
    t.backward(out)
    assert np.array_equal(t.grad(lw), [[1.0, 0.0]])
    assert np.array_equal(t.grad(lb), [[2.0, 0.0]])
    assert np.array_equal(t.grad(ls), [2.0 * sign])


def test_unit_sums_unit_at_threshold_is_inactive_with_a_bound():
    # r = bound - s = 1 puts unit 1 (bias -1) exactly on its threshold: inactive
    w, b = np.array([[2.0, 3.0]]), np.array([[0.0, -1.0]])
    t = Tape()
    lw, ls = t.leaf(w), t.leaf(np.array([0.5]))
    out = one_branch(*unit_tables(lw, b), ls, 1.0, bound=np.array([1.5]))
    assert np.array_equal(value(out), [2.0])
    t.backward(out)
    assert np.array_equal(t.grad(lw), [[1.0, 0.0]])
    assert np.array_equal(t.grad(ls), [-2.0])


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
        got = one_branch(W, C, thr, s, sign)
        assert np.all(np.abs(got - dense) <= 1e-13 * scale), sign
        t = Tape()
        assert value(one_branch(t.leaf(W), C, thr, t.leaf(s), sign)).tobytes() == got.tobytes()


@pytest.mark.parametrize("bound", [None, 0.25])
def test_unit_sums_value_is_the_composed_branch_sum_bitwise(bound):
    # the fused sum equals piecewise(plus, r) + piecewise(minus, r), with
    # r = s or r = bound - s, bit for bit, skipped branch or not
    rng = np.random.default_rng(15)
    w = rng.normal(size=(2, 3, 5))
    b = -np.sort(rng.uniform(0.0, 0.2, size=(2, 3, 5)), axis=-1)
    b[:, :, 0] = 0.0
    (W0, C0, thr0), (W1, C1, thr1) = unit_tables(w[0], b[0]), unit_tables(w[1], b[1])
    for s in (rng.uniform(-0.3, 0.3, size=(4, 3)), rng.uniform(-0.3, -0.01, size=(4, 3)),
              rng.uniform(0.01, 0.3, size=(4, 3)), np.zeros((4, 3)), np.full(3, bound or 0.0)):
        r = s if bound is None else np.full(3, bound) - s
        expect = piecewise(W0, C0, thr0, r, 1.0) + piecewise(W1, C1, thr1, r, -1.0)
        assert tp.unit_sums((((W0, C0, thr0), r, 1.0), ((W1, C1, thr1), r, -1.0))).tobytes() == expect.tobytes()
        t = Tape()
        rt = t.leaf(s) if bound is None else np.full(3, bound) - t.leaf(s)
        node = tp.unit_sums((((t.leaf(W0), C0, thr0), rt, 1.0), ((W1, t.leaf(C1), thr1), rt, -1.0)))
        assert value(node).tobytes() == expect.tobytes()


def test_piecewise_is_exactly_zero_with_no_unit_active():
    w = np.array([[0.7, -1.3, 2.0], [1.0, 1.0, 1.0]])
    b = np.array([[0.0, -0.5, -0.5], [-0.1, -0.2, -0.3]])
    W, C, thr = unit_tables(w, b)
    s = np.array([[0.0, 0.1], [-0.0, -2.0], [-0.5, 0.05]])  # x <= -b_0 on every row
    for out in (one_branch(W, C, thr, s, 1.0), one_branch(W, C, thr, -s, -1.0),
                tp.unit_sums((((W, C, thr), s, 1.0), ((W, C, thr), s, 1.0)))):
        assert out.tobytes() == np.zeros_like(out).tobytes()
    t = Tape()
    lW, ls = t.leaf(W), t.leaf(s)
    out = one_branch(lW, C, thr, ls, 1.0)
    assert out.value.tobytes() == np.zeros((3, 2)).tobytes() and t.aux[out.idx] == [None]
    t.backward(out * 2.0)
    assert not t.grad(lW).any() and not t.grad(ls).any()


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


def test_reduce_min_tie_first_index():
    x = np.array([[2.0, 1.0], [1.0, 3.0]])  # min 1.0 attained twice; index 1 first
    g, _ = tape_grad(lambda leaf: tp.reduce_min(leaf), x.copy())
    assert np.array_equal(g, [[0.0, 1.0], [0.0, 0.0]])


B_MAT = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])  # 3 buses, 2 edges
BY_MAT = B_MAT * np.array([0.8, 1.3])
DAMPING, INERTIA, DTILDE = np.array([1.0, 0.7, 1.2]), np.array([0.9, 1.1, 1.4]), np.array([0.5, 0.3, 0.6])
BAND = (np.array([-0.8, -0.9, -0.75]), np.array([0.7, 0.8, 0.9]), 0.02)  # omega_min, omega_max, omega_sync
BRANCHES = ("dz_plus", "dz_minus", "hi_plus", "lo_minus", "hi_minus", "lo_plus")  # the order of stack_units


def _signed(rng, shape, lo, hi, sign=0):
    """Uniform magnitudes in [lo, hi] with the given sign, or random signs."""
    return rng.uniform(lo, hi, shape) * (rng.choice([-1.0, 1.0], shape) if sign == 0 else sign)


# control_law cases, named after the part of the policy whose adjoint they
# route: (open gate: +1 upper, -1 lower, 0 either per bus; the sign of
# t_hi - cap and of cap - t_lo, +1 where the cap binds; +1 where f is past
# the open gate's bound, -1 where it is inside; every edge on), a 0 sign
# drawn per bus. The measured_omega case has omega as its one argument and
# each units_ case one branch's W and C tables, in a regime where that
# branch's sum gets an adjoint: a barrier's where its bound binds and clips
# f, the dead zone's where nothing clips; the other cases have
# flows, omega, p, xi, whi and wlo.
LAW_CASES = {
    "masked_matvec": (0, 1, 1, 1, False),
    "stability_cap": (0, 1, 1, 1, True),
    "feedforward": (0, -1, -1, 1, False),
    "barrier_bound_upper": (1, 0, 0, 1, False),
    "barrier_bound_lower": (-1, 0, 0, 1, False),
    "gate": (0, 0, 0, 0, False),
    "measured_omega": (0, 0, 0, 0, False),
    **{f"units_{name}": (0, 1, 1, -1, False) for name in BRANCHES[:2]},
    **{f"units_{name}": (0, -1, -1, 1, False) for name in BRANCHES[2:]},
}


def law_case_args(name) -> tuple:
    """The names of a control_law case's arguments."""
    if name == "measured_omega":
        return ("w",)
    if name.startswith("units_"):
        j = BRANCHES.index(name.removeprefix("units_"))
        return (f"W{j}", f"C{j}")
    return ("flows", "w", "p", "xi", "whi", "wlo")


def law_inputs(batch, rng, gates, hi, lo, clip, all_on):
    """(inputs, mask, thr): control_law's inputs on 3 buses with per-bus
    arrays of shape batch + (3,), per-edge ones batch + (2,) and 3-unit
    tables. Every barrier branch has an active unit at every entry; the
    dead-zone response rises with dhi and falls with dlo from zero at the
    thresholds, steeply or, where f must stay inside the bounds (clip -1),
    gently, and with random gates bus 0's upper and bus 1's lower gate are
    open, so both its branches have active units too. Each entry is
    drawn until it is in the case's regime with the gate, both bounds'
    min/max, the clip and dev at least 0.05 from their kinks and every
    branch input 1e-3 from its unit thresholds, for FD."""
    bus, edge = batch + (3,), batch + (2,)
    inputs, thr = {}, []
    for j in range(6):
        if j >= 2:  # unit 0 is active at every input drawn below
            w, b = rng.normal(size=(3, 3)), -np.sort(-rng.uniform(-1.0, 1.0, (3, 3)), axis=-1)
            b[:, 0] = 2.0
        else:
            slope = (0.01, 0.1) if clip < 0 else (2.0, 6.0)
            w, b = (1.0 if j == 0 else -1.0) * rng.uniform(*slope, (3, 3)), -np.sort(rng.uniform(0.0, 0.5, (3, 3)))
            b[:, 0] = 0.0
        inputs[f"W{j}"], inputs[f"C{j}"], t = unit_tables(w, b)
        thr.append(t)
    omega_min, omega_max, sync = BAND
    whi, wlo = rng.uniform(0.03, 0.1, 3), -rng.uniform(0.03, 0.1, 3)
    lam, xi = rng.normal(size=edge), 0.01 * rng.normal(size=(2,))
    flows = np.sin(lam) @ BY_MAT.T
    mask = np.ones(edge) if all_on else rng.integers(0, 2, edge).astype(float)
    up = np.full(bus, gates > 0)
    if gates == 0:
        up = rng.random(bus) < 0.5
        up[..., 0], up[..., 1] = True, False
    s_hi, s_lo = (np.full(bus, float(v)) if v else rng.choice([-1.0, 1.0], bus) for v in (hi, lo))
    w, p, todo = np.zeros(bus), np.zeros(bus), np.ones(bus, dtype=bool)
    for _ in range(1000):
        cand = np.where(up, whi + rng.uniform(0.05, 0.5, bus), wlo - rng.uniform(0.05, 0.5, bus))
        r = (cand - whi, wlo - cand, omega_max - cand, omega_min - cand, omega_max - cand, omega_min - cand)
        xs = [sign * rj for sign, rj in zip((1.0, 1.0, 1.0, -1.0, -1.0, 1.0), r)]
        ok = np.abs(cand - sync) >= 0.05
        for x, t in zip(xs, thr):
            ok &= np.abs(x[..., None] - t[:, :-1]).min(-1) >= 1e-3
        part = [piecewise(inputs[f"W{j}"], inputs[f"C{j}"], thr[j], xs[j], 1.0) for j in range(6)]
        a_hi, a_lo, f = part[2] + part[4], part[3] + part[5], part[0] + part[1]
        cap = DTILDE * (cand - sync) + ((mask * xi) @ B_MAT.T) / (cand - sync)
        t_open = np.where(up, cap + s_hi * rng.uniform(0.1, 0.5, bus), cap - s_lo * rng.uniform(0.1, 0.5, bus))
        q = t_open - np.where(up, a_hi / r[0], a_lo / r[1])
        bound = np.where(up, np.minimum(cap, t_open), np.maximum(cap, t_open))
        beyond = np.where(up, f - bound, bound - f)  # > 0: f is past the open gate's bound
        ok &= (clip * beyond if clip else np.abs(beyond)) >= 0.05
        new = todo & ok
        w[new], p[new] = cand[new], (DAMPING * cand + flows - q)[new]
        todo &= ~ok
        if not todo.any():
            break
    assert not todo.any()
    inputs.update(flows=flows, w=w, p=p, xi=xi, whi=whi, wlo=wlo)
    return inputs, mask, thr


def kernel_case(name, batch, rng):
    """(op, args) of one fused kernel with per-bus arrays of shape batch + (3,)
    and per-edge arrays of shape batch + (2,), every argument a float array
    off the kernel's kinks (for FD); constants are fixed inside op."""
    bus, edge = batch + (3,), batch + (2,)
    if name == "euler_angles":
        return (lambda lam, w: oracles.euler_angles(lam, w, B_MAT, 0.1)), [rng.normal(size=edge), rng.normal(size=bus)]
    if name == "euler_freqs":
        op = lambda flows, w, u, p: oracles.euler_freqs(flows, w, u, p, DAMPING, INERTIA, 0.1)  # noqa: E731
        return op, [rng.normal(size=bus) for _ in range(4)]
    if name in LAW_CASES:
        inputs, mask, thr = law_inputs(batch, rng, *LAW_CASES[name])
        names = law_case_args(name)

        def op(*args):
            a = dict(inputs, **dict(zip(names, args)))
            units = tp.stack_units([(a[f"W{j}"], a[f"C{j}"], thr[j]) for j in range(6)], a["whi"], a["wlo"], *BAND)
            return tp.control_law(a["flows"], a["w"], a["p"], a["xi"], mask, units, B_MAT, DAMPING, DTILDE)[0]

        return op, [inputs[k] for k in names]
    if name == "sq_dist":
        return oracles.sq_dist, [rng.normal(size=bus), rng.normal(size=bus)]
    if name == "sq_dist_one":
        return oracles.sq_dist, [rng.normal(size=bus)]
    assert name == "sum_seq"
    return (lambda *terms: oracles.sum_seq(terms)), [rng.normal(size=bus) for _ in range(3)]


# case name -> tape kind: the tape's policy kernels and the per-step kernels
# of the taped reference episode (`oracles.taped_episode_loss`)
KERNELS = {
    "euler_angles": "euler_angles",
    "euler_freqs": "euler_freqs",
    **{name: "control_law" for name in LAW_CASES},
    "sq_dist": "sq_dist",
    "sq_dist_one": "sq_dist",
    "sum_seq": "sum_seq",
}


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("batch", [(), (4,)])
def test_fused_kernels_match_fd(name, batch):
    rng = np.random.default_rng(stable_seed((name, batch)))
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


def col(a) -> np.ndarray:
    """The C table [0, a] of a one-unit branch whose value is a everywhere
    (with W = 0 and threshold -inf)."""
    a = np.asarray(a, dtype=float)
    return np.stack([np.zeros_like(a), a], axis=-1)


def hand_law(n):
    """control_law on n buses with one edge per bus (b = mask xi), no line
    flows and D = 1 (q = omega - p), D_tilde = 0.5 and omega_sync = 0 (cap =
    0.5 omega + b / omega), and constant branches: the upper barrier, the
    lower one and the dead-zone response are the C tables (`col`) c_hi,
    c_lo and c_f, the minus branches 0, so nothing reaches omega through
    them: (omega, p, xi, whi, wlo, c_hi, c_lo, c_f) -> (u, b, ub, lb)."""
    return lambda *a: tp.control_law(*hand_args(n, *a))


def hand_args(n, w, p, xi, whi, wlo, c_hi, c_lo, c_f) -> tuple:
    """`hand_law`'s control_law arguments."""
    thr, zero = np.tile([-np.inf, np.inf], (n, 1)), np.zeros((n, 2))
    tables = [(zero, c, thr) for c in (c_f, zero, c_hi, c_lo, zero, zero)]
    units = tp.stack_units(tables, whi, wlo, np.full(n, -10.0), np.full(n, 10.0), 0.0)
    return np.zeros(n), w, p, xi, np.ones(n), units, np.eye(n), np.ones(n), np.full(n, 0.5)


def test_barrier_bound_tie_goes_to_the_cap():
    # at cap == alpha / d + q (cap 0.5 w, q = 0, d = 0.5) u is the bound,
    # and its adjoint reaches omega (0.5 = D_tilde) and xi through the cap;
    # none reaches alpha, p through q, or the thresholds, since the gate is
    # an indicator and the cap has no d
    w = np.array([0.5, 0.25, 1.0])
    tie, other = col(0.25 * w), col(np.ones(3))
    for upper in (True, False):
        gate_in = w - 0.5 if upper else w + 0.5  # whi = wlo: dhi = -dlo = +-0.5
        args = (w, w, np.zeros(3), gate_in, gate_in, tie if upper else other, other if upper else tie,
                col(np.full(3, 10.0 if upper else -10.0)))
        t = Tape()
        leaves = [t.leaf(a) for a in args]
        u, _, ub, lb = hand_law(3)(*leaves)
        assert np.array_equal(ub if upper else lb, 0.5 * w) and np.array_equal(value(u), 0.5 * w)
        t.backward(u)
        g_w, g_p, g_xi, g_whi, g_wlo, g_hi, g_lo = (t.grad(x) for x in leaves[:7])
        assert np.array_equal(g_w, np.full(3, 0.5)) and np.array_equal(g_xi, 1.0 / w)
        assert not (g_p.any() or g_whi.any() or g_wlo.any() or g_hi.any() or g_lo.any())


def gate_kink_args():
    """hand_law(4) arguments with q = 0 and the cap 0.5 w binding both bounds.
    Per entry: 0 upper gate at dhi = 0; 1 upper branch at f = ub = 0.5;
    2 lower branch at f = lb = -0.375; 3 lower gate at dlo = 0."""
    w = np.array([1.0, 1.0, -0.75, 1.0])
    return (w, w.copy(), np.zeros(4), np.array([1.0, 0.75, -0.625, 1.125]), np.array([0.875, 0.875, -0.5, 1.0]),
            col(np.full(4, 9.0)), col(np.full(4, -9.0)), col(np.array([0.5, 0.5, -0.375, 1.0])))


def test_gate_subgradient_zero_at_kinks():
    # the gate is shut at dhi = 0 and dlo = 0 and passes no adjoint to its
    # inputs; at f = ub and f = lb u is f, which takes the whole adjoint, so
    # the bounds, and through them the cap's and q's inputs, get none
    t = Tape()
    leaves = [t.leaf(x) for x in gate_kink_args()]
    u = hand_law(4)(*leaves)[0]
    assert np.array_equal(value(u), [0.0, 0.5, -0.375, 0.0])
    t.backward(u)
    assert np.array_equal(t.grad(leaves[7])[:, 1], [0.0, 1.0, 1.0, 0.0])
    assert not any(t.grad(x).any() for x in leaves[:7])


def test_floored_denominators_in_cap_and_bound():
    # an exact zero denominator gives a finite value, and the floored region
    # is constant in the denominator. The cap first: it binds the upper
    # bound, whose gate (dhi = 1) is open, and f is past it (q = 0)
    t = Tape()
    w, xi = t.leaf(np.array([0.0, 0.25])), t.leaf(np.array([1.0, 0.125]))
    whi = t.leaf(value(w) - 1.0)
    u, _, ub, _ = hand_law(2)(w, value(w), xi, whi, value(w) - 1.0, col(np.full(2, 1e13)), col(np.full(2, -1e13)),
                              col(np.array([2e12, 2.0])))
    assert np.array_equal(ub, [1.0 / 1e-12, 0.625])
    t.backward(u)
    assert np.array_equal(t.grad(w) + t.grad(whi), [0.5, -1.5])  # the cap's share of omega's adjoint
    assert np.array_equal(t.grad(xi), [1.0 / 1e-12, 4.0])
    # then a bound whose alpha / d + q binds (q 0.5, the cap below 1e-12),
    # at d = 0 (a shut gate) and at d = 2^-41 (an open one): alpha gets the
    # open gate's adjoint 1 over the floor 1e-12, and d none, as the floored
    # bound is constant in d and the gate passes nothing
    w, tiny = np.full(1, 2.0**-40), 2.0**-41
    for upper, alpha in ((True, -1.0), (False, 1.0)):
        for d in (0.0, tiny):
            t = Tape()
            a = t.leaf(col([alpha]))
            whi, wlo = (w - d, w - 1.0) if upper else (w + 1.0, w + d)
            gates = [t.leaf(whi), t.leaf(wlo)]
            tables = (a, col([0.0])) if upper else (col([0.0]), a)
            u, _, ub, lb = hand_law(1)(w, w - 0.5, np.zeros(1), *gates, *tables, col([0.0]))
            bound = ub if upper else lb
            assert bound[0] == alpha / 1e-12 + 0.5
            t.backward(u)
            g_d = -t.grad(gates[0]) if upper else t.grad(gates[1])
            assert (t.grad(a)[0, 1], g_d[0]) == ((0.0, 0.0) if d == 0.0 else (1.0 / 1e-12, 0.0))


def test_stack_units_passes_each_slice_but_an_unevaluated_branch():
    # the stacked tables' adjoint goes to each branch's W and C, except for a
    # branch whose C slice is all -0.0: no control_law step evaluated it
    rng = np.random.default_rng(stable_seed("stack_units"))
    t = Tape()
    tables = [(t.leaf(rng.normal(size=(2, 4))), t.leaf(rng.normal(size=(2, 4))), np.zeros((2, 4))) for _ in range(6)]
    wc = tp.stack_units(tables, np.zeros(2), np.zeros(2), -1.0, 1.0, 0.0)[0]
    assert np.array_equal(value(wc), np.array([[value(W) for W, _, _ in tables], [value(C) for _, C, _ in tables]]))
    g = rng.normal(size=(2, 6, 2, 4))
    g[:, 3] = -0.0
    g[1, 4] = 0.0  # +0.0: evaluated, with a zero adjoint
    t.backward(wc * g)
    for j, (W, C, _) in enumerate(tables):
        if j == 3:
            assert t.adj[W.idx] is None and t.adj[C.idx] is None
        else:
            assert t.grad(W).tobytes() == g[0, j].tobytes() and t.grad(C).tobytes() == g[1, j].tobytes()


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
        op = lambda W_, C_, s_, sg=sign: one_branch(W_, C_, thr, s_, sg)  # noqa: E731
        cases.append(("unit_sums", op, (W, C, s), (0, 1, 2)))
    # at bound 2 the second branch reads s - 2, below its first threshold: skipped
    W1, C1, thr1 = unit_tables(-w, -np.sort(-b, axis=-1) - 1.0)
    for bound in (None, np.full(2, 2.0)):

        def op(W_, C_, s_, W1_, bd=bound):
            r = s_ if bd is None else bd - s_
            return tp.unit_sums((((W_, C_, thr), r, 1.0), ((W1_, C1, thr1), r, -1.0)))

        cases.append(("unit_sums", op, (W, C, s, W1), (0, 1, 2, 3)))
    perm = np.argsort(b, axis=-1)
    cases.append(("permute_last", lambda a: tp.permute_last(a, perm), (b,), (0,)))
    for name, kind in KERNELS.items():
        for batch in ((), (4,)):
            op, args = kernel_case(name, batch, rng)
            cases.append((kind, op, tuple(args), tuple(range(len(args)))))
    # kinks and floors: the gate at f = ub and f = lb, and zero or floored
    # denominators dev, dhi and dlo
    w = np.array([0.0, 1.0])
    floors = (w, np.array([0.0, 0.5]), np.array([1.0, 0.0]), w - np.array([1.0, -1e-14]), w + np.array([-1.0, 5e-13]),
              col([1e13, -1.0]), col([-1e13, 1.0]), col([2e12, 0.0]))
    for n, args in ((4, gate_kink_args()), (2, floors)):
        cases.append(("control_law", lambda *a, law=hand_law(n): law(*a)[0], args, tuple(range(8))))
    tabs = [unit_tables(rng.normal(size=(2, 3)), -np.sort(rng.normal(size=(2, 3)), axis=-1)) for _ in range(6)]

    def stack(*wc):
        return tp.stack_units([(wc[2 * j], wc[2 * j + 1], tabs[j][2]) for j in range(6)], w, w, -1.0, 1.0, 0.0)[0]

    cases.append(("stack_units", stack, tuple(a for W, C, _ in tabs for a in (W, C)), tuple(range(12))))
    return cases


def test_plain_array_dispatch_matches_tape_values():
    covered = set()
    for kind, op, args, positions in dispatch_cases():
        plain = op(*args)
        assert not isinstance(plain, Node), kind
        for i in positions:
            t = Tape()
            node = op(*(t.leaf(a) if j == i else a for j, a in enumerate(args)))
            assert isinstance(node, Node) and tp._op_name(t.rules[node.idx]) == kind, (kind, i)
            got = value(node)
            assert (got.shape, got.dtype) == (plain.shape, plain.dtype), (kind, i)
            assert got.tobytes() == plain.tobytes(), (kind, i)
            covered.add(kind)
    oracle_ops = set(KERNELS.values()) | {"sin"}  # with oracles.sin, the taped line flows
    assert covered == {name.removeprefix("_bk_") for name in vars(tp) if name.startswith("_bk_")} | oracle_ops


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


def check_factors(args, rng) -> list:
    """control_law's factor pass against the two reverse sweeps it replaces
    (`oracles.two_sweep_adjoints`), on plain control_law arguments `args`
    whose flows, omega, edge_xi, thresholds and stacked tables become tape
    leaves, for a random u adjoint: u's derivatives in omega and the flows
    as bytes, and each ready tensor's adjoint (the W and C tables apart)
    within 1e-12 of its largest entry. Returns the sweeps' ready adjoints."""
    flows, w, p, xi, mask, (WC, thr, c, whi, wlo, _), *consts = args
    t = Tape()
    flows = np.broadcast_to(flows, np.shape(w))  # per entry, as a chunk's
    lv = {k: t.leaf(value(a)) for k, a in dict(flows=flows, w=w, xi=xi, whi=whi, wlo=wlo, WC=WC).items()}
    units = (lv["WC"], thr, c, lv["whi"], lv["wlo"], {})
    u = tp.control_law(lv["flows"], lv["w"], p, lv["xi"], mask, units, *consts)[0]
    u_bar = rng.normal(size=u.shape)
    du_dw, du_dflows, push = tp._bk_control_law.factors(t.aux[u.idx])
    adj = [None] * len(t)
    push(u_bar, t.parents[u.idx], t.shapes, adj)
    ready = ("xi", "whi", "wlo", "WC")
    got = [np.zeros(t.shapes[lv[k].idx]) if adj[lv[k].idx] is None else adj[lv[k].idx] for k in ready]
    derivs, want = oracles.two_sweep_adjoints(t, u, [lv["w"], lv["flows"]], [lv[k] for k in ready], u_bar)
    assert du_dw.tobytes() == derivs[0].tobytes() and du_dflows.tobytes() == derivs[1].tobytes()
    for a, b in zip(got[:3] + [got[3][0], got[3][1]], want[:3] + [want[3][0], want[3][1]]):
        assert a.shape == b.shape and np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    return want


@pytest.mark.parametrize("size", [3, 39])
@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("active", [False, True])
def test_control_law_factors_match_two_sweeps(request, size, batch, active):
    # a constrained policy at noisy measured states, mixed gates or (with
    # thresholds next to the synchronous frequency) every bus active; bus 0
    # sits 5e-13 past its upper threshold (an open gate with a floored dhi)
    # and, in the first row, bus 1 at the synchronous frequency (a floored
    # dev); the last bus is outside its dead zone
    net, inc, eq = (request.getfixturevalue(f"{name}{size}") for name in ("net", "inc", "eq"))
    rng = np.random.default_rng(stable_seed(("factors", size, batch, active)))
    params = C.init_policy_params(size, 20 if size == 39 else 4, rng, scale=0.5)
    if active:
        params.raw["thr_lo"] += 5.0
        params.raw["thr_hi"] += 5.0
    policy = params.bind(C.SafetySpec.band(-0.2, 0.2, size), net, inc, eq)
    ready = policy.precompute(params.raw)
    shape = (size,) if batch == 1 else (batch, size)
    omega = rng.uniform(-0.19, 0.19, shape) + rng.uniform(-0.05, 0.05, shape)
    rows = omega.reshape(-1, size)
    rows[:, 0] = ready.whi_val[0] + 5e-13
    rows[0, 1] = eq.omega_sync
    rows[:, -1] = rng.choice([-0.18, 0.18], len(rows))  # outside the dead zone
    flows = line_flows(inc, eq.lam_eq + rng.normal(scale=0.05, size=shape[:-1] + eq.lam_eq.shape))
    p = net.p_nom * rng.uniform(0.8, 1.2, size)
    on = oracles.edges_on(inc, C.active_mask(ready, omega)).astype(float)
    want = check_factors((flows, omega, p, ready.edge_xi, on, ready.units, inc.b_mat, net.damping, policy.dtilde), rng)
    assert np.any(want[-1] != 0.0)


def test_control_law_factors_match_two_sweeps_at_ties_kinks_and_floors():
    # hand_law's cases: a cap/bound tie on each side, the gate and the clip
    # of f at their kinks, and zero or floored dev, dhi and dlo
    rng = np.random.default_rng(stable_seed("factor kinks"))
    w = np.array([0.5, 0.25, 1.0])
    tie, other = col(0.25 * w), col(np.ones(3))
    cases = [(3, (w, w, np.zeros(3), w - 0.5, w - 0.5, tie, other, col(np.full(3, 10.0)))),
             (3, (w, w, np.zeros(3), w + 0.5, w + 0.5, other, tie, col(np.full(3, -10.0)))),
             (4, gate_kink_args())]
    w = np.array([0.0, 1.0])
    cases.append((2, (w, np.array([0.0, 0.5]), np.array([1.0, 0.0]), w - np.array([1.0, -1e-14]),
                      w + np.array([-1.0, 5e-13]), col([1e13, -1.0]), col([-1e13, 1.0]), col([2e12, 0.0]))))
    for n, args in cases:
        for batch in ((), (2,)):
            w, p, *rest = args
            check_factors(hand_args(n, *(np.broadcast_to(a, batch + a.shape) for a in (w, p)), *rest), rng)


def test_a_chunk_layout_is_a_view_of_its_steps_layout():
    # control_law's layout for (steps, B, n) states broadcasts the one built
    # for (B, n) over the steps, so a chunk of steps caches no (m, 6, steps,
    # B, n) threshold copy of its own
    rng = np.random.default_rng(stable_seed("layout"))
    tables = [unit_tables(rng.normal(size=(3, 4)), -np.sort(rng.uniform(0.0, 1.0, (3, 4)), axis=-1)) for _ in range(6)]
    units = tp.stack_units(tables, np.full(3, 0.05), np.full(3, -0.05), *BAND)
    step, chunk = tp._layout(units, (2, 3)), tp._layout(units, (5, 2, 3))
    assert list(units[5]) == [(2, 3)]
    for a, b in zip(step, chunk):
        assert b.shape == a.shape[:-2] + (1, 2, 3) and np.shares_memory(a, b)


def test_rebind_maps_each_node_once_and_shares_the_rest():
    @dataclasses.dataclass
    class Box:
        a: object
        pair: tuple

    t = Tape()
    x, y = t.leaf(np.array([1.0, 2.0])), t.leaf(np.array([3.0]))
    plain, shared = np.array([5.0]), {}
    box = Box(a=x, pair=(y, [x, plain], shared))
    scratch = Tape()
    copy, nodes, leaves = tp.rebind(box, scratch)
    assert nodes == [x, y] and [leaf.idx for leaf in leaves] == [0, 1] and len(scratch) == 2
    assert copy.a is leaves[0] and copy.pair[1][0] is leaves[0] and copy.pair[0] is leaves[1]
    assert copy.pair[1][1] is plain and copy.pair[2] is shared and isinstance(copy.pair[1], list)
    assert all(leaf.value is node.value and leaf.tape is scratch for node, leaf in zip(nodes, leaves))
