"""Structured frequency-control policies with built-in stability and safety.

The learned controller composes, per bus:

  * a trainable dead-zone response f_i built from ReLU units whose biases are
    constrained non-positive, so f_i is exactly zero while the measured
    frequency sits between the bus's trained thresholds;
  * class-K barrier functions (strictly increasing, zero at zero) whose
    weights come from positive partial sums and whose biases are
    non-increasing with the first pinned at zero;
  * trainable thresholds mapped by a sigmoid so they always sit strictly
    between the synchronous frequency and the hard safety bounds;
  * a budget vector b = L_sub @ xi built from the unit-weight Laplacian of the
    subgraph of buses currently outside their dead zones. Column sums of
    L_sub vanish, so sum(b) = 0 exactly, and b_i = 0 for any bus inside its
    dead zone. |xi| is capped so that the per-bus budget never exceeds the
    damping margin at the thresholds.

The assembled control is, with dhi = w - whi and dlo = wlo - w,

  u_i = 1[dhi_i > 0] * min(f_i, ub_i) + 1[dlo_i > 0] * max(f_i, lb_i)

with ub = min(stability cap, alpha_hi / dhi + q) (the upper safety barrier)
and lb the mirrored max, q the local feedforward. The gate selects: above
the upper threshold u is f clipped to ub, below the lower one f clipped to
lb, and inside the dead zone exactly zero. The two bounds are the paper's
per-bus sufficient conditions: the cap D_tilde dev + b / dev gives
u_i dev_i <= D_tilde_i dev_i^2 + b_i (stability; the budgets sum to zero,
so the energy never rises), and the barrier bound keeps the frequency
inside its band (safety). So every parameter value gives a policy that
meets them: the raw output is the certified one, bit for bit. The form is
differentiable almost everywhere; the gate inputs get gradients through
the bounds' denominators and f, not through the indicator.

A policy reads the state through the line flows into each bus and the
measured frequency (`control(ready, flows, omega, p)`), and every part of
u at a bus reads only that bus's entries, so states stacked along any
leading axes evaluate at once. At an active state `control` records one
`tape.control_law` node for the whole policy: the differences dhi and dlo,
both barriers' class-K maps at omega_max - omega and omega_min - omega, the
dead-zone response, the budgets (the edge differences B^T xi that
`precompute` builds once per rollout, gated by the edges with both ends
active), the feedforward q, the stability cap, both bounds and the gate.
Only u is a tape node; b, ub and lb are plain values.

Both policy kinds (this one and the decentralized monotone baseline) share
one interface: a params class knows its kind tag, trainable keys and array
shapes, and `bind` attaches it to a network as a `BoundPolicy`. The bound
policy is the whole policy: `ConstrainedAdapter` keeps the network, the
per-bus band and D_tilde, builds a `PolicyReady` from the raws once per
rollout, and its `control` returns a `ControlDecision`. At a state where
every bus sits inside its dead zone that decision is constant zeros, and
the policy records nothing on the tape for that step.

Every ReLU-unit sum here (the barriers, the dead-zone response and the
monotone baseline) has ordered biases, so at any input only a prefix of its
units is active and the sum is one linear piece. The ready tensors hold each
branch as a `unit_table` of prefix sums, built once per rollout (the
dead-zone units sorted by bias first), and `precompute` stacks the six
branches of the barriers and the dead-zone response into one table, so a
step counts their active units with one comparison and evaluates them with
one gather, skipping the trailing branches with no active unit: inside the
band, the upper barrier's minus and the lower barrier's plus branch.
Everything here runs on plain numpy arrays or on autodiff tape nodes; see
`tape` for the dispatch rules.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .equilibrium import Equilibrium
from .netgraph import Incidence, PowerNetwork
from .tape import (
    control_law,
    cumsum_last,
    diff_keepfirst,
    matvec,
    minimum,
    pad_zero_first,
    permute_last,
    reduce_min,
    sigmoid,
    softplus,
    square,
    stack_units,
    tanh,
    unit_sums,
    value,
)

WEIGHT_FLOOR = 1e-4  # epsilon added to softplus partial sums

# Trainable parameter keys in their fixed init/draw/update order.
PARAM_KEYS = (
    "barrier_hi_wp",
    "barrier_hi_wm",
    "barrier_hi_bp",
    "barrier_hi_bm",
    "barrier_lo_wp",
    "barrier_lo_wm",
    "barrier_lo_bp",
    "barrier_lo_bm",
    "thr_lo",
    "thr_hi",
    "dz_wp",
    "dz_wm",
    "dz_bp",
    "dz_bm",
    "budget_raw",
)

MONO_KEYS = ("resp_wp", "resp_wm", "resp_bp", "resp_bm")


class PolicyError(ValueError):
    """A structural invariant of the policy parameterization failed."""


@dataclass(frozen=True)
class SafetySpec:
    """Hard per-bus frequency bounds (Hz deviation from nominal)."""

    omega_min: np.ndarray
    omega_max: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.omega_min, dtype=float))
        hi = np.atleast_1d(np.asarray(self.omega_max, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise PolicyError("omega_min and omega_max must be scalars or per-bus lists of one shape")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise PolicyError("omega_min and omega_max must be finite")
        if np.any(lo >= hi):
            raise PolicyError("omega_min must be strictly below omega_max")
        if np.any(lo >= 0.0) or np.any(hi <= 0.0):
            raise PolicyError("the band must contain the nominal frequency strictly")
        object.__setattr__(self, "omega_min", lo)
        object.__setattr__(self, "omega_max", hi)

    @staticmethod
    def band(lo: float, hi: float, n: int) -> "SafetySpec":
        return SafetySpec(np.full(n, float(lo)), np.full(n, float(hi)))

    def per_bus(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(omega_min, omega_max) as (n,) arrays; a one-entry band covers every bus."""
        if self.omega_min.size not in (1, n):
            raise PolicyError(f"the band has {self.omega_min.size} entries, the network has {n} buses")
        return (
            np.broadcast_to(self.omega_min, (n,)).astype(float),
            np.broadcast_to(self.omega_max, (n,)).astype(float),
        )


@dataclass
class PolicyParams:
    """Raw (unconstrained) trainables plus fixed structure choices.

    dtilde_frac fixes the damping share kept by the stability cap,
    D_tilde = dtilde_frac * D. It is not trained. PolicyError unless every
    entry lies in (0, 1): D_tilde >= D voids the dissipation condition.
    """

    raw: dict[str, np.ndarray]
    m_hidden: int
    dtilde_frac: np.ndarray

    kind = "constrained"
    keys = PARAM_KEYS
    fixed = ("dtilde_frac",)  # untrained per-bus fields a checkpoint stores

    def __post_init__(self):
        if not np.all((0.0 < self.dtilde_frac) & (self.dtilde_frac < 1.0)):
            raise PolicyError("dtilde_frac must lie in (0, 1)")

    @staticmethod
    def shapes(n: int, m_hidden: int) -> dict[str, tuple]:
        shapes = {}
        for name in PARAM_KEYS:
            if name in ("thr_lo", "thr_hi", "budget_raw"):
                shapes[name] = (n,)
            elif name.startswith("barrier") and name.endswith(("_bp", "_bm")):
                shapes[name] = (n, m_hidden - 1)
            else:
                shapes[name] = (n, m_hidden)
        return shapes

    def bind(self, spec, net, inc, eq) -> "ConstrainedAdapter":
        return ConstrainedAdapter(self, spec, net, inc, eq)


@dataclass
class MonotoneParams:
    """Raw trainables of the decentralized monotone baseline."""

    raw: dict[str, np.ndarray]
    m_hidden: int

    kind = "monotone"
    keys = MONO_KEYS
    fixed = ()

    @staticmethod
    def shapes(n: int, m_hidden: int) -> dict[str, tuple]:
        return {
            "resp_wp": (n, m_hidden),
            "resp_wm": (n, m_hidden),
            "resp_bp": (n, m_hidden - 1),
            "resp_bm": (n, m_hidden - 1),
        }

    def bind(self, spec, net, inc, eq) -> "MonotoneAdapter":
        return MonotoneAdapter(self, spec, net, inc, eq)


def init_policy_params(
    n: int,
    m_hidden: int,
    rng: np.random.Generator,
    scale: float = 0.1,
    dtilde_frac: float = 0.5,
) -> PolicyParams:
    """Uniform +/-scale init, drawn in PARAM_KEYS order (reproducible)."""
    shapes = PolicyParams.shapes(n, m_hidden)
    raw = {k: rng.uniform(-scale, scale, shapes[k]) for k in PARAM_KEYS}
    return PolicyParams(raw=raw, m_hidden=m_hidden, dtilde_frac=np.full(n, dtilde_frac))


def init_monotone_params(
    n: int, m_hidden: int, rng: np.random.Generator, scale: float = 0.1
) -> MonotoneParams:
    shapes = MonotoneParams.shapes(n, m_hidden)
    raw = {k: rng.uniform(-scale, scale, shapes[k]) for k in MONO_KEYS}
    return MonotoneParams(raw=raw, m_hidden=m_hidden)


# ------------------------------------------------------- reparameterizations


def class_k_weights(w_raw_pos, w_raw_neg):
    """Map raw arrays to unit weights with signed positive/negative partial sums.

    Partial sums of the returned arrays along the last axis equal
    +/-(WEIGHT_FLOOR + softplus(raw)), so every prefix sum of the plus branch
    is strictly positive and of the minus branch strictly negative, which is
    what makes the piecewise-linear map strictly increasing.
    """
    sp = WEIGHT_FLOOR + softplus(w_raw_pos)
    sm = -WEIGHT_FLOOR - softplus(w_raw_neg)
    return diff_keepfirst(sp), diff_keepfirst(sm)


def class_k_biases(b_raw_pos, b_raw_neg):
    """Non-increasing biases, first entry pinned to zero.

    Biases are cumulative sums of the non-positive increments -(raw^2), with
    a zero prepended; raw of all zeros gives all-zero biases.
    """
    bp = pad_zero_first(cumsum_last(-square(b_raw_pos)))
    bm = pad_zero_first(cumsum_last(-square(b_raw_neg)))
    return bp, bm


def unit_table(w, b) -> tuple:
    """Prefix table (W, C, thr) of one branch sum_j w_j relu(x + b_j).

    The biases must be non-increasing along the units, so the active units
    form a prefix and the branch is x W[k] + C[k] with k active units (see
    `tape.unit_sums`): W and C are the zero-padded prefix sums of w and w b,
    on the tape when w and b are, and thr = [-b, +inf] is plain.
    """
    vb = np.asarray(value(b), dtype=float)
    thr = np.concatenate([-vb, np.full(vb.shape[:-1] + (1,), np.inf)], axis=-1)
    return pad_zero_first(cumsum_last(w)), pad_zero_first(cumsum_last(w * b)), thr


def class_k_tables(wp, wm, bp, bm) -> tuple:
    """The (plus, minus) unit tables of a class-K network with (n, m) weights
    and non-increasing biases."""
    return unit_table(wp, bp), unit_table(wm, bm)


def class_k_eval(tables, s, negate: bool = False):
    """Evaluate the class-K network alpha(x) = wp.relu(x + bp) + wm.relu(-x + bm)
    at x = s, or -alpha(s) with `negate`.

    `tables` is `class_k_tables(wp, wm, bp, bm)`, built once per rollout;
    s is (n,) or batched (..., n). Strictly increasing in x and exactly zero
    at x = 0 whenever the weight/bias constraints hold. The map is one
    `unit_sums` node, which keeps no (..., n, m) temporary.
    """
    plus, minus = tables
    return unit_sums(((plus, s, 1.0), (minus, s, -1.0)), negate)


def threshold_map(thr_lo_raw, thr_hi_raw, omega_sync, omega_min, omega_max):
    """Sigmoid-squash raw thresholds strictly between sync frequency and bounds."""
    wlo = (omega_sync - omega_min) * sigmoid(thr_lo_raw) + omega_min
    whi = (omega_sync - omega_max) * sigmoid(thr_hi_raw) + omega_max
    return wlo, whi


def budget_potentials(budget_raw, wlo, whi, omega_sync, dtilde, row_l1):
    """Bounded budget potentials xi = cap * tanh(budget_raw).

    The cap is min over buses of D_tilde_i * min((whi_i - sync)^2,
    (wlo_i - sync)^2) / ||row i of the unit Laplacian||_1, so any xi with
    |xi| <= cap keeps every per-bus budget within its damping margin.

    That is what keeps the policy continuous. The paper's per-bus stability
    condition is u_i dev_i <= D_tilde_i dev_i^2 + b_i with sum_i b_i = 0,
    dev = omega - sync; its stability cap D_tilde_i dev_i + b_i / dev_i
    bounds u from above past the upper threshold and from below past the
    lower one. On that active side |dev_i| exceeds the threshold distance,
    so |b_i| <= D_tilde_i dev_i^2 and the cap is >= 0 above and <= 0 below.
    Hence u = 0 is admissible at each threshold, and the selection min(f, ub)
    or max(f, lb) goes to 0 with f as omega crosses it.
    """
    margin = minimum(square(whi - omega_sync), square(wlo - omega_sync))
    cap = reduce_min(dtilde * margin / row_l1)
    return cap * tanh(budget_raw)


def deadzone_weights(raw: dict):
    """Dead-zone unit weights (free) and non-positive biases -(raw^2).

    The squared form keeps biases at most zero (zero itself reachable) while
    starting near zero for small raw values, so units engage as soon as the
    frequency leaves the dead zone instead of only far beyond it.
    """
    return raw["dz_wp"], raw["dz_wm"], -square(raw["dz_bp"]), -square(raw["dz_bm"])


def deadzone_tables(wp, wm, bp, bm) -> tuple:
    """The (plus, minus) unit tables of the dead-zone response.

    Its biases come in no order, so each bus's units are first sorted by
    bias, non-increasing, with a stable argsort; the permutation is constant
    for the rollout and applied on the tape by `permute_last`.
    """
    tables = []
    for w, b in ((wp, bp), (wm, bm)):
        perm = np.argsort(-np.asarray(value(b)), axis=-1, kind="stable")
        tables.append(unit_table(permute_last(w, perm), permute_last(b, perm)))
    return tuple(tables)


# ------------------------------------------------------------ assembled policy


def class_k_params(raw: dict, prefix: str) -> tuple:
    """The unit tables of the class-K network stored under `prefix` in raw."""
    return class_k_tables(
        *class_k_weights(raw[f"{prefix}_wp"], raw[f"{prefix}_wm"]),
        *class_k_biases(raw[f"{prefix}_bp"], raw[f"{prefix}_bm"]),
    )


@dataclass
class PolicyReady:
    """State-independent tensors computed once per rollout from the raws.

    hi, lo and dz are (plus, minus) pairs of `unit_table`s: the upper and
    lower barriers' class-K networks and the dead-zone response, whose units
    are sorted by bias. edge_xi = B^T xi holds the edge differences of the
    budget potentials. units stacks the six branches of hi, lo and dz for
    `tape.control_law` (`tape.stack_units`). wlo_val/whi_val are the
    thresholds as plain values, for the dead-zone mask.
    """

    wlo: object
    whi: object
    xi: object
    edge_xi: object
    hi: tuple
    lo: tuple
    dz: tuple
    units: tuple
    wlo_val: np.ndarray
    whi_val: np.ndarray


def active_mask(ready: PolicyReady, omega) -> np.ndarray:
    """Boolean per-bus mask: outside the trained dead zone (plain values)."""
    w = np.asarray(value(omega), dtype=float)
    return (w < ready.wlo_val) | (w > ready.whi_val)


@dataclass
class ControlDecision:
    """One control evaluation: the control u, the budgets b, the per-bus
    dead-zone mask, and the admissible interval [lower, upper] where the
    policy has one (None otherwise). u is an array, or a tape node when the
    policy runs on tape leaves; budgets and the bounds are always arrays."""

    u: object
    budgets: object
    active: np.ndarray
    upper: object = None
    lower: object = None


def validate_class_k(tables: tuple, tag: str) -> None:
    """Assert the invariants that make a class-K map increasing, read from its
    (plus, minus) unit tables: signed weight partial sums, and thresholds
    non-decreasing from zero (biases non-increasing from zero)."""
    for (W, _, thr), sign, name in zip(tables, (1, -1), ("positive", "negative")):
        if not np.all(sign * np.asarray(value(W))[..., 1:] > 0):
            raise PolicyError(f"{tag}: a {name}-branch partial sum is not {'>' if sign > 0 else '<'} 0")
        if not np.all(thr[..., 0] == 0.0):
            raise PolicyError(f"{tag}: the {name} branch's first bias is not pinned to zero")
        if not np.all(np.diff(thr, axis=-1) >= 0):
            raise PolicyError(f"{tag}: the {name} branch's biases increase along the units")


# ------------------------------------------------------------ bound policies


class BoundPolicy:
    """A policy's parameters bound to one network and safety band.

    The one interface the simulator, the trainer and the CLI use for either
    policy kind:

      keys, raw                        trainable array names and values;
      precompute(raw_like)             state-independent tensors per rollout;
      control(ready, flows, omega, p)  a ControlDecision at measured states,
                                       from the line flows into each bus;
      validate(ready)                  PolicyError if an invariant fails;
      rebuild(raw)                     params of the same kind with new raws.

    On tape leaves, control's u is a plain array or one node of a per-entry
    kernel (`tape.unit_sums`, `tape.control_law`) whose state arguments are
    omega and flows themselves: training reads u's linearization from that
    node and raises TypeError for any other op. Binding checks that every
    per-bus array has one row per network bus.
    """

    def __init__(self, params, spec, net, inc, eq):
        n = net.n_bus
        for name in params.keys + params.fixed:
            shape = np.shape(params.raw[name] if name in params.raw else getattr(params, name))
            if shape[:1] != (n,):
                raise PolicyError(f"{name} has shape {shape}, the network has {n} buses")
        self.params = params

    @property
    def raw(self) -> dict:
        return self.params.raw

    @property
    def keys(self) -> tuple:
        return self.params.keys

    def rebuild(self, raw: dict):
        return dataclasses.replace(self.params, raw=raw)


class ConstrainedAdapter(BoundPolicy):
    """The constrained dead-zone policy bound to a network and safety band.

    It keeps the network, its incidence and equilibrium, the per-bus band
    and D_tilde = dtilde_frac * D, the damping share the stability cap keeps.
    """

    def __init__(self, params: PolicyParams, spec: SafetySpec, net, inc, eq):
        super().__init__(params, spec, net, inc, eq)
        self.omega_min, self.omega_max = spec.per_bus(net.n_bus)
        if np.any(self.omega_min >= eq.omega_sync) or np.any(self.omega_max <= eq.omega_sync):
            raise PolicyError("safety band must contain the synchronous frequency strictly")
        self.net, self.inc, self.eq = net, inc, eq
        self.dtilde = params.dtilde_frac * net.damping

    def precompute(self, raw_like: dict) -> PolicyReady:
        hi = class_k_params(raw_like, "barrier_hi")
        lo = class_k_params(raw_like, "barrier_lo")
        sync = self.eq.omega_sync
        wlo, whi = threshold_map(
            raw_like["thr_lo"], raw_like["thr_hi"], sync, self.omega_min, self.omega_max
        )
        xi = budget_potentials(raw_like["budget_raw"], wlo, whi, sync, self.dtilde, self.inc.row_l1)
        edge_xi = matvec(self.inc.b_mat.T, xi)
        dz = deadzone_tables(*deadzone_weights(raw_like))
        branches = dz + (hi[0], lo[1], hi[1], lo[0])  # stack_units' order
        return PolicyReady(
            wlo=wlo,
            whi=whi,
            xi=xi,
            edge_xi=edge_xi,
            hi=hi,
            lo=lo,
            dz=dz,
            units=stack_units(branches, whi, wlo, self.omega_min, self.omega_max, sync),
            wlo_val=np.asarray(value(wlo), dtype=float),
            whi_val=np.asarray(value(whi), dtype=float),
        )

    def control(self, ready: PolicyReady, flows, omega, p) -> ControlDecision:
        """Full policy at measured states. Works on arrays or tape nodes;
        with every bus inside its dead zone it is zeros and records nothing."""
        active = active_mask(ready, omega)
        if not active.any():
            zero = np.zeros(active.shape)
            return ControlDecision(u=zero, budgets=zero, active=active, upper=zero, lower=zero)
        ends = self.inc.edge_ends
        on = active[..., ends[:, 0]] & active[..., ends[:, 1]]  # the edges of L_sub
        u, b, ub, lb = control_law(
            flows, omega, p, ready.edge_xi, on, ready.units, self.inc.b_mat, self.net.damping, self.dtilde
        )
        return ControlDecision(u=u, budgets=b, active=active, upper=ub, lower=lb)

    def validate(self, ready: PolicyReady) -> None:
        """Assert the structural invariants of the constrained tensors (values)."""
        validate_class_k(ready.hi, "barrier_hi")
        validate_class_k(ready.lo, "barrier_lo")
        for (_, _, thr), tag in zip(ready.dz, ("dz_bp", "dz_bm")):
            if not np.all(thr >= 0):
                raise PolicyError(f"{tag}: dead-zone bias above zero")
        sync = self.eq.omega_sync
        wlo, whi = ready.wlo_val, ready.whi_val
        if np.any(wlo <= self.omega_min) or np.any(wlo >= sync):
            raise PolicyError("lower threshold escaped (omega_min, omega_sync)")
        if np.any(whi <= sync) or np.any(whi >= self.omega_max):
            raise PolicyError("upper threshold escaped (omega_sync, omega_max)")
        margin = self.dtilde * np.minimum((whi - sync) ** 2, (wlo - sync) ** 2)
        if np.any(self.inc.row_l1 * np.abs(np.asarray(value(ready.xi))).max() > margin + 1e-12):
            raise PolicyError("budget potentials exceed the damping margin bound")


class MonotoneAdapter(BoundPolicy):
    """The decentralized monotone baseline u_i = -alpha_i(w_i): strictly
    decreasing and zero at zero, with no dead zone, budgets or admissible
    interval. Its ready is the class-K (plus, minus) pair of unit tables."""

    def precompute(self, raw_like: dict) -> tuple:
        return class_k_params(raw_like, "resp")

    def control(self, ready: tuple, flows, omega, p) -> ControlDecision:
        shape = np.shape(value(omega))
        u = class_k_eval(ready, omega, negate=True)
        return ControlDecision(u=u, budgets=np.zeros(shape), active=np.zeros(shape, dtype=bool))

    def validate(self, ready: tuple) -> None:
        validate_class_k(ready, "resp")


# --------------------------------------------------------------- controllers


def make_zero_controller(n: int):
    zero = np.zeros(n)
    off = np.zeros(n, dtype=bool)

    def control(flows, omega, p) -> ControlDecision:
        return ControlDecision(u=zero, budgets=zero, active=off)

    return control


def make_policy_controller(
    params,
    spec: SafetySpec,
    net: PowerNetwork,
    inc: Incidence,
    eq: Equilibrium,
    projection: bool = False,
):
    """Bind a policy of either kind for simulation: (flows, omega, p) -> decision.

    `projection` is ignored: the constrained policy's output already lies in
    its admissible interval, and the argument stays only for callers that
    still pass it.
    """
    policy = params.bind(spec, net, inc, eq)
    ready = policy.precompute(params.raw)
    policy.validate(ready)
    return functools.partial(policy.control, ready)


def make_analytic_safe_controller(
    spec: SafetySpec,
    net: PowerNetwork,
    inc: Incidence,
    eq: Equilibrium,
    threshold: float = 0.1,
    gain: float = 2.0,
):
    """Fixed-form safe baseline: barrier with slope `gain`, thresholds +/-threshold.

    Above +threshold it emits min(0, gain*(omega_max - w)/(w - threshold) + q),
    mirrored below -threshold, zero inside. Signs force u to oppose the local
    deviation, which keeps the dissipation inequality while the barrier keeps
    the band, at the price of tracking the full feedforward q.
    """
    n = net.n_bus
    lo, hi = spec.per_bus(n)

    def control(flows, omega, p) -> ControlDecision:
        w = np.asarray(omega, dtype=float)
        q = net.damping * w + flows - p  # local injection mismatch
        above = w > threshold
        below = w < -threshold
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.minimum(0.0, gain * (hi - w) / np.where(above, w - threshold, 1.0) + q)
            dn = np.maximum(0.0, gain * (lo - w) / np.where(below, -threshold - w, 1.0) + q)
        u = np.where(above, up, np.where(below, dn, 0.0))
        return ControlDecision(u=u, budgets=np.zeros(n), active=above | below)

    return control
