"""The three benchmark workloads, run inside one fresh child process each.

Each workload has a set-up (imports, data load, incidence, equilibrium and
input generation) and an operation that the child repeats, one at a time,
until the measured time is used up. Untraced operations call the public
entry points the users call (`cli.run`, `training.train`, and the
controller/rollout/checks calls of a Monte Carlo certification). Traced
operations recompose the same public calls, in the same order and with the
same random draws, inside spans named after the module called.

Every operation's outputs are checked outside its timed region. An
operation whose call raises or whose checks fail counts as failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import time
from pathlib import Path

import numpy as np

from swingctl import cli
from swingctl import scenario_io as sio
from swingctl.controller import (
    ConstrainedAdapter,
    SafetySpec,
    active_mask,
    init_policy_params,
    make_policy_controller,
)
from swingctl.dynamics import Scenario, injection_at, rollout, sample_initial_state
from swingctl.equilibrium import in_region, solve_equilibrium
from swingctl.netgraph import build_incidence
from swingctl.tape import Tape, value
from swingctl.training import (
    AdamState,
    TrainConfig,
    TrainingError,
    adam_step,
    episode_loss,
    train,
)
from swingctl.verify import CHECK_NAMES, run_checks

from tracing import NullTracer

DATA = "src/swingctl/data"
NET39 = f"{DATA}/ieee39_net.json"
BAND = (-0.2, 0.2)

# Operations every run completes whatever --seconds says: the first (cold)
# operation plus enough warm ones for a median and for the output digest.
MIN_OPS = {"sim-desk": 3, "train-desk": 2, "mc-tiny": 20}


def derive_seed(seed: int, stream: str) -> int:
    """Independent 63-bit seed for one input stream of a workload seed."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class OpFailed(Exception):
    """An operation's outputs failed the benchmark's checks."""


def _check_report(obj: dict, where: str) -> None:
    names = [c["name"] for c in obj.get("checks", [])]
    if sorted(names) != sorted(CHECK_NAMES):
        raise OpFailed(f"{where}: checks {names}, expected {list(CHECK_NAMES)}")
    for c in obj["checks"]:
        if not math.isfinite(c["margin"]):
            raise OpFailed(f"{where}: {c['name']} margin {c['margin']!r} is not finite")


def _hash_arrays(h, *arrays) -> None:
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())


def _wrap_controller(ctrl, tracer, stats):
    """Controller callable for `rollout` that times each call as a span and
    counts the calls in which some bus is outside its dead zone."""

    def traced(lam, omega, p):
        start = time.perf_counter()
        dec = ctrl(lam, omega, p)
        tracer.leaf("controller.call", start, time.perf_counter())
        if dec.active.any():
            stats[0] += 1
        return dec

    return traced


# ------------------------------------------------------------------ sim-desk


class SimDesk:
    """`simulate` then `verify` through the CLI on the 39-bus eval-desk run."""

    name = "sim-desk"

    def __init__(self, seed: int, out_dir: Path, tracer):
        self.tracer = tracer
        with tracer.span("scenario_io.load"):
            self.net = sio.load_network(NET39)
        with tracer.span("netgraph.build_incidence"):
            self.inc = build_incidence(self.net)
        with tracer.span("equilibrium.solve"):
            self.eq = solve_equilibrium(self.net, self.inc)
        with tracer.span("scenario_io.load"):
            self.scenario = sio.load_scenario(f"{DATA}/scenario_eval_desk.json", self.net)
        ckpt_seed = derive_seed(seed, "sim-desk/checkpoint")
        rng = np.random.default_rng(np.random.Philox(ckpt_seed))
        params = init_policy_params(self.net.n_bus, 20, rng)
        rel = out_dir.relative_to(Path.cwd())
        self.ckpt = str(rel / "policy.json")
        self.csv = str(rel / "traj.csv")
        sio.save_checkpoint(self.ckpt, params, TrainConfig(seed=ckpt_seed))
        self.sim_argv = [
            "simulate", "--net", NET39, "--scenario", f"{DATA}/scenario_eval_desk.json",
            "--controller", self.ckpt, "--projection", "on",
            "--seed", str(derive_seed(seed, "sim-desk/simulate") % 2**31),
            "--out", self.csv, "--report", str(rel / "simulate.json"),
        ]
        self.verify_argv = [
            "verify", "--net", NET39, "--traj", self.csv, "--report", str(rel / "verify.json"),
        ]
        self.digests: set[str] = set()

    def run_op(self, traced: bool) -> dict:
        t0 = time.perf_counter()
        if traced:
            rc_sim = self._simulate_traced()
            t1 = time.perf_counter()
            rc_ver = self._verify_traced()
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                rc_sim = cli.run(self.sim_argv)
                t1 = time.perf_counter()
                rc_ver = cli.run(self.verify_argv)
        t2 = time.perf_counter()
        parts = {"dur": t2 - t0, "simulate_s": t1 - t0, "verify_s": t2 - t1}
        if rc_sim != 0:
            raise OpFailed(f"simulate exited {rc_sim}")
        if rc_ver not in (0, 1):
            raise OpFailed(f"verify exited {rc_ver}")
        h = hashlib.sha256()
        for path in (self.csv, self.sim_argv[-1], self.verify_argv[-1]):
            data = Path(path).read_bytes()
            h.update(data)
            if path.endswith(".json"):
                _check_report(json.loads(data), path)
        self.digests.add(h.hexdigest())
        if len(self.digests) != 1:
            raise OpFailed("outputs differ between operations of one run")
        return parts

    def _simulate_traced(self) -> int:
        tr = self.tracer
        with tr.span("cli.simulate"):
            args = cli.build_parser().parse_args(self.sim_argv)
            with tr.span("scenario_io.load"):
                net = sio.load_network(args.net)
            with tr.span("netgraph.build_incidence"):
                inc = build_incidence(net)
            with tr.span("equilibrium.solve"):
                eq = solve_equilibrium(net, inc)
            lo, hi = (float(v) for v in args.band.split(","))
            spec = SafetySpec.band(lo, hi, net.n_bus)
            with tr.span("scenario_io.load"):
                scenario = sio.load_scenario(args.scenario, net)
            with tr.span("scenario_io.load"):
                params, _ = sio.load_checkpoint(args.controller)
            with tr.span("controller.build"):
                ctrl = make_policy_controller(
                    params, spec, net, inc, eq, projection=args.projection == "on"
                )
            stats = [0]
            with tr.span("dynamics.rollout"):
                traj = rollout(
                    net, inc, eq, _wrap_controller(ctrl, tr, stats), scenario,
                    seed=args.seed, integrator=args.integrator, beta=args.beta, gamma=args.gamma,
                )
            tr.count("controller.active_calls", stats[0])
            echo = {
                "command": "simulate",
                "net": args.net,
                "scenario": args.scenario,
                "scenario_label": scenario.label,
                "controller": args.controller,
                "projection": args.projection,
                "integrator": args.integrator,
                "seed": args.seed,
                "horizon": scenario.horizon,
                "noise_bound": scenario.noise_bound,
                "beta": args.beta,
            }
            with tr.span("scenario_io.save_trajectory"):
                sio.save_trajectory(args.out, traj, echo)
            with tr.span("verify.run_checks"):
                report = run_checks(traj, spec, eq, beta=args.beta, tol=args.tol)
            with tr.span("scenario_io.save_report"):
                sio.save_report(args.report, report)
        tr.count("scenario_io.csv_bytes", os.path.getsize(args.out))
        return 0

    def _verify_traced(self) -> int:
        tr = self.tracer
        with tr.span("cli.verify"):
            args = cli.build_parser().parse_args(self.verify_argv)
            with tr.span("scenario_io.load_trajectory"):
                traj = sio.load_trajectory(args.traj)
            with tr.span("scenario_io.load"):
                net = sio.load_network(args.net)
            with tr.span("netgraph.build_incidence"):
                inc = build_incidence(net)
            with tr.span("equilibrium.solve"):
                eq = solve_equilibrium(net, inc)
            lo, hi = (float(v) for v in args.band.split(","))
            spec = SafetySpec.band(lo, hi, net.n_bus)
            with tr.span("verify.run_checks"):
                report = run_checks(traj, spec, eq, beta=args.beta, tol=args.tol)
            with tr.span("scenario_io.save_report"):
                sio.save_report(args.report, report)
        return 0 if report.all_pass else 1

    def finish(self) -> str:
        """Reloaded CSV columns must equal, bit for bit, an in-memory rollout
        of the same inputs through the Python API."""
        args = cli.build_parser().parse_args(self.sim_argv)
        params, _ = sio.load_checkpoint(self.ckpt)
        spec = SafetySpec.band(*BAND, self.net.n_bus)
        ctrl = make_policy_controller(params, spec, self.net, self.inc, self.eq, projection=True)
        ref = rollout(self.net, self.inc, self.eq, ctrl, self.scenario, seed=args.seed)
        got = sio.load_trajectory(self.csv)
        for col in ("t", "omega", "u", "budgets", "v_energy", "loss_freq", "loss_ctrl"):
            a, b = getattr(ref, col), getattr(got, col)
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                raise OpFailed(f"reloaded CSV column {col} differs from the in-memory trajectory")
        (digest,) = self.digests
        return digest


# ------------------------------------------------------------------- mc-tiny


class McTiny:
    """Criterion 4's Monte Carlo certification shape on the 2- and 3-bus nets:
    a fresh policy and in-region start per op, a 1 s rollout at 1 ms with
    projection on, then the certification checks."""

    name = "mc-tiny"
    digest_ops = MIN_OPS["mc-tiny"]

    def __init__(self, seed: int, out_dir: Path, tracer):
        self.tracer = tracer
        self.cases = []
        for fname in ("net_2bus.json", "net_3bus.json"):
            with tracer.span("scenario_io.load"):
                net = sio.load_network(f"{DATA}/{fname}")
            with tracer.span("netgraph.build_incidence"):
                inc = build_incidence(net)
            with tracer.span("equilibrium.solve"):
                eq = solve_equilibrium(net, inc)
            self.cases.append((net, inc, eq, SafetySpec.band(*BAND, net.n_bus)))
        self.scenario = Scenario(horizon=1.0, dt=1e-3, init_omega_range=0.0, init_p_frac=0.0)
        self.rng = np.random.default_rng(np.random.Philox(derive_seed(seed, "mc-tiny")))
        self.n_ops = 0
        self.hash = hashlib.sha256()

    def _draw(self):
        """One op's inputs, drawn in criterion 4's order: policy scale,
        policy parameters, angle offsets, then frequencies."""
        net, inc, eq, spec = self.cases[self.n_ops % 2]
        n = net.n_bus
        params = init_policy_params(n, 8, self.rng, scale=float(self.rng.uniform(0.05, 0.35)))
        lam0 = eq.lam_eq + self.rng.uniform(-0.15, 0.15, n) @ inc.b_mat
        omega0 = self.rng.uniform(-0.08, 0.08, n)
        if not in_region(net, inc, eq, lam0, omega0):
            raise RuntimeError("drawn initial state is outside the invariant region")
        return net, inc, eq, spec, params, lam0, omega0

    def run_op(self, traced: bool) -> dict:
        net, inc, eq, spec, params, lam0, omega0 = self._draw()
        self.n_ops += 1
        tr = self.tracer if traced else NullTracer()
        stats = [0]
        t0 = time.perf_counter()
        with tr.span("controller.build"):
            ctrl = make_policy_controller(params, spec, net, inc, eq, projection=True)
        if traced:
            ctrl = _wrap_controller(ctrl, tr, stats)
        with tr.span("dynamics.rollout"):
            traj = rollout(net, inc, eq, ctrl, self.scenario, lam0=lam0, omega0=omega0)
        with tr.span("verify.run_checks"):
            report = run_checks(traj, spec, eq)
        t1 = time.perf_counter()
        tr.count("controller.active_calls", stats[0])

        _check_report(report.to_dict(), f"op {self.n_ops - 1}")
        dv = np.diff(traj.v_energy)
        dev = traj.omega - eq.omega_sync
        balance = (-net.damping * dev**2 + dev * traj.u).sum(axis=1)
        if not dv.max() <= 1e-6:
            raise OpFailed(f"energy rose by {dv.max():.3e}")
        if not balance.max() <= 1e-12:
            raise OpFailed(f"damping balance positive: {balance.max():.3e}")
        if self.n_ops <= self.digest_ops:
            _hash_arrays(self.hash, traj.omega, traj.u, traj.budgets, traj.v_energy)
            self.hash.update(repr([v.margin for v in report.verdicts]).encode())
        return {"dur": t1 - t0}

    def finish(self) -> str:
        return self.hash.hexdigest()


# ---------------------------------------------------------------- train-desk


class _StopTraining(Exception):
    pass


class _TracedAdapter:
    """Forwards to the training adapter and times each policy evaluation on
    tape nodes as a controller span."""

    def __init__(self, inner, tracer, stats):
        self.inner, self.tracer, self.stats = inner, tracer, stats
        self.keys = inner.keys

    def precompute(self, raw_like):
        return self.inner.precompute(raw_like)

    def control(self, ready, lam, omega, p):
        start = time.perf_counter()
        u = self.inner.control(ready, lam, omega, p)
        self.tracer.leaf("controller.call", start, time.perf_counter())
        if active_mask(ready, omega).any():
            self.stats[0] += 1
        return u


class TrainDesk:
    """Constrained-policy BPTT training on 39 buses: batch 8, K=2000 steps at
    5 ms, measurement noise 0.05 Hz. One op is one episode."""

    name = "train-desk"
    digest_ops = MIN_OPS["train-desk"]

    def __init__(self, seed: int, out_dir: Path, tracer):
        self.tracer = tracer
        with tracer.span("scenario_io.load"):
            self.net = sio.load_network(NET39)
        with tracer.span("netgraph.build_incidence"):
            self.inc = build_incidence(self.net)
        with tracer.span("equilibrium.solve"):
            self.eq = solve_equilibrium(self.net, self.inc)
        with tracer.span("scenario_io.load"):
            scenario = sio.load_scenario(f"{DATA}/scenario_train_desk.json", self.net)
        self.cfg = TrainConfig(
            episodes=100_000, batch=8, steps=2000, dt=5e-3, seed=derive_seed(seed, "train-desk")
        )
        cfg = self.cfg
        self.scenario = dataclasses.replace(scenario, dt=cfg.dt, horizon=cfg.steps * cfg.dt)
        spec = SafetySpec.band(*BAND, self.net.n_bus)
        rng = np.random.default_rng(np.random.Philox(cfg.seed))
        params = init_policy_params(self.net.n_bus, cfg.m_hidden, rng, cfg.init_scale, cfg.dtilde_frac)
        with tracer.span("controller.build"):
            self.adapter = ConstrainedAdapter(params, spec, self.net, self.inc, self.eq)
        self.hash = hashlib.sha256()
        self.n_ops = 0

    def _record(self, loss, parts) -> None:
        vals = (loss, *parts)
        if not all(math.isfinite(v) for v in vals):
            raise OpFailed(f"episode {self.n_ops}: non-finite loss {vals}")
        if self.n_ops < self.digest_ops:
            self.hash.update(repr(vals).encode())
        self.n_ops += 1

    def run_untraced(self, keep_going) -> list[dict]:
        """`train()` with one op per episode, stopped from its progress hook
        once `keep_going(n_done)` turns false."""
        ops = []
        last = [time.perf_counter()]

        def progress(ep, loss, parts):
            now = time.perf_counter()
            op = {"dur": now - last[0], "ok": True, "traced": False}
            ops.append(op)
            try:
                self._record(loss, parts)
            except OpFailed as e:
                op.update(ok=False, error=str(e))
            if not keep_going(len(ops)):
                raise _StopTraining
            last[0] = time.perf_counter()

        try:
            train(self.adapter, self.net, self.inc, self.eq, self.scenario, self.cfg, progress=progress)
        except _StopTraining:
            pass
        except Exception as e:  # train() cannot go on after any error
            ops.append({"dur": time.perf_counter() - last[0], "ok": False, "traced": False,
                        "error": f"{type(e).__name__}: {e}"})
        return ops

    def run_traced(self, keep_going) -> list[dict]:
        """The episode loop of `train()`, recomposed from its public calls in
        the same order with the same draws. Op 0 and every even op are
        traced; odd ops run the same calls untraced, for the overhead."""
        net, inc, eq, cfg, scenario = self.net, self.inc, self.eq, self.cfg, self.scenario
        adapter, tracer = self.adapter, self.tracer
        ops = []
        t_op = time.perf_counter()
        tracer.op = 0
        rng = np.random.Generator(np.random.Philox(cfg.seed))
        with tracer.span("training.prepare"):
            p_steps = np.stack([injection_at(net, scenario, k * cfg.dt) for k in range(cfg.steps)])
        raw = {k: np.array(v, dtype=float) for k, v in adapter.raw.items()}
        state = AdamState.fresh(raw)
        first_loss = None
        ep = 0
        while True:
            traced = ep % 2 == 0
            tr = tracer if traced else NullTracer()
            tracer.op = ep
            stats = [0]
            policy = _TracedAdapter(adapter, tr, stats) if traced else adapter
            try:
                with tr.span("training.sample"):
                    lam0 = np.empty((cfg.batch, inc.b_mat.shape[1]))
                    omega0 = np.empty((cfg.batch, net.n_bus))
                    for b in range(cfg.batch):
                        lam0[b], omega0[b] = sample_initial_state(net, inc, scenario, rng)
                    noise = None
                    if scenario.noise_bound > 0:
                        noise = rng.uniform(
                            -scenario.noise_bound, scenario.noise_bound,
                            (cfg.steps, cfg.batch, net.n_bus),
                        )
                with tr.span("tape.record"):
                    tp = Tape()
                    leaves = {k: tp.leaf(raw[k]) for k in adapter.keys}
                    loss_node, parts_nodes = episode_loss(
                        policy, net, inc, eq, leaves, lam0, omega0, p_steps, noise,
                        cfg.gamma, cfg.rho, cfg.dt,
                    )
                with tr.span("tape.backward"):
                    tp.backward(loss_node)
                    grads = {k: tp.grad(leaves[k]) for k in adapter.keys}
                if any(not np.all(np.isfinite(g)) for g in grads.values()):
                    tp.backward(loss_node, check_finite=True)
                    raise TrainingError("non-finite gradient with finite adjoints")
                parts = tuple(float(value(p)) for p in parts_nodes)
                loss = float(value(loss_node))
                if traced:
                    n_nodes, n_bytes = len(tp), sum(np.asarray(v).nbytes for v in tp.vals)
                del tp, leaves, loss_node, parts_nodes
                if not np.isfinite(loss):
                    raise TrainingError(f"non-finite loss at episode {ep}")
                if first_loss is None:
                    first_loss = loss
                elif loss > cfg.divergence_factor * max(first_loss, 1e-12):
                    raise TrainingError(f"divergence at episode {ep}")
                with tr.span("training.adam"):
                    raw = adam_step(raw, grads, state, cfg, adapter.keys)
                with tr.span("training.validate"):
                    adapter.validate(adapter.precompute(raw))
            except Exception as e:
                ops.append({"dur": time.perf_counter() - t_op, "ok": False, "traced": traced,
                            "error": f"{type(e).__name__}: {e}"})
                return ops
            op = {"dur": time.perf_counter() - t_op, "ok": True, "traced": traced}
            ops.append(op)
            if traced:
                tr.count("tape.nodes", n_nodes)
                tr.count("tape.bytes", n_bytes)
                tr.count("controller.active_calls", stats[0])
            try:
                self._record(loss, parts)
            except OpFailed as e:
                op.update(ok=False, error=str(e))
            if not keep_going(len(ops)):
                return ops
            ep += 1
            t_op = time.perf_counter()

    def finish(self) -> str:
        return self.hash.hexdigest()


WORKLOADS = {w.name: w for w in (SimDesk, TrainDesk, McTiny)}
