"""Command-line front end: simulate / train / verify / compare.

Every artifact embeds the effective configuration (file values after flag
overrides), so a command line plus a seed pins the output bytes. Usage
errors exit 2 (argparse), domain failures exit 1 with a one-line structured
message on stderr, success exits 0. The verify subcommand also exits 1 when
any check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .controller import (
    PolicyError,
    SafetySpec,
    init_monotone_params,
    init_policy_params,
    make_analytic_safe_controller,
    make_policy_controller,
    make_zero_controller,
)
from .dynamics import IntegrationError, check_cost_window, rollout
from .equilibrium import EquilibriumError, solve_equilibrium
from .netgraph import GraphError, build_incidence
from .training import TrainConfig, TrainingError, train
from .verify import run_checks
from . import scenario_io as sio

DOMAIN_ERRORS = (
    sio.SchemaError,
    GraphError,
    EquilibriumError,
    PolicyError,
    TrainingError,
    IntegrationError,
    ValueError,
    OSError,
)


def _setup(args):
    """(net, inc, eq, spec) from --net and --spec, or from --band."""
    net = sio.load_network(args.net)
    inc = build_incidence(net)
    eq = solve_equilibrium(net, inc)
    if args.spec is None:
        try:
            lo, hi = (float(v) for v in args.band.split(","))
        except ValueError:
            raise ValueError(f"--band must be 'lo,hi', got {args.band!r}") from None
        return net, inc, eq, SafetySpec.band(lo, hi, net.n_bus)
    spec = sio.load_safety_spec(args.spec)
    try:
        spec.per_bus(net.n_bus)
    except PolicyError as e:
        raise sio.SchemaError(f"{args.spec}: {e}") from None
    return net, inc, eq, spec


def _build_controller(value: str, net, inc, eq, spec, projection: bool):
    """zero | safe | path to a checkpoint."""
    if value == "zero":
        return make_zero_controller(net.n_bus)
    if value == "safe":
        return make_analytic_safe_controller(spec, net, inc, eq)
    params, _ = sio.load_checkpoint(value)
    return make_policy_controller(params, spec, net, inc, eq, projection=projection)


def _scenario_with_overrides(args, scenario, **patch):
    """`scenario` with flag overrides, then `patch`, applied at once."""
    flags = {"dt": "dt", "noise": "noise_bound", "horizon": "horizon"}
    for flag, name in flags.items():
        if getattr(args, flag, None) is not None:
            patch.setdefault(name, getattr(args, flag))
    return dataclasses.replace(scenario, **patch) if patch else scenario


def _cmd_simulate(args) -> int:
    net, inc, eq, spec = _setup(args)
    scenario = _scenario_with_overrides(args, sio.load_scenario(args.scenario, net))
    controller = _build_controller(args.controller, net, inc, eq, spec, args.projection == "on")
    traj = rollout(net, inc, eq, controller, scenario, seed=args.seed, integrator=args.integrator, beta=args.beta,
                   gamma=args.gamma)
    report = run_checks(traj, spec, eq, beta=args.beta, tol=args.tol)
    echo = {"command": "simulate", "net": args.net, "scenario": args.scenario, "controller": args.controller,
            "projection": args.projection}
    sio.save_trajectory(args.out, traj, echo)
    sio.save_report(args.report, report)
    print(f"wrote {args.out} and {args.report}")
    for v in report.verdicts:
        print(f"  {v.name}: {'pass' if v.passed else 'FAIL'} (margin {v.margin:.3g})")
    return 0


def _cmd_train(args) -> int:
    if args.policy == "monotone" and args.dtilde_frac is not None:
        raise ValueError("--dtilde-frac does not apply: the monotone policy has no stability cap")
    net, inc, eq, spec = _setup(args)
    given = {name: getattr(args, name) for name in TrainConfig().to_dict()}
    cfg = TrainConfig(**{name: v for name, v in given.items() if v is not None})
    scenario = sio.load_scenario(args.scenario, net)
    if args.dt is None and cfg.dt != scenario.dt:
        raise ValueError(
            f"the training dt {cfg.dt!r} differs from the dt {scenario.dt!r} of {args.scenario}; pass --dt to retime"
        )
    scenario = _scenario_with_overrides(args, scenario, horizon=cfg.steps * cfg.dt)
    rng = np.random.default_rng(np.random.Philox(cfg.seed))
    if args.policy == "constrained":
        params = init_policy_params(net.n_bus, cfg.m_hidden, rng, cfg.init_scale, cfg.dtilde_frac)
    else:
        params = init_monotone_params(net.n_bus, cfg.m_hidden, rng, cfg.init_scale)

    def progress(ep, loss, parts):
        if args.quiet:
            return
        print(f"episode {ep}: loss {loss:.6g}")

    result = train(params.bind(spec, net, inc, eq), net, inc, eq, scenario, cfg, progress=progress)
    sio.save_checkpoint(args.out, result.params, cfg)
    settings = cfg.to_dict(args.policy)
    echo = {"command": "train", "net": args.net, "scenario": args.scenario, "policy": args.policy,
            "config_hash": sio.config_hash(settings), **settings}
    sio.save_curve(args.curve, result.curve, echo)
    print(f"wrote {args.out} and {args.curve} (final loss {result.final_loss:.6g})")
    return 0


def _cmd_verify(args) -> int:
    net, inc, eq, spec = _setup(args)
    traj = sio.load_trajectory(args.traj)
    if traj.n_bus != net.n_bus:
        raise sio.SchemaError(f"{args.traj}: the trajectory has {traj.n_bus} buses, the network has {net.n_bus}")
    if traj.lam.shape[1] != net.n_edge:
        raise sio.SchemaError(f"{args.traj}: the trajectory has {traj.lam.shape[1]} edges, the network has {net.n_edge}")
    report = run_checks(traj, spec, eq, beta=args.beta, tol=args.tol)
    if args.report:
        sio.save_report(args.report, report)
    for v in report.verdicts:
        print(f"{v.name}: {'pass' if v.passed else 'FAIL'} (margin {v.margin:.3g})")
    return 0 if report.all_pass else 1


def _cmd_compare(args) -> int:
    if args.train_window is not None:
        check_cost_window(args.train_window)
    net, inc, eq, spec = _setup(args)
    scenario = _scenario_with_overrides(args, sio.load_scenario(args.scenario, net))
    entries = []
    for item in args.controller:
        label, _, value = item.partition("=")
        if not value:
            label, value = item, item
        if not label or any(ch in label for ch in ",\r\n"):
            raise ValueError(f"--controller label {label!r} must be non-empty, without commas or line breaks")
        entries.append((label, _build_controller(value, net, inc, eq, spec, args.projection == "on")))
    # Every controller is built before the first rollout; each runs the same scenario and seed.
    summaries = []
    for label, ctrl in entries:
        traj = rollout(net, inc, eq, ctrl, scenario, seed=args.seed, beta=args.beta, gamma=args.gamma)
        summaries.append(sio.summarize(traj, spec, eq, label=label, train_window=args.train_window, beta=args.beta))
    echo = {
        "command": "compare",
        "net": args.net,
        "scenario": args.scenario,
        "seed": args.seed,
        "projection": args.projection,
        "controllers": list(args.controller),
    }
    sio.save_comparison(args.out, summaries, echo)
    print(f"wrote {args.out}")
    for s in summaries:
        print(
            f"  {s.label}: stability {'pass' if s.stability_ok else 'FAIL'},"
            f" safety {'pass' if s.safety_ok else 'FAIL'}, cost {s.cost:.6g}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swingctl",
        description="Simulate, train, and certify frequency controllers on swing-equation networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--net", required=True, help="network JSON")
        p.add_argument("--spec", default=None, help="safety-spec JSON (default: --band)")
        p.add_argument("--band", default="-0.2,0.2", help="fallback band 'lo,hi' in Hz")

    def add_run(p):
        """The flags of the commands that roll out a scenario."""
        p.add_argument("--scenario", required=True)
        p.add_argument("--projection", choices=("on", "off"), default="on")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dt", type=float, default=None, help="override scenario dt")
        p.add_argument("--noise", type=float, default=None, help="override measurement noise bound")
        p.add_argument("--horizon", type=float, default=None, help="override scenario horizon")
        p.add_argument("--gamma", type=float, default=40.0)

    p_sim = sub.add_parser("simulate", help="roll out one scenario and certify it")
    add_common(p_sim)
    add_run(p_sim)
    p_sim.add_argument("--controller", default="zero", help="zero | safe | checkpoint path")
    p_sim.add_argument("--integrator", choices=("euler", "rk4"), default="euler")
    p_sim.add_argument("--tol", type=float, default=1e-3, help="convergence check tolerance")
    p_sim.add_argument("--out", default="traj.csv")
    p_sim.add_argument("--report", default="verdicts.json")
    p_sim.set_defaults(func=_cmd_simulate)

    p_tr = sub.add_parser("train", help="train a policy and write a checkpoint")
    add_common(p_tr)
    p_tr.add_argument("--scenario", required=True)
    p_tr.add_argument("--policy", choices=("constrained", "monotone"), default="constrained")
    for name, default in TrainConfig().to_dict().items():  # one flag per field, of its default's type
        p_tr.add_argument("--" + name.replace("_", "-"), dest=name, type=type(default), default=None)
    p_tr.add_argument("--noise", type=float, default=None, help="override measurement noise bound")
    p_tr.add_argument("--quiet", action="store_true")
    p_tr.add_argument("--out", default="ckpt.json")
    p_tr.add_argument("--curve", default="curve.csv")
    p_tr.set_defaults(func=_cmd_train)

    p_ver = sub.add_parser("verify", help="re-run all checks on a trajectory CSV")
    add_common(p_ver)
    p_ver.add_argument("--traj", required=True)
    p_ver.add_argument("--tol", type=float, default=1e-3)
    p_ver.add_argument("--report", default=None, help="also write verdict JSON here")
    p_ver.set_defaults(func=_cmd_verify)

    p_cmp = sub.add_parser("compare", help="run several controllers on one scenario")
    add_common(p_cmp)
    add_run(p_cmp)
    p_cmp.add_argument(
        "--controller",
        action="append",
        required=True,
        help="zero | safe | ckpt path, optionally label=value; repeatable",
    )
    p_cmp.add_argument("--train-window", dest="train_window", type=float, default=None)
    p_cmp.add_argument("--out", default="comparison.csv")
    p_cmp.set_defaults(func=_cmd_compare)
    for p in (p_sim, p_ver, p_cmp):  # the commands that certify against the region
        p.add_argument("--beta", type=float, default=1.0, help="region shrink factor")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DOMAIN_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
