"""swingctl benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sim-desk --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports swingctl from ./src
and writes scratch files under ./.bench_out. An untraced run starts a few
cold probes: fresh child processes that set up and make one operation.
Between the two halves of the probes it measures in one more fresh child:
one operation at a time, closed loop, no extra threads. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it records spans around every call into a swingctl module and
prints the per-layer metrics derived from them. The last line of stdout is
the JSON result; the lines above it name every metric of the workload, the
output digest and the machine. bench/README.md maps the metrics to the
modules and to the baseline table they reproduce.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here: before numpy and swingctl load

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("sim-desk", "train-desk", "mc-tiny")
# Fresh children an untraced run starts besides the measuring one, each of
# which sets up and makes the first (cold) operation only. setup_s and
# first_op_s are medians over them and the measuring child. A cold
# train-desk episode takes about 10 s, hence fewer there.
COLD_PROBES = {"sim-desk": 4, "train-desk": 2, "mc-tiny": 8}
BLAS_THREADS = 1  # one operation at a time, so no BLAS worker threads either
HARD_LIMIT_S = 170.0  # every run ends within 180 s, set-up and all
HOLDOUT_SEED = 7919  # confirm a claimed gain on this seed if it was tuned on others


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--child", choices=("cold", "run"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --------------------------------------------------------------------- child


def child_main(args) -> None:
    """Set up the workload and measure it. A cold probe stops after the first
    operation. Prints one JSON object on its last stdout line."""
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import swingctl

    if Path(swingctl.__file__).resolve().parent != (root / "src" / "swingctl").resolve():
        raise SystemExit(f"swingctl was imported from {swingctl.__file__}, not from ./src")
    import numpy as np

    import tracing
    import workloads

    out_dir = root / ".bench_out" / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir, tracer)
    setup_s = time.perf_counter() - T_START

    min_ops = 1 if args.child == "cold" else workloads.MIN_OPS[args.workload]
    t_measure = time.perf_counter()
    deadline = t_measure + (0.0 if args.child == "cold" else args.seconds)

    def keep_going(n_done):
        return n_done < min_ops or time.perf_counter() < deadline

    if args.workload == "train-desk":
        ops = wl.run_traced(keep_going) if args.trace else wl.run_untraced(keep_going)
    else:
        ops = []
        while keep_going(len(ops)):
            traced = bool(args.trace) and len(ops) % 2 == 0
            tracer.op = len(ops)
            t0 = time.perf_counter()
            try:
                op = wl.run_op(traced)
                op.update(ok=True, traced=traced)
            except Exception as e:
                op = {"dur": time.perf_counter() - t0, "ok": False, "traced": traced,
                      "error": f"{type(e).__name__}: {e}"}
            ops.append(op)
    result = {"setup_s": setup_s, "measured_s": time.perf_counter() - t_measure, "ops": ops}
    if args.child == "cold":
        print(json.dumps(result))
        return

    try:
        result["digest"] = wl.finish()
    except Exception as e:
        result["finish_error"] = f"{type(e).__name__}: {e}"
    if args.trace:
        per_layer, counts = tracing.per_layer_metrics(tracer)
        result["per_layer"] = per_layer
        result["exact_counts"] = {
            k: sorted(set(counts[k])) for k in ("controller.calls", "tape.nodes", "dynamics.steps") if k in counts
        }
        result["layer_self_s"] = tracing.layer_self_per_op(tracer)
        spans_path = out_dir / "spans.csv"
        tracing.write_spans(tracer, spans_path)
        result["spans_file"] = str(spans_path.relative_to(root))
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    import resource

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = f"{np.__version__} ({blas})"
    print(json.dumps(result))


# -------------------------------------------------------------------- parent


def machine_facts(root: Path) -> dict:
    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    ram_gb = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    ram_gb = round(int(line.split()[1]) / 1024**2, 2)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "ram_gb": ram_gb,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_threads": BLAS_THREADS,
    }


def run_child(args, mode: str, env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--child", mode,
    ]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{args.workload} child ({mode}) ran past the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload} child ({mode}) exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"{args.workload} child ({mode}) printed nothing")
    return json.loads(lines[-1])


def tail(xs: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples). With fewer than 11 samples no percentile
    has ten beyond it; the maximum is returned, as percentile 100."""
    xs = sorted(xs)
    n = len(xs)
    i = n - 11 if n >= 11 else n - 1
    return xs[i], 100.0 * (i + 1) / n, n


def end_to_end(res: dict, probes: list[dict]) -> tuple[dict, list[str]]:
    setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
    cold = [p["ops"][0]["dur"] for p in probes + [res] if p["ops"][0]["ok"]]
    durs = [o["dur"] for o in res["ops"][1:] if o["ok"]]
    t_val, t_pct, t_n = tail(durs)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "op_s.p50": (statistics.median(durs), "s"),
        "op_s.tail": (t_val, "s"),
        "ops_per_s": (len(durs) / sum(durs), "1/s"),
    }
    # The cold first operation is printed but not declared in BENCHMARK.json:
    # across runs it spreads wider than the largest bound allowed there.
    first_op_s = statistics.median(cold)
    notes = [
        f"first_op_s = {first_op_s!r} s (cold op, median of {len(cold)} fresh processes; not gated)",
        f"setup_s is the median of {len(setups)} set-ups, each in a fresh process;"
        f" op_s.tail is p{t_pct:.1f} of {t_n} warm ops",
    ]
    return metrics, first_op_s, notes


def named_metrics(workload: str, res: dict, e2e: dict, first_op_s: float) -> list[str]:
    """The workload's metrics under their user-facing names."""
    warm = [o for o in res["ops"][1:] if o["ok"]]
    lines = []

    def timing(name, xs):
        v, pct, n = tail(xs)
        lines.append(f"{name}.p50 = {statistics.median(xs)!r} s")
        lines.append(f"{name}.tail = {v!r} s (p{pct:.1f} of {n} samples)")

    if workload == "sim-desk":
        timing("sim.simulate_s", [o["simulate_s"] for o in warm])
        timing("sim.verify_s", [o["verify_s"] for o in warm])
    elif workload == "train-desk":
        lines.append(f"train.first_episode_s = {first_op_s!r} s")
        lines.append(f"train.episode_s.p50 = {e2e['op_s.p50'][0]!r} s ({len(warm)} warm episodes)")
    else:
        lines.append(f"mc.rollouts_per_s = {e2e['ops_per_s'][0]!r} 1/s ({len(warm)} warm rollouts)")
    return lines


def main() -> int:
    args = parse_args()
    if args.child:
        child_main(args)
        return 0
    root = Path.cwd()
    if not (root / "src" / "swingctl" / "__init__.py").is_file():
        print("error: run from the root of a swingctl source checkout (no src/swingctl here)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + HARD_LIMIT_S
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

    # Half the probes run before the measuring child and half after it, so
    # that they sample the machine over the whole run, as its warm ops do.
    n_probes = 0 if args.trace else COLD_PROBES[args.workload]
    probes = [run_child(args, "cold", env, deadline) for _ in range(n_probes // 2)]
    res = run_child(args, "run", env, deadline)
    probes += [run_child(args, "cold", env, deadline) for _ in range(n_probes - n_probes // 2)]

    ops = [p["ops"][0] for p in probes] + res["ops"]
    failed = sum(not o["ok"] for o in ops)
    errors = sorted({o["error"] for o in ops if not o["ok"]})
    if "finish_error" in res:
        errors.append(res["finish_error"])
    correct = not errors

    facts = machine_facts(root)
    facts["numpy"] = res["numpy"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": facts, "digest": res.get("digest"), "attempted": len(ops), "failed": failed,
        "errors": errors, "holdout_seed": HOLDOUT_SEED,
        "probes": probes, "ops": res["ops"],
    }
    lines = [
        f"workload {args.workload}, seed {args.seed}: {len(res['ops'])} ops measured in"
        f" {res['measured_s']:.2f} s, {n_probes} cold probes; {failed} of {len(ops)} ops failed"
    ]
    if args.trace:
        traced = [o["dur"] for o in res["ops"][1:] if o["ok"] and o["traced"]]
        plain = [o["dur"] for o in res["ops"][1:] if o["ok"] and not o["traced"]]
        overhead = statistics.median(traced) / statistics.median(plain) if traced and plain else float("nan")
        metrics = {k: (v, unit_of(k)) for k, v in res["per_layer"].items()}
        metrics["trace.overhead"] = (overhead, "ratio")
        record.update(exact_counts=res["exact_counts"], layer_self_s=res["layer_self_s"],
                      spans_file=res["spans_file"])
        lines.append(
            f"tracing overhead: median traced op / median untraced op = {overhead!r}"
            f" ({len(traced)} traced, {len(plain)} untraced warm ops)"
        )
        lines.append("self time per traced op by layer (s): " + json.dumps(res["layer_self_s"]))
        lines.append("exact counts (distinct per-op values): " + json.dumps(res["exact_counts"]))
    else:
        metrics, first_op_s, notes = end_to_end(res, probes)
        lines += named_metrics(args.workload, res, metrics, first_op_s) + notes
    lines.append(f"output digest (seed {args.seed}): {res.get('digest')}")
    lines.append("machine: " + json.dumps(facts))
    lines += [f"error: {e}" for e in errors]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["report"] = lines

    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_us") or name.endswith("_us_per_step"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
