"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its spans.

Spans are recorded from the benchmark's own code, around each call it makes
into a swingctl module. A span is (name, start, end, parent span id, op id);
the span id is its index in `Tracer.spans`. Op id -1 is set-up. Everything
stays in memory until `write_spans` runs at the end of the traced run.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext

LAYERS = (
    "cli",
    "scenario_io",
    "netgraph",
    "equilibrium",
    "dynamics",
    "controller",
    "tape",
    "training",
    "verify",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: list[tuple] = []  # (op, name, value)
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def leaf(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller; used on hot per-step calls."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1, self.op])

    def count(self, name: str, value) -> None:
        self.counts.append((self.op, name, value))


class NullTracer:
    """Stands in for `Tracer` on the untraced operations of a traced run."""

    op = -1

    def span(self, name: str):
        return nullcontext()

    def leaf(self, name, start, end) -> None:
        pass

    def count(self, name, value) -> None:
        pass


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its children cover. Spans come from one
    thread, so children of one parent never overlap and their sum is the
    covered time."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def layer_self_per_op(tracer: Tracer) -> dict[str, float]:
    """Median over traced ops of each layer's self time in that op (seconds)."""
    per_op: dict[int, dict[str, float]] = {}
    for (name, *_rest, op), st in zip(tracer.spans, self_times(tracer.spans)):
        if op < 0:
            continue
        layer = name.split(".", 1)[0]
        bucket = per_op.setdefault(op, dict.fromkeys(LAYERS, 0.0))
        bucket[layer] += st
    if not per_op:
        return dict.fromkeys(LAYERS, 0.0)
    return {layer: statistics.median(b[layer] for b in per_op.values()) for layer in LAYERS}


def _median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def per_layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, list]]:
    """Per-layer metrics from the spans and counts of a traced run.

    A `_s` metric is the median duration of one call to that entry point
    over every traced call in the run, set-up included. A per-op quantity
    is the median over traced ops. A rollout's steps are its controller
    calls less one (the final row is evaluated but not stepped). The second
    return value holds every per-op value of the exact counts, so repeats
    can be checked. A layer the workload never calls reads 0.
    """
    durations: dict[str, list[float]] = {}
    for name, start, end, _, _ in tracer.spans:
        durations.setdefault(name, []).append(end - start)
    counts: dict[str, list] = {}
    for _, name, val in tracer.counts:
        counts.setdefault(name, []).append(val)

    sts = self_times(tracer.spans)
    rollout_calls: dict[int, int] = {}
    op_calls: dict[int, list[float]] = {}
    for name, start, end, parent, op in tracer.spans:
        if name == "controller.call":
            op_calls.setdefault(op, []).append(end - start)
            if tracer.spans[parent][0] == "dynamics.rollout":
                rollout_calls[parent] = rollout_calls.get(parent, 0) + 1
    steps = [n - 1 for n in rollout_calls.values()]
    counts["dynamics.steps"] = steps
    counts["controller.calls"] = [len(v) for v in op_calls.values()]
    active = dict((op, n) for op, name, n in tracer.counts if name == "controller.active_calls")

    def d(name):
        return _median(durations.get(name, []))

    def c(name):
        return _median(counts.get(name, []))

    metrics = {
        "scenario_io.load_s": d("scenario_io.load"),
        "scenario_io.save_trajectory_s": d("scenario_io.save_trajectory"),
        "scenario_io.load_trajectory_s": d("scenario_io.load_trajectory"),
        "scenario_io.csv_bytes": c("scenario_io.csv_bytes"),
        "netgraph.build_incidence_s": d("netgraph.build_incidence"),
        "equilibrium.solve_s": d("equilibrium.solve"),
        "dynamics.rollout_s": d("dynamics.rollout"),
        "dynamics.steps": c("dynamics.steps"),
        "dynamics.self_us_per_step": _median(
            sts[i] / (n - 1) * 1e6 for i, n in rollout_calls.items() if n > 1
        ),
        "controller.build_s": d("controller.build"),
        "controller.calls": c("controller.calls"),
        "controller.call_us": _median(sum(v) / len(v) * 1e6 for v in op_calls.values()),
        "controller.active_call_frac": _median(
            active.get(op, 0) / len(v) for op, v in op_calls.items()
        ),
        "training.sample_s": d("training.sample"),
        "tape.record_s": d("tape.record"),
        "tape.backward_s": d("tape.backward"),
        "training.adam_s": d("training.adam"),
        "training.validate_s": d("training.validate"),
        "tape.nodes": c("tape.nodes"),
        "tape.bytes": c("tape.bytes"),
        "verify.run_checks_s": d("verify.run_checks"),
    }
    return metrics, counts


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w") as fh:
        fh.write("id,op,parent,name,start_s,end_s\n")
        for i, (name, start, end, parent, op) in enumerate(tracer.spans):
            fh.write(f"{i},{op},{parent},{name},{start!r},{end!r}\n")
