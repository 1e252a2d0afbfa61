"""Smoke tests of the benchmark: its helpers, one short run of the cheapest
workload in both modes, and its refusal to run without the program's source.

Each run happens in a copy of the checkout under pytest's tmp_path, so the
repository itself gets no output files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

REPO = Path(__file__).resolve().parents[1]


def _checkout(dest: Path, with_source: bool) -> Path:
    shutil.copy(REPO / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(REPO / "bench", dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_source:
        shutil.copytree(REPO / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    xs = [float(i) for i in range(25, 0, -1)]
    assert run.tail(xs) == (15.0, 60.0, 25)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_subtracts_children():
    spans = [
        ["dynamics.rollout", 0.0, 10.0, -1, 0],
        ["controller.call", 1.0, 3.0, 0, 0],
        ["controller.call", 4.0, 5.0, 0, 0],
    ]
    assert tracing.self_times(spans) == [7.0, 2.0, 1.0]


@pytest.fixture(scope="module")
def mc_runs(tmp_path_factory):
    root = _checkout(tmp_path_factory.mktemp("checkout"), with_source=True)
    procs = {t: _bench(root, "--workload", "mc-tiny", "--seed", "3", "--seconds", "0.5", "--trace", t)
             for t in ("0", "1")}
    records = [json.loads(line) for line in (root / ".bench_out" / "results.jsonl").read_text().splitlines()]
    return procs, records


def test_mc_tiny_reports_every_declared_metric(mc_runs):
    procs, _ = mc_runs
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = procs[trace]
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20
        assert sorted(result["metrics"]) == sorted(m["name"] for m in declared[key])
        for m in declared[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    e2e = json.loads(procs["0"].stdout.strip().splitlines()[-1])["metrics"]
    assert all(v["value"] > 0 for v in e2e.values())


def test_traced_run_gives_the_same_outputs_and_exact_counts(mc_runs):
    _, records = mc_runs
    untraced, traced = records
    assert untraced["digest"] == traced["digest"]
    assert traced["exact_counts"] == {"controller.calls": [1001], "dynamics.steps": [1000]}


def test_refuses_to_run_without_the_source(tmp_path):
    proc = _bench(_checkout(tmp_path, with_source=False), "--workload", "mc-tiny", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
