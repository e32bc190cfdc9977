"""Smoke test of the benchmark runner at tiny size.

    python -m pytest perfbench

Each run builds the real inputs but sends only a handful of requests.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ALL_WORKLOADS = ("catalog-decide", "shift-scan", "order-probe", "cli-mix")


def run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def tiny(workload, seed=3, trace=0, requests=10, *extra):
    return run("--workload", workload, "--seed", str(seed), "--seconds", "0",
               "--min-requests", str(requests), "--trace", str(trace), *extra)


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(proc) -> str:
    line = next(l for l in proc.stdout.splitlines() if l.startswith("# digest"))
    return line.split()[2]


def test_benchmark_json_lists_three_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == ["catalog-decide", "shift-scan", "order-probe"]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = tiny(workload, trace=trace)
    assert proc.returncode == 0, proc.stderr
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] == (10 if trace else 30)  # untraced runs replay 3 rounds
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in wanted:
        assert res["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert set(res["metrics"]) == {m["name"] for m in wanted}
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in wanted)
    if workload == "cli-mix":
        # only malformed inputs may fail, and only by raising instead of exiting 1
        problems = [l for l in proc.stdout.splitlines() if l.startswith("# problem")]
        assert len(problems) == res["failed"]
        assert all(": raised " in p for p in problems)
    else:
        assert res["failed"] == 0, proc.stdout


def test_same_seed_same_digest():
    first, second = tiny("order-probe", seed=5, requests=24), tiny("order-probe", seed=5, requests=24)
    assert digest(first) == digest(second)
    assert digest(first) != digest(tiny("order-probe", seed=6, requests=24))


@pytest.mark.parametrize("workload", ("shift-scan", "cli-mix"))
def test_worker_counts_agree(workload):
    one = tiny(workload, 4, 0, 12, "--workers", "1")
    two = tiny(workload, 4, 0, 12, "--workers", "2")
    assert one.returncode == two.returncode == 0
    assert digest(one) == digest(two)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "catalog-decide", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
