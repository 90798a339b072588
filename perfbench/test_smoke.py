"""Smoke test of the benchmark at toy scale (the criterion-7 corpus shape).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced in a fresh process and checks that
every metric BENCHMARK.json names is printed, finite and has its unit.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_finite_with_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        assert any(
            line.split()[0:1] == [spec["name"]] and line.split()[2:3] == [spec["unit"]]
            for line in lines[:-1]
        ), f"{spec['name']} not printed with its unit"
    if trace:
        assert any(line.startswith("tracing overhead:") for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "pose_imitate", "--seed", "0", "--seconds", "1",
                "--trace", "0", "--scale", "toy")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_children():
    sys.path.insert(0, BENCH_DIR)
    from spans import Tracer

    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    summary = tracer.summary()
    outer, inner = summary["outer"], summary["inner"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"], abs=1e-12)
    assert inner["self_s"] == inner["total_s"]
