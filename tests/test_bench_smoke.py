"""Smoke test of the benchmark harness: tiny runs checked against the oracle.

Every workload has a tiny run. The traced set-up runs gen, train, eval
and screen, so the bulk workload exercises every traced function.
Set-up's eval writes thresholds.json, so the request workload's screens
reuse it, and the oracle, which calibrates on its own, checks that reuse
path. No timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int, declared: str) -> None:
    argv = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "0", "--trace", str(trace), "--tiny",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout[-2000:]
    metrics = result["metrics"]
    assert [(n, m["unit"]) for n, m in metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC[declared]
    ]
    assert [n for n, m in metrics.items() if m["value"] == 0 and n != "trace.overhead_ms"] == []


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_bench_screen_bulk_tiny(trace, declared):
    run_tiny("screen_bulk", trace, declared)


def test_bench_screen_requests_tiny():
    run_tiny("screen_requests", 0, "end_to_end")


def test_bench_screen_requests_tiny_traced():
    """Every per-layer metric on the request path, where the config and the checkpoints are reused."""
    run_tiny("screen_requests", 1, "per_layer")


def test_bench_train_tiny():
    run_tiny("train", 0, "end_to_end")
