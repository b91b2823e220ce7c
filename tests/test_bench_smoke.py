"""Smoke test of the benchmark harness: one tiny bulk-screening run per mode.

The traced set-up runs gen, train, eval and screen, so this one workload
exercises every traced function. No timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_bench_screen_bulk_tiny(trace, declared):
    argv = [
        sys.executable, "bench/run.py", "--workload", "screen_bulk", "--seed", "3",
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
