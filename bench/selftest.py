"""Self-test of the benchmark. Makes no timing assertions.

Run from the repository root:

    python3 bench/selftest.py

It runs every workload at a tiny size in both trace modes and checks
that each prints exactly the metrics BENCHMARK.json names, with their
units, and that every per-layer metric was exercised. It then checks
that corrupted outputs are counted as failures, that the oracle rejects
each kind of damage to a decisions file, and that the benchmark refuses
to run without the dpnet sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OVERHEAD = ("trace.overhead_ms",)  # a difference of two timings, may be zero or negative

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics() -> list[str]:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = result(run(workload, trace))
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in r["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ")
            if not r["correct"] or r["failed"] or r["attempted"] < 2:
                problems.append(f"{workload} trace {trace}: {r['failed']}/{r['attempted']} failed")
            unexercised = [n for n, m in r["metrics"].items() if m["value"] == 0 and n not in OVERHEAD]
            if unexercised:
                problems.append(f"{workload} trace {trace}: zero metrics {unexercised}")
    return problems


def check_corrupt_runs() -> list[str]:
    """Every operation's output is damaged, so every operation must fail its check."""
    problems = []
    for workload in ("screen_bulk", "screen_requests", "train"):
        r = result(run(workload, 0, "--corrupt"))
        if r["correct"] or r["failed"] != r["attempted"] - 1:  # the set-up itself is intact
            problems.append(f"{workload} --corrupt: {r['failed']}/{r['attempted']} failed")
    return problems


def check_oracle(work: Path) -> list[str]:
    """Each kind of damage to a correct decisions file is caught."""
    rng = np.random.default_rng(0)
    n = 40
    want = oracle.Expected(
        s_d=rng.uniform(0, 1, n), s_c=rng.uniform(0, 1, n),
        outcome=rng.integers(0, 3, n), predicted=rng.integers(0, 3, n),
        excused=np.zeros(n, dtype=bool),
    )
    rows = [
        f"{i},{float(want.s_d[i])!r},{float(want.s_c[i])!r},{oracle.OUTCOMES[want.outcome[i]]},"
        + ("" if want.outcome[i] == 2 else str(want.predicted[i]))
        for i in range(n)
    ]
    counts = [sum(1 for o in want.outcome if o == k) for k in range(3)]
    stdout = "".join(f"{name}={c}\n" for name, c in zip(oracle.OUTCOMES, counts))
    path = work / "decisions.csv"

    def problems_for(lines, out=stdout):
        path.write_text("\n".join(["id,s_d,s_c,outcome,predicted_class", *lines]) + "\n")
        return oracle.check_decisions(path, out, want)

    def edit(i, field, value):
        fields = rows[i].split(",")
        fields[field] = value
        return rows[:i] + [",".join(fields)] + rows[i + 1 :]

    found = []
    if problems_for(rows):
        found.append("the undamaged file is rejected")
    trusted = next(i for i in range(n) if want.outcome[i] == 0)
    damaged = {
        "score off by 1e-6": edit(3, 1, repr(float(want.s_d[3]) + 1e-6)),
        "score unparsable": edit(3, 2, "nan?"),
        "outcome flipped": edit(trusted, 3, "human_review"),
        "class changed": edit(trusted, 4, str((want.predicted[trusted] + 1) % 3)),
        "row dropped": rows[:-1],
        "rows swapped": [rows[1], rows[0], *rows[2:]],
    }
    for name, lines in damaged.items():
        if not problems_for(lines):
            found.append(f"not caught: {name}")
    if not problems_for(rows, stdout.replace(f"discard={counts[2]}", f"discard={counts[2] + 1}")):
        found.append("not caught: stdout count off by one")
    return found


def check_refuses_without_sources(work: Path) -> list[str]:
    """In a directory with only BENCHMARK.json and bench/, run.py must fail without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", work / "BENCHMARK.json")
    shutil.copytree(HERE, work / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("screen_requests", 0, cwd=work)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"ran without the dpnet sources: exit {proc.returncode}"]
    return []


def main() -> int:
    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        problems = (check_oracle(work) + check_refuses_without_sources(work)
                    + check_corrupt_runs() + check_metrics())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
