"""dpnet benchmark: bulk screening, small screening requests, and training.

Run from the repository root; each invocation runs one workload in this
fresh process and prints one JSON result object as its last stdout line:

    python3 bench/run.py --workload screen_bulk --seed 1 --seconds 30 --trace 0

Workloads (all in-process ``dpnet.cli.main`` calls, one client, closed loop):

* ``screen_bulk``: ``screen`` over one 200k-row CSV, a shuffled mix of
  50% in-domain, 25% shifted and 25% far-ring rows. Per-row costs dominate.
* ``screen_requests``: ``screen`` calls one after another, each on its own
  64-row CSV from the same mix. Per-call fixed costs dominate.
* ``train``: ``train`` for both roles, then ``eval``, on the default config.

Set-up (timed as ``setup_s``, repeated and reported as the median plus
the one-off import time) runs gen, train for both roles, eval and one
warm-up screen on the default config, then writes the workload's input
files. The workload seed picks the screening inputs; the train workload
always uses the default config, the one the criterion-4 bounds are for.

Every operation's output is checked by ``oracle.py``; a failed or wrong
operation counts in ``failed``. With ``--trace 0`` the result holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
set-up plus a fixed number of traced operations, and the tracing overhead.
``--tiny`` and ``--corrupt`` exist for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
WORKLOADS = ("screen_bulk", "screen_requests", "train")
SETUP_REPEATS = 3
BULK_ROWS = 200_000
REQUEST_ROWS = 64
REQUEST_FILES = 256
TRACED_OPS = {"screen_bulk": 2, "screen_requests": 100, "train": 2}

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "data.load_csv.s": "s",
    "data.load_csv.rows": "count",
    "data.load_csv.bytes": "B",
    "data.save_csv.s": "s",
    "data.save_csv.rows": "count",
    "data.save_csv.bytes": "B",
    "network.forward_batch.s": "s",
    "network.forward_batch.calls": "count",
    "network.forward_batch.rows": "count",
    "network.forward_batch.flops": "flop",
    "network.forward_batch.rows_per_routed_row": "ratio",
    "network.load_checkpoint.s": "s",
    "network.load_checkpoint.calls": "count",
    "dirichlet.digamma.s": "s",
    "dirichlet.digamma.calls": "count",
    "dirichlet.digamma.values": "count",
    "pipeline.score_set.s": "s",
    "pipeline.score_set.self_s": "s",
    "pipeline.score_set.cpu_s": "s",
    "pipeline.score_set.calls": "count",
    "pipeline.score_set.rows": "count",
    "pipeline.calibrate_threshold.s": "s",
    "pipeline.calibrate_threshold.calls": "count",
    "pipeline.route_decision.s": "s",
    "pipeline.route_decision.calls": "count",
    "pipeline.discard_and_rescore.s": "s",
    "losses.objective_batch.s": "s",
    "losses.objective_batch.calls": "count",
    "losses.objective_batch.rows": "count",
    "training.train.s": "s",
    "training.train.self_s": "s",
    "training.evaluate_accuracy.s": "s",
    "config.load_config.s": "s",
    "config.load_config.calls": "count",
    "cli.main.self_s": "s",
    "cli.cmd_train.s": "s",
    "cli.cmd_screen.self_s": "s",
    "cli.cmd_screen.bytes": "B",
    "cli.cmd_eval.s": "s",
    "cli.cmd_eval.self_s": "s",
    "trace.op_untraced_ms": "ms",
    "trace.op_traced_ms": "ms",
    "trace.overhead_ms": "ms",
}


def run_cli(argv: list[str]) -> str:
    """Run one dpnet command in-process; return its stdout, raise if it fails."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"dpnet {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def prepare(work: Path) -> Path:
    """gen, train both roles, eval and a warm-up screen; returns the config path."""
    work.mkdir(parents=True)
    cfg = work / "config.json"
    config.save_config(config.default_config(str(work)), cfg)
    run_cli(["gen", "--config", str(cfg)])
    for role in ("classifier", "detector"):
        run_cli(["train", "--config", str(cfg), "--role", role])
    run_cli(["eval", "--config", str(cfg), *checkpoint_args(work)])
    run_cli(screen_argv(cfg, work, work / "in_test.csv"))
    return cfg


def checkpoint_args(work: Path) -> list[str]:
    return ["--checkpoint", str(work / "classifier.ckpt"), "--checkpoint", str(work / "detector.ckpt")]


def screen_argv(cfg: Path, work: Path, input_path: Path) -> list[str]:
    return ["screen", "--config", str(cfg), *checkpoint_args(work), "--input", str(input_path), "--out", str(work)]


def screening_mix(rows: int, seed: int):
    """Shuffled 50% in-domain, 25% shifted, 25% far-ring features."""
    import numpy as np

    ds = config.default_config().dataset
    s_in, s_shift, s_far, s_perm = (int(s) for s in np.random.SeedSequence([seed, rows]).generate_state(4))
    n_in, n_shift = rows // 2, rows // 4
    X = np.vstack([
        data.gen_in_domain(n_in, ds.classes, s_in).features,
        data.gen_shifted(n_shift, ds.classes, s_shift, ds.shift, ds.scale).features,
        data.gen_far_ood(rows - n_in - n_shift, s_far).features,
    ])
    return X[np.random.default_rng(s_perm).permutation(rows)]


class Screen:
    """screen_bulk (one file of many rows) and screen_requests (many small files)."""

    def __init__(self, seed: int, rows_per_file: int, files: int):
        self.seed, self.rows_per_file, self.files = seed, rows_per_file, files

    def setup(self, work: Path) -> None:
        self.work = work
        self.cfg = prepare(work)
        self.X = screening_mix(self.rows_per_file * self.files, self.seed)
        (work / "inputs").mkdir()
        self.inputs = []
        for i in range(self.files):
            path = work / "inputs" / f"{i}.csv"
            data.save_csv(path, data.ExampleSet(self.X[i * self.rows_per_file : (i + 1) * self.rows_per_file]))
            self.inputs.append(path)

    def reference(self) -> list[str]:
        screening = config.default_config().screening
        screener = oracle.Screener(
            self.work / "classifier.ckpt", self.work / "detector.ckpt", self.work / "in_val.csv",
            screening.drop_fraction_detector, screening.drop_fraction_classifier,
        )
        self.expected = screener.expected(self.X)
        return oracle.check_experiment(self.work, None)

    def op(self, k: int) -> tuple[int, str]:
        return self.rows_per_file, run_cli(screen_argv(self.cfg, self.work, self.inputs[k % self.files]))

    def check(self, k: int, stdout: str) -> list[str]:
        i = k % self.files
        want = self.expected.rows(i * self.rows_per_file, (i + 1) * self.rows_per_file)
        return oracle.check_decisions(self.work / "decisions.csv", stdout, want)

    def corrupt(self) -> None:
        path = self.work / "decisions.csv"
        lines = path.read_text().splitlines()
        row = lines[1].split(",")
        row[3], row[4] = ("discard", "") if row[3] != "discard" else ("trusted", "0")
        lines[1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")


class Train:
    """train --role classifier, train --role detector, eval; repeated with one config."""

    def setup(self, work: Path) -> None:
        self.work = work
        self.cfg = prepare(work)
        cfg = config.default_config()
        self.rows = cfg.dataset.train * (cfg.classifier.epochs + cfg.detector.epochs)

    def reference(self) -> list[str]:
        """Artifacts of the first set-up are what every later run must reproduce."""
        first = getattr(self, "artifacts", None)
        if first is None:
            self.artifacts = {n: (self.work / n).read_bytes() for n in oracle.EXPERIMENT_ARTIFACTS}
        return oracle.check_experiment(self.work, first)

    def op(self, k: int) -> tuple[int, str]:
        cfg = str(self.cfg)
        out = run_cli(["train", "--config", cfg, "--role", "classifier"])
        out += run_cli(["train", "--config", cfg, "--role", "detector"])
        out += run_cli(["eval", "--config", cfg, *checkpoint_args(self.work)])
        return self.rows, out

    def check(self, k: int, stdout: str) -> list[str]:
        return oracle.check_experiment(self.work, self.artifacts)

    def corrupt(self) -> None:
        path = self.work / "detection_rates.csv"
        lines = path.read_text().splitlines()
        lines = ["far_ood,0.05,0.5" if line.startswith("far_ood,0.05,") else line for line in lines]
        path.write_text("\n".join(lines) + "\n")


def make_workload(name: str, seed: int, tiny: bool):
    if name == "train":
        return Train()
    if name == "screen_bulk":
        return Screen(seed, BULK_ROWS // 100 if tiny else BULK_ROWS, 1)
    return Screen(seed, REQUEST_ROWS, 8 if tiny else REQUEST_FILES)


class Runner:
    """Runs, times and checks operations; tallies attempted and failed."""

    def __init__(self, workload, corrupt: bool):
        self.workload, self.corrupt = workload, corrupt
        self.attempted = self.failed = 0
        self.ops = 0

    def tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"check failed: {problems[:3]}", file=sys.stderr)

    def setup(self, work: Path) -> float:
        t0 = time.perf_counter()
        self.workload.setup(work)
        elapsed = time.perf_counter() - t0
        self.tally(self.workload.reference())
        return elapsed

    def op(self) -> tuple[float, int]:
        k, self.ops = self.ops, self.ops + 1
        t0 = time.perf_counter()
        try:
            rows, stdout = self.workload.op(k)
        except (RuntimeError, OSError, ValueError) as exc:
            self.tally([str(exc)])
            return time.perf_counter() - t0, 0
        elapsed = time.perf_counter() - t0
        if self.corrupt:
            self.workload.corrupt()
        try:
            problems = self.workload.check(k, stdout)
        except (OSError, ValueError) as exc:
            problems = [f"unreadable output: {exc}"]
        self.tally(problems)
        return elapsed, rows


def measure(runner: Runner, work: Path, seconds: float, repeats: int) -> dict[str, float]:
    setups = [runner.setup(work / f"setup{r}") for r in range(repeats)]
    times, rows = [], 0
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        elapsed, done = runner.op()
        times.append(elapsed)
        rows += done
    p50 = statistics.median(times)
    # the tail is printed, not gated: on a 2-core VM its quartile spread over ten seeds was 18% of its median
    p99 = sorted(times)[math.ceil(0.99 * len(times)) - 1]
    print(f"operation latency: p50 {1e3 * p50:.4g} ms, p99 {1e3 * p99:.4g} ms over {len(times)} operations")
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": 1e3 * p50,
        "rows_per_s": rows / len(times) / p50,
        "ops": len(times),
    }


def measure_traced(runner: Runner, work: Path, seconds: float, traced_ops: int) -> dict[str, float]:
    """Per-layer totals over a traced set-up plus ``traced_ops`` traced operations.

    ``network.forward_batch.rows_per_routed_row`` covers the operations
    alone. Traced and untraced operations alternate (swapping which goes
    first) until ``seconds`` have passed; the difference of their
    medians is the tracing overhead per operation.
    """
    tracer = tracing.Tracer()
    tracer.install()
    runner.setup(work / "setup0")
    tracer.uninstall()
    at_setup = tracer.summary()
    deadline = time.perf_counter() + seconds
    times = {True: [], False: []}
    metrics = None
    while metrics is None or time.perf_counter() < deadline:
        for traced in (True, False) if len(times[True]) % 2 else (False, True):
            if traced:
                tracer.install()
            try:
                times[traced].append(runner.op()[0])
            finally:
                tracer.uninstall()
        if len(times[True]) == traced_ops:
            metrics = tracer.summary()
        if metrics is not None:
            tracer.reset()
    forward_rows, routed = (
        metrics.get(key, 0) - at_setup.get(key, 0)
        for key in ("network.forward_batch.rows", "pipeline.route_decision.calls")
    )
    untraced, traced = (1e3 * statistics.median(times[t]) for t in (False, True))
    metrics.update({
        "network.forward_batch.rows_per_routed_row": forward_rows / routed if routed else 0.0,
        "trace.op_untraced_ms": untraced,
        "trace.op_traced_ms": traced,
        "trace.overhead_ms": traced - untraced,
        "ops": len(times[True]) + len(times[False]),
    })
    return metrics


def run_record(dpn_threads: str | None) -> dict:
    import numpy as np

    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "DPN_THREADS_in_environment": dpn_threads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, one set-up (self-test)")
    parser.add_argument("--corrupt", action="store_true", help="corrupt every output before checking (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dpnet" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'dpnet'} not found; run from the dpnet repository root", file=sys.stderr)
        return 2
    # measure the program's default thread count, whatever the caller's environment says
    dpn_threads = os.environ.pop("DPN_THREADS", None)

    # dpnet (and numpy, through it) is imported here so that setup_s includes the import
    global cli, config, data, oracle, tracing
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from dpnet import cli, config, data

    import_s = time.perf_counter() - t0
    import oracle
    import tracing

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    runner = Runner(make_workload(args.workload, args.seed, args.tiny), args.corrupt)
    try:
        if args.trace:
            results = measure_traced(runner, work, args.seconds, TRACED_OPS[args.workload])
            names = PER_LAYER
        else:
            results = measure(runner, work, args.seconds, 1 if args.tiny else SETUP_REPEATS)
            results["setup_s"] += import_s
            results["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            names = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    print("record " + json.dumps(run_record(dpn_threads), sort_keys=True))
    print(f"{args.workload}: {results['ops']} operations, {runner.failed}/{runner.attempted} checks failed")
    metrics = {name: {"value": results.get(name, 0.0), "unit": unit} for name, unit in names.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
