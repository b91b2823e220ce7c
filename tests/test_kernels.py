"""Decisions do not depend on the CPU's kernels.

The default experiment (gen, train for both roles, eval) runs twice, each
in a child process: once in the environment as it is, and once with every
SIMD target numpy dispatches to on this CPU disabled by
NPY_DISABLE_CPU_FEATURES and OpenBLAS held to its Prescott kernels by
OPENBLAS_CORETYPE. Scores may move in their last bits between the two,
by at most 1e-12; the outcome and class of every row, the detection
rates and the rescore AUROCs may not. One line reports the disabled set
and the largest score difference.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpnet
from dpnet.config import default_config, save_config

umath = pytest.importorskip("numpy._core._multiarray_umath")

# prints the dispatch targets the child may use, then runs the experiment; argv: config, output directory
_EXPERIMENT = """
import sys
import numpy._core._multiarray_umath as umath
from dpnet import cli
print(" ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)), flush=True)
cfg, out = sys.argv[1:]
ckpts = ["--checkpoint", f"{out}/classifier.ckpt", "--checkpoint", f"{out}/detector.ckpt"]
for argv in (["gen"], ["train", "--role", "classifier"], ["train", "--role", "detector"], ["eval", *ckpts]):
    if cli.main([*argv, "--config", cfg]):
        sys.exit(f"{argv[0]} failed")
"""


def run_default(root: Path, name: str, env: dict) -> tuple[Path, list[str]]:
    """The default experiment's output directory, and the dispatch targets its process could use."""
    out, cfg = root / name, root / f"{name}.json"
    save_config(default_config(str(out)), cfg)
    src = str(Path(dpnet.__file__).parents[1])
    env = {**env, "PYTHONPATH": os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", _EXPERIMENT, str(cfg), str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return out, proc.stdout.splitlines()[0].split()


def read_scores(path: Path):
    """(s_d, s_c, (id, outcome, predicted_class) of each row) of a scores.csv."""
    ids, s_d, s_c, outcome, predicted = zip(*(line.split(",") for line in path.read_text().splitlines()[1:]))
    return np.array(s_d, dtype=float), np.array(s_c, dtype=float), list(zip(ids, outcome, predicted))


def test_decisions_do_not_depend_on_the_cpu_kernels(tmp_path, capsys):
    disabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not disabled:
        pytest.skip(f"this CPU has none of numpy's dispatch targets {umath.__cpu_dispatch__}")
    base, _ = run_default(tmp_path, "as_is", dict(os.environ))
    narrow_env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled), "OPENBLAS_CORETYPE": "Prescott"}
    narrow, left = run_default(tmp_path, "narrow", narrow_env)
    assert not set(left) & set(disabled), left

    s_d, s_c, decisions = read_scores(base / "scores.csv")
    narrow_d, narrow_c, narrow_decisions = read_scores(narrow / "scores.csv")
    changed = sum(a != b for a, b in zip(decisions, narrow_decisions))
    delta = max(np.abs(narrow_d - s_d).max(), np.abs(narrow_c - s_c).max())
    with capsys.disabled():
        print(
            f"[kernels] {' '.join(disabled)} disabled, OPENBLAS_CORETYPE=Prescott: "
            f"{changed} of {len(decisions)} decisions changed, largest score difference {delta:.2g}",
            flush=True,
        )
    assert narrow_decisions == decisions
    assert delta <= 1e-12
    for name in ("detection_rates.csv", "rescore_auroc.csv"):
        assert (narrow / name).read_bytes() == (base / name).read_bytes(), name
