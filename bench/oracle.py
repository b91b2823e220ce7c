"""Independent reference for checking dpnet's screening and training outputs.

Nothing here imports dpnet. Checkpoints and dataset CSVs are parsed
from their documented formats, the forward pass is plain NumPy, the
mutual information uses ``scipy.special.digamma``, and thresholds come
from a rank rule written against the decimal drop fraction. Every
check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.special import digamma

LOGIT_CLAMP = 30.0  # concentrations are exp(logit) with |logit| clamped to this
TOLERANCE = 1e-9  # allowed |score - reference|; also the excuse band around a threshold
OUTCOMES = ("trusted", "human_review", "discard")
EXPERIMENT_ARTIFACTS = (
    "classifier.ckpt",
    "classifier_report.json",
    "detector.ckpt",
    "detector_report.json",
    "scores.csv",
    "detection_rates.csv",
    "rescore_auroc.csv",
)
MIN_TEST_ACCURACY = 0.95
MIN_FAR_OOD_RATE = 0.90  # far-OOD detection rate at drop fraction 0.05


@dataclass(frozen=True)
class Model:
    weights: tuple[np.ndarray, ...]  # weights[l] has shape (out_l, in_l)
    biases: tuple[np.ndarray, ...]
    activation: str

    def logits(self, X: np.ndarray) -> np.ndarray:
        h = X
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.einsum("ni,oi->no", h, w) + b
            if l < len(self.weights) - 1:
                h = np.maximum(h, 0.0) if self.activation == "relu" else np.tanh(h)
        return h


def read_checkpoint(path) -> Model:
    """Parse the ``dpnet-v1`` format: magic, sizes, activation, float64 blob."""
    magic, sizes_line, activation, blob = Path(path).read_bytes().split(b"\n", 3)
    if magic != b"dpnet-v1":
        raise ValueError(f"{path}: unexpected checkpoint magic {magic!r}")
    sizes = [int(t) for t in sizes_line.split(b",")]
    flat = np.frombuffer(blob, dtype="<f8")
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[pos : pos + fan_in * fan_out].reshape(fan_out, fan_in))
        pos += fan_in * fan_out
        biases.append(flat[pos : pos + fan_out])
        pos += fan_out
    if pos != flat.size:
        raise ValueError(f"{path}: parameter blob has {flat.size} values, expected {pos}")
    return Model(tuple(weights), tuple(biases), activation.decode("ascii"))


def read_dataset(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Features and labels (None when unlabeled) of a dataset CSV."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        dim = int(header[0].removeprefix("features:"))
        labeled = header[1] == "label:1"
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if table.shape[1] != dim + labeled:
        raise ValueError(f"{path}: expected {dim + labeled} columns, found {table.shape[1]}")
    labels = table[:, dim].astype(np.int64) if labeled else None
    return table[:, :dim], labels


def mutual_information(Z: np.ndarray) -> np.ndarray:
    """I[y, pi] = H[E pi] - E H[pi] for Dir(exp(Z)), one value per row."""
    alpha = np.exp(np.clip(Z, -LOGIT_CLAMP, LOGIT_CLAMP))
    a0 = alpha.sum(axis=1, keepdims=True)
    log_p = np.log(alpha) - np.log(a0)
    p = alpha / a0
    entropy_of_mean = -(p * log_p).sum(axis=1)
    mean_entropy = -(p * (digamma(alpha + 1.0) - digamma(a0 + 1.0))).sum(axis=1)
    return entropy_of_mean - mean_entropy


def threshold(scores: np.ndarray, drop_fraction: float) -> float:
    """Largest score kept when floor(p * N) of N scores are dropped.

    p is taken as the decimal the config states, so the drop count is
    exact rational arithmetic rather than a float product.
    """
    n = scores.size
    drop = math.floor(Fraction(repr(float(drop_fraction))) * n)
    return float(np.sort(scores)[n - 1 - drop])


@dataclass(frozen=True)
class Expected:
    """Reference decisions for one input set."""

    s_d: np.ndarray
    s_c: np.ndarray
    outcome: np.ndarray  # indices into OUTCOMES
    predicted: np.ndarray
    excused: np.ndarray  # rows within TOLERANCE of a threshold

    def __len__(self) -> int:
        return int(self.s_d.size)

    def rows(self, start: int, stop: int) -> "Expected":
        return Expected(*(a[start:stop] for a in (
            self.s_d, self.s_c, self.outcome, self.predicted, self.excused
        )))


class Screener:
    """Reference for ``dpnet screen``: both models plus calibrated thresholds."""

    def __init__(self, classifier_path, detector_path, val_path, drop_d: float, drop_c: float):
        self.classifier = read_checkpoint(classifier_path)
        self.detector = read_checkpoint(detector_path)
        val, _ = read_dataset(val_path)
        self.tau_d = threshold(mutual_information(self.detector.logits(val)), drop_d)
        self.tau_c = threshold(mutual_information(self.classifier.logits(val)), drop_c)

    def expected(self, X: np.ndarray) -> Expected:
        s_d, Zc = [], []
        for i in range(0, len(X), 8192):  # in blocks, so checking needs less memory than screening
            block = X[i : i + 8192]
            s_d.append(mutual_information(self.detector.logits(block)))
            Zc.append(self.classifier.logits(block))
        s_d, Zc = np.concatenate(s_d), np.concatenate(Zc)
        s_c = mutual_information(Zc)
        outcome = np.where(s_c > self.tau_c, 2, np.where(s_d > self.tau_d, 1, 0))
        excused = (np.abs(s_d - self.tau_d) <= TOLERANCE) | (np.abs(s_c - self.tau_c) <= TOLERANCE)
        return Expected(s_d, s_c, outcome, Zc.argmax(axis=1), excused)


def check_decisions(path, stdout: str, want: Expected) -> list[str]:
    """Compare a ``decisions.csv`` and the screen command's stdout with the reference."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "id,s_d,s_c,outcome,predicted_class":
        return [f"{path}: bad header"]
    rows = lines[1:]
    if len(rows) != len(want):
        return [f"{path}: {len(rows)} rows, expected {len(want)}"]
    problems = []
    counts = dict.fromkeys(OUTCOMES, 0)
    for i, line in enumerate(rows):
        fields = line.split(",")
        try:
            s_d, s_c = float(fields[1]), float(fields[2])
        except (IndexError, ValueError):
            fields = []
        if len(fields) != 5 or fields[0] != str(i) or fields[3] not in counts:
            problems.append(f"row {i}: malformed {line!r}")
            continue
        counts[fields[3]] += 1
        if not (abs(s_d - want.s_d[i]) <= TOLERANCE and abs(s_c - want.s_c[i]) <= TOLERANCE):
            problems.append(f"row {i}: scores {s_d!r},{s_c!r} vs {want.s_d[i]!r},{want.s_c[i]!r}")
        if want.excused[i]:
            continue
        outcome = OUTCOMES[want.outcome[i]]
        cls = "" if outcome == "discard" else str(want.predicted[i])
        if (fields[3], fields[4]) != (outcome, cls):
            problems.append(f"row {i}: {fields[3]},{fields[4]} vs {outcome},{cls}")
    printed = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep and key in counts:
            printed[key] = int(value)
    if printed != counts:
        problems.append(f"stdout counts {printed} vs file counts {counts}")
    return problems


def check_experiment(out: Path, reference: dict[str, bytes] | None) -> list[str]:
    """Criterion-4 bounds on a gen/train/eval directory, plus byte identity.

    ``reference`` maps each of EXPERIMENT_ARTIFACTS to the bytes an
    earlier run with the same config wrote; None skips that comparison.
    """
    problems = []
    X, y = read_dataset(out / "in_test.csv")
    accuracy = float((read_checkpoint(out / "classifier.ckpt").logits(X).argmax(axis=1) == y).mean())
    if accuracy < MIN_TEST_ACCURACY:
        problems.append(f"test accuracy {accuracy:.4f} < {MIN_TEST_ACCURACY}")
    rates = {}
    for line in (out / "detection_rates.csv").read_text().splitlines()[1:]:
        name, p, rate = line.split(",")
        rates[(name, float(p))] = float(rate)
    far = rates.get(("far_ood", 0.05), -1.0)
    if far < MIN_FAR_OOD_RATE:
        problems.append(f"far-OOD detection {far} at 5% < {MIN_FAR_OOD_RATE}")
    if reference is not None:
        differ = [n for n in EXPERIMENT_ARTIFACTS if (out / n).read_bytes() != reference[n]]
        if differ:
            problems.append(f"artifacts differ from the first run: {differ}")
    return problems
