"""Synthetic benchmark data, CSV serialization, and the median filter.

In-domain data is K unit-variance Gaussian clusters centered on a
radius-4 circle. The shifted generator reuses the same code path with
translated centers and rescaled features (a mild covariate-shift
analog); the far generator samples a radius-12 ring, well clear of the
clusters. All randomness flows from explicit seeds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "CLUSTER_RADIUS",
    "RING_RADIUS",
    "RING_NOISE",
    "ExampleSet",
    "GrayImage",
    "gen_in_domain",
    "gen_shifted",
    "gen_far_ood",
    "load_csv",
    "save_csv",
    "median_filter",
]

CLUSTER_RADIUS = 4.0
RING_RADIUS = 12.0
RING_NOISE = 0.5


@dataclass
class ExampleSet:
    """Feature matrix (n, d) with optional integer labels (n,)."""

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        self.features = feats
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (feats.shape[0],):
                raise ValueError("labels must have one entry per example")
            if labels.size and (not np.issubdtype(labels.dtype, np.integer) or labels.min() < 0):
                raise ValueError("labels must be nonnegative integers")
            self.labels = labels.astype(np.int64)

    def __len__(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])


def _cluster_centers(classes: int) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(classes) / classes
    return CLUSTER_RADIUS * np.column_stack([np.cos(angles), np.sin(angles)])


def _gen_clusters(n: int, classes: int, seed: int, shift: float, scale: float) -> ExampleSet:
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if n < classes:
        raise ValueError("need at least one example per class")
    if not (math.isfinite(shift) and math.isfinite(scale) and scale > 0.0):
        raise ValueError("shift must be finite and scale positive")
    rng = np.random.default_rng(seed)
    centers = _cluster_centers(classes) + shift
    counts = [n // classes + (1 if k < n % classes else 0) for k in range(classes)]
    blocks = [centers[k] + rng.standard_normal((counts[k], 2)) for k in range(classes)]
    features = scale * np.vstack(blocks)
    labels = np.repeat(np.arange(classes), counts)
    return ExampleSet(features, labels)


def gen_in_domain(n: int, classes: int, seed: int) -> ExampleSet:
    """Balanced labeled sample from the in-domain cluster mixture."""
    return _gen_clusters(n, classes, seed, shift=0.0, scale=1.0)


def gen_shifted(n: int, classes: int, seed: int, shift: float, scale: float) -> ExampleSet:
    """Cluster mixture with centers translated by (shift, shift) and features scaled."""
    return _gen_clusters(n, classes, seed, shift=shift, scale=scale)


def gen_far_ood(n: int, seed: int) -> ExampleSet:
    """Unlabeled points on the radius-12 ring with +-0.5 radial noise."""
    if n < 1:
        raise ValueError("need at least one example")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    radius = RING_RADIUS + rng.uniform(-RING_NOISE, RING_NOISE, n)
    return ExampleSet(np.column_stack([radius * np.cos(theta), radius * np.sin(theta)]))


def save_csv(path, examples: ExampleSet) -> None:
    """Write examples with the header ``features:<d>,label:<0|1>``.

    Floats are written with repr so a load round-trips bit-identically.
    """
    labeled = examples.labels is not None
    rows = [",".join(map(repr, row)) for row in examples.features.tolist()]
    if labeled:
        rows = [f"{row},{label}" for row, label in zip(rows, examples.labels.tolist())]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([f"features:{examples.dim},label:{int(labeled)}", *rows]) + "\n")


def _parse_header(line: str, path) -> tuple[int, bool]:
    parts = line.strip().split(",")
    if (
        len(parts) != 2
        or not parts[0].startswith("features:")
        or not parts[1].startswith("label:")
    ):
        raise ValueError(f"{path}:1: expected header 'features:<d>,label:<0|1>'")
    try:
        dim = int(parts[0].removeprefix("features:"))
        flag = int(parts[1].removeprefix("label:"))
    except ValueError:
        raise ValueError(f"{path}:1: malformed header counts") from None
    if dim < 1 or flag not in (0, 1):
        raise ValueError(f"{path}:1: malformed header counts")
    return dim, bool(flag)


def _raise_first_error(
    path, lines: list[str], dim: int, labeled: bool, classes: int | None
) -> None:
    """Check data lines one at a time and raise for the first malformed one."""
    want = dim + (1 if labeled else 0)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != want:
            raise ValueError(f"{path}:{lineno}: expected {want} fields, got {len(fields)}")
        try:
            row = [float(t) for t in fields[:dim]]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric feature") from None
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"{path}:{lineno}: non-finite feature")
        if labeled:
            try:
                label = int(fields[dim])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: label must be an integer") from None
            if label < 0:
                raise ValueError(f"{path}:{lineno}: label must be >= 0")
            if classes is not None and label >= classes:
                raise ValueError(f"{path}:{lineno}: label {label} >= {classes} classes")


def load_csv(path, classes: int | None = None) -> ExampleSet:
    """Parse a dataset CSV; malformed input raises with the line number.

    With ``classes`` given, a label >= ``classes`` is malformed too. The
    rows are parsed all at once; only when that fails are the lines
    checked one at a time, to name the first malformed one.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:  # read() decodes the whole file, so exc.object is all of it
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: not UTF-8 ({exc.reason})") from None
    if not lines or not lines[0].strip():
        raise ValueError(f"{path}:1: missing header")
    dim, labeled = _parse_header(lines[0], path)
    want = dim + (1 if labeled else 0)
    rows = list(filter(str.strip, lines[1:]))
    try:
        if list(map(str.count, rows, itertools.repeat(","))).count(want - 1) != len(rows):
            raise ValueError("wrong field count")
        tokens = ",".join(rows).split(",") if rows else []
        labels = None
        if labeled:
            labels = np.array([int(t) for t in tokens[dim::want]], dtype=np.int64)
            del tokens[dim::want]
            if labels.size and (
                labels.min() < 0 or classes is not None and labels.max() >= classes
            ):
                raise ValueError("label out of range")
        # np.array converts each str with Python's float, like the line check
        features = np.array(tokens, dtype=float).reshape(len(rows), dim)
        if not np.all(np.isfinite(features)):
            raise ValueError("non-finite feature")
    except ValueError:
        _raise_first_error(path, lines, dim, labeled, classes)
        raise
    return ExampleSet(features, labels)


@dataclass
class GrayImage:
    """Grayscale image with pixel intensities in [0, 1], row-major (h, w)."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels, dtype=float)
        if px.shape != (self.height, self.width) or self.width < 1 or self.height < 1:
            raise ValueError("pixels must have shape (height, width)")
        if not np.all(np.isfinite(px)) or px.min() < 0.0 or px.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")
        self.pixels = px


def median_filter(img: GrayImage, window: int) -> GrayImage:
    """Median filter with an odd square window and edge replication."""
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and positive")
    if window > min(img.width, img.height):
        raise ValueError("window exceeds image size")
    r = window // 2
    if r == 0:
        return GrayImage(img.width, img.height, img.pixels.copy())
    padded = np.pad(img.pixels, r, mode="edge")
    windows = sliding_window_view(padded, (window, window))
    return GrayImage(img.width, img.height, np.median(windows, axis=(2, 3)))
