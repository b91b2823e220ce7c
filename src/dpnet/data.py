"""Synthetic benchmark data, CSV serialization, and the median filter.

In-domain data is K unit-variance Gaussian clusters centered on a
radius-4 circle. It is the shifted generator at shift 0 and scale 1;
other settings translate the centers and rescale the features (a mild
covariate-shift analog). The far generator samples a radius-12 ring,
well clear of the clusters. All randomness flows from explicit seeds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _atomic

__all__ = [
    "CLUSTER_RADIUS",
    "RING_RADIUS",
    "RING_NOISE",
    "CHUNK_ROWS",
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


def gen_shifted(n: int, classes: int, seed: int, shift: float, scale: float) -> ExampleSet:
    """Cluster mixture with centers translated by (shift, shift) and features scaled."""
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
    with np.errstate(over="ignore"):  # a scale that overflows is refused by ExampleSet, without a numpy warning
        features = scale * np.vstack(blocks)
    labels = np.repeat(np.arange(classes), counts)
    return ExampleSet(features, labels)


def gen_in_domain(n: int, classes: int, seed: int) -> ExampleSet:
    """Balanced labeled sample from the in-domain cluster mixture."""
    return gen_shifted(n, classes, seed, shift=0.0, scale=1.0)


def gen_far_ood(n: int, seed: int) -> ExampleSet:
    """Unlabeled points on the radius-12 ring with +-0.5 radial noise."""
    if n < 1:
        raise ValueError("need at least one example")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    radius = RING_RADIUS + rng.uniform(-RING_NOISE, RING_NOISE, n)
    return ExampleSet(np.column_stack([radius * np.cos(theta), radius * np.sin(theta)]))


# Rows per piece when a CSV is read or written: memory beyond the arrays
# stays fixed however many rows the file has.
CHUNK_ROWS = 8192


def save_csv(path, examples: ExampleSet) -> None:
    """Write examples with the header ``features:<d>,label:<0|1>``, CHUNK_ROWS rows at a time.

    Floats are written with repr so a load round-trips bit-identically.
    """
    labeled = examples.labels is not None
    with _atomic.write(path) as fh:
        fh.write(f"features:{examples.dim},label:{int(labeled)}\n".encode())
        for i in range(0, len(examples), CHUNK_ROWS):
            columns = [map(repr, c) for c in examples.features[i : i + CHUNK_ROWS].T.tolist()]
            if labeled:
                columns.append(map(str, examples.labels[i : i + CHUNK_ROWS].tolist()))
            fh.write(("\n".join(map(",".join, zip(*columns))) + "\n").encode())


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
    # numpy refuses a row shape whose float64 bytes overflow its signed size type; int() also reads '_' and non-ASCII digits
    if not 1 <= dim <= np.iinfo(np.intp).max // 8 or flag not in (0, 1) or "_" in line or not line.strip().isascii():
        raise ValueError(f"{path}:1: malformed header counts")
    return dim, bool(flag)


def _pieces(path, raw: bytes | None):
    """(number of the first line, lines) of each piece of CHUNK_ROWS lines of the file, or of ``raw``.

    A piece ends right after b"\\n", which no UTF-8 sequence holds and where
    str.splitlines always ends a line, so the pieces' lines are the whole text's.
    A piece that is not UTF-8 yields its lines before the bad one, then raises.
    """
    first = 1
    with open(path, "rb") if raw is None else io.BytesIO(raw) as fh:
        while piece := b"".join(itertools.islice(fh, CHUNK_ROWS)):
            try:
                lines = piece.decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:
                lines = (piece[: exc.start].decode("utf-8") + "-").splitlines()[:-1]
                if lines:
                    yield first, lines
                raise ValueError(f"{path}:{first + len(lines)}: not UTF-8 ({exc.reason})") from None
            yield first, lines
            first += len(lines)


def _parse_lines(lines: list[str], dim: int, labeled: bool, classes: int | None):
    """(features, labels or None) of data lines, blank ones skipped: the one copy of the row rules.

    A broken rule raises ValueError naming the first one in this order,
    without a line number: field count, numeric feature, finite feature,
    integer label, label >= 0, label < ``classes``, label < 2**63.
    """
    want = dim + (1 if labeled else 0)
    rows = list(filter(str.strip, lines))
    commas = list(map(str.count, rows, itertools.repeat(",")))
    if commas.count(want - 1) != len(rows):
        got = next(c for c in commas if c != want - 1) + 1
        raise ValueError(f"expected {want} fields, got {got}")
    text = ",".join(rows)
    tokens = text.split(",") if rows else []
    plain = text.isascii() and "_" not in text  # Python's float and int also read '_' and non-ASCII digits
    labels = None
    if labeled:
        labels = tokens[dim::want]
        del tokens[dim::want]
    if not plain and any(not t.isascii() or "_" in t for t in tokens):
        raise ValueError("non-numeric feature")
    try:  # np.array converts each str with Python's float
        features = np.array(tokens, dtype=float).reshape(len(rows), dim)
    except ValueError:
        raise ValueError("non-numeric feature") from None
    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite feature")
    if labels is None:
        return features, None
    if not plain:  # the features are plain, so a label is not
        raise ValueError("label must be an integer")
    try:
        labels = [int(t) for t in labels]
    except ValueError:
        raise ValueError("label must be an integer") from None
    # range-checked as Python ints, so the int64 array cannot overflow
    low, high = min(labels, default=0), max(labels, default=0)
    if low < 0:
        raise ValueError("label must be >= 0")
    if classes is not None and high >= classes:
        raise ValueError(f"label {high} >= {classes} classes")
    if high >= 2**63:
        raise ValueError("label must be < 2**63")
    return features, np.array(labels, dtype=np.int64)


def _parse_rows(path, lines: list[str], first: int, dim: int, labeled: bool, classes: int | None):
    """(features, labels or None) of data lines numbered from ``first``.

    The lines are parsed all at once; only when that fails are they
    parsed one at a time, to name the first malformed one.
    """
    try:
        return _parse_lines(lines, dim, labeled, classes)
    except ValueError:
        for lineno, line in enumerate(lines, start=first):
            try:
                _parse_lines([line], dim, labeled, classes)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        raise


def load_csv(path, classes: int | None = None, raw: bytes | None = None) -> ExampleSet:
    """Parse a dataset CSV CHUNK_ROWS lines at a time; malformed input raises naming its first bad line.

    With ``classes`` given, a label >= ``classes`` is malformed too. With
    ``raw`` given, those bytes are parsed as the file at ``path``, unopened.
    """
    with contextlib.closing(_pieces(path, raw)) as pieces:
        _, lines = next(pieces, (1, []))
        if not lines or not lines[0].strip():
            raise ValueError(f"{path}:1: missing header")
        dim, labeled = _parse_header(lines[0], path)
        parsed = [_parse_rows(path, lines[1:], 2, dim, labeled, classes)]
        parsed += [_parse_rows(path, lines, first, dim, labeled, classes) for first, lines in pieces]
    features = np.concatenate([f for f, _ in parsed])
    return ExampleSet(features, np.concatenate([k for _, k in parsed]) if labeled else None)


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
