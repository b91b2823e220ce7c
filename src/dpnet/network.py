"""Small dense feed-forward networks with exact analytic gradients.

A desk-scale stand-in for a large image backbone: a handful of dense
layers, relu or tanh hidden activations, raw logits out. Weights are
drawn from seeded generators so every model is reproducible, and
checkpoints round-trip byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CHECKPOINT_MAGIC",
    "FeedForwardModel",
    "GradientSet",
    "init_model",
    "forward",
    "forward_batch",
    "backward",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = "dpnet-v1"

_ACTIVATIONS = {
    "relu": (lambda s: np.maximum(s, 0.0), lambda s: (s > 0.0).astype(float)),
    "tanh": (np.tanh, lambda s: 1.0 - np.tanh(s) ** 2),
}


def _check_sizes(layer_sizes: tuple[int, ...]) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ValueError("layer_sizes needs an input and an output layer")
    if any(s < 1 for s in sizes):
        raise ValueError("layer sizes must be positive")
    if sizes[-1] < 2:
        raise ValueError("output layer needs at least 2 logits")
    return sizes


@dataclass
class FeedForwardModel:
    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]  # weights[l] has shape (out_l, in_l)
    biases: list[np.ndarray]
    activation: str = "relu"

    def __post_init__(self) -> None:
        self.layer_sizes = _check_sizes(self.layer_sizes)
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        n_layers = len(self.layer_sizes) - 1
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise ValueError("weights/biases do not match layer_sizes")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            want = (self.layer_sizes[l + 1], self.layer_sizes[l])
            if w.shape != want or b.shape != (want[0],):
                raise ValueError(f"layer {l}: parameter shape mismatch")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {l}: parameters must be finite")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "FeedForwardModel":
        return FeedForwardModel(
            self.layer_sizes,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.activation,
        )


@dataclass
class GradientSet:
    """Per-parameter gradients, same shapes as the model they came from."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_model(layer_sizes, seed: int, activation: str = "relu") -> FeedForwardModel:
    """Seeded He initialization: W ~ N(0, 2/fan_in), biases zero."""
    sizes = _check_sizes(tuple(layer_sizes))
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = math.sqrt(2.0 / fan_in)
        weights.append(rng.standard_normal((fan_out, fan_in)) * scale)
        biases.append(np.zeros(fan_out))
    return FeedForwardModel(sizes, weights, biases, activation)


def _forward_cached(model: FeedForwardModel, X: np.ndarray):
    """Batched forward pass keeping pre-activations and activations."""
    act, _ = _ACTIVATIONS[model.activation]
    pre = []
    acts = [X]
    h = X
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        s = h @ w.T + b
        pre.append(s)
        if l < last:
            h = act(s)
            acts.append(h)
    return pre[-1], pre, acts


def _as_batch(model: FeedForwardModel, x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size != model.input_dim:
        raise ValueError(f"{name} must be a vector of length {model.input_dim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr[None, :]


def forward(model: FeedForwardModel, x) -> np.ndarray:
    """Logits for a single input vector."""
    z, _, _ = _forward_cached(model, _as_batch(model, x, "x"))
    return z[0]


def forward_batch(model: FeedForwardModel, X) -> np.ndarray:
    """Logits for an (n, input_dim) batch."""
    arr = np.asarray(X, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != model.input_dim:
        raise ValueError(f"X must have shape (n, {model.input_dim})")
    if not np.all(np.isfinite(arr)):
        raise ValueError("X must be finite")
    return _forward_cached(model, arr)[0]


def _backward_cached(model: FeedForwardModel, pre, acts, dZ: np.ndarray) -> GradientSet:
    """Backpropagate upstream logit gradients dZ (n, K), summing over rows."""
    _, dact = _ACTIVATIONS[model.activation]
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = dZ
    for l in range(len(model.weights) - 1, -1, -1):
        grads_w[l] = delta.T @ acts[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.weights[l]) * dact(pre[l - 1])
    return GradientSet(grads_w, grads_b)


def backward(model: FeedForwardModel, x, dL_dz) -> GradientSet:
    """Exact parameter gradients for one input given dL/dz at the logits."""
    X = _as_batch(model, x, "x")
    dz = np.asarray(dL_dz, dtype=float)
    if dz.ndim != 1 or dz.size != model.num_classes:
        raise ValueError(f"dL_dz must be a vector of length {model.num_classes}")
    if not np.all(np.isfinite(dz)):
        raise ValueError("dL_dz must be finite")
    _, pre, acts = _forward_cached(model, X)
    return _backward_cached(model, pre, acts, dz[None, :])


def save_checkpoint(model: FeedForwardModel, path) -> None:
    """Write a model as a versioned header plus little-endian float64 blob."""
    header = "\n".join(
        [CHECKPOINT_MAGIC, ",".join(str(s) for s in model.layer_sizes), model.activation]
    )
    blocks = []
    for w, b in zip(model.weights, model.biases):
        blocks.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        blocks.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for block in blocks:
            fh.write(block)


def load_checkpoint(path) -> FeedForwardModel:
    """Read a checkpoint, validating magic, shape chain, and payload size."""
    with open(path, "rb") as fh:
        raw = fh.read()
    parts = raw.split(b"\n", 3)
    if len(parts) != 4:
        raise ValueError(f"{path}: truncated checkpoint header")
    magic, sizes_line, act_line, blob = parts
    if magic.decode("ascii", errors="replace") != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    try:
        sizes = _check_sizes(tuple(int(t) for t in sizes_line.decode("ascii").split(",")))
    except ValueError as exc:
        raise ValueError(f"{path}: bad layer sizes: {exc}") from None
    activation = act_line.decode("ascii", errors="replace")
    if activation not in _ACTIVATIONS:
        raise ValueError(f"{path}: unknown activation {activation!r}")
    counts = [(o * i, o) for i, o in zip(sizes[:-1], sizes[1:])]
    expect = 8 * sum(wn + bn for wn, bn in counts)
    if len(blob) != expect:
        raise ValueError(f"{path}: expected {expect} parameter bytes, found {len(blob)}")
    flat = np.frombuffer(blob, dtype="<f8").astype(float)
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"{path}: non-finite parameters")
    weights = []
    biases = []
    pos = 0
    for (wn, bn), (i, o) in zip(counts, zip(sizes[:-1], sizes[1:])):
        weights.append(flat[pos : pos + wn].reshape(o, i).copy())
        pos += wn
        biases.append(flat[pos : pos + bn].copy())
        pos += bn
    return FeedForwardModel(sizes, weights, biases, activation)
