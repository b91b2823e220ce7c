"""Small dense feed-forward networks with exact analytic gradients.

A desk-scale stand-in for a large image backbone: a handful of dense
layers, relu or tanh hidden activations, raw logits out. Weights are
drawn from seeded generators so every model is reproducible. All of a
model's parameters are one float64 vector: the checkpoint payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _atomic

__all__ = [
    "CHECKPOINT_MAGIC",
    "FeedForwardModel",
    "GradientSet",
    "NonFiniteLogits",
    "init_model",
    "forward",
    "forward_batch",
    "backward",
    "checkpoint_bytes",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = "dpnet-v1"

# (activation applied in place to the pre-activation s, its derivative in terms of the activation h)
_ACTIVATIONS = {
    "relu": (lambda s: np.maximum(s, 0.0, out=s), lambda h: h > 0.0),
    "tanh": (lambda s: np.tanh(s, out=s), lambda h: 1.0 - h**2),
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


def _param_count(sizes: tuple[int, ...]) -> int:
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


def _param_views(sizes: tuple[int, ...], flat: np.ndarray):
    """Views (weights, biases) into flat, laid out W0, b0, W1, b1, ...; no other code knows it."""
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
        pos += fan_out * fan_in
        biases.append(flat[pos : pos + fan_out])
        pos += fan_out
    return weights, biases


@dataclass(eq=False)  # == is identity: a field-wise == cannot compare arrays
class FeedForwardModel:
    """Dense network; the constructor copies params, the one float64 vector, and keeps per-layer views of the copy."""

    layer_sizes: tuple[int, ...]
    params: np.ndarray  # laid out as _param_views reads it
    activation: str = "relu"

    def __post_init__(self) -> None:
        self.layer_sizes = _check_sizes(self.layer_sizes)
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        self.params = np.array(self.params, dtype=float)
        if self.params.shape != (_param_count(self.layer_sizes),):
            raise ValueError(f"params must be a vector of length {_param_count(self.layer_sizes)}")
        if not np.isfinite(self.params).all():
            raise ValueError("parameters must be finite")
        self.weights, self.biases = _param_views(self.layer_sizes, self.params)  # weights[l] has shape (out_l, in_l)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "FeedForwardModel":
        """An independent model: the constructor copies the vector."""
        return FeedForwardModel(self.layer_sizes, self.params, self.activation)


@dataclass(eq=False)
class GradientSet:
    """Parameter gradients: one vector in the model's layout, with per-layer views."""

    flat: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_model(layer_sizes, seed: int, activation: str = "relu") -> FeedForwardModel:
    """Seeded He initialization: W ~ N(0, 2/fan_in), biases zero."""
    sizes = _check_sizes(tuple(layer_sizes))
    rng = np.random.default_rng(seed)
    params = np.zeros(_param_count(sizes))
    for w in _param_views(sizes, params)[0]:  # fan_in = w.shape[1]
        w[...] = rng.standard_normal(w.shape) * math.sqrt(2.0 / w.shape[1])
    return FeedForwardModel(sizes, params, activation)


def _forward_cached(model: FeedForwardModel, X: np.ndarray):
    """Batched forward pass returning the logits and the input of every layer."""
    act, _ = _ACTIVATIONS[model.activation]
    acts = [X]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        s = acts[-1] @ w.T
        s += b
        acts.append(act(s))
    z = acts[-1] @ model.weights[-1].T
    z += model.biases[-1]
    return z, acts


def _as_batch(model: FeedForwardModel, x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size != model.input_dim:
        raise ValueError(f"{name} must be a vector of length {model.input_dim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr[None, :]


class NonFiniteLogits(RuntimeError):
    """``model``'s forward pass overflowed on some row."""

    def __init__(self, model: FeedForwardModel):
        super().__init__("non-finite logits")
        self.model = model


def forward(model: FeedForwardModel, x) -> np.ndarray:
    """Logits for a single input vector: forward_batch on one row."""
    return forward_batch(model, _as_batch(model, x, "x"))[0]


_BLOCK_ROWS = 256  # BLAS picks its kernel by row count, so every pass has this many rows


def forward_batch(model: FeedForwardModel, X) -> np.ndarray:
    """Logits for an (n, input_dim) batch, one pass per _BLOCK_ROWS rows from row 0.

    A short last block is zero-padded, so a row's logits depend neither on n nor on the other rows.
    A non-finite logit on a given row raises NonFiniteLogits, without a numpy warning; the padding is never checked.
    """
    arr = np.asarray(X, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != model.input_dim:
        raise ValueError(f"X must have shape (n, {model.input_dim})")
    if not np.all(np.isfinite(arr)):
        raise ValueError("X must be finite")
    Z = np.empty((len(arr), model.num_classes))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(arr), _BLOCK_ROWS):
            rows = arr[i : i + _BLOCK_ROWS]
            block = np.zeros((_BLOCK_ROWS, model.input_dim))
            block[: len(rows)] = rows
            Z[i : i + len(rows)] = _forward_cached(model, block)[0][: len(rows)]
    if not np.isfinite(Z).all():
        raise NonFiniteLogits(model)
    return Z


def _backward_cached(model: FeedForwardModel, acts, dZ: np.ndarray) -> GradientSet:
    """Backpropagate upstream logit gradients dZ (n, K), summing over rows."""
    _, dact = _ACTIVATIONS[model.activation]
    flat = np.empty_like(model.params)
    grads_w, grads_b = _param_views(model.layer_sizes, flat)
    delta = dZ
    for l in range(len(model.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[l], out=grads_w[l])
        np.add.reduce(delta, axis=0, out=grads_b[l])
        if l > 0:
            delta = delta @ model.weights[l]
            delta *= dact(acts[l])
    return GradientSet(flat, grads_w, grads_b)


def backward(model: FeedForwardModel, x, dL_dz) -> GradientSet:
    """Exact parameter gradients for one input given dL/dz at the logits."""
    X = _as_batch(model, x, "x")
    dz = np.asarray(dL_dz, dtype=float)
    if dz.ndim != 1 or dz.size != model.num_classes:
        raise ValueError(f"dL_dz must be a vector of length {model.num_classes}")
    if not np.all(np.isfinite(dz)):
        raise ValueError("dL_dz must be finite")
    _, acts = _forward_cached(model, X)
    return _backward_cached(model, acts, dz[None, :])


def _sizes_line(sizes: tuple[int, ...]) -> str:
    return ",".join(str(s) for s in sizes)


def checkpoint_bytes(model: FeedForwardModel) -> bytes:
    """A versioned ASCII header plus little-endian float64 blob; the one form load_checkpoint reads."""
    header = "\n".join([CHECKPOINT_MAGIC, _sizes_line(model.layer_sizes), model.activation])
    return header.encode("ascii") + b"\n" + model.params.astype("<f8").tobytes()


def save_checkpoint(model: FeedForwardModel, path) -> None:
    with _atomic.write(path) as fh:
        fh.write(checkpoint_bytes(model))


def load_checkpoint(path) -> FeedForwardModel:
    """Read a checkpoint, validating magic, shape chain, payload size, and checkpoint_bytes' exact form."""
    with open(path, "rb") as fh:
        raw = fh.read()
    parts = raw.split(b"\n", 3)
    if len(parts) != 4:
        raise ValueError(f"{path}: truncated checkpoint header")
    magic, sizes_line, act_line, blob = parts
    if magic.decode("ascii", errors="replace") != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    try:
        text = sizes_line.decode("ascii")
        sizes = _check_sizes(tuple(int(t) for t in text.split(",")))
        if text != _sizes_line(sizes):
            raise ValueError(f"{text!r} is not written as {_sizes_line(sizes)!r}")
    except ValueError as exc:
        raise ValueError(f"{path}: bad layer sizes: {exc}") from None
    activation = act_line.decode("ascii", errors="replace")
    if activation not in _ACTIVATIONS:
        raise ValueError(f"{path}: unknown activation {activation!r}")
    expect = 8 * _param_count(sizes)
    if len(blob) != expect:
        raise ValueError(f"{path}: expected {expect} parameter bytes, found {len(blob)}")
    flat = np.frombuffer(blob, dtype="<f8")
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: non-finite parameters")
    return FeedForwardModel(sizes, flat, activation)
