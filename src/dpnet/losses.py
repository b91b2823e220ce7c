"""Training losses and the multi-task objective.

Two per-example losses over raw logits:

* in-domain: cross-entropy against the target label minus a sharpness
  term, -(lambda_in / K) sum_c sigmoid(z_c), which for positive
  lambda_in rewards large concentrations at training points;
* out-of-distribution: cross-entropy between the uniform distribution
  and the predicted posterior, with the same sigmoid term weighted by
  lambda_out (negative values flatten the Dirichlet below alpha_k = 1).

Both are one row loss with a different target row. The batch objective
mixes one in-domain batch with a gamma-weighted batch from each
out-of-distribution source in one stacked forward and backward pass,
and returns loss parts plus parameter gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import FeedForwardModel, GradientSet, _backward_cached, _forward_cached

__all__ = [
    "loss_in",
    "loss_out",
    "OodTerm",
    "ObjectiveConfig",
    "ObjectiveResult",
    "objective_batch",
]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_softmax(Z: np.ndarray) -> np.ndarray:
    shifted = Z - Z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _check_logits(z) -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("z must be a 1-D logit vector with K >= 2")
    if not np.all(np.isfinite(arr)):
        raise ValueError("z must be finite")
    return arr


def _loss_rows(Z: np.ndarray, target: np.ndarray, lam: np.ndarray):
    """Per-row loss and dL/dZ for (n, K) logits.

    Each row is the cross-entropy against its target distribution
    (one-hot in-domain, uniform 1/K out of distribution) minus
    (lam / K) sum_c sigmoid(z_c), with one lambda per row.
    """
    c = lam / Z.shape[1]
    logp = _log_softmax(Z)
    sig = _sigmoid(Z)
    losses = -(target * logp).sum(axis=1) - c * sig.sum(axis=1)
    dZ = np.exp(logp) - target - c[:, None] * sig * (1.0 - sig)
    return losses, dZ


def loss_in(z, label: int, lambda_in: float):
    """In-domain loss and its logit gradient for one example."""
    arr = _check_logits(z)
    y = int(label)
    if not 0 <= y < arr.size:
        raise ValueError(f"label {y} outside [0, {arr.size})")
    losses, dZ = _loss_rows(arr[None, :], np.eye(arr.size)[[y]], np.array([float(lambda_in)]))
    return float(losses[0]), dZ[0]


def loss_out(z, lambda_out: float):
    """Out-of-distribution loss and its logit gradient for one example."""
    arr = _check_logits(z)
    target = np.full((1, arr.size), 1.0 / arr.size)
    losses, dZ = _loss_rows(arr[None, :], target, np.array([float(lambda_out)]))
    return float(losses[0]), dZ[0]


@dataclass(frozen=True)
class OodTerm:
    """One out-of-distribution source: mixing weight gamma and its lambda."""

    gamma: float
    lambda_out: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError("gamma must be finite and >= 0")
        if not math.isfinite(self.lambda_out):
            raise ValueError("lambda_out must be finite")


@dataclass(frozen=True)
class ObjectiveConfig:
    lambda_in: float
    ood_terms: tuple[OodTerm, ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.lambda_in):
            raise ValueError("lambda_in must be finite")
        object.__setattr__(self, "ood_terms", tuple(self.ood_terms))


@dataclass
class ObjectiveResult:
    total: float
    in_loss: float
    ood_losses: tuple[float, ...]  # unweighted per-source means
    gradients: GradientSet


def objective_batch(
    model: FeedForwardModel,
    in_features: np.ndarray,
    in_labels: np.ndarray,
    ood_batches: list[np.ndarray],
    cfg: ObjectiveConfig,
) -> ObjectiveResult:
    """Mean in-domain loss plus gamma-weighted mean loss per OOD batch.

    The in-domain rows and then each OOD batch, in term order, are
    stacked into one batch: one forward pass, one per-row loss, and one
    backward pass on a dL/dZ already scaled by 1/n (in-domain) and
    gamma_j/m_j (source j). Rows enter each reduction in stacking order,
    so results are deterministic.
    """
    X = np.asarray(in_features, dtype=float)
    y = np.asarray(in_labels)
    d, k = model.input_dim, model.num_classes
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"in_features must have shape (n, {d})")
    n = X.shape[0]
    if n == 0:
        raise ValueError("in-domain batch must not be empty")
    if y.shape != (n,):
        raise ValueError("in_labels must match in_features rows")
    if not np.issubdtype(y.dtype, np.integer) or y.min() < 0 or y.max() >= k:
        raise ValueError(f"in_labels must be integers in [0, {k})")
    if len(ood_batches) != len(cfg.ood_terms):
        raise ValueError(
            f"got {len(ood_batches)} OOD batches for {len(cfg.ood_terms)} configured terms"
        )
    batches = [np.asarray(b, dtype=float) for b in ood_batches]
    for term, B in zip(cfg.ood_terms, batches):
        if B.ndim != 2 or B.shape[1] != d:
            raise ValueError(f"OOD batch must have shape (m, {d})")
        if B.shape[0] == 0 and term.gamma != 0.0:
            raise ValueError("empty OOD batch with nonzero gamma")
    S = np.concatenate([X, *batches])
    if not np.isfinite(S).all():
        raise ValueError("in_features and OOD batches must be finite")

    sizes = [n, *(len(B) for B in batches)]
    target = np.full((len(S), k), 1.0 / k)
    target[:n] = 0.0
    target[np.arange(n), y] = 1.0
    lam = np.repeat([cfg.lambda_in, *(t.lambda_out for t in cfg.ood_terms)], sizes)
    weight = np.repeat(
        [1.0 / n, *(t.gamma / max(m, 1) for t, m in zip(cfg.ood_terms, sizes[1:]))], sizes
    )

    Z, acts = _forward_cached(model, S)
    losses, dZ = _loss_rows(Z, target, lam)
    grads = _backward_cached(model, acts, dZ * weight[:, None])

    ends = np.cumsum([0, *sizes]).tolist()
    parts = [float(losses[a:b].mean()) if b > a else 0.0 for a, b in zip(ends, ends[1:])]
    total = parts[0] + sum(t.gamma * part for t, part in zip(cfg.ood_terms, parts[1:]))
    return ObjectiveResult(total, parts[0], tuple(parts[1:]), grads)
