"""Closed-form Dirichlet math for logit-parameterized class posteriors.

A length-K logit vector z maps to Dirichlet concentration parameters
alpha_k = exp(z_k), so a single forward pass yields a distribution over
the probability simplex rather than a point prediction. Everything
derived from those concentrations lives here: the mutual information
between the label and the simplex draw (the distributional-uncertainty
score), the digamma function it needs, and the density on a lattice
of simplex points.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_LOGIT_CLAMP",
    "ConcentrationParams",
    "logits_to_alpha",
    "digamma",
    "mutual_information",
    "density_grid",
]

DEFAULT_LOGIT_CLAMP = 30.0  # exp(+-30) stays comfortably inside float64 range

# Digamma: every argument is shifted up by _SHIFT with the recurrence
# psi(x) = psi(x + 1) - 1/x, then the de Moivre expansion
# psi(x) ~ ln x - 1/(2x) - sum_n B_{2n} / (2n x^{2n}) is applied.
# _TAIL holds B_{2n}/(2n) for n = 1..8.
_SHIFT = 6
_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
)


def _as_vector(x, name: str) -> np.ndarray:
    arr = np.array(x, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"{name} must be a 1-D vector with at least 2 entries")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class ConcentrationParams:
    """Strictly positive concentrations alpha; their sum is the precision alpha_0."""

    alpha: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_vector(self.alpha, "alpha")
        if np.any(arr <= 0.0):
            raise ValueError("alpha entries must be strictly positive")
        arr.setflags(write=False)
        object.__setattr__(self, "alpha", arr)

    @classmethod
    def from_alpha(cls, alpha) -> "ConcentrationParams":
        """The same as ``ConcentrationParams(alpha)``, under the name the acceptance tests use."""
        return cls(alpha)

    @property
    def precision(self) -> float:
        return float(self.alpha.sum())

    @property
    def num_classes(self) -> int:
        return int(self.alpha.size)


def _alpha_rows(Z: np.ndarray) -> np.ndarray:
    """alpha = exp(z) of every logit in an array, with |z| clamped to DEFAULT_LOGIT_CLAMP."""
    return np.exp(np.clip(Z, -DEFAULT_LOGIT_CLAMP, DEFAULT_LOGIT_CLAMP))


def logits_to_alpha(z) -> ConcentrationParams:
    """Map logits to concentrations alpha_k = exp(z_k): ``_alpha_rows`` on one vector."""
    return ConcentrationParams(_alpha_rows(_as_vector(z, "z")))


def digamma(x):
    """Digamma psi(x) = d/dx ln Gamma(x) for x > 0.

    Accepts a scalar or an ndarray. Every argument is shifted by six
    with the recurrence psi(x) = psi(x + 1) - 1/x, so the asymptotic
    expansion applies everywhere without a data-dependent loop;
    accuracy is ~1e-13 absolute on [1e-3, 1e6].
    """
    arr = np.array(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("digamma requires x > 0")
    acc = 1.0 / arr
    for k in range(1, _SHIFT):
        acc += 1.0 / (arr + k)
    v = arr + _SHIFT
    r = 1.0 / (v * v)
    tail = np.zeros_like(v)
    for c in reversed(_TAIL):
        tail = r * (c + tail)
    out = np.log(v) - 0.5 / v - tail - acc
    return float(out) if out.ndim == 0 else out


def _mutual_information_rows(alpha: np.ndarray) -> np.ndarray:
    """Row-wise mutual information for an (n, K) array of concentrations."""
    a0 = alpha.sum(axis=1, keepdims=True)
    # one digamma call for psi(alpha_k + 1) and psi(alpha_0 + 1)
    psi = digamma(np.concatenate([alpha, a0], axis=1) + 1.0)
    terms = psi[:, :-1] - psi[:, -1:]
    terms -= np.log(alpha) - np.log(a0)
    return (alpha / a0 * terms).sum(axis=1)


def mutual_information(params: ConcentrationParams) -> float:
    """Mutual information between the class label and the simplex draw.

    I = sum_k p_k [psi(alpha_k + 1) - psi(alpha_0 + 1) - ln p_k] with
    p_k = alpha_k / alpha_0. Log terms are evaluated as ln alpha_k -
    ln alpha_0 to avoid cancellation for extreme concentrations. Near 0
    for sharp unimodal Dirichlets, approaches ln K for sharp
    multi-modal ones (all alpha_k << 1).
    """
    return float(_mutual_information_rows(params.alpha[None, :])[0])


def density_grid(params: ConcentrationParams, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet density over a strictly interior barycentric lattice, K = 3.

    The two free coordinates are offset by half a lattice step,
    mu = ((i + 1/2)/r, (j + 1/2)/r, 1 - mu1 - mu2), enumerated row-major
    in (i, j). Returns (points, densities) with points of shape (m, 3);
    m = r(r-1)/2 and every cell has area 1/r^2, so densities.sum()/r^2
    approximates the (unit) total mass.
    """
    if params.num_classes != 3:
        raise ValueError("density_grid supports exactly 3 classes")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    r = int(resolution)
    i, j = np.nonzero(np.add.outer(np.arange(r - 1), np.arange(r - 1)) <= r - 2)
    mu1 = (i + 0.5) / r
    mu2 = (j + 0.5) / r
    points = np.column_stack([mu1, mu2, 1.0 - mu1 - mu2])
    alpha = params.alpha
    norm = math.lgamma(params.precision) - sum(math.lgamma(a) for a in alpha)
    densities = np.exp(norm + np.log(points) @ (alpha - 1.0))
    return points, densities
