"""Uncertainty scoring, threshold calibration, and dual-threshold routing.

The detector's mutual-information score decides between automatic
acceptance and human review; the classifier's score guards against
inputs the whole system should refuse. Thresholds come from in-domain
validation scores: keeping fraction 1 - p below tau drops at most
floor(p * N) validation examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import ExampleSet
from .dirichlet import DEFAULT_LOGIT_CLAMP, _mutual_information_rows
from .network import FeedForwardModel, forward_batch

__all__ = [
    "REFERABLE_CLASS",
    "ScoreKind",
    "ScreeningThresholds",
    "Outcome",
    "ScreeningDecision",
    "RescoreRow",
    "score_set",
    "calibrate_threshold",
    "route_decision",
    "auroc",
    "ood_detection_rate",
    "discard_and_rescore",
]

# Class index treated as "flag for referral" when rescoring retained examples.
REFERABLE_CLASS = 0


class ScoreKind(str, Enum):
    MUTUAL_INFORMATION = "mutual_information"
    ENTROPY = "entropy"


class Outcome(str, Enum):
    TRUSTED = "trusted"
    HUMAN_REVIEW = "human_review"
    DISCARD = "discard"


@dataclass(frozen=True)
class ScreeningThresholds:
    tau_d: float
    tau_c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tau_d) and math.isfinite(self.tau_c)):
            raise ValueError("thresholds must be finite")


@dataclass(frozen=True)
class ScreeningDecision:
    outcome: Outcome
    s_d: float
    s_c: float
    predicted_class: int | None


@dataclass(frozen=True)
class RescoreRow:
    drop_fraction: float
    retained: int
    auroc: float  # nan when a class is absent after discarding


def _scores_for_block(model: FeedForwardModel, block: np.ndarray, kind: ScoreKind) -> np.ndarray:
    Z = forward_batch(model, block)
    alpha = np.exp(np.clip(Z, -DEFAULT_LOGIT_CLAMP, DEFAULT_LOGIT_CLAMP))
    if kind is ScoreKind.MUTUAL_INFORMATION:
        return _mutual_information_rows(alpha)
    if kind is ScoreKind.ENTROPY:
        p = alpha / alpha.sum(axis=1, keepdims=True)
        return -(p * np.log(p)).sum(axis=1)
    raise ValueError(f"unknown score kind {kind!r}")


_SCORE_BLOCK = 256  # fixed so a row's score never depends on the input size


def score_set(model: FeedForwardModel, features: np.ndarray, kind: ScoreKind) -> np.ndarray:
    """Scores for every row of a feature matrix, in row order.

    Rows are scored in fixed 256-row blocks, so the floating-point
    reduction shapes, and with them the scores, are the same whatever
    the number of rows.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D array")
    if X.shape[0] == 0:
        return np.zeros(0)
    blocks = range(0, X.shape[0], _SCORE_BLOCK)
    return np.concatenate([_scores_for_block(model, X[i : i + _SCORE_BLOCK], kind) for i in blocks])


def calibrate_threshold(scores, drop_fraction: float) -> float:
    """Score at ascending rank ceil((1 - p) * N); strictly larger scores drop.

    Exactly floor(p * N) validation scores exceed the threshold when
    scores are distinct, never more.
    """
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("scores must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores must be finite")
    p = float(drop_fraction)
    if not 0.0 < p < 1.0:
        raise ValueError("drop_fraction must lie in (0, 1)")
    n = arr.size
    # rank = n - floor(p n) equals ceil((1 - p) n); the epsilon guards
    # against p * n landing just below an exact integer in float math
    drop = int(math.floor(p * n + 1e-9))
    return float(np.sort(arr)[n - drop - 1])


def route_decision(
    s_d: float,
    s_c: float,
    thresholds: ScreeningThresholds,
    predicted_class: int,
) -> ScreeningDecision:
    """Dual-threshold routing; scores at a threshold are not flagged."""
    if not (math.isfinite(s_d) and math.isfinite(s_c)):
        raise ValueError("scores must be finite")
    if s_c > thresholds.tau_c:
        return ScreeningDecision(Outcome.DISCARD, s_d, s_c, None)
    if s_d > thresholds.tau_d:
        return ScreeningDecision(Outcome.HUMAN_REVIEW, s_d, s_c, int(predicted_class))
    return ScreeningDecision(Outcome.TRUSTED, s_d, s_c, int(predicted_class))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    mid = (upper - counts + 1 + upper) / 2.0
    return mid[inverse]


def auroc(negative_scores, positive_scores) -> float:
    """P(score+ > score-) + 0.5 P(tie): the normalized Mann-Whitney U."""
    neg = np.asarray(negative_scores, dtype=float)
    pos = np.asarray(positive_scores, dtype=float)
    if neg.ndim != 1 or pos.ndim != 1 or neg.size == 0 or pos.size == 0:
        raise ValueError("both score groups must be nonempty 1-D arrays")
    if not (np.all(np.isfinite(neg)) and np.all(np.isfinite(pos))):
        raise ValueError("scores must be finite")
    ranks = _midranks(np.concatenate([neg, pos]))
    u = ranks[neg.size :].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (neg.size * pos.size))


def ood_detection_rate(scores, tau: float) -> float:
    """Fraction of scores strictly above the threshold."""
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("scores must be a nonempty 1-D array")
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    return float((arr > tau).mean())


def discard_and_rescore(
    classifier: FeedForwardModel,
    detector: FeedForwardModel,
    test_set: ExampleSet,
    val_set: ExampleSet,
    drop_fractions,
) -> list[RescoreRow]:
    """Referable-vs-rest AUROC on what survives detector-based discarding.

    For each fraction p the detector threshold is calibrated on
    in-domain validation scores (p = 0 keeps everything); the AUROC
    uses the classifier's posterior for the referable class on the
    retained test examples. A fraction whose retained set lacks one of
    the two groups gets auroc = nan rather than an error.
    """
    if test_set.labels is None:
        raise ValueError("test set must be labeled")
    if len(test_set) == 0 or len(val_set) == 0:
        raise ValueError("test and validation sets must not be empty")
    fractions = [float(p) for p in drop_fractions]
    if any(not 0.0 <= p < 1.0 for p in fractions):
        raise ValueError("drop fractions must lie in [0, 1)")

    s_test = score_set(detector, test_set.features, ScoreKind.MUTUAL_INFORMATION)
    s_val = score_set(detector, val_set.features, ScoreKind.MUTUAL_INFORMATION)
    Z = forward_batch(classifier, test_set.features)
    alpha = np.exp(np.clip(Z, -DEFAULT_LOGIT_CLAMP, DEFAULT_LOGIT_CLAMP))
    referable_prob = alpha[:, REFERABLE_CLASS] / alpha.sum(axis=1)
    is_referable = test_set.labels == REFERABLE_CLASS

    rows = []
    for p in fractions:
        tau = math.inf if p == 0.0 else calibrate_threshold(s_val, p)
        keep = s_test <= tau
        pos = referable_prob[keep & is_referable]
        neg = referable_prob[keep & ~is_referable]
        value = auroc(neg, pos) if pos.size and neg.size else math.nan
        rows.append(RescoreRow(p, int(keep.sum()), value))
    return rows
