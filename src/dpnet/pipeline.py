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
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .data import CHUNK_ROWS
from .dirichlet import _alpha_rows, _mutual_information_rows
from .network import FeedForwardModel, forward_batch

__all__ = [
    "REFERABLE_CLASS",
    "ScoreKind",
    "ScreeningThresholds",
    "Outcome",
    "RescoreRow",
    "ScreenScores",
    "score_set",
    "screen_scores",
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
class RescoreRow:
    drop_fraction: float
    retained: int
    auroc: float  # nan when a class is absent after discarding


def _block_scores(Z: np.ndarray, kind: ScoreKind) -> tuple[np.ndarray, np.ndarray]:
    """(score, referable posterior) rows from an (n, K) array of logits."""
    alpha = _alpha_rows(Z)
    a0 = alpha.sum(axis=1)
    referable = alpha[:, REFERABLE_CLASS] / a0
    if kind is ScoreKind.MUTUAL_INFORMATION:
        return _mutual_information_rows(alpha), referable
    p = alpha / a0[:, None]
    return -(p * np.log(p)).sum(axis=1), referable


def _score_rows(model: FeedForwardModel, features: np.ndarray, kind: ScoreKind | str):
    """(score, predicted class, referable posterior) of every row, in row order.

    Logits and the Dirichlet math run once per data.CHUNK_ROWS rows. Every
    reduction, forward_batch's blocks included, has a fixed shape per row, so
    a row's results do not depend on the rows scored with it. A non-finite
    logit raises forward_batch's NonFiniteLogits; an unknown ``kind`` (a
    ScoreKind or its wire value) raises ValueError before any row is scored.
    """
    kind = ScoreKind(kind)
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D array")
    n = X.shape[0]
    score, predicted, referable = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n)
    for i in range(0, n, CHUNK_ROWS):
        rows = slice(i, i + CHUNK_ROWS)
        Z = forward_batch(model, X[rows])
        score[rows], referable[rows] = _block_scores(Z, kind)
        predicted[rows] = Z.argmax(axis=1)
    return score, predicted, referable


def score_set(model: FeedForwardModel, features: np.ndarray, kind: ScoreKind | str) -> np.ndarray:
    """Scores for every row of a feature matrix, in row order (see ``_score_rows``)."""
    return _score_rows(model, features, kind)[0]


class ScreenScores(NamedTuple):
    s_d: np.ndarray  # detector mutual information
    s_c: np.ndarray  # classifier mutual information
    predicted: np.ndarray  # classifier argmax
    referable: np.ndarray  # classifier posterior mean of REFERABLE_CLASS


def screen_scores(
    classifier: FeedForwardModel, detector: FeedForwardModel, features: np.ndarray
) -> ScreenScores:
    """Everything screening and evaluation read, from one pass of each model."""
    s_c, predicted, referable = _score_rows(classifier, features, ScoreKind.MUTUAL_INFORMATION)
    s_d = score_set(detector, features, ScoreKind.MUTUAL_INFORMATION)
    return ScreenScores(s_d, s_c, predicted, referable)


def _score_array(scores) -> np.ndarray:
    """``scores`` as a float array; refused unless 1-D, nonempty and finite."""
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("scores must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores must be finite")
    return arr


def calibrate_threshold(scores, drop_fraction: float) -> float:
    """Score at ascending rank ceil((1 - p) * N); strictly larger scores drop.

    Exactly floor(p * N) validation scores exceed the threshold when
    scores are distinct, never more. p * N is taken exactly, with p as
    the decimal its repr shows.
    """
    arr = _score_array(scores)
    p = float(drop_fraction)
    if not 0.0 < p < 1.0:
        raise ValueError("drop_fraction must lie in (0, 1)")
    n = arr.size
    drop = math.floor(Fraction(repr(p)) * n)
    return float(np.sort(arr)[n - drop - 1])


def route_decision(s_d, s_c, thresholds: ScreeningThresholds, predicted_class):
    """Dual-threshold routing of arrays of rows; scores at a threshold are not flagged.

    Returns (outcome, predicted): outcome indexes ``list(Outcome)`` and
    predicted is ``predicted_class`` with -1 on discarded rows.
    """
    s_d, s_c = np.asarray(s_d, dtype=float), np.asarray(s_c, dtype=float)
    predicted_class = np.asarray(predicted_class, dtype=np.int64)
    if s_d.ndim != 1 or s_c.shape != s_d.shape or predicted_class.shape != s_d.shape:
        raise ValueError("scores and classes must be 1-D arrays of one length")
    if not (np.all(np.isfinite(s_d)) and np.all(np.isfinite(s_c))):
        raise ValueError("scores must be finite")
    discard = s_c > thresholds.tau_c
    outcome = np.where(discard, 2, np.where(s_d > thresholds.tau_d, 1, 0))
    return outcome, np.where(discard, -1, predicted_class)


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    mid = (upper - counts + 1 + upper) / 2.0
    return mid[inverse]


def auroc(negative_scores, positive_scores) -> float:
    """P(score+ > score-) + 0.5 P(tie): the normalized Mann-Whitney U."""
    neg, pos = _score_array(negative_scores), _score_array(positive_scores)
    ranks = _midranks(np.concatenate([neg, pos]))
    u = ranks[neg.size :].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (neg.size * pos.size))


def ood_detection_rate(scores, tau: float) -> float:
    """Fraction of scores strictly above the threshold; the scores must be finite."""
    arr = _score_array(scores)
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    return float((arr > tau).mean())


def discard_and_rescore(referable_prob, labels, s_test, taus) -> list[RescoreRow]:
    """Referable-vs-rest AUROC on what survives detector-based discarding.

    ``referable_prob`` is the classifier's posterior for the referable
    class on each test example, ``labels`` their labels, and ``s_test``
    the detector's scores on the test set. ``taus`` holds the caller's
    (drop fraction, detector threshold) pairs; each keeps the test
    examples scoring at or below its threshold (inf keeps everything),
    and the AUROC is taken over them. A pair whose retained set lacks
    one of the two groups gets auroc = nan rather than an error.
    """
    if labels is None:
        raise ValueError("test set must be labeled")
    # finite, so that tau = inf keeps every example
    referable_prob, s_test = np.asarray(referable_prob), _score_array(s_test)
    if referable_prob.shape != s_test.shape or np.shape(labels) != s_test.shape:
        raise ValueError("test scores, posteriors and labels must have one entry per example")

    is_referable = np.asarray(labels) == REFERABLE_CLASS
    rows = []
    for p, tau in taus:
        if math.isnan(tau):
            raise ValueError("thresholds must not be nan")
        keep = s_test <= tau
        pos = referable_prob[keep & is_referable]
        neg = referable_prob[keep & ~is_referable]
        value = auroc(neg, pos) if pos.size and neg.size else math.nan
        rows.append(RescoreRow(float(p), int(keep.sum()), value))
    return rows
