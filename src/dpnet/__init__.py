"""Dirichlet-output networks for uncertainty-aware screening.

Logits parameterize a Dirichlet over class probabilities; mutual
information between the label and the simplex draw separates
distributional uncertainty from data uncertainty, which drives
out-of-distribution detection and dual-threshold routing of inputs to
trust / human review / discard.
"""

from .data import ExampleSet, gen_far_ood, gen_in_domain, gen_shifted
from .dirichlet import (
    ConcentrationParams,
    digamma,
    logits_to_alpha,
    mutual_information,
)
from .losses import ObjectiveConfig, OodTerm, loss_in, loss_out
from .network import FeedForwardModel, backward, forward, init_model
from .pipeline import (
    ScoreKind,
    auroc,
    calibrate_threshold,
    route_decision,
    score_set,
)
from .training import TrainConfig, evaluate_accuracy, train

__version__ = "0.1.0"

__all__ = [
    "ExampleSet",
    "gen_far_ood",
    "gen_in_domain",
    "gen_shifted",
    "ConcentrationParams",
    "digamma",
    "logits_to_alpha",
    "mutual_information",
    "ObjectiveConfig",
    "OodTerm",
    "loss_in",
    "loss_out",
    "FeedForwardModel",
    "backward",
    "forward",
    "init_model",
    "ScoreKind",
    "auroc",
    "calibrate_threshold",
    "route_decision",
    "score_set",
    "TrainConfig",
    "evaluate_accuracy",
    "train",
]
