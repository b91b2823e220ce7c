"""Multi-task mini-batch training with momentum gradient descent.

Every step draws one in-domain batch and one batch from each
out-of-distribution source. The training set and each source are cycled
independently, each by its own seeded sampler, so a small exposure set
simply repeats and an empty one yields no rows.
The parameters after the last epoch are returned; a validation set only
adds a per-epoch in-domain accuracy trace to the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import ExampleSet
from .losses import ObjectiveConfig, objective_batch
from .network import FeedForwardModel, NonFiniteLogits, forward_batch

__all__ = ["TrainConfig", "TrainReport", "NonFiniteValidation", "train", "evaluate_accuracy"]


@dataclass(frozen=True)
class TrainConfig:
    objective: ObjectiveConfig
    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class TrainReport:
    """Per-epoch loss and validation-accuracy traces, plus the returned
    model's validation accuracy (None without a validation set)."""

    loss_total: list[float] = field(default_factory=list)
    loss_in: list[float] = field(default_factory=list)
    loss_ood: list[list[float]] = field(default_factory=list)  # one trace per source
    val_accuracy: list[float] = field(default_factory=list)
    final_val_accuracy: float | None = None


class _Cycler:
    """Endless seeded sampler over n rows: a fresh permutation whenever too few indices are pending."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.pending = np.empty(0, dtype=np.int64)

    def take(self, k: int) -> np.ndarray:
        """The next k indices; none for an empty set."""
        if len(self.pending) < k and self.n:  # every permutation this call needs, drawn in order, joined once
            draws = -(-(k - len(self.pending)) // self.n)
            self.pending = np.concatenate((self.pending, *(self.rng.permutation(self.n) for _ in range(draws))))
        out, self.pending = self.pending[:k], self.pending[k:]
        return out


def evaluate_accuracy(model: FeedForwardModel, examples: ExampleSet) -> float:
    """Fraction of examples whose argmax posterior matches the label; logits that overflow raise NonFiniteLogits."""
    if len(examples) == 0:
        raise ValueError("cannot evaluate on an empty set")
    if examples.labels is None:
        raise ValueError("accuracy needs labeled examples")
    return float((forward_batch(model, examples.features).argmax(axis=1) == examples.labels).mean())


class NonFiniteValidation(RuntimeError):
    """train's validation pass gave non-finite logits; the message names the step."""


def _val_accuracy(model: FeedForwardModel, val_set: ExampleSet, when: str) -> float:
    """evaluate_accuracy on the validation set; logits that overflow raise NonFiniteValidation naming ``when``."""
    try:
        return evaluate_accuracy(model, val_set)
    except NonFiniteLogits:
        raise NonFiniteValidation(f"non-finite logits on the validation rows {when}") from None


def _check_labeled_set(model: FeedForwardModel, examples: ExampleSet, name: str) -> None:
    if examples.labels is None:
        raise ValueError(f"{name} set must be labeled")
    if len(examples) == 0:
        raise ValueError(f"{name} set must not be empty")
    if examples.dim != model.input_dim:
        raise ValueError(f"{name} features do not match the model input dim")
    if examples.labels.max() >= model.num_classes:
        raise ValueError(f"{name} labels exceed the model's class count")


@np.errstate(over="ignore", invalid="ignore")
def train(
    model: FeedForwardModel,
    train_set: ExampleSet,
    ood_sets: list[ExampleSet],
    cfg: TrainConfig,
    val_set: ExampleSet | None = None,
) -> tuple[FeedForwardModel, TrainReport]:
    """Run the multi-task objective for cfg.epochs and return (model, report).

    The input model is never mutated. With zero epochs the returned
    parameters equal the input's. Overflow raises no numpy warning: a
    non-finite loss, or non-finite parameters or logits at the end of
    an epoch, abort with the offending step in the message; logits that
    overflow on the validation set raise NonFiniteValidation.
    """
    _check_labeled_set(model, train_set, "training")
    if val_set is not None:
        _check_labeled_set(model, val_set, "validation")
    if len(ood_sets) != len(cfg.objective.ood_terms):
        raise ValueError(
            f"got {len(ood_sets)} OOD sets for {len(cfg.objective.ood_terms)} objective terms"
        )
    for term, s in zip(cfg.objective.ood_terms, ood_sets):
        if len(s) == 0 and term.gamma != 0.0:
            raise ValueError("empty OOD set with nonzero gamma")
        if len(s) and s.dim != model.input_dim:
            raise ValueError("OOD features do not match the model input dim")

    work = model.copy()
    velocity = np.zeros_like(work.params)

    seeds = np.random.SeedSequence(cfg.seed).spawn(1 + len(ood_sets))
    in_cycler, *ood_cyclers = (
        _Cycler(len(s), np.random.default_rng(child)) for s, child in zip([train_set, *ood_sets], seeds)
    )

    report = TrainReport(loss_ood=[[] for _ in ood_sets])
    n = len(train_set)
    steps_per_epoch = -(-n // cfg.batch_size)
    ood_rows = cfg.batch_size * steps_per_epoch  # every step draws a full batch per source
    global_step = 0

    for _ in range(cfg.epochs):
        # one gather per epoch and set; each step then takes a contiguous
        # slice. A cycler hands out the same rows in the same order whether
        # it is asked for an epoch's worth at once or one batch at a time.
        order = in_cycler.take(n)
        features, labels = train_set.features[order], train_set.labels[order]
        ood_epoch = [s.features[cycler.take(ood_rows)] for s, cycler in zip(ood_sets, ood_cyclers)]
        sums = [0.0] * (2 + len(ood_sets))
        for step in range(steps_per_epoch):
            rows = slice(step * cfg.batch_size, (step + 1) * cfg.batch_size)
            batches = [B[rows] for B in ood_epoch]  # an empty source stays empty
            result = objective_batch(work, features[rows], labels[rows], batches, cfg.objective)
            if not math.isfinite(result.total):
                raise RuntimeError(f"non-finite training loss at step {global_step}")
            velocity *= cfg.momentum
            velocity -= cfg.learning_rate * result.gradients.flat
            work.params += velocity  # in place: work.weights/biases are views of params
            sums = [a + b for a, b in zip(sums, (result.total, result.in_loss, *result.ood_losses))]
            global_step += 1

        # the loss check sees an update only at the next step: check the
        # parameters, and their logits on the epoch's last in-domain batch
        if not np.isfinite(work.params).all():
            raise RuntimeError(f"non-finite parameters after step {global_step - 1}")
        try:
            forward_batch(work, features[rows])
        except NonFiniteLogits:
            raise RuntimeError(f"non-finite logits after step {global_step - 1}") from None
        total, in_loss, *ood_losses = (a / steps_per_epoch for a in sums)
        report.loss_total.append(total)
        report.loss_in.append(in_loss)
        for trace, mean in zip(report.loss_ood, ood_losses):
            trace.append(mean)
        if val_set is not None:
            report.val_accuracy.append(_val_accuracy(work, val_set, f"after step {global_step - 1}"))

    if val_set is not None:  # the last epoch's pass already scored the returned parameters
        report.final_val_accuracy = (
            report.val_accuracy[-1] if report.val_accuracy else _val_accuracy(work, val_set, "before step 0")
        )
    return work, report
