"""Multi-task mini-batch training with momentum gradient descent.

Every step draws one in-domain batch and one batch from each
out-of-distribution source; the sources are cycled independently with
their own seeded shuffles, so a small exposure set simply repeats.
When a validation set is supplied, the parameters from the epoch with
the best in-domain accuracy are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import ExampleSet
from .losses import ObjectiveConfig, objective_batch
from .network import FeedForwardModel, forward_batch

__all__ = ["TrainConfig", "TrainReport", "train", "evaluate_accuracy"]


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


@dataclass
class TrainReport:
    """Per-epoch loss traces plus the selected checkpoint's validation score."""

    loss_total: list[float] = field(default_factory=list)
    loss_in: list[float] = field(default_factory=list)
    loss_ood: list[list[float]] = field(default_factory=list)  # one trace per source
    val_accuracy: list[float] = field(default_factory=list)
    selected_epoch: int = -1
    final_val_accuracy: float | None = None


class _Cycler:
    """Endless seeded sampler over a feature set, reshuffling on wraparound."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.order = rng.permutation(n)
        self.pos = 0

    def take(self, k: int) -> np.ndarray:
        out = np.empty(k, dtype=int)
        filled = 0
        while filled < k:
            if self.pos == self.n:
                self.order = self.rng.permutation(self.n)
                self.pos = 0
            grab = min(k - filled, self.n - self.pos)
            out[filled : filled + grab] = self.order[self.pos : self.pos + grab]
            self.pos += grab
            filled += grab
        return out


def evaluate_accuracy(model: FeedForwardModel, examples: ExampleSet) -> float:
    """Fraction of examples whose argmax posterior matches the label."""
    if len(examples) == 0:
        raise ValueError("cannot evaluate on an empty set")
    if examples.labels is None:
        raise ValueError("accuracy needs labeled examples")
    preds = forward_batch(model, examples.features).argmax(axis=1)
    return float((preds == examples.labels).mean())


def _check_labeled_set(model: FeedForwardModel, examples: ExampleSet, name: str) -> None:
    if examples.labels is None:
        raise ValueError(f"{name} set must be labeled")
    if len(examples) == 0:
        raise ValueError(f"{name} set must not be empty")
    if examples.dim != model.input_dim:
        raise ValueError(f"{name} features do not match the model input dim")
    if examples.labels.max() >= model.num_classes:
        raise ValueError(f"{name} labels exceed the model's class count")


def train(
    model: FeedForwardModel,
    train_set: ExampleSet,
    ood_sets: list[ExampleSet],
    cfg: TrainConfig,
    val_set: ExampleSet | None = None,
) -> tuple[FeedForwardModel, TrainReport]:
    """Run the multi-task objective for cfg.epochs and return (model, report).

    The input model is never mutated. With zero epochs the returned
    parameters equal the input's; a non-finite loss aborts with the
    offending step in the message.
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
    in_rng = np.random.default_rng(seeds[0])
    cyclers = [
        _Cycler(len(s), np.random.default_rng(child)) if len(s) else None
        for s, child in zip(ood_sets, seeds[1:])
    ]

    report = TrainReport(loss_ood=[[] for _ in ood_sets])
    best_params: FeedForwardModel | None = None
    best_acc = -math.inf
    n = len(train_set)
    steps_per_epoch = -(-n // cfg.batch_size)
    global_step = 0

    for epoch in range(cfg.epochs):
        order = in_rng.permutation(n)
        # one gather per epoch; each step then takes a contiguous slice
        features, labels = train_set.features[order], train_set.labels[order]
        sums = np.zeros(2 + len(ood_sets))
        for step in range(steps_per_epoch):
            rows = slice(step * cfg.batch_size, (step + 1) * cfg.batch_size)
            batches = [
                ood_sets[j].features[cyclers[j].take(cfg.batch_size)]
                if cyclers[j] is not None
                else ood_sets[j].features
                for j in range(len(ood_sets))
            ]
            result = objective_batch(work, features[rows], labels[rows], batches, cfg.objective)
            if not math.isfinite(result.total):
                raise RuntimeError(f"non-finite training loss at step {global_step}")
            velocity *= cfg.momentum
            velocity -= cfg.learning_rate * result.gradients.flat
            work.params += velocity  # in place: work.weights/biases are views of params
            sums += [result.total, result.in_loss, *result.ood_losses]
            global_step += 1

        means = sums / steps_per_epoch
        report.loss_total.append(float(means[0]))
        report.loss_in.append(float(means[1]))
        for j in range(len(ood_sets)):
            report.loss_ood[j].append(float(means[2 + j]))
        if val_set is not None:
            acc = evaluate_accuracy(work, val_set)
            report.val_accuracy.append(acc)
            if acc > best_acc:
                best_acc = acc
                best_params = work.copy()
                report.selected_epoch = epoch

    if val_set is not None and best_params is not None:
        final = best_params
        report.final_val_accuracy = best_acc
    else:
        final = work
        report.selected_epoch = cfg.epochs - 1 if cfg.epochs else -1
        if val_set is not None:
            report.final_val_accuracy = evaluate_accuracy(final, val_set)
    return final, report
