"""The one training protocol: every trainer runs the two loops defined here.

* :func:`run_epoch`, the mini-batch loop: zero the gradients, compute the
  trainer's batch loss, back-propagate, clip to ``grad_clip``, step the
  optimizer, apply the model's max-norm constraint if it has one.
* :func:`fit_epochs`, the early-stopped epoch loop: build the optimizer
  (casting the model to ``dtype``), set a tagger's output-bias prior, then
  per epoch train, step the LR schedule, run the pseudo-E-step if any,
  score the dev set and update :class:`EarlyStopping`; finally restore the
  best epoch's weights and EM state.

A trainer supplies only its batch loss and, for Logic-LNCL, its
pseudo-E-step. :func:`run_classification_epoch` and
:func:`run_sequence_epoch` are the soft-target losses (Gold, two-stage,
DL-DN, Logic-LNCL); CrowdLayer and forward correction pass their own.

Hyper-parameter defaults follow Table I of the paper; the dev set picks the
early-stopping epoch with patience 5 for *all* methods, exactly as §VI-A3
describes: accuracy on a classification dev set, strict span F1 on a
tagging one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ..autodiff import Tensor, no_grad
from ..autodiff import functional as F
from ..autodiff.dtypes import REFERENCE_DTYPE, canonical_dtype, default_dtype
from ..autodiff.nn import Module
from ..autodiff.optim import SGD, Adadelta, Adam, Optimizer, StepDecay, clip_grad_norm
from ..data.datasets import SequenceTaggingDataset, TextClassificationDataset, length_mask
from ..data.loaders import batch_indices
from ..eval.classification import accuracy
from ..eval.ner_f1 import span_f1_score
from ..models.base import SequenceTagger, TextClassifier

__all__ = [
    "TrainerConfig",
    "build_optimizer",
    "EarlyStopping",
    "run_epoch",
    "fit_epochs",
    "run_classification_epoch",
    "run_sequence_epoch",
    "predict_proba_batched",
    "predict_sequence_proba_batched",
    "fit_classifier",
    "fit_tagger",
]


@dataclass
class TrainerConfig:
    """Generic training hyper-parameters.

    Sentiment paper values: Adadelta, lr 1.0 halved every 5 epochs, batch
    50, 30 epochs, patience 5. NER: Adam 1e-3, batch 64, 30 epochs,
    patience 5.

    Every trainer honours every field: all of them train through
    :func:`run_epoch` and :func:`fit_epochs`. ``weighted_loss`` (Eq. 10)
    weights by annotator counts, so only the Logic-LNCL trainers read it.

    ``dtype`` is the one precision setting: "float64" (default, named
    :data:`repro.autodiff.dtypes.REFERENCE_DTYPE`) is the reference path
    every equivalence test is pinned to; "float32" is the fast path (~2x
    GEMM throughput, half the tape memory), named
    :data:`repro.autodiff.dtypes.FAST_DTYPE`. The paper's Table I configs
    (:func:`repro.core.config.sentiment_paper_config`,
    :func:`~repro.core.config.ner_paper_config`) train in the fast path,
    and the Table II–IV suites give every compared method their dtype.
    Models are built without a dtype; :func:`build_optimizer` casts every
    tensor they hold to this dtype before allocating optimizer state, and
    the training loops scope the autodiff ambient default to it, so scalar
    constants and loss coercions inside the loop follow the same
    precision.
    """

    epochs: int = 30
    batch_size: int = 50
    optimizer: str = "adadelta"
    learning_rate: float = 1.0
    lr_decay_every: int | None = 5
    lr_decay_factor: float = 0.5
    patience: int = 5
    grad_clip: float | None = 5.0
    weighted_loss: bool = False  # Eq. 10 (num annotators) vs Eq. 8
    dtype: str = REFERENCE_DTYPE

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if self.optimizer not in ("adadelta", "adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        # None disables a feature; zero is a silent misconfiguration (a 0.0
        # clip threshold or a 0-epoch decay period used to be treated as
        # "off" by truthiness guards downstream).
        if self.lr_decay_every is not None and self.lr_decay_every < 1:
            raise ValueError(
                f"lr_decay_every must be >= 1 or None to disable, got {self.lr_decay_every}"
            )
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ValueError(f"lr_decay_factor must be in (0, 1], got {self.lr_decay_factor}")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError(
                f"grad_clip must be positive or None to disable, got {self.grad_clip}"
            )
        self.dtype = canonical_dtype(self.dtype).name


def build_optimizer(
    modules: Sequence[Module], config: TrainerConfig
) -> tuple[Optimizer, StepDecay | None]:
    """Instantiate the optimizer (and LR schedule) named by the config.

    First casts every tensor ``modules`` hold, frozen ones included, to
    ``config.dtype`` in place (:meth:`Module.cast`), so the optimizer
    state allocated ``zeros_like`` the parameters is born at the training
    precision. At the precision the modules were built in, the cast
    copies nothing. The optimizer steps the modules' parameters in the
    order the modules are given.
    """
    parameters: list = []
    for module in modules:
        parameters += module.cast(config.dtype).parameters()
    if config.optimizer == "adadelta":
        optimizer: Optimizer = Adadelta(parameters, lr=config.learning_rate)
    elif config.optimizer == "adam":
        optimizer = Adam(parameters, lr=config.learning_rate)
    else:
        optimizer = SGD(parameters, lr=config.learning_rate)
    schedule = None
    if config.lr_decay_every is not None:
        schedule = StepDecay(optimizer, every=config.lr_decay_every, factor=config.lr_decay_factor)
    return optimizer, schedule


class EarlyStopping:
    """Patience-based early stopping that snapshots the best parameters."""

    def __init__(self, model: Module, patience: int) -> None:
        self.model = model
        self.patience = patience
        self.best_score = -np.inf
        self.best_state: dict | None = None
        self.bad_epochs = 0

    def update(self, score: float) -> bool:
        """Record an epoch's dev score; returns True when training should stop."""
        if score > self.best_score:
            self.best_score = score
            self.best_state = self.model.state_dict()
            self.bad_epochs = 0
            return False
        self.bad_epochs += 1
        return self.bad_epochs >= self.patience

    def restore_best(self) -> None:
        if self.best_state is not None:
            self.model.load_state_dict(self.best_state)


def run_epoch(
    model: Module,
    optimizer: Optimizer,
    num_instances: int,
    batch_loss: Callable[[np.ndarray], Tensor],
    rng: np.random.Generator,
    config: TrainerConfig,
) -> float:
    """One epoch of mini-batch training: the training step of every trainer.

    ``batch_loss(batch)`` is the scalar loss of the instances ``batch``.
    Clips the global gradient norm to ``config.grad_clip`` (None: no
    clipping) and returns the mean batch loss. An empty training set is a
    no-op epoch: loss 0.0, zero optimizer steps, parameters untouched.
    """
    model.train()
    total_loss = 0.0
    batches = 0
    with default_dtype(config.dtype):
        for batch in batch_indices(num_instances, config.batch_size, rng=rng):
            optimizer.zero_grad()
            loss = batch_loss(batch)
            loss.backward()
            if config.grad_clip is not None:
                clip_grad_norm(optimizer.parameters, config.grad_clip)
            optimizer.step()
            if hasattr(model, "apply_max_norm"):
                model.apply_max_norm()
            total_loss += loss.item()
            batches += 1
    return total_loss / max(batches, 1)


def _dev_score(model: Module, dev: TextClassificationDataset | SequenceTaggingDataset) -> float:
    """Accuracy on a classification dev set, strict span F1 on a tagging one."""
    if isinstance(dev, SequenceTaggingDataset):
        return span_f1_score(dev.tags, model.predict(dev.tokens, dev.lengths)).f1
    if isinstance(dev, TextClassificationDataset):
        return accuracy(dev.labels, model.predict(dev.tokens, dev.lengths))
    raise TypeError(f"dev must be a dataset, got {type(dev).__name__}")


def fit_epochs(
    modules: Sequence[Module],
    config: TrainerConfig,
    train_epoch: Callable[[Optimizer], float],
    dev: TextClassificationDataset | SequenceTaggingDataset | None = None,
    output_prior: np.ndarray | None = None,
    pseudo_e_step: Callable[[int], Any] | None = None,
) -> tuple[dict, Any]:
    """The early-stopped epoch loop every trainer runs.

    ``modules[0]`` is the model; further modules (CrowdLayer's annotator
    layer) train alongside it. Before the first step, a model with
    ``initialize_output_bias`` starts from ``output_prior``, the class
    totals of its initial targets. Each epoch, numbered from 1, runs
    ``train_epoch(optimizer)`` (the mean loss), the LR schedule and
    ``pseudo_e_step(epoch)`` (the EM state after the epoch), then scores
    ``dev``. With a dev set the best epoch's weights and EM state are
    restored at the end; the state is kept by reference, so the
    pseudo-E-step must build a new one each epoch rather than update an
    earlier one in place. All of it runs under
    ``default_dtype(config.dtype)``.

    Returns the history (``loss``, ``dev_score``, plus ``best_dev_score``
    with a dev set) and the final EM state (None without a pseudo-E-step).
    """
    model = modules[0]
    history: dict = {"loss": [], "dev_score": []}
    state = best_state = None
    with default_dtype(config.dtype):
        optimizer, schedule = build_optimizer(modules, config)
        # After the cast, so the prior bias is computed at the training
        # precision; an empty training set keeps the default bias.
        if output_prior is not None and hasattr(model, "initialize_output_bias"):
            if output_prior.sum() > 0:
                model.initialize_output_bias(output_prior / output_prior.sum())
        stopper = EarlyStopping(model, config.patience) if dev is not None else None
        for epoch in range(1, config.epochs + 1):
            history["loss"].append(train_epoch(optimizer))
            if schedule is not None:
                schedule.step()
            if pseudo_e_step is not None:
                state = pseudo_e_step(epoch)
            if stopper is None:
                continue
            score = _dev_score(model, dev)
            history["dev_score"].append(score)
            stop = stopper.update(score)
            if stopper.bad_epochs == 0:  # a new best epoch
                best_state = state
            if stop:
                break
        if stopper is not None:
            stopper.restore_best()
            history["best_dev_score"] = stopper.best_score
            if best_state is not None:
                state = best_state
    return history, state


def run_classification_epoch(
    model: TextClassifier,
    optimizer: Optimizer,
    tokens: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
    config: TrainerConfig,
    weights: np.ndarray | None = None,
) -> float:
    """One epoch of soft-target training (paper Eq. 8 / Eq. 10 + Eq. 11).

    :func:`run_epoch` with the soft-target cross-entropy as batch loss.
    Returns the mean training loss. ``targets`` is the ``(I, K)`` learning
    target — ``qf(t)`` for EM-family methods, one-hot labels otherwise.
    """

    def batch_loss(batch: np.ndarray) -> Tensor:
        logits = model.logits(tokens[batch], lengths[batch])
        batch_weights = weights[batch] if weights is not None else None
        return F.cross_entropy_soft(logits, targets[batch], weights=batch_weights)

    return run_epoch(model, optimizer, len(lengths), batch_loss, rng, config)


def run_sequence_epoch(
    model: SequenceTagger,
    optimizer: Optimizer,
    tokens: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
    config: TrainerConfig,
    weights: np.ndarray | None = None,
) -> float:
    """One epoch of per-token soft-target training.

    :func:`run_epoch` with the masked per-token soft-target cross-entropy
    as batch loss. ``targets`` is ``(I, T, K)``; padded positions are
    masked from the loss. ``weights`` (``(I, T)``) carries per-token
    annotator counts for Eq. 10.
    """
    max_time = tokens.shape[1]

    def batch_loss(batch: np.ndarray) -> Tensor:
        logits = model.logits(tokens[batch], lengths[batch])
        mask = length_mask(lengths[batch], max_time)
        batch_weights = weights[batch] if weights is not None else None
        return F.sequence_cross_entropy_soft(logits, targets[batch], mask, weights=batch_weights)

    return run_epoch(model, optimizer, len(lengths), batch_loss, rng, config)


def predict_proba_batched(
    model: TextClassifier, tokens: np.ndarray, lengths: np.ndarray, batch_size: int = 256
) -> np.ndarray:
    """``(I, K)`` probabilities computed in evaluation batches.

    Runs under :class:`no_grad` end to end (belt and braces on top of the
    model's own guard), so evaluation sweeps build zero tape nodes even if
    a model subclass forgets its own guard. An empty dataset yields an
    empty ``(0, K)`` result — the same I = 0 tolerance the inference
    methods have — instead of tripping ``batch_indices``'s size check.
    """
    if len(lengths) == 0:
        return np.zeros((0, model.num_classes))
    with no_grad():
        pieces = [
            model.predict_proba(tokens[batch], lengths[batch])
            for batch in batch_indices(len(lengths), batch_size, shuffle=False)
        ]
    return np.concatenate(pieces, axis=0)


def predict_sequence_proba_batched(
    model: SequenceTagger, tokens: np.ndarray, lengths: np.ndarray, batch_size: int = 128
) -> np.ndarray:
    """``(I, T, K)`` per-token probabilities in evaluation batches.

    Guarded by :class:`no_grad` like :func:`predict_proba_batched`; this is
    the pseudo-E-step's prediction sweep, so a stray tape here would cost
    memory every EM round. An empty dataset yields ``(0, T, K)`` rather
    than a ``batch_indices`` error.
    """
    if len(lengths) == 0:
        return np.zeros((0, tokens.shape[1], model.num_classes))
    with no_grad():
        pieces = [
            model.predict_proba(tokens[batch], lengths[batch])
            for batch in batch_indices(len(lengths), batch_size, shuffle=False)
        ]
    return np.concatenate(pieces, axis=0)


def fit_classifier(
    model: TextClassifier,
    config: TrainerConfig,
    rng: np.random.Generator,
    tokens: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray,
    dev: TextClassificationDataset | None = None,
    weights: np.ndarray | None = None,
) -> dict:
    """Supervised training against fixed (possibly soft) targets.

    Used by Gold, the two-stage methods, DL-DN member networks and
    CrowdLayer's pre-training. With a ``dev`` dataset, applies early
    stopping and restores the best snapshot.

    Returns a history dict with per-epoch losses and dev scores.
    """
    if targets.ndim == 1:  # hard labels → one-hot
        targets = np.eye(model.num_classes)[targets]

    def train_epoch(optimizer: Optimizer) -> float:
        return run_classification_epoch(
            model, optimizer, tokens, lengths, targets, rng, config, weights=weights
        )

    history, _ = fit_epochs([model], config, train_epoch, dev)
    return history


def fit_tagger(
    model: SequenceTagger,
    config: TrainerConfig,
    rng: np.random.Generator,
    tokens: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray,
    dev: SequenceTaggingDataset | None = None,
    weights: np.ndarray | None = None,
) -> dict:
    """Supervised sequence training; dev metric is strict span F1.

    The output bias starts from the class prior of ``targets``.
    """
    if targets.ndim == 2:  # hard tags → one-hot (padding rows become class 0)
        targets = np.eye(model.num_classes)[targets]
    mask = length_mask(lengths, tokens.shape[1])

    def train_epoch(optimizer: Optimizer) -> float:
        return run_sequence_epoch(
            model, optimizer, tokens, lengths, targets, rng, config, weights=weights
        )

    history, _ = fit_epochs(
        [model], config, train_epoch, dev,
        output_prior=(targets * mask[:, :, None]).sum(axis=(0, 1)),
    )
    return history
