"""Single-source noisy-label learning built on the crowd machinery.

A noisy label set is a one-annotator crowd: :class:`NoisyLabelLogicLNCL`
runs Logic-LNCL on it unchanged, and :func:`forward_correction_baseline`
passes the forward-corrected likelihood to the shared loops of
:mod:`repro.baselines.common`, like every trainer.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor
from ..autodiff import functional as F
from ..autodiff.optim import Optimizer
from ..baselines.common import TrainerConfig, fit_epochs, run_epoch
from ..core.logic_lncl import LogicLNCLClassifier
from ..crowd.types import CrowdLabelMatrix
from ..data.datasets import TextClassificationDataset
from ..models.base import TextClassifier

__all__ = [
    "corrupt_labels",
    "as_single_source_crowd",
    "NoisyLabelLogicLNCL",
    "forward_correction_baseline",
]


def corrupt_labels(
    rng: np.random.Generator,
    labels: np.ndarray,
    transition: np.ndarray,
) -> np.ndarray:
    """Sample noisy labels from a class-conditional noise process.

    ``transition[m, n]`` is the probability that true class ``m`` is
    recorded as ``n`` (rows sum to one). Symmetric noise at rate ``ρ`` is
    the special case ``T = (1-ρ)·I + ρ/(K-1)·(1-I)``.
    """
    labels = np.asarray(labels)
    transition = np.asarray(transition, dtype=np.float64)
    K = transition.shape[0]
    if transition.shape != (K, K):
        raise ValueError(f"transition must be square, got {transition.shape}")
    if not np.allclose(transition.sum(axis=1), 1.0, atol=1e-8):
        raise ValueError("transition rows must sum to 1")
    if labels.min() < 0 or labels.max() >= K:
        raise ValueError(f"labels out of range [0, {K})")
    cumulative = transition.cumsum(axis=1)
    draws = rng.random(labels.shape[0])
    return (draws[:, None] < cumulative[labels]).argmax(axis=1)


def as_single_source_crowd(noisy_labels: np.ndarray, num_classes: int) -> CrowdLabelMatrix:
    """Wrap one noisy label per instance as a one-annotator crowd."""
    noisy_labels = np.asarray(noisy_labels)
    if noisy_labels.ndim != 1:
        raise ValueError("expected one label per instance")
    return CrowdLabelMatrix(noisy_labels[:, None].astype(np.int64), num_classes)


class NoisyLabelLogicLNCL(LogicLNCLClassifier):
    """Logic-LNCL with a single anonymous noise source.

    Identical algorithm; the lone "annotator's" confusion matrix doubles
    as the estimated noise-transition matrix, exposed as
    :attr:`transition_`.
    """

    def fit(self, train: TextClassificationDataset, dev=None) -> dict:
        if train.crowd is None or train.crowd.num_annotators != 1:
            raise ValueError(
                "NoisyLabelLogicLNCL expects exactly one noise source; wrap "
                "labels with as_single_source_crowd()"
            )
        return super().fit(train, dev)

    @property
    def transition_(self) -> np.ndarray:
        """Estimated noise-transition matrix ``(K, K)``."""
        if self.confusions_ is None:
            raise RuntimeError("fit() has not been run")
        return self.confusions_[0]


def forward_correction_baseline(
    model: TextClassifier,
    config: TrainerConfig,
    rng: np.random.Generator,
    train: TextClassificationDataset,
    transition: np.ndarray,
    dev: TextClassificationDataset | None = None,
) -> dict:
    """Forward loss correction (Patrini et al., CVPR 2017).

    Trains against the *noisy* labels with the corrected likelihood
    ``p_noisy = T^T · p(t|x)`` — consistent when ``T`` is the true noise
    transition. ``train.crowd`` must be a one-source crowd whose column
    holds the noisy labels.
    """
    crowd = train.crowd
    if crowd is None or crowd.num_annotators != 1:
        raise ValueError("forward correction expects a single-source crowd")
    transition = np.asarray(transition, dtype=np.float64)
    K = model.num_classes
    if transition.shape != (K, K):
        raise ValueError(f"transition must be ({K}, {K}), got {transition.shape}")
    noisy_one_hot = np.eye(K, dtype=config.dtype)[crowd.labels[:, 0]]
    T = Tensor(transition, dtype=config.dtype)

    def batch_loss(batch: np.ndarray) -> Tensor:
        logits = model.logits(train.tokens[batch], train.lengths[batch])
        clean_proba = F.softmax(logits, axis=-1)
        noisy_proba = clean_proba @ T            # p(noisy = n) = Σ_m p_m T_mn
        log_noisy = (noisy_proba + 1e-12).log()
        return -(Tensor(noisy_one_hot[batch]) * log_noisy).sum() * (1.0 / len(batch))

    def train_epoch(optimizer: Optimizer) -> float:
        return run_epoch(model, optimizer, len(train), batch_loss, rng, config)

    history, _ = fit_epochs([model], config, train_epoch, dev)
    return history
