"""CrowdLayer (Rodrigues & Pereira, AAAI 2018) — "Deep learning from crowds".

The state-of-the-art deep one-stage baseline of the paper: append to the
base network an annotator-specific layer that maps the bottleneck softmax
``p(t|x)`` to each annotator's predicted label distribution, and train
end-to-end with masked cross-entropy against the raw crowd labels.

Three parameterizations of annotator reliability (Table II/III variants):

* **MW** — a full K×K matrix per annotator (initialized to identity);
* **VW** — a per-class scaling vector per annotator (initialized to ones);
* **VW-B** — scaling vector plus per-class bias.

The paper notes CL (MW) "relies on several epochs of pre-training on
estimated labels with Majority Voting" — reproduced with
``pretrain_epochs`` (Table III compares 5 vs 1).

Both phases run the shared loops of :mod:`repro.baselines.common`, so
``grad_clip``, the LR schedule and early stopping apply as for every
trainer: pre-training is :func:`fit_classifier` / :func:`fit_tagger`, and
the joint phase passes the masked annotator cross-entropy to
:func:`run_epoch`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..autodiff import Tensor
from ..autodiff import functional as F
from ..autodiff.dtypes import default_dtype
from ..autodiff.nn import Module
from ..autodiff.optim import Optimizer
from ..baselines.common import (
    TrainerConfig,
    fit_classifier,
    fit_epochs,
    fit_tagger,
    predict_proba_batched,
    predict_sequence_proba_batched,
    run_epoch,
)
from ..data.datasets import (
    SequenceTaggingDataset,
    TextClassificationDataset,
    pad_ragged,
    trim_padded,
)
from ..inference.majority_vote import majority_vote_posterior
from ..models.base import SequenceTagger, TextClassifier

__all__ = ["CrowdLayerClassifier", "CrowdLayerSequenceTagger", "CROWD_LAYER_VARIANTS"]

CROWD_LAYER_VARIANTS = ("MW", "VW", "VW-B")


class _CrowdLayer(Module):
    """Annotator adaptation layer shared by both task variants.

    A :class:`Module`, so the trainer's cast reaches its MW/VW/B tensors
    along with the base network's.
    """

    def __init__(self, variant: str, num_annotators: int, num_classes: int) -> None:
        if variant not in CROWD_LAYER_VARIANTS:
            raise ValueError(f"variant must be one of {CROWD_LAYER_VARIANTS}, got {variant!r}")
        super().__init__()
        self.variant = variant
        self.num_annotators = num_annotators
        self.num_classes = num_classes
        J, K = num_annotators, num_classes
        if variant == "MW":
            # (K, J*K) block matrix of identities: annotator j's block is
            # columns [j*K, (j+1)*K).
            blocks = np.tile(np.eye(K), (1, J))
            self.matrix = Tensor(blocks, requires_grad=True, name="crowd.MW")
            self.scale = None
            self.bias = None
        else:
            self.matrix = None
            self.scale = Tensor(np.ones((J, K)), requires_grad=True, name="crowd.VW")
            self.bias = (
                Tensor(np.zeros((J, K)), requires_grad=True, name="crowd.B")
                if variant == "VW-B"
                else None
            )

    def annotator_scores(self, proba: Tensor) -> Tensor:
        """Map base probabilities ``(..., K)`` to scores ``(..., J, K)``."""
        leading = proba.shape[:-1]
        K, J = self.num_classes, self.num_annotators
        if self.variant == "MW":
            flat = proba.reshape((-1, K)) if proba.ndim != 2 else proba
            scores = flat @ self.matrix                      # (N, J*K)
            return scores.reshape(leading + (J, K))
        expanded = proba.reshape(leading + (1, K))
        scores = expanded * self.scale                       # broadcast to (..., J, K)
        if self.bias is not None:
            scores = scores + self.bias
        return scores


def _masked_annotator_ce(scores: Tensor, target_one_hot: np.ndarray) -> Tensor:
    """Cross-entropy over observed (instance, annotator) pairs.

    ``target_one_hot`` is zero everywhere an annotator did not label, so
    those cells contribute nothing; the loss normalizes by the number of
    observed labels. Like the soft-target losses, it computes in the
    scores' dtype.
    """
    logp = F.log_softmax(scores, axis=-1)
    target = np.asarray(target_one_hot, dtype=scores.data.dtype)
    observed = float(target.sum())
    if observed == 0:
        raise ValueError("batch contains no crowd labels")
    return -(Tensor(target) * logp).sum() * (1.0 / observed)


def _fit_joint(
    trainer: CrowdLayerClassifier | CrowdLayerSequenceTagger,
    train: TextClassificationDataset | SequenceTaggingDataset,
    dev: TextClassificationDataset | SequenceTaggingDataset | None,
    one_hot: np.ndarray,
    output_prior: np.ndarray | None = None,
) -> dict:
    """The joint phase: base model and annotator layer trained end to end
    on the masked annotator cross-entropy against ``one_hot`` crowd labels."""

    def batch_loss(batch: np.ndarray) -> Tensor:
        logits = trainer.model.logits(train.tokens[batch], train.lengths[batch])
        scores = trainer.layer.annotator_scores(F.softmax(logits, axis=-1))   # (..., J, K)
        return _masked_annotator_ce(scores, one_hot[batch])

    def train_epoch(optimizer: Optimizer) -> float:
        return run_epoch(
            trainer.model, optimizer, len(train), batch_loss, trainer.rng, trainer.config
        )

    history, _ = fit_epochs(
        [trainer.model, trainer.layer], trainer.config, train_epoch, dev, output_prior=output_prior
    )
    return history


class CrowdLayerClassifier:
    """CL for classification.

    Parameters
    ----------
    variant:
        "MW", "VW", or "VW-B".
    pretrain_epochs:
        Base-model epochs on hard MV labels before the joint phase.
    """

    def __init__(
        self,
        model: TextClassifier,
        variant: str,
        config: TrainerConfig,
        rng: np.random.Generator,
        pretrain_epochs: int = 5,
    ) -> None:
        if variant not in CROWD_LAYER_VARIANTS:
            raise ValueError(f"variant must be one of {CROWD_LAYER_VARIANTS}, got {variant!r}")
        self.model = model
        self.variant = variant
        self.config = config
        self.rng = rng
        self.pretrain_epochs = pretrain_epochs
        self.layer: _CrowdLayer | None = None
        self.train_proba_: np.ndarray | None = None

    def fit(
        self,
        train: TextClassificationDataset,
        dev: TextClassificationDataset | None = None,
    ) -> dict:
        crowd = train.crowd
        if crowd is None:
            raise ValueError("training dataset carries no crowd labels")
        K = self.model.num_classes
        self.layer = _CrowdLayer(self.variant, crowd.num_annotators, K)

        pretrain = None
        if self.pretrain_epochs > 0:
            mv_hard = majority_vote_posterior(crowd).argmax(axis=1)
            pre_config = replace(self.config, epochs=self.pretrain_epochs, lr_decay_every=None)
            pretrain = fit_classifier(
                self.model, pre_config, self.rng, train.tokens, train.lengths, mv_hard
            )

        history = _fit_joint(self, train, dev, crowd.one_hot())        # one-hot (I, J, K)
        with default_dtype(self.config.dtype):
            self.train_proba_ = predict_proba_batched(self.model, train.tokens, train.lengths)
        return {"pretrain": pretrain, **history}

    def predict(self, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        return self.model.predict(tokens, lengths)

    def predict_proba(self, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        return predict_proba_batched(self.model, tokens, lengths)

    def inference_posterior(self) -> np.ndarray:
        """Paper Table II footnote: CL's inference = classifier output on train."""
        if self.train_proba_ is None:
            raise RuntimeError("fit() has not been run")
        return self.train_proba_


class CrowdLayerSequenceTagger:
    """CL for sequence tagging (the paper's Table III variants)."""

    def __init__(
        self,
        model: SequenceTagger,
        variant: str,
        config: TrainerConfig,
        rng: np.random.Generator,
        pretrain_epochs: int = 5,
    ) -> None:
        if variant not in CROWD_LAYER_VARIANTS:
            raise ValueError(f"variant must be one of {CROWD_LAYER_VARIANTS}, got {variant!r}")
        self.model = model
        self.variant = variant
        self.config = config
        self.rng = rng
        self.pretrain_epochs = pretrain_epochs
        self.layer: _CrowdLayer | None = None
        self.train_proba_: list[np.ndarray] | None = None

    @staticmethod
    def _padded_crowd_one_hot(train: SequenceTaggingDataset) -> np.ndarray:
        """``(I, T, J, K)`` one-hot crowd labels (zeros where unlabeled)."""
        crowd = train.crowd
        stacked, _ = crowd.flat_labels()                         # (ΣT_i, J)
        tokens, annotators, given = crowd.flat_label_pairs()
        flat = np.zeros(stacked.shape + (crowd.num_classes,))
        flat[tokens, annotators, given] = 1.0
        return pad_ragged(flat, train.lengths, train.tokens.shape[1])

    def fit(
        self,
        train: SequenceTaggingDataset,
        dev: SequenceTaggingDataset | None = None,
    ) -> dict:
        crowd = train.crowd
        if crowd is None:
            raise ValueError("training dataset carries no crowd labels")
        K = self.model.num_classes
        self.layer = _CrowdLayer(self.variant, crowd.num_annotators, K)

        votes = crowd.token_vote_counts_flat()                   # (ΣT_i, K)
        pretrain = output_prior = None
        if self.pretrain_epochs > 0:
            # Token-level MV hard tags.
            targets = pad_ragged(
                np.eye(K)[votes.argmax(axis=1)], train.lengths, train.tokens.shape[1]
            )
            pre_config = replace(self.config, epochs=self.pretrain_epochs, lr_decay_every=None)
            pretrain = fit_tagger(
                self.model, pre_config, self.rng, train.tokens, train.lengths, targets
            )
        else:
            output_prior = votes.sum(axis=0)

        history = _fit_joint(self, train, dev, self._padded_crowd_one_hot(train), output_prior)
        with default_dtype(self.config.dtype):
            proba = predict_sequence_proba_batched(self.model, train.tokens, train.lengths)
        self.train_proba_ = trim_padded(proba, train.lengths)
        return {"pretrain": pretrain, **history}

    def predict(self, tokens: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
        return self.model.predict(tokens, lengths)

    def inference_posteriors(self) -> list[np.ndarray]:
        if self.train_proba_ is None:
            raise RuntimeError("fit() has not been run")
        return self.train_proba_
