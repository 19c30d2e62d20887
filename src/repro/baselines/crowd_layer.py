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
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..autodiff import Tensor
from ..autodiff import functional as F
from ..autodiff.dtypes import default_dtype
from ..autodiff.nn import Module
from ..baselines.common import (
    EarlyStopping,
    TrainerConfig,
    build_optimizer,
    fit_classifier,
    fit_tagger,
    predict_proba_batched,
    predict_sequence_proba_batched,
)
from ..crowd.types import MISSING
from ..data.datasets import SequenceTaggingDataset, TextClassificationDataset
from ..data.loaders import batch_indices
from ..eval.classification import accuracy
from ..eval.ner_f1 import span_f1_score
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

        history: dict = {"pretrain": None, "loss": [], "dev_score": []}
        if self.pretrain_epochs > 0:
            mv_hard = majority_vote_posterior(crowd).argmax(axis=1)
            pre_config = replace(
                self.config, epochs=self.pretrain_epochs, lr_decay_every=None
            )
            history["pretrain"] = fit_classifier(
                self.model, pre_config, self.rng, train.tokens, train.lengths,
                np.eye(K)[mv_hard], dev=None,
            )

        one_hot = crowd.one_hot()                                # (I, J, K)
        optimizer, schedule = build_optimizer([self.model, self.layer], self.config)
        stopper = EarlyStopping(self.model, self.config.patience) if dev is not None else None

        with default_dtype(self.config.dtype):
            for _ in range(self.config.epochs):
                self.model.train()
                total = 0.0
                batches = 0
                for batch in batch_indices(len(train), self.config.batch_size, rng=self.rng):
                    optimizer.zero_grad()
                    logits = self.model.logits(train.tokens[batch], train.lengths[batch])
                    proba = F.softmax(logits, axis=-1)
                    scores = self.layer.annotator_scores(proba)
                    loss = _masked_annotator_ce(scores, one_hot[batch])
                    loss.backward()
                    optimizer.step()
                    if hasattr(self.model, "apply_max_norm"):
                        self.model.apply_max_norm()
                    total += loss.item()
                    batches += 1
                history["loss"].append(total / max(batches, 1))
                if schedule is not None:
                    schedule.step()
                if stopper is not None:
                    score = accuracy(dev.labels, self.model.predict(dev.tokens, dev.lengths))
                    history["dev_score"].append(score)
                    if stopper.update(score):
                        break
            if stopper is not None:
                stopper.restore_best()
                history["best_dev_score"] = stopper.best_score
            self.train_proba_ = predict_proba_batched(self.model, train.tokens, train.lengths)
        return history

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
        I, T = train.tokens.shape
        J, K = crowd.num_annotators, crowd.num_classes
        out = np.zeros((I, T, J, K))
        for i in range(I):
            matrix = crowd.labels[i]                    # (T_i, J)
            observed = matrix != MISSING
            t_idx, j_idx = np.nonzero(observed)
            out[i, t_idx, j_idx, matrix[t_idx, j_idx]] = 1.0
        return out

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

        history: dict = {"pretrain": None, "loss": [], "dev_score": []}
        if self.pretrain_epochs > 0:
            # Token-level MV hard tags.
            max_time = train.tokens.shape[1]
            targets = np.zeros((len(train), max_time, K))
            for i in range(len(train)):
                votes = crowd.token_vote_counts(i)
                targets[i, : votes.shape[0]] = np.eye(K)[votes.argmax(axis=1)]
            pre_config = replace(
                self.config, epochs=self.pretrain_epochs, lr_decay_every=None
            )
            history["pretrain"] = fit_tagger(
                self.model, pre_config, self.rng, train.tokens, train.lengths, targets, dev=None
            )
        elif hasattr(self.model, "initialize_output_bias") and len(train) > 0:
            votes = np.sum(
                [crowd.token_vote_counts(i).sum(axis=0) for i in range(len(train))], axis=0
            ).astype(np.float64)
            if votes.sum() > 0:  # no votes at all: keep the default bias
                self.model.initialize_output_bias(votes / votes.sum())

        one_hot = self._padded_crowd_one_hot(train)
        optimizer, schedule = build_optimizer([self.model, self.layer], self.config)
        stopper = EarlyStopping(self.model, self.config.patience) if dev is not None else None

        with default_dtype(self.config.dtype):
            for _ in range(self.config.epochs):
                self.model.train()
                total = 0.0
                batches = 0
                for batch in batch_indices(len(train), self.config.batch_size, rng=self.rng):
                    optimizer.zero_grad()
                    logits = self.model.logits(train.tokens[batch], train.lengths[batch])
                    proba = F.softmax(logits, axis=-1)                 # (B, T, K)
                    scores = self.layer.annotator_scores(proba)        # (B, T, J, K)
                    loss = _masked_annotator_ce(scores, one_hot[batch])
                    loss.backward()
                    optimizer.step()
                    total += loss.item()
                    batches += 1
                history["loss"].append(total / max(batches, 1))
                if schedule is not None:
                    schedule.step()
                if stopper is not None:
                    predictions = self.model.predict(dev.tokens, dev.lengths)
                    score = span_f1_score(dev.tags, predictions).f1
                    history["dev_score"].append(score)
                    if stopper.update(score):
                        break
            if stopper is not None:
                stopper.restore_best()
                history["best_dev_score"] = stopper.best_score
            proba = predict_sequence_proba_batched(self.model, train.tokens, train.lengths)
        self.train_proba_ = [proba[i, : int(train.lengths[i])] for i in range(len(train))]
        return history

    def predict(self, tokens: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
        return self.model.predict(tokens, lengths)

    def inference_posteriors(self) -> list[np.ndarray]:
        if self.train_proba_ is None:
            raise RuntimeError("fit() has not been run")
        return self.train_proba_
