"""Logic-LNCL for classification (paper Algorithm 1).

The EM-alike iterative logic knowledge distillation framework:

* **Pseudo-M-step** — one epoch of mini-batch training of the neural
  classifier against the mixed target ``qf`` (Eq. 8/10/11), followed by the
  closed-form annotator update (Eq. 12);
* **Pseudo-E-step** — Bayes posterior ``qa`` (Eq. 13), rule-distilled
  posterior ``qb`` (Eq. 15 via posterior regularization), and the mixture
  ``qf = (1-k)·qa + k·qb`` (Eq. 9) with the imitation schedule ``k(t)``.

``rule=None`` recovers the rule-free EM baseline — this is exactly the
paper's *w/o-Rule* ablation and algorithmically the AggNet baseline (deep
classifier + confusion-matrix EM). Passing ``fixed_qa`` freezes the truth
posterior (the *MV-Rule* / *GLAD-Rule* ablations, which distill rules from
a static posterior instead of the iteratively refined one).

Two predictors are exported (paper §III-C "Implementation details"):

* **student** — the trained network ``p(t|x; Θ)``;
* **teacher** — the network's prediction adapted by Eq. 15 at test time
  (replace ``qa`` with ``p(t|x)``), which the paper finds strictly better.
"""

from __future__ import annotations

import numpy as np

from ..baselines.common import (
    EarlyStopping,
    build_optimizer,
    predict_proba_batched,
    run_classification_epoch,
)
from ..data.datasets import TextClassificationDataset
from ..eval.classification import accuracy
from ..inference.majority_vote import majority_vote_posterior
from ..logic.distillation import distill_posterior
from ..logic.sentiment_rules import ButRule
from ..models.base import TextClassifier
from .config import LogicLNCLConfig
from .em import posterior_qa, update_confusions

__all__ = ["LogicLNCLClassifier"]


class LogicLNCLClassifier:
    """Classification instantiation of Logic-LNCL.

    Parameters
    ----------
    model:
        The neural classifier (paper: Kim-CNN for sentiment).
    config:
        Hyper-parameters (Table I); see
        :func:`repro.core.config.sentiment_paper_config`.
    rng:
        Generator driving batching (weights/dropout RNGs live in the model).
    rule:
        The groundable logic rule (:class:`~repro.logic.ButRule`), or None
        for the rule-free w/o-Rule / AggNet variant.
    fixed_qa:
        Optional frozen truth posterior ``(I, K)`` replacing the Eq. 13
        inference (MV-Rule / GLAD-Rule ablations).
    """

    def __init__(
        self,
        model: TextClassifier,
        config: LogicLNCLConfig,
        rng: np.random.Generator,
        rule: ButRule | None = None,
        fixed_qa: np.ndarray | None = None,
    ) -> None:
        self.model = model
        self.config = config
        self.rng = rng
        self.rule = rule
        self.fixed_qa = fixed_qa
        # Populated by fit():
        self.confusions_: np.ndarray | None = None
        self.qa_: np.ndarray | None = None
        self.qb_: np.ndarray | None = None
        self.qf_: np.ndarray | None = None
        self.history_: dict | None = None

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(
        self,
        train: TextClassificationDataset,
        dev: TextClassificationDataset | None = None,
    ) -> dict:
        """Run Algorithm 1; returns the training history.

        Early stopping (patience from the config) monitors the *student*'s
        dev accuracy and restores the best epoch's parameters and
        posteriors.
        """
        crowd = train.crowd
        if crowd is None:
            raise ValueError("training dataset carries no crowd labels")
        if self.fixed_qa is not None and self.fixed_qa.shape != (
            len(train),
            self.model.num_classes,
        ):
            raise ValueError("fixed_qa shape does not match the training set")

        tokens, lengths = train.tokens, train.lengths
        weights = (
            crowd.annotations_per_instance().astype(np.float64)
            if self.config.weighted_loss
            else None
        )

        # Algorithm 1, line 1: initialize qf with majority voting.
        qf = majority_vote_posterior(crowd)
        qa = qf.copy()
        qb = qf.copy()
        confusions = update_confusions(qf, crowd, self.config.confusion_smoothing)

        optimizer, schedule = build_optimizer([self.model], self.config)
        stopper = EarlyStopping(self.model, self.config.patience) if dev is not None else None
        best_extras: dict | None = None
        history: dict = {"loss": [], "dev_score": [], "k": []}

        for epoch in range(1, self.config.epochs + 1):
            # Pseudo-M-step (classifier): Eq. 11 mini-batch updates on Eq. 8/10.
            loss = run_classification_epoch(
                self.model, optimizer, tokens, lengths, qf, self.rng, self.config,
                weights=weights,
            )
            history["loss"].append(loss)
            if schedule is not None:
                schedule.step()

            # Pseudo-M-step (annotators): Eq. 12 with the current qf.
            confusions = update_confusions(qf, crowd, self.config.confusion_smoothing)

            # Pseudo-E-step: Eq. 13 → Eq. 15 → Eq. 9.
            proba = predict_proba_batched(self.model, tokens, lengths)
            qa = self.fixed_qa if self.fixed_qa is not None else posterior_qa(
                proba, crowd, confusions
            )
            if self.rule is not None:
                penalties = self.rule.penalties(tokens, lengths, self.model.predict_proba)
                qb = distill_posterior(qa, penalties, self.config.C)
                k = self.config.imitation(epoch)
            else:
                qb = qa
                k = 0.0
            history["k"].append(k)
            qf = (1.0 - k) * qa + k * qb

            if stopper is not None:
                score = accuracy(dev.labels, self.model.predict(dev.tokens, dev.lengths))
                history["dev_score"].append(score)
                improved = score > stopper.best_score
                stop = stopper.update(score)
                if improved:
                    best_extras = {
                        "confusions": confusions.copy(),
                        "qa": np.array(qa, copy=True),
                        "qb": np.array(qb, copy=True),
                        "qf": np.array(qf, copy=True),
                    }
                if stop:
                    break

        if stopper is not None:
            stopper.restore_best()
            history["best_dev_score"] = stopper.best_score
            if best_extras is not None:
                confusions = best_extras["confusions"]
                qa, qb, qf = best_extras["qa"], best_extras["qb"], best_extras["qf"]

        self.confusions_ = confusions
        self.qa_, self.qb_, self.qf_ = qa, qb, qf
        self.history_ = history
        return history

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict_proba_student(self, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """``p(t|x; Θ)`` — the plain network prediction."""
        return predict_proba_batched(self.model, tokens, lengths)

    def predict_student(self, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        return self.predict_proba_student(tokens, lengths).argmax(axis=1)

    def predict_proba_teacher(self, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Eq. 15 applied at test time with ``qa := p(t|x; Θ)``."""
        proba = self.predict_proba_student(tokens, lengths)
        if self.rule is None:
            return proba
        penalties = self.rule.penalties(tokens, lengths, self.model.predict_proba)
        return distill_posterior(proba, penalties, self.config.C)

    def predict_teacher(self, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        return self.predict_proba_teacher(tokens, lengths).argmax(axis=1)

    # ------------------------------------------------------------------ #
    def inference_posterior(self) -> np.ndarray:
        """``qf(t)`` on the training set — the paper's Inference metric."""
        if self.qf_ is None:
            raise RuntimeError("fit() has not been run")
        return self.qf_
