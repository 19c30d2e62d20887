"""Logic-LNCL for classification (paper Algorithm 1).

The EM-alike iterative logic knowledge distillation framework:

* **Pseudo-M-step** — one epoch of mini-batch training of the neural
  classifier against the mixed target ``qf`` (Eq. 8/10/11), followed by the
  closed-form annotator update (Eq. 12);
* **Pseudo-E-step** — Bayes posterior ``qa`` (Eq. 13), rule-distilled
  posterior ``qb`` (Eq. 15 via posterior regularization), and the mixture
  ``qf = (1-k)·qa + k·qb`` (Eq. 9) with the imitation schedule ``k(t)``.

The loop is the shared :func:`repro.baselines.common.fit_epochs`; this
module supplies the epoch (``run_classification_epoch`` against ``qf``)
and the pseudo-E-step, whose state the loop restores with the best epoch.

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

from ..autodiff.optim import Optimizer
from ..baselines.common import fit_epochs, predict_proba_batched, run_classification_epoch
from ..data.datasets import TextClassificationDataset
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
        weights = crowd.annotations_per_instance() if self.config.weighted_loss else None
        smoothing = self.config.confusion_smoothing

        # Algorithm 1, line 1: initialize qf with majority voting.
        qf = majority_vote_posterior(crowd)
        self.confusions_ = update_confusions(qf, crowd, smoothing)
        self.qa_, self.qb_, self.qf_ = qf.copy(), qf.copy(), qf
        ks: list[float] = []

        def train_epoch(optimizer: Optimizer) -> float:
            # Pseudo-M-step (classifier): Eq. 11 mini-batch updates on Eq. 8/10.
            return run_classification_epoch(
                self.model, optimizer, tokens, lengths, self.qf_, self.rng, self.config,
                weights=weights,
            )

        def pseudo_e_step(epoch: int) -> tuple:
            # Pseudo-M-step (annotators): Eq. 12 with the current qf.
            confusions = update_confusions(self.qf_, crowd, smoothing)
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
                qb, k = qa, 0.0
            ks.append(k)
            self.confusions_, self.qa_, self.qb_ = confusions, qa, qb
            self.qf_ = (1.0 - k) * qa + k * qb
            return self.confusions_, self.qa_, self.qb_, self.qf_

        history, state = fit_epochs(
            [self.model], self.config, train_epoch, dev, pseudo_e_step=pseudo_e_step
        )
        self.confusions_, self.qa_, self.qb_, self.qf_ = state
        history["k"] = ks
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
