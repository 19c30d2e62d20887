"""Two-stage LNCL: truth inference first, supervised learning second.

The paper's MV-Classifier and GLAD-Classifier baselines (Fig. 1, upper
path): estimate each instance's label with a truth-inference method, then
train the classifier on the estimates as if they were gold. The optional
``test_rule`` enables the *MV-t* ablation (Table IV): a plain MV-Classifier
whose test-time predictions are adapted by Eq. 15.
"""

from __future__ import annotations

import numpy as np

from ..baselines.common import (
    TrainerConfig,
    fit_classifier,
    fit_tagger,
    predict_proba_batched,
    predict_sequence_proba_batched,
)
from ..data.datasets import (
    SequenceTaggingDataset,
    TextClassificationDataset,
    pad_ragged,
    trim_padded,
)
from ..inference.base import TruthInferenceMethod
from ..logic.distillation import chain_marginals, distill_posterior
from ..logic.ner_rules import TransitionRules
from ..logic.sentiment_rules import ButRule
from ..models.base import SequenceTagger, TextClassifier

__all__ = ["TwoStageClassifier", "TwoStageSequenceTagger"]


class TwoStageClassifier:
    """Truth inference + supervised classifier.

    Parameters
    ----------
    model:
        Classifier to train on the inferred labels.
    inference:
        Stage-one truth-inference method (MV, GLAD, DS, ...).
    test_rule, C:
        Optional Eq. 15 adaptation of test-time predictions (the MV-t
        ablation); ``C`` is the regularization strength.
    """

    def __init__(
        self,
        model: TextClassifier,
        inference: TruthInferenceMethod,
        config: TrainerConfig,
        rng: np.random.Generator,
        test_rule: ButRule | None = None,
        C: float = 5.0,
    ) -> None:
        self.model = model
        self.inference = inference
        self.config = config
        self.rng = rng
        self.test_rule = test_rule
        self.C = C
        self.inferred_posterior_: np.ndarray | None = None

    def fit(
        self,
        train: TextClassificationDataset,
        dev: TextClassificationDataset | None = None,
    ) -> dict:
        if train.crowd is None:
            raise ValueError("training dataset carries no crowd labels")
        result = self.inference.infer(train.crowd)
        self.inferred_posterior_ = result.posterior
        return fit_classifier(
            self.model, self.config, self.rng, train.tokens, train.lengths,
            result.hard_labels(), dev,
        )

    def predict(self, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        return self.predict_proba(tokens, lengths).argmax(axis=1)

    def predict_proba(self, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        proba = predict_proba_batched(self.model, tokens, lengths)
        if self.test_rule is None:
            return proba
        penalties = self.test_rule.penalties(tokens, lengths, self.model.predict_proba)
        return distill_posterior(proba, penalties, self.C)

    def inference_posterior(self) -> np.ndarray:
        """Stage-one posterior (the Inference column in Table II)."""
        if self.inferred_posterior_ is None:
            raise RuntimeError("fit() has not been run")
        return self.inferred_posterior_


class TwoStageSequenceTagger:
    """Truth inference + supervised tagger (sequence analogue).

    ``inference`` is any object with ``infer(SequenceCrowdLabels) →
    SequenceInferenceResult`` — a :class:`TokenLevelInference`-wrapped
    method or a native sequential one (HMM-Crowd, BSC-seq).
    """

    def __init__(
        self,
        model: SequenceTagger,
        inference,
        config: TrainerConfig,
        rng: np.random.Generator,
        test_rules: TransitionRules | None = None,
        C: float = 5.0,
    ) -> None:
        self.model = model
        self.inference = inference
        self.config = config
        self.rng = rng
        self.test_rules = test_rules
        self.C = C
        self.inferred_posteriors_: list[np.ndarray] | None = None

    def fit(
        self,
        train: SequenceTaggingDataset,
        dev: SequenceTaggingDataset | None = None,
    ) -> dict:
        if train.crowd is None:
            raise ValueError("training dataset carries no crowd labels")
        result = self.inference.infer(train.crowd)
        self.inferred_posteriors_ = result.posteriors
        hard = pad_ragged(result.hard_labels(), train.lengths, train.tokens.shape[1])
        return fit_tagger(self.model, self.config, self.rng, train.tokens, train.lengths, hard, dev)

    def predict(self, tokens: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
        proba = predict_sequence_proba_batched(self.model, tokens, lengths)
        if self.test_rules is not None:
            proba = chain_marginals(
                proba,
                lengths,
                self.test_rules.pairwise_potential(self.C),
                self.test_rules.initial_potential(self.C),
            )
        return trim_padded(proba.argmax(axis=-1), lengths)

    def inference_posteriors(self) -> list[np.ndarray]:
        if self.inferred_posteriors_ is None:
            raise RuntimeError("fit() has not been run")
        return self.inferred_posteriors_
