"""DL-DN / DL-WDN (Guan et al., AAAI 2018): "Who said what".

Train one network per crowd annotator on that annotator's own labels, then
aggregate the member networks' predictions at test time:

* **DN** — uniform averaging of member softmax outputs;
* **WDN** — weighted averaging, weights from each annotator's estimated
  reliability (agreement of their labels with the majority vote, a
  label-free proxy for accuracy).

Annotators below ``min_labels`` are skipped — a network trained on a
handful of labels is noise (and the real crowd's long tail makes this the
dominant case).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..baselines.common import TrainerConfig, fit_classifier, predict_proba_batched
from ..data.datasets import TextClassificationDataset
from ..inference.majority_vote import majority_vote_posterior
from ..models.base import TextClassifier

__all__ = ["DeepMultiNetworkClassifier"]


class DeepMultiNetworkClassifier:
    """DL-DN (uniform) or DL-WDN (weighted) ensemble.

    Parameters
    ----------
    model_factory:
        Zero-argument callable producing a fresh base network per annotator.
    weighted:
        False → DL-DN; True → DL-WDN.
    min_labels:
        Minimum labels an annotator needs to receive a member network.
    """

    def __init__(
        self,
        model_factory: Callable[[], TextClassifier],
        config: TrainerConfig,
        rng: np.random.Generator,
        weighted: bool = False,
        min_labels: int = 20,
    ) -> None:
        if min_labels < 1:
            raise ValueError("min_labels must be >= 1")
        self.model_factory = model_factory
        self.config = config
        self.rng = rng
        self.weighted = weighted
        self.min_labels = min_labels
        self.members_: list[TextClassifier] = []
        self.member_weights_: np.ndarray | None = None

    def fit(
        self,
        train: TextClassificationDataset,
        dev: TextClassificationDataset | None = None,
    ) -> dict:
        crowd = train.crowd
        if crowd is None:
            raise ValueError("training dataset carries no crowd labels")
        counts = crowd.annotations_per_annotator()
        eligible = np.nonzero(counts >= self.min_labels)[0]
        if eligible.size == 0:
            raise ValueError(
                f"no annotator has >= {self.min_labels} labels; lower min_labels"
            )

        mv_hard = majority_vote_posterior(crowd).argmax(axis=1)
        self.members_ = []
        weights = []
        history: dict = {"members": []}
        for j in eligible:
            mask = crowd.observed_mask[:, j]
            model = self.model_factory()
            member_history = fit_classifier(
                model,
                self.config,
                self.rng,
                train.tokens[mask],
                train.lengths[mask],
                crowd.labels[mask, j],
                dev,
            )
            self.members_.append(model)
            history["members"].append(
                {"annotator": int(j), "labels": int(mask.sum()), **member_history}
            )
            # Reliability proxy: agreement with MV on the annotator's items.
            agreement = float((crowd.labels[mask, j] == mv_hard[mask]).mean())
            weights.append(max(agreement, 1e-3))
        weights = np.asarray(weights)
        self.member_weights_ = (
            weights / weights.sum() if self.weighted else np.full(len(weights), 1.0 / len(weights))
        )
        return history

    def predict_proba(self, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        if not self.members_:
            raise RuntimeError("fit() has not been run")
        stacked = np.stack(
            [predict_proba_batched(member, tokens, lengths) for member in self.members_]
        )
        return np.einsum("m,mik->ik", self.member_weights_, stacked)

    def predict(self, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        return self.predict_proba(tokens, lengths).argmax(axis=1)
