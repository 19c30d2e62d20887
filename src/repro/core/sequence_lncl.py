"""Logic-LNCL for sequence tagging (the paper's NER instantiation).

Identical EM-alike structure to the classification variant, with three
sequence-specific pieces:

* token-level annotator confusion matrices (Eq. 12/13 per token);
* the Eq. 15 projection couples *adjacent* labels through the BIO
  transition rules (Eq. 18–19), so ``qb``'s per-token marginals are
  computed exactly with the chain forward–backward DP
  (:func:`repro.logic.chain_marginals`) — the "dynamic programming for
  efficient computation in Equation 15" the paper describes. Each
  pseudo-E-step pads every sentence's ``qa`` into one ``(I, T_max, K)``
  batch and runs the DP once for the whole sweep, as does teacher
  prediction;
* the Eq. 10 weighted loss uses each sentence's annotator count as the
  per-token weight (Table I selects the weighted objective for NER).
"""

from __future__ import annotations

import numpy as np

from ..baselines.common import (
    EarlyStopping,
    build_optimizer,
    predict_sequence_proba_batched,
    run_sequence_epoch,
)
from ..data.datasets import SequenceTaggingDataset
from ..eval.ner_f1 import span_f1_score
from ..logic.distillation import chain_marginals
from ..logic.ner_rules import TransitionRules
from ..models.base import SequenceTagger
from .config import LogicLNCLConfig
from .em import sequence_posterior_qa, sequence_update_confusions

__all__ = ["LogicLNCLSequenceTagger"]


class LogicLNCLSequenceTagger:
    """Sequence-tagging instantiation of Logic-LNCL.

    Parameters
    ----------
    model:
        The neural tagger (paper: CNN+GRU).
    config:
        Hyper-parameters (Table I); see
        :func:`repro.core.config.ner_paper_config`.
    rules:
        Compiled BIO transition rules, or None for the rule-free
        w/o-Rule / AggNet variant.
    fixed_qa:
        Optional frozen per-sentence truth posteriors (list of ``(T_i, K)``)
        for the MV-Rule-style ablations.
    """

    def __init__(
        self,
        model: SequenceTagger,
        config: LogicLNCLConfig,
        rng: np.random.Generator,
        rules: TransitionRules | None = None,
        fixed_qa: list[np.ndarray] | None = None,
    ) -> None:
        self.model = model
        self.config = config
        self.rng = rng
        self.rules = rules
        self.fixed_qa = fixed_qa
        self.confusions_: np.ndarray | None = None
        self.qa_: list[np.ndarray] | None = None
        self.qb_: list[np.ndarray] | None = None
        self.qf_: list[np.ndarray] | None = None
        self.history_: dict | None = None

    # ------------------------------------------------------------------ #
    def _distill(self, qa: list[np.ndarray]) -> list[np.ndarray]:
        """Eq. 15 marginals of every sentence from one batched chain DP."""
        lengths = np.array([q.shape[0] for q in qa], dtype=np.int64)
        padded = self._pad_targets(qa, int(lengths.max(initial=0)), self.model.num_classes)
        marginals = chain_marginals(
            padded,
            lengths,
            self.rules.pairwise_potential(self.config.C),
            self.rules.initial_potential(self.config.C),
        )
        return [marginals[i, :length] for i, length in enumerate(lengths)]

    @staticmethod
    def _mix(qa: list[np.ndarray], qb: list[np.ndarray], k: float) -> list[np.ndarray]:
        return [(1.0 - k) * a + k * b for a, b in zip(qa, qb)]

    @staticmethod
    def _pad_targets(posteriors: list[np.ndarray], max_time: int, num_classes: int) -> np.ndarray:
        """Stack ragged per-sentence posteriors into ``(I, T, K)``.

        Padded rows get a uniform distribution; the loss masks them and
        the chain DP ignores them, so the value is irrelevant — uniform
        keeps them harmless.
        """
        out = np.full((len(posteriors), max_time, num_classes), 1.0 / num_classes)
        for i, posterior in enumerate(posteriors):
            out[i, : posterior.shape[0], :] = posterior
        return out

    def _token_mv(self, crowd) -> list[np.ndarray]:
        """Token-level majority vote over all sentences in one pass."""
        votes = crowd.token_vote_counts_flat().astype(np.float64)   # (ΣT_i, K)
        totals = votes.sum(axis=1, keepdims=True)
        uniform = np.full_like(votes, 1.0 / crowd.num_classes)
        flat = np.where(totals > 0, votes / np.where(totals > 0, totals, 1.0), uniform)
        _, offsets = crowd.flat_labels()
        return [flat[offsets[i] : offsets[i + 1]] for i in range(crowd.num_instances)]

    # ------------------------------------------------------------------ #
    def fit(
        self,
        train: SequenceTaggingDataset,
        dev: SequenceTaggingDataset | None = None,
    ) -> dict:
        """Run Algorithm 1 on a sequence crowd; returns training history."""
        crowd = train.crowd
        if crowd is None:
            raise ValueError("training dataset carries no crowd labels")
        K = self.model.num_classes
        tokens, lengths = train.tokens, train.lengths
        max_time = tokens.shape[1]

        weights = None
        if self.config.weighted_loss:
            per_sentence = crowd.annotations_per_instance().astype(np.float64)
            weights = np.repeat(per_sentence[:, None], max_time, axis=1)

        qf = self._token_mv(crowd)
        qa, qb = qf, qf
        confusions = sequence_update_confusions(qf, crowd, self.config.confusion_smoothing)

        optimizer, schedule = build_optimizer([self.model], self.config)
        # After the cast, so the prior bias is computed at the training precision.
        if hasattr(self.model, "initialize_output_bias") and qf:
            priors = np.concatenate(qf, axis=0).sum(axis=0)
            if priors.sum() > 0:  # empty training set: keep the default bias
                self.model.initialize_output_bias(priors / priors.sum())
        stopper = EarlyStopping(self.model, self.config.patience) if dev is not None else None
        best_extras: dict | None = None
        history: dict = {"loss": [], "dev_score": [], "k": []}

        for epoch in range(1, self.config.epochs + 1):
            targets = self._pad_targets(qf, max_time, K)
            loss = run_sequence_epoch(
                self.model, optimizer, tokens, lengths, targets, self.rng, self.config,
                weights=weights,
            )
            history["loss"].append(loss)
            if schedule is not None:
                schedule.step()

            confusions = sequence_update_confusions(qf, crowd, self.config.confusion_smoothing)

            proba = predict_sequence_proba_batched(self.model, tokens, lengths)
            proba_list = [proba[i, : int(lengths[i])] for i in range(len(lengths))]
            qa = (
                self.fixed_qa
                if self.fixed_qa is not None
                else sequence_posterior_qa(proba_list, crowd, confusions)
            )
            if self.rules is not None:
                qb = self._distill(qa)
                k = self.config.imitation(epoch)
            else:
                qb = qa
                k = 0.0
            history["k"].append(k)
            qf = self._mix(qa, qb, k)

            if stopper is not None:
                predictions = self.model.predict(dev.tokens, dev.lengths)
                score = span_f1_score(dev.tags, predictions).f1
                history["dev_score"].append(score)
                improved = score > stopper.best_score
                stop = stopper.update(score)
                if improved:
                    best_extras = {
                        "confusions": confusions.copy(),
                        "qa": [np.array(q, copy=True) for q in qa],
                        "qb": [np.array(q, copy=True) for q in qb],
                        "qf": [np.array(q, copy=True) for q in qf],
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
    def predict_student(self, tokens: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
        """Plain network predictions, trimmed to sentence lengths."""
        return self.model.predict(tokens, lengths)

    def predict_teacher(self, tokens: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
        """Eq. 15 at test time: chain-DP marginals of the rule-adapted
        network prediction (one batched DP over all sentences), decoded
        per token."""
        proba = predict_sequence_proba_batched(self.model, tokens, lengths)
        if self.rules is not None:
            proba = chain_marginals(
                proba,
                lengths,
                self.rules.pairwise_potential(self.config.C),
                self.rules.initial_potential(self.config.C),
            )
        return [proba[i, : int(lengths[i])].argmax(axis=1) for i in range(len(lengths))]

    def inference_posterior(self) -> list[np.ndarray]:
        """``qf(t)`` on the training sentences (Inference metric)."""
        if self.qf_ is None:
            raise RuntimeError("fit() has not been run")
        return self.qf_
