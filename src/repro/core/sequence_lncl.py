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

As in the classification variant, the loop is
:func:`repro.baselines.common.fit_epochs`; this module supplies the epoch
(``run_sequence_epoch`` against the padded ``qf``), the pseudo-E-step and
the token-level majority-vote prior of the output bias.
"""

from __future__ import annotations

import numpy as np

from ..autodiff.optim import Optimizer
from ..baselines.common import fit_epochs, predict_sequence_proba_batched, run_sequence_epoch
from ..data.datasets import SequenceTaggingDataset, pad_ragged, trim_padded
from ..inference.primitives import normalize_rows, split_by_offsets
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
    def _distill(self, qa: list[np.ndarray], lengths: np.ndarray) -> list[np.ndarray]:
        """Eq. 15 marginals of every sentence from one batched chain DP.

        Padded positions get a uniform row; the chain DP ignores them.
        """
        K = self.model.num_classes
        padded = pad_ragged(qa, lengths, int(lengths.max(initial=0)), fill=np.full(K, 1.0 / K))
        marginals = chain_marginals(
            padded,
            lengths,
            self.rules.pairwise_potential(self.config.C),
            self.rules.initial_potential(self.config.C),
        )
        return trim_padded(marginals, lengths)

    def _check_fixed_qa(self, lengths: np.ndarray) -> None:
        """Reject a frozen posterior that does not match the training sentences."""
        if len(self.fixed_qa) != len(lengths):
            raise ValueError(f"fixed_qa has {len(self.fixed_qa)} sentences, train {len(lengths)}")
        for i, (posterior, length) in enumerate(zip(self.fixed_qa, lengths)):
            shape, expected = np.shape(posterior), (int(length), self.model.num_classes)
            if shape != expected:
                raise ValueError(f"fixed_qa[{i}] has shape {shape}, sentence {i} needs {expected}")

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
        tokens, lengths = train.tokens, train.lengths
        if self.fixed_qa is not None:
            self._check_fixed_qa(lengths)
        max_time = tokens.shape[1]
        uniform = np.full(self.model.num_classes, 1.0 / self.model.num_classes)
        smoothing = self.config.confusion_smoothing

        weights = None
        if self.config.weighted_loss:
            per_sentence = crowd.annotations_per_instance()
            weights = np.repeat(per_sentence[:, None], max_time, axis=1)

        # Token-level majority vote, stacked (ΣT_i, K) in sentence order.
        mv = normalize_rows(crowd.token_vote_counts_flat())
        self.qf_ = split_by_offsets(mv, crowd.flat_labels()[1])
        self.qa_ = self.qb_ = self.qf_
        self.confusions_ = sequence_update_confusions(self.qf_, crowd, smoothing)
        ks: list[float] = []

        def train_epoch(optimizer: Optimizer) -> float:
            targets = pad_ragged(self.qf_, lengths, max_time, fill=uniform)
            return run_sequence_epoch(
                self.model, optimizer, tokens, lengths, targets, self.rng, self.config,
                weights=weights,
            )

        def pseudo_e_step(epoch: int) -> tuple:
            confusions = sequence_update_confusions(self.qf_, crowd, smoothing)
            proba = predict_sequence_proba_batched(self.model, tokens, lengths)
            qa = (
                self.fixed_qa
                if self.fixed_qa is not None
                else sequence_posterior_qa(trim_padded(proba, lengths), crowd, confusions)
            )
            if self.rules is not None:
                qb = self._distill(qa, lengths)
                k = self.config.imitation(epoch)
            else:
                qb, k = qa, 0.0
            ks.append(k)
            self.confusions_, self.qa_, self.qb_ = confusions, qa, qb
            self.qf_ = [(1.0 - k) * a + k * b for a, b in zip(qa, qb)]
            return self.confusions_, self.qa_, self.qb_, self.qf_

        history, state = fit_epochs(
            [self.model], self.config, train_epoch, dev,
            output_prior=mv.sum(axis=0), pseudo_e_step=pseudo_e_step,
        )
        self.confusions_, self.qa_, self.qb_, self.qf_ = state
        history["k"] = ks
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
        return trim_padded(proba.argmax(axis=-1), lengths)

    def inference_posterior(self) -> list[np.ndarray]:
        """``qf(t)`` on the training sentences (Inference metric)."""
        if self.qf_ is None:
            raise RuntimeError("fit() has not been run")
        return self.qf_
