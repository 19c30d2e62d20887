"""BSC-seq (Simpson & Gurevych, 2019), simplified: Bayesian sequence
combination with a sequential worker model.

The original BSC is a full variational Bayesian treatment with several
worker models; we implement the "seq" configuration's essential structure
— a Markov chain over true tags plus per-annotator confusion matrices —
with Dirichlet priors on every categorical parameter and variational
(digamma-expectation) updates in place of HMM-Crowd's maximum-likelihood
counts. DESIGN.md records this as a documented simplification: the prior
smoothing is what distinguishes its behaviour from HMM-Crowd on long-tail
annotators, and that mechanism is preserved.

Performance: shares HMM-Crowd's vectorized E-step — batched
forward–backward over padded ``(I, T_max, K)`` expected-log emissions —
and the sparse confusion-count kernel from
:mod:`repro.inference.primitives`. The seed loop is kept as the
executable specification (``seed_bsc_seq`` in ``tests/oracles.py``);
equivalence at atol 1e-10 is enforced by
``tests/inference/equivalence_harness.py``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma

from ..crowd.types import SequenceCrowdLabels
from .base import ConvergenceMonitor, SequenceInferenceResult
from .primitives import (
    batched_forward_backward,
    confusion_counts,
    emission_log_likelihood,
    flat_chain_views,
    scatter_to_padded,
    split_by_offsets,
    token_majority_vote_flat,
)

__all__ = ["BSCSeq"]


class BSCSeq:
    """Variational Bayesian sequential combination (simplified BSC-seq)."""

    name = "BSC-seq"

    def __init__(
        self,
        max_iterations: int = 30,
        tolerance: float = 1e-4,
        prior_diagonal: float = 2.0,
        prior_off_diagonal: float = 1.0,
        prior_transition: float = 1.0,
    ) -> None:
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
        if prior_diagonal <= 0 or prior_off_diagonal <= 0 or prior_transition <= 0:
            raise ValueError("Dirichlet priors must be positive")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.prior_diagonal = prior_diagonal
        self.prior_off_diagonal = prior_off_diagonal
        self.prior_transition = prior_transition

    def infer(self, crowd: SequenceCrowdLabels) -> SequenceInferenceResult:
        K = crowd.num_classes
        prior_confusion = np.full((K, K), self.prior_off_diagonal)
        np.fill_diagonal(prior_confusion, self.prior_diagonal)
        offsets, lengths, starts, chain_index, time_index, T_max = flat_chain_views(crowd)
        transition_counts = np.full((K, K), self.prior_transition)
        if T_max == 0:
            # Degenerate crowd (no sentences, or only empty ones): nothing
            # to infer; parameters stay at their prior expectations.
            prior_rows = prior_confusion / prior_confusion.sum(axis=1, keepdims=True)
            return SequenceInferenceResult(
                posteriors=[np.zeros((0, K)) for _ in range(crowd.num_instances)],
                confusions=np.tile(prior_rows, (crowd.num_annotators, 1, 1)),
                extras={
                    "iterations": 0,
                    "last_change": 0.0,
                    "converged": True,
                    "transition": transition_counts
                    / transition_counts.sum(axis=1, keepdims=True),
                },
            )
        gamma_flat = token_majority_vote_flat(crowd)
        monitor = ConvergenceMonitor(self.tolerance, self.max_iterations)

        confusions = np.zeros((crowd.num_annotators, K, K))
        while True:
            count_matrix = confusion_counts(gamma_flat, crowd) + prior_confusion
            initial_counts = self.prior_transition + gamma_flat[starts].sum(axis=0)

            # Variational expectations of log parameters.
            expected_log_confusion = digamma(count_matrix) - digamma(
                count_matrix.sum(axis=2, keepdims=True)
            )
            expected_log_transition = digamma(transition_counts) - digamma(
                transition_counts.sum(axis=1, keepdims=True)
            )
            expected_log_initial = digamma(initial_counts) - digamma(initial_counts.sum())

            log_em = scatter_to_padded(
                emission_log_likelihood(crowd, expected_log_confusion),
                crowd.num_instances, T_max, chain_index, time_index,
            )
            gamma_padded, xi, chain_log_likelihoods = batched_forward_backward(
                log_em, expected_log_transition, expected_log_initial, lengths
            )
            new_gamma_flat = gamma_padded[chain_index, time_index]
            max_change = (
                float(np.abs(new_gamma_flat - gamma_flat).max()) if gamma_flat.size else 0.0
            )
            gamma_flat = new_gamma_flat
            transition_counts = self.prior_transition + xi.sum(axis=0)
            confusions = count_matrix / count_matrix.sum(axis=2, keepdims=True)

            if monitor.step(max_change, float(chain_log_likelihoods.sum())):
                break

        posteriors = split_by_offsets(gamma_flat, offsets)
        extras = monitor.extras()
        extras["transition"] = transition_counts / transition_counts.sum(
            axis=1, keepdims=True
        )
        return SequenceInferenceResult(
            posteriors=posteriors, confusions=confusions, extras=extras
        )
