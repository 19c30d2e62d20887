"""HMM-Crowd (Nguyen et al., ACL 2017): sequential truth inference.

Hidden true tag sequences follow a first-order Markov chain; each annotator
emits labels through a per-annotator confusion matrix. EM:

* E-step — per sentence, forward–backward over the chain whose emission
  likelihood at token ``t`` for state ``m`` is
  ``Π_{j∈J(i)} π_j[m, y_{tj}]``;
* M-step — count updates (with smoothing) for the initial distribution,
  the transition matrix, and every confusion matrix, each normalized by
  :func:`repro.inference.primitives.normalize_rows`, so at zero smoothing
  a row with no mass is uniform.

The transition matrix is what lets the method repair boundary errors that
token-independent aggregation (MV/DS) cannot.

Performance: the E-step runs :func:`repro.inference.primitives.\
batched_forward_backward` over padded ``(I, T_max, K)`` emissions — every
timestep is one matmul across all sentences — and both the emission
build-up and the confusion-count M-step are sparse products over the
crowd's cached flat token views. The seed per-chain forward–backward and
EM loop are kept as executable specifications (``seed_forward_backward``
and ``seed_hmm_crowd`` in ``tests/oracles.py``); equivalence at atol
1e-10 is enforced by ``tests/inference/test_primitives.py`` and
``tests/inference/equivalence_harness.py``.
"""

from __future__ import annotations

import numpy as np

from ..crowd.types import SequenceCrowdLabels
from .base import ConvergenceMonitor, SequenceInferenceResult
from .primitives import (
    batched_forward_backward,
    confusion_counts,
    emission_log_likelihood,
    flat_chain_views,
    normalize_rows,
    scatter_to_padded,
    split_by_offsets,
    token_majority_vote_flat,
)

__all__ = ["HMMCrowd"]


class HMMCrowd:
    """EM for the HMM-with-crowd-emissions model."""

    name = "HMM-Crowd"

    def __init__(self, max_iterations: int = 30, tolerance: float = 1e-4, smoothing: float = 0.1) -> None:
        if max_iterations < 1:
            raise ValueError("need at least one iteration")
        if smoothing < 0:
            raise ValueError(f"smoothing must be non-negative, got {smoothing}")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.smoothing = smoothing

    def infer(self, crowd: SequenceCrowdLabels) -> SequenceInferenceResult:
        K = crowd.num_classes
        offsets, lengths, starts, chain_index, time_index, T_max = flat_chain_views(crowd)
        transition = np.full((K, K), 1.0 / K)
        initial = np.full(K, 1.0 / K)
        if T_max == 0:
            # Degenerate crowd (no sentences, or only empty ones): nothing
            # to infer; parameters stay at their uniform initialization.
            return SequenceInferenceResult(
                posteriors=[np.zeros((0, K)) for _ in range(crowd.num_instances)],
                confusions=np.full((crowd.num_annotators, K, K), 1.0 / K),
                extras={
                    "iterations": 0,
                    "last_change": 0.0,
                    "converged": True,
                    "transition": transition,
                    "initial": initial,
                    "log_likelihood": 0.0,
                },
            )
        gamma_flat = token_majority_vote_flat(crowd)

        confusions = np.zeros((crowd.num_annotators, K, K))
        monitor = ConvergenceMonitor(self.tolerance, self.max_iterations)
        previous_log_likelihood = -np.inf

        while True:
            # M-step from current posteriors.
            confusions = normalize_rows(confusion_counts(gamma_flat, crowd) + self.smoothing)
            initial_counts = self.smoothing + gamma_flat[starts].sum(axis=0)

            # E-step: all chains at once, with fresh transition statistics.
            log_em = scatter_to_padded(
                emission_log_likelihood(crowd, np.log(confusions)),
                crowd.num_instances, T_max, chain_index, time_index,
            )
            gamma_padded, xi, chain_log_likelihoods = batched_forward_backward(
                log_em, np.log(transition), np.log(initial), lengths
            )
            gamma_flat = gamma_padded[chain_index, time_index]
            transition = normalize_rows(self.smoothing + xi.sum(axis=0))
            initial = normalize_rows(initial_counts)

            total_log_likelihood = float(chain_log_likelihoods.sum())
            change = abs(total_log_likelihood - previous_log_likelihood)
            previous_log_likelihood = total_log_likelihood
            if monitor.step(change, total_log_likelihood):
                break

        posteriors = split_by_offsets(gamma_flat, offsets)
        extras = monitor.extras()
        extras.update(
            transition=transition,
            initial=initial,
            log_likelihood=previous_log_likelihood,
        )
        return SequenceInferenceResult(
            posteriors=posteriors, confusions=confusions, extras=extras
        )
