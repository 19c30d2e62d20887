"""IBCC (Kim & Ghahramani, AISTATS 2012): independent Bayesian classifier
combination, realized with variational Bayes.

Bayesian Dawid–Skene: Dirichlet priors over the class proportions and over
each row of each annotator's confusion matrix. The variational posterior
factorizes; updates alternate

    q(t_i) ∝ exp( E[log p_m] + Σ_j E[log π_j(m, y_ij)] )

with Dirichlet-count updates whose expectations use digamma functions. The
priors make it markedly more robust than plain DS on annotators with few
labels (the NER crowd's long tail).

The variational loop is written once, map-reduce style
(:mod:`repro.inference.sharding`): ``infer(crowd)`` runs it on the crowd
as its own single shard, ``infer_sharded`` on any shard source.

Performance: the Dirichlet-count scatter and the expected-log-likelihood
gather share DS's sparse kernels (:mod:`repro.inference.primitives`) over
the shard's cached COO views. The seed implementation is kept as the
executable specification (``seed_ibcc`` in ``tests/oracles.py``);
equivalence at atol 1e-10 is enforced by
``tests/inference/equivalence_harness.py``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma

from .base import ConvergenceMonitor, InferenceResult
from .majority_vote import majority_vote_posterior
from .primitives import confusion_counts, emission_log_likelihood, normalize_log_posterior
from .sharding import ShardedTruthInference, ShardStats, shard_base_stats

__all__ = ["IBCC"]


class IBCC(ShardedTruthInference):
    """Variational-Bayes IBCC.

    Same round structure as :class:`~repro.inference.dawid_skene.
    DawidSkene` — the Dirichlet posterior counts are exactly the mergeable
    statistics (per-shard soft confusion counts + class totals), and the
    digamma expectations are a global O(J·K²) transform of the merged
    counts.

    Parameters
    ----------
    max_iterations:
        Upper bound on variational sweeps.
    tolerance:
        Stop when the posterior's max absolute change falls below this.
    prior_diagonal, prior_off_diagonal:
        Dirichlet pseudo-counts for confusion rows: the diagonal prior
        encodes "annotators are better than chance".
    prior_class:
        Symmetric Dirichlet pseudo-count for class proportions.
    """

    name = "IBCC"

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
        prior_diagonal: float = 2.0,
        prior_off_diagonal: float = 1.0,
        prior_class: float = 1.0,
    ) -> None:
        if max_iterations < 1:
            raise ValueError("need at least one iteration")
        if prior_diagonal <= 0 or prior_off_diagonal <= 0 or prior_class <= 0:
            raise ValueError("Dirichlet priors must be positive")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.prior_diagonal = prior_diagonal
        self.prior_off_diagonal = prior_off_diagonal
        self.prior_class = prior_class

    def _init_mapper(self, params, shard):
        block = majority_vote_posterior(shard)
        return block, ShardStats(
            confusion=confusion_counts(block, shard),
            class_totals=block.sum(axis=0),
            **shard_base_stats(shard),
        )

    def _em_mapper(self, params, shard, old_block):
        expected_log_class, expected_log_confusion = params
        log_posterior = expected_log_class[None, :] + emission_log_likelihood(
            shard, expected_log_confusion
        )
        block = normalize_log_posterior(log_posterior)
        return block, ShardStats(
            confusion=confusion_counts(block, shard),
            class_totals=block.sum(axis=0),
            delta=float(np.abs(block - old_block).max(initial=0.0)),
        )

    def _infer(self, ctx) -> InferenceResult:
        _, K, blocks, stats = self._initial_pass(ctx, self._init_mapper)
        self._require_annotated(stats)
        num_shards = len(blocks)
        observations = stats.observations
        prior_matrix = np.full((K, K), self.prior_off_diagonal)
        np.fill_diagonal(prior_matrix, self.prior_diagonal)
        monitor = ConvergenceMonitor(self.tolerance, self.max_iterations)

        while True:
            # Global variational M: Dirichlet counts from the merged stats.
            count_matrix = stats.confusion + prior_matrix
            class_counts = stats.class_totals + self.prior_class
            expected_log_confusion = digamma(count_matrix) - digamma(
                count_matrix.sum(axis=2, keepdims=True)
            )
            expected_log_class = digamma(class_counts) - digamma(class_counts.sum())

            blocks, stats = self._pass(
                ctx, blocks, self._em_mapper,
                (expected_log_class, expected_log_confusion),
            )
            confusions = count_matrix / count_matrix.sum(axis=2, keepdims=True)
            if monitor.step(stats.delta):
                break

        extras = monitor.extras()
        extras.update(shards=num_shards, observations=observations)
        return InferenceResult(
            posterior=self._concat(blocks, K), confusions=confusions, extras=extras
        )
