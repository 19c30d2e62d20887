"""CATD (Li et al., VLDB 2014): confidence-aware truth discovery.

CATD addresses the *long tail* of annotators with very few labels: a
point-estimated reliability for a 3-label annotator is meaningless. Instead
each annotator's weight is the upper end of a chi-square confidence
interval on their error sum:

    w_j = χ²(α/2; n_j) / Σ_i d(y_ij, t_i*)

so scarce annotators get conservative (smaller) weights. We alternate this
weight update with weighted voting, using the squared distance
``d = 1 - posterior_match`` for categorical labels.

The iteration is written once, map-reduce style
(:mod:`repro.inference.sharding`): ``infer(crowd)`` runs it on the crowd
as its own single shard, ``infer_sharded`` on any shard source.

Performance: the error sum is one
:func:`~repro.inference.primitives.annotator_agreement` gather/scatter and
the weighted vote one
:func:`~repro.inference.primitives.weighted_vote_scores` spMM/bincount over
the shard's cached COO views — the dense ``(I, J, K)`` one-hot einsums
survive only in ``seed_catd`` (``tests/oracles.py``), the executable
specification the equivalence harness pins at atol 1e-10.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from .base import ConvergenceMonitor, InferenceResult
from .majority_vote import majority_vote_posterior
from .primitives import annotator_agreement, normalize_vote_scores, weighted_vote_scores
from .sharding import ShardedTruthInference, ShardStats, shard_base_stats

__all__ = ["CATD"]


class CATD(ShardedTruthInference):
    """Confidence-aware iterative weighted voting.

    The chi-square interval bounds depend only on the merged per-annotator
    label counts (computed once, in the init pass); each round then needs
    only the merged error sums for the global weight update, and the
    weighted vote runs shard-local.

    Parameters
    ----------
    max_iterations:
        Upper bound on weight/vote alternations.
    tolerance:
        Stop when the posterior's max absolute change falls below this.
    alpha:
        Significance level of the chi-square confidence interval.
    """

    name = "CATD"

    def __init__(
        self, max_iterations: int = 50, tolerance: float = 1e-6, alpha: float = 0.05
    ) -> None:
        if max_iterations < 1:
            raise ValueError("need at least one iteration")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.alpha = alpha

    def _init_mapper(self, params, shard):
        block = majority_vote_posterior(shard)
        return block, ShardStats(
            agreement=annotator_agreement(block, shard),
            label_counts=np.asarray(
                shard.annotations_per_annotator(), dtype=np.float64
            ),
            **shard_base_stats(shard),
        )

    def _vote_mapper(self, weights, shard, old_block):
        block = normalize_vote_scores(weighted_vote_scores(weights, shard))
        return block, ShardStats(
            agreement=annotator_agreement(block, shard),
            delta=float(np.abs(block - old_block).max(initial=0.0)),
        )

    def _infer(self, ctx) -> InferenceResult:
        _, K, blocks, merged = self._initial_pass(ctx, self._init_mapper)
        self._require_annotated(merged)
        num_shards = len(blocks)
        observations = merged.observations
        counts = merged.label_counts
        # χ²(α/2; n_j): annotators with more labels can earn larger weights.
        chi_upper = stats.chi2.ppf(1.0 - self.alpha / 2.0, df=np.maximum(counts, 1))
        monitor = ConvergenceMonitor(self.tolerance, self.max_iterations)

        while True:
            error_sum = counts - merged.agreement
            weights = chi_upper / np.maximum(error_sum, 1e-6)
            weights = weights / weights.max()  # scale-invariant voting

            blocks, merged = self._pass(ctx, blocks, self._vote_mapper, weights)
            if monitor.step(merged.delta):
                break

        extras = monitor.extras()
        extras.update(weights=weights, shards=num_shards, observations=observations)
        return InferenceResult(posterior=self._concat(blocks, K), extras=extras)
