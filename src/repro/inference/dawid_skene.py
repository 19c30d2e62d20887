"""Dawid & Skene (1979): confusion-matrix EM for truth inference.

The grandfather of the paper's probabilistic model family (§VII). Latent
true labels, per-annotator confusion matrices, class prior; EM alternates
Bayes-rule posteriors with closed-form count updates. Laplace smoothing
keeps confusion rows proper on sparse annotators; at zero smoothing
:func:`~repro.inference.primitives.normalize_rows` makes a row with no
mass uniform.

The EM loop is written once, map-reduce style
(:mod:`repro.inference.sharding`): ``infer(crowd)`` runs it on the crowd
as its own single shard, ``infer_sharded`` on any shard source.

Performance: both EM steps run on the shard's cached flat COO views via
:mod:`repro.inference.primitives` — the confusion-count scatter and the
per-instance log-likelihood gather are each one sparse–dense product over
the observed ``(instance, annotator)`` pairs, instead of dense einsums
over the mostly-zero ``(I, J, K)`` one-hot expansion. The seed
implementation is kept as the executable specification
(``seed_dawid_skene`` in ``tests/oracles.py``); equivalence at atol 1e-10
is enforced by ``tests/inference/equivalence_harness.py``.
"""

from __future__ import annotations

import numpy as np

from .base import ConvergenceMonitor, InferenceResult
from .majority_vote import majority_vote_posterior
from .primitives import confusion_counts, emission_log_likelihood, normalize_rows
from .sharding import ShardedTruthInference, ShardStats, shard_base_stats

__all__ = ["DawidSkene"]


class DawidSkene(ShardedTruthInference):
    """Classic DS EM, one data pass per EM round.

    Round structure: the global M-step runs from the merged
    :class:`~repro.inference.sharding.ShardStats` of the previous pass
    (soft confusion counts + class totals), then one map pass applies the
    refreshed parameters' E-step to every shard and gathers the next
    round's statistics — so each EM round reads the shard data exactly
    once. The init pass seeds with per-shard majority voting. The mappers
    are bound methods taking ``(params, shard, state)`` so a process pool
    can ship them by name; the per-round ``(log prior, log confusions)``
    travel as the pass params, broadcast once per pass.

    The global M-step is :meth:`_global_step`, the only part of the loop
    that knows how the parameters come from the counts. Bayesian DS
    (:class:`~repro.inference.ibcc.IBCC`) overrides it and inherits the
    rest. ``extras["log_likelihood_trace"]`` records, per round, the sum
    over instances of the E-step's log normalizer
    ``log Σ_k exp(log prior_k + Σ_j log π_j(k, y_ij))`` under the
    parameters that round used: for DS, the observed-data log-likelihood.

    Parameters
    ----------
    max_iterations:
        Upper bound on EM sweeps.
    tolerance:
        Stop when the posterior's max absolute change falls below this.
    smoothing:
        Laplace pseudo-count added to confusion and prior counts. At 0 a
        confusion row with no mass is uniform.
    """

    name = "DS"

    def __init__(
        self, max_iterations: int = 100, tolerance: float = 1e-6, smoothing: float = 0.01
    ) -> None:
        if max_iterations < 1:
            raise ValueError("need at least one iteration")
        if smoothing < 0:
            raise ValueError("smoothing must be non-negative")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.smoothing = smoothing

    def _init_mapper(self, params, shard):
        block = majority_vote_posterior(shard)
        return block, ShardStats(
            confusion=confusion_counts(block, shard),
            class_totals=block.sum(axis=0),
            **shard_base_stats(shard),
        )

    def _em_mapper(self, params, shard, old_block):
        # E-step under the fresh global parameters, plus this block's
        # contribution to the *next* round's M-step.
        log_prior, log_confusions = params
        log_posterior = log_prior[None, :] + emission_log_likelihood(
            shard, log_confusions
        )
        shift = log_posterior.max(axis=1, keepdims=True)
        unnormalized = np.exp(log_posterior - shift)
        normalizer = unnormalized.sum(axis=1, keepdims=True)
        block = unnormalized / normalizer
        return block, ShardStats(
            confusion=confusion_counts(block, shard),
            class_totals=block.sum(axis=0),
            log_likelihood=float((shift[:, 0] + np.log(normalizer[:, 0])).sum()),
            delta=float(np.abs(block - old_block).max(initial=0.0)),
        )

    def _global_step(self, stats: ShardStats):
        """Global M-step: Laplace-smoothed normalized counts.

        Returns ``(log prior, log confusions, reported confusions)``: the
        first two are the next E-step's parameters, the third is what the
        result reports.
        """
        confusions = normalize_rows(stats.confusion + self.smoothing)
        prior = normalize_rows(stats.class_totals + self.smoothing)
        return np.log(prior), np.log(confusions), confusions

    def _infer(self, ctx) -> InferenceResult:
        _, K, blocks, stats = self._initial_pass(ctx, self._init_mapper)
        self._require_annotated(stats)
        num_shards = len(blocks)
        observations = stats.observations
        monitor = ConvergenceMonitor(self.tolerance, self.max_iterations)

        while True:
            log_prior, log_confusions, confusions = self._global_step(stats)
            blocks, stats = self._pass(
                ctx, blocks, self._em_mapper, (log_prior, log_confusions)
            )
            if monitor.step(stats.delta, stats.log_likelihood):
                break

        extras = monitor.extras()
        extras.update(shards=num_shards, observations=observations)
        return InferenceResult(
            posterior=self._concat(blocks, K), confusions=confusions, extras=extras
        )
