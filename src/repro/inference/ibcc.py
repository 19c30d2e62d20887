"""IBCC (Kim & Ghahramani, AISTATS 2012): independent Bayesian classifier
combination, realized with variational Bayes.

Bayesian Dawid–Skene: Dirichlet priors over the class proportions and over
each row of each annotator's confusion matrix. The variational posterior
factorizes; updates alternate

    q(t_i) ∝ exp( E[log p_m] + Σ_j E[log π_j(m, y_ij)] )

with Dirichlet-count updates whose expectations use digamma functions. The
priors make it markedly more robust than plain DS on annotators with few
labels (the NER crowd's long tail).

The update for ``q(t_i)`` is DS's E-step with the expected log parameters
in place of the log parameters, and the Dirichlet posterior counts are
DS's soft counts plus the prior pseudo-counts. So :class:`IBCC` is a
:class:`~repro.inference.dawid_skene.DawidSkene` whose global step is the
digamma transform: it inherits DS's init pass, E-step mapper and EM loop,
sharding included (``infer(crowd)`` is the one-shard run,
``infer_sharded`` takes any shard source). The seed implementation is
kept as the executable specification (``seed_ibcc`` in
``tests/oracles.py``); equivalence at atol 1e-10 is enforced by
``tests/inference/equivalence_harness.py``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma

from .dawid_skene import DawidSkene
from .sharding import ShardStats

__all__ = ["IBCC"]


class IBCC(DawidSkene):
    """Variational-Bayes IBCC: DS with a Dirichlet M-step.

    ``extras["log_likelihood_trace"]`` is DS's E-step log normalizer,
    ``Σ_i log Σ_k exp(E[log p_k] + Σ_j E[log π_j(k, y_ij)])``. For IBCC
    that is one term of the variational lower bound, not a likelihood:
    the bound also has the Dirichlet KL terms, which are not tracked.
    The loop stops on the posterior's change alone, as DS's does.

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
        # DS's constructor is not called: the Dirichlet priors take the
        # place of its Laplace ``smoothing``, which IBCC does not have.
        if max_iterations < 1:
            raise ValueError("need at least one iteration")
        if prior_diagonal <= 0 or prior_off_diagonal <= 0 or prior_class <= 0:
            raise ValueError("Dirichlet priors must be positive")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.prior_diagonal = prior_diagonal
        self.prior_off_diagonal = prior_off_diagonal
        self.prior_class = prior_class

    def _global_step(self, stats: ShardStats):
        """Variational M-step: digamma expectations of the Dirichlet
        posterior counts; reports the counts' posterior-mean confusions."""
        K = stats.class_totals.shape[0]
        prior_matrix = np.full((K, K), self.prior_off_diagonal)
        np.fill_diagonal(prior_matrix, self.prior_diagonal)
        count_matrix = stats.confusion + prior_matrix
        row_totals = count_matrix.sum(axis=2, keepdims=True)
        class_counts = stats.class_totals + self.prior_class
        expected_log_class = digamma(class_counts) - digamma(class_counts.sum())
        expected_log_confusion = digamma(count_matrix) - digamma(row_totals)
        return expected_log_class, expected_log_confusion, count_matrix / row_totals
