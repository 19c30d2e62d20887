"""GLAD (Whitehill et al., 2009): joint annotator-ability / item-difficulty
model for *binary* labels.

Generative model: ``p(y_ij = t_i | α_j, β_i) = σ(α_j · β_i)`` where ``α_j``
is annotator ability (can be negative: adversarial) and ``β_i > 0`` is
inverse item difficulty. EM with gradient-ascent M-steps, as in the
original paper. GLAD is binary by construction; the paper accordingly uses
it only on the sentiment dataset ("GLAD, which is inapplicable on NER").

The EM loop is written once, map-reduce style
(:mod:`repro.inference.sharding`): ``infer(crowd)`` runs it on the crowd
as its own single shard, ``infer_sharded`` on any shard source.

Performance: every per-label quantity lives on the shard's cached flat
COO triples (:meth:`~repro.crowd.types.CrowdLabelMatrix.flat_label_pairs`),
so no pass ever scans the dense ``(I, J)`` label matrix. Per EM round, the
E-pass computes σ(α_j β_i) and the evidence once per label and, from the
new posterior, each label's ``prob_correct`` (the posterior mass on the
label its annotator gave), which the shard state carries through the
round: the posterior is fixed during the round's ascent. Per ascent step,
each label costs one ``β[rows]`` and one ``α[cols]`` gather, one sigmoid
(one ``exp``), and its share of two ``bincount`` scatters (the ``α`` and
``log β`` gradients); the labels are never read. The seed dense
implementation is kept as the executable specification (``seed_glad`` in
``tests/oracles.py``); equivalence at atol 1e-10 is enforced by
``tests/inference/equivalence_harness.py`` and it is timed as the
"before" side in ``benchmarks/bench_hotpaths.py``.
"""

from __future__ import annotations

import numpy as np

from ..autodiff.dtypes import REFERENCE_DTYPE
from .base import ConvergenceMonitor, InferenceResult
from .sharding import ShardedTruthInference, ShardStats, shard_base_stats

__all__ = ["GLAD"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function with one ``exp``: ``1 / (1 + e)`` for ``x >= 0``
    and ``e / (1 + e)`` below, ``e = exp(-|x|)``, with the same bits as
    the two-branch form at every input (NaN, ±0, ±inf and subnormals
    included). The numerator ``max(e, [x >= 0])`` is exactly 1 on the
    upper branch (``e <= 1``) and ``e`` on the lower one (NaN stays NaN),
    so no branch is taken per element."""
    e = np.exp(-np.abs(x))
    numerator = np.maximum(e, x >= 0)
    e += 1.0
    numerator /= e
    return numerator


class GLAD(ShardedTruthInference):
    """Binary GLAD via EM with gradient M-steps.

    The annotator abilities ``α`` are the only cross-shard state; item
    difficulties ``log β`` and posteriors are per-instance and live with
    their shard, as does each label's ``prob_correct``. Each EM round is
    one E-pass (per-shard posterior update, deltas merged via max)
    followed by ``gradient_steps`` gradient passes:
    every inner ascent step maps shards to raw ``α``-gradient scatter sums
    (merged, then normalized by the merged per-annotator label counts —
    the mean gradient over all of an annotator's labels) while the
    ``log β`` ascent applies shard-locally under the not-yet-updated
    global ``α``, as the seed GLAD orders the two updates.

    Parameters
    ----------
    em_iterations:
        Number of E/M alternations.
    gradient_steps, learning_rate:
        Inner ascent steps on (α, log β) per M-step. The learning rate
        must be positive and finite: at 0 no α moves, and a negative rate
        clips every α to +8.
    prior_correct:
        Prior probability that the true label is class 1.
    tolerance:
        Early-stop threshold on the posterior's max absolute change per EM
        sweep. The default 0.0 never stops early (the paper's fixed-budget
        behaviour, and what the seed GLAD always does); it exists
        so the shared diagnostics contract (``iterations``/``last_change``/
        ``converged``) is meaningful.
    """

    name = "GLAD"

    def __init__(
        self,
        em_iterations: int = 30,
        gradient_steps: int = 20,
        learning_rate: float = 0.05,
        prior_correct: float = 0.5,
        tolerance: float = 0.0,
    ) -> None:
        if em_iterations < 1:
            raise ValueError("need at least one EM iteration")
        if gradient_steps < 1:
            raise ValueError("need at least one gradient step")
        if not 0.0 < prior_correct < 1.0:
            raise ValueError("prior must be in (0, 1)")
        if not (np.isfinite(learning_rate) and learning_rate > 0):
            raise ValueError(f"learning_rate must be a positive finite number, got {learning_rate}")
        self.em_iterations = em_iterations
        self.gradient_steps = gradient_steps
        self.learning_rate = learning_rate
        self.prior_correct = prior_correct
        self.tolerance = tolerance

    def _init_mapper(self, params, shard):
        # Per-shard state, carried across passes: posterior, log
        # difficulty and the labels-per-instance mean normalizer (computed
        # once here, not per gradient step), all O(shard instances), plus
        # each label's prob_correct, which every E-pass sets from its new
        # posterior (None until the first one).
        rows, cols, _ = shard.flat_label_pairs()
        state = (
            np.full(shard.num_instances, self.prior_correct),
            np.zeros(shard.num_instances),
            np.maximum(np.bincount(rows, minlength=shard.num_instances), 1),
            None,
        )
        return state, ShardStats(
            label_counts=np.bincount(
                cols, minlength=shard.num_annotators
            ).astype(REFERENCE_DTYPE),
            **shard_base_stats(shard),
        )

    def _e_mapper(self, alpha, shard, state):
        posterior_one, log_beta, labels_per_instance, _ = state
        rows, cols, given = shard.flat_label_pairs()
        votes_one = given == 1
        n = shard.num_instances
        log_prior_ratio = np.log(self.prior_correct) - np.log(1 - self.prior_correct)
        sig = _sigmoid(np.exp(log_beta)[rows] * alpha[cols])
        log_sig = np.log(sig + 1e-12)
        log_one_minus = np.log(1.0 - sig + 1e-12)
        log_like_one = np.bincount(
            rows, weights=np.where(votes_one, log_sig, log_one_minus), minlength=n
        )
        log_like_zero = np.bincount(
            rows, weights=np.where(votes_one, log_one_minus, log_sig), minlength=n
        )
        new_posterior = _sigmoid(log_prior_ratio + log_like_one - log_like_zero)
        delta = float(np.abs(new_posterior - posterior_one).max(initial=0.0))
        # Fixed until the next E-pass: the round's ascent steps read it.
        posterior_rows = new_posterior[rows]
        prob_correct = np.where(votes_one, posterior_rows, 1.0 - posterior_rows)
        return (
            (new_posterior, log_beta, labels_per_instance, prob_correct),
            ShardStats(delta=delta),
        )

    def _grad_mapper(self, alpha, shard, state):
        posterior_one, log_beta, labels_per_instance, prob_correct = state
        rows, cols, _ = shard.flat_label_pairs()
        beta = np.exp(log_beta)
        beta_rows = beta[rows]
        alpha_cols = alpha[cols]
        residual = prob_correct - _sigmoid(beta_rows * alpha_cols)
        # Raw scatter sum; the driver applies the global
        # labels-per-annotator mean.
        grad_alpha = np.bincount(
            cols, weights=residual * beta_rows, minlength=shard.num_annotators
        )
        grad_log_beta = (
            np.bincount(rows, weights=residual * alpha_cols, minlength=shard.num_instances)
            * beta
        ) / labels_per_instance
        new_log_beta = np.clip(
            log_beta + self.learning_rate * grad_log_beta, -4.0, 4.0
        )
        return (
            (posterior_one, new_log_beta, labels_per_instance, prob_correct),
            ShardStats(grad_alpha=grad_alpha),
        )

    def _infer(self, ctx) -> InferenceResult:
        J, K, states, stats = self._initial_pass(ctx, self._init_mapper)
        if K != 2:
            raise ValueError("GLAD supports binary labels only (as in the paper)")
        self._require_annotated(stats)
        num_shards = len(states)
        observations = stats.observations
        labels_per_annotator = np.maximum(stats.label_counts, 1)
        alpha = np.ones(J)
        monitor = ConvergenceMonitor(self.tolerance, self.em_iterations)

        while True:
            states, stats = self._pass(ctx, states, self._e_mapper, alpha)
            should_stop = monitor.step(stats.delta)
            if monitor.converged:
                # Tolerance-triggered stop: the posterior is final, so the
                # gradient ascent below would be dead work. (Never taken at
                # the default tolerance 0.0 — the budget-exhausted path
                # still runs the final M-step, exactly like the reference.)
                break

            for _ in range(self.gradient_steps):
                states, grad_stats = self._pass(ctx, states, self._grad_mapper, alpha)
                alpha = np.clip(
                    alpha + self.learning_rate * grad_stats.grad_alpha / labels_per_annotator,
                    -8.0,
                    8.0,
                )

            if should_stop:
                break

        posterior_one = (
            np.concatenate([state[0] for state in states])
            if states
            else np.zeros(0)
        )
        log_beta = (
            np.concatenate([state[1] for state in states])
            if states
            else np.zeros(0)
        )
        posterior = np.stack([1.0 - posterior_one, posterior_one], axis=1)
        extras = monitor.extras()
        extras.update(
            alpha=alpha,
            beta=np.exp(log_beta),
            shards=num_shards,
            observations=observations,
        )
        return InferenceResult(posterior=posterior, extras=extras)
