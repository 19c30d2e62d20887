"""PM (Aydin et al., AAAI 2014): iterative weighted voting for
multiple-choice answer aggregation.

Heuristic truth discovery: alternate (1) estimating each instance's answer
by annotator-weighted voting with (2) re-estimating annotator weights from
their agreement with the current estimates. Weights follow the classic
truth-discovery update ``w_j ∝ -log(error_j)`` with clamping.

The iteration is written once, map-reduce style
(:mod:`repro.inference.sharding`): ``infer(crowd)`` runs it on the crowd
as its own single shard, ``infer_sharded`` on any shard source.

Performance: both halves of the iteration run on the shared sparse-crowd
kernels (:mod:`repro.inference.primitives`) — the agreement term is one
:func:`~repro.inference.primitives.annotator_agreement` gather/scatter and
the weighted vote one
:func:`~repro.inference.primitives.weighted_vote_scores` spMM/bincount —
instead of dense einsums over the ``(I, J, K)`` one-hot expansion. The
seed implementation is kept as the executable specification
(``seed_pm`` in ``tests/oracles.py``); equivalence at atol 1e-10 is
enforced by ``tests/inference/equivalence_harness.py``.
"""

from __future__ import annotations

import numpy as np

from .base import ConvergenceMonitor, InferenceResult
from .majority_vote import majority_vote_posterior
from .primitives import annotator_agreement, normalize_rows, weighted_vote_scores
from .sharding import ShardedTruthInference, ShardStats, shard_base_stats

__all__ = ["PM"]


class PM(ShardedTruthInference):
    """Iterative weighted majority voting.

    The annotator-error update needs only the merged per-annotator
    agreement sums and label counts; the weighted vote is per-instance and
    runs shard-local under the global weights. The weight update is
    :meth:`_global_step`, the only part of the loop that knows how
    weights come from errors; :class:`~repro.inference.catd.CATD`
    overrides it and inherits the rest.

    Parameters
    ----------
    max_iterations:
        Upper bound on weight/vote alternations.
    tolerance:
        Stop when the posterior's max absolute change falls below this.
    floor:
        Clamp on annotator error rates, keeping ``-log(error)`` finite;
        must lie in ``(0, 0.5)``.
    """

    name = "PM"

    def __init__(
        self, max_iterations: int = 50, tolerance: float = 1e-6, floor: float = 1e-3
    ) -> None:
        if max_iterations < 1:
            raise ValueError("need at least one iteration")
        if not 0.0 < floor < 0.5:
            # Outside (0, 0.5) the clamp is empty (np.clip then returns the
            # upper bound for every annotator: uniform weights) or admits
            # error 0, whose -log is infinite.
            raise ValueError(f"floor must be in (0, 0.5), got {floor}")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.floor = floor

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
        # Weights are nonnegative (see _global_step), so the scores are
        # too, as normalize_rows requires; a row with no votes is uniform.
        block = normalize_rows(weighted_vote_scores(weights, shard))
        return block, ShardStats(
            agreement=annotator_agreement(block, shard),
            delta=float(np.abs(block - old_block).max(initial=0.0)),
        )

    def _global_step(self, label_counts: np.ndarray, agreement: np.ndarray) -> np.ndarray:
        """Annotator weights from the merged label counts and agreement
        sums: the clamped ``-log`` error rate. Weights must be
        nonnegative: the vote mapper normalizes the scores they give
        unclamped."""
        error = 1.0 - agreement / np.maximum(label_counts, 1)
        error = np.clip(error, self.floor, 1.0 - self.floor)
        return -np.log(error)

    def _infer(self, ctx) -> InferenceResult:
        _, K, blocks, stats = self._initial_pass(ctx, self._init_mapper)
        self._require_annotated(stats)
        num_shards = len(blocks)
        observations = stats.observations
        label_counts = stats.label_counts
        monitor = ConvergenceMonitor(self.tolerance, self.max_iterations)

        while True:
            weights = self._global_step(label_counts, stats.agreement)
            blocks, stats = self._pass(ctx, blocks, self._vote_mapper, weights)
            if monitor.step(stats.delta):
                break

        extras = monitor.extras()
        extras.update(weights=weights, shards=num_shards, observations=observations)
        return InferenceResult(posterior=self._concat(blocks, K), extras=extras)
