"""Majority voting — the canonical truth-inference baseline.

The *soft* posterior is the per-instance vote fraction, which is also how
Algorithm 1 of the paper initializes ``qf(t)`` ("Initialize qf(t) with
Majority Voting"). :class:`MajorityVote` is one map pass over crowd shards
(:mod:`repro.inference.sharding`); ``infer(crowd)`` is the one-shard run.
Its executable specification is ``seed_majority_vote_posterior`` in
``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from ..autodiff.dtypes import REFERENCE_DTYPE
from ..crowd.types import CrowdLabelMatrix
from .base import InferenceResult
from .primitives import normalize_rows
from .sharding import ShardedTruthInference, ShardStats, shard_base_stats

__all__ = ["MajorityVote", "majority_vote_posterior"]


def majority_vote_posterior(crowd: CrowdLabelMatrix) -> np.ndarray:
    """``(I, K)`` vote-fraction posterior; uniform for unlabeled instances."""
    return normalize_rows(crowd.vote_counts())


class MajorityVote(ShardedTruthInference):
    """Soft majority voting — one map pass, no global model.

    Each instance's vote fraction depends only on its own labels, so the
    map stage is the whole computation and the reduce is bookkeeping
    (global vote totals for diagnostics). Being single-pass, this is the
    one method whose ``infer_sharded`` accepts a one-shot shard iterator.
    """

    name = "MV"

    def _vote_mapper(self, params, shard):
        block = majority_vote_posterior(shard)
        stats = ShardStats(
            vote_totals=np.asarray(shard.vote_counts(), dtype=REFERENCE_DTYPE).sum(axis=0),
            **shard_base_stats(shard),
        )
        return block, stats

    def _infer(self, ctx) -> InferenceResult:
        _, K, blocks, stats = self._initial_pass(ctx, self._vote_mapper)
        return InferenceResult(
            posterior=self._concat(blocks, K),
            extras={
                "shards": len(blocks),
                "observations": stats.observations,
                "vote_totals": stats.vote_totals,
            },
        )
