"""Adapters that run instance-level inference methods at the token level.

MV, DS, and IBCC are token-independent, so for sequence crowds (NER) the
paper applies them per token. :class:`TokenLevelInference` hands the
wrapped method the crowd's cached
:meth:`~repro.crowd.types.SequenceCrowdLabels.token_shard` (tokens as
instances) and splits the posterior back into sentences at the
:meth:`~repro.crowd.types.SequenceCrowdLabels.flat_labels` offsets. No
label matrix, triple or incidence is validated or built per call: every
token-level method run on one crowd shares the shard's incidence.
"""

from __future__ import annotations

from ..crowd.types import SequenceCrowdLabels
from .base import SequenceInferenceResult
from .primitives import split_by_offsets
from .sharding import ShardedTruthInference

__all__ = ["TokenLevelInference"]


class TokenLevelInference:
    """Run a shardable classification truth-inference method independently
    per token."""

    def __init__(self, method: ShardedTruthInference) -> None:
        self.method = method
        self.name = f"{method.name} (token)"

    def infer(self, crowd: SequenceCrowdLabels) -> SequenceInferenceResult:
        result = self.method.infer(crowd.token_shard())
        return SequenceInferenceResult(
            posteriors=split_by_offsets(result.posterior, crowd.flat_labels()[1]),
            confusions=result.confusions,
            extras=dict(result.extras),
        )
