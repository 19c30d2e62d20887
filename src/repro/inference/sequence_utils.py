"""Adapters that run instance-level inference methods at the token level.

MV, DS, and IBCC are token-independent, so for sequence crowds (NER) the
paper applies them per token. :class:`TokenLevelInference` hands the
wrapped method the crowd's own cached ``(token, annotator, label)``
triples as one :class:`~repro.crowd.sharding.SparseLabelShard` (tokens as
instances) and splits the posterior back into sentences at the
:meth:`~repro.crowd.types.SequenceCrowdLabels.flat_labels` offsets. No
``(ΣT_i, J)`` label matrix is validated, scanned or stored per call.
"""

from __future__ import annotations

from ..crowd.sharding import SparseLabelShard
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
        stacked, offsets = crowd.flat_labels()
        tokens = SparseLabelShard(
            *crowd.flat_label_pairs(),
            num_instances=stacked.shape[0],
            num_annotators=crowd.num_annotators,
            num_classes=crowd.num_classes,
        )
        result = self.method.infer(tokens)
        return SequenceInferenceResult(
            posteriors=split_by_offsets(result.posterior, offsets),
            confusions=result.confusions,
            extras=dict(result.extras),
        )
