"""Crowdsourcing substrate: label containers, simulators, annotator reports."""

from .metrics import (
    BoxplotStats,
    boxplot_stats,
    classification_annotator_report,
    sequence_annotator_report,
)
from .ner_simulation import (
    NERAnnotatorPool,
    NERAnnotatorProfile,
    sample_ner_pool,
    simulate_ner_crowd,
)
from .simulation import (
    AnnotatorPool,
    sample_annotator_pool,
    sample_confusion_matrix,
    simulate_classification_crowd,
)
from .sharding import (
    ShardHandle,
    SparseLabelShard,
    as_sparse_shard,
    save_shard_handles,
)
from .types import MISSING, CrowdLabelMatrix, SequenceCrowdLabels

__all__ = [
    "MISSING",
    "CrowdLabelMatrix",
    "SequenceCrowdLabels",
    "SparseLabelShard",
    "ShardHandle",
    "as_sparse_shard",
    "save_shard_handles",
    "AnnotatorPool",
    "sample_confusion_matrix",
    "sample_annotator_pool",
    "simulate_classification_crowd",
    "NERAnnotatorProfile",
    "NERAnnotatorPool",
    "sample_ner_pool",
    "simulate_ner_crowd",
    "BoxplotStats",
    "boxplot_stats",
    "classification_annotator_report",
    "sequence_annotator_report",
]
