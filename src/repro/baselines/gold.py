"""Gold baseline: supervised training on the true labels.

The paper's upper bound ("the classifier trained in the ideal case when
true labels are known", Tables II/III bottom rows).
"""

from __future__ import annotations

import numpy as np

from ..baselines.common import TrainerConfig, fit_classifier, fit_tagger
from ..data.datasets import SequenceTaggingDataset, TextClassificationDataset
from ..models.base import SequenceTagger, TextClassifier

__all__ = ["train_gold_classifier", "train_gold_tagger"]


def train_gold_classifier(
    model: TextClassifier,
    config: TrainerConfig,
    rng: np.random.Generator,
    train: TextClassificationDataset,
    dev: TextClassificationDataset | None = None,
) -> dict:
    """Train on ground-truth labels (ignores any crowd labels)."""
    return fit_classifier(model, config, rng, train.tokens, train.lengths, train.labels, dev)


def train_gold_tagger(
    model: SequenceTagger,
    config: TrainerConfig,
    rng: np.random.Generator,
    train: SequenceTaggingDataset,
    dev: SequenceTaggingDataset | None = None,
) -> dict:
    """Train on ground-truth tags (ignores any crowd labels)."""
    return fit_tagger(model, config, rng, train.tokens, train.lengths, train.padded_tags(), dev)
