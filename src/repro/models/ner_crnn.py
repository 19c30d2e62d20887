"""Rodrigues & Pereira (2018) CNN+GRU tagger — the paper's NER network.

Architecture (paper Fig. 5, right): 300-d GloVe embeddings, a width-5
convolution with 512 features (ReLU), dropout 0.5, a GRU with 50 hidden
states, and a per-token fully-connected softmax output. We keep the
structure and scale widths down in benches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff import Tensor
from ..autodiff.nn import GRU, Conv1dSeq, Dropout, Embedding, Linear
from .base import SequenceTagger

__all__ = ["NERTaggerConfig", "NERTagger"]


@dataclass
class NERTaggerConfig:
    """Hyper-parameters of the CNN+GRU tagger.

    Paper values: conv width 5 × 512 features, GRU hidden 50, dropout 0.5.
    """

    num_classes: int = 9
    conv_width: int = 5
    conv_features: int = 512
    gru_hidden: int = 50
    dropout: float = 0.5
    static_embeddings: bool = True

    def __post_init__(self) -> None:
        if self.conv_width < 1:
            raise ValueError("conv width must be >= 1")
        if self.conv_features < 1 or self.gru_hidden < 1:
            raise ValueError("layer widths must be positive")


class NERTagger(SequenceTagger):
    """Conv + GRU + softmax per token.

    The convolution uses "same" padding so every token produces a tag; the
    GRU carries a padding mask so hidden states (and thus logits) are
    invariant to batch padding.
    """

    def __init__(self, embeddings: np.ndarray, config: NERTaggerConfig, rng: np.random.Generator) -> None:
        super().__init__()
        vocab_size, dim = embeddings.shape
        self.config = config
        self.num_classes = config.num_classes
        self.embedding = Embedding(
            vocab_size, dim, pretrained=embeddings, trainable=not config.static_embeddings
        )
        self.conv = Conv1dSeq(dim, config.conv_features, config.conv_width, rng, pad="same")
        self.dropout = Dropout(config.dropout, rng)
        self.gru = GRU(config.conv_features, config.gru_hidden, rng)
        self.output = Linear(config.gru_hidden, config.num_classes, rng)

    def logits(self, tokens: np.ndarray, lengths: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens)
        lengths = np.asarray(lengths)
        mask = np.arange(tokens.shape[1])[None, :] < lengths[:, None]
        embedded = self.embedding(tokens)
        convolved = self.conv(embedded).relu()
        dropped = self.dropout(convolved)
        hidden = self.gru(dropped, mask=mask)
        return self.output(hidden)

    def initialize_output_bias(self, priors: np.ndarray) -> None:
        """Set the softmax bias to log class priors.

        BIO tagging is dominated by the O class; starting the output layer
        at the prior distribution avoids the long all-O plateau at the
        beginning of training (a standard imbalanced-classification trick).
        Trainers call this with the prior of their initial targets.
        """
        priors = np.asarray(priors, dtype=self.output.bias.data.dtype)
        if priors.shape != (self.num_classes,):
            raise ValueError(f"priors must be ({self.num_classes},), got {priors.shape}")
        self.output.bias.data[...] = np.log(priors + 1e-3)
