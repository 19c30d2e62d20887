"""Kim (2014) CNN for sentence classification — the paper's sentiment network.

Architecture (paper Fig. 5, left): static pre-trained word vectors, parallel
convolutions with filter windows 3/4/5 (100 feature maps each in the paper),
ReLU, max-over-time pooling, dropout 0.5 on the penultimate layer, and a
softmax output whose weights are renormalized to an L2 ball of radius 3
(Kim's max-norm constraint).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff import Tensor
from ..autodiff import functional as F
from ..autodiff.nn import Conv1dSeq, Dropout, Embedding, Linear
from .base import TextClassifier

__all__ = ["TextCNNConfig", "TextCNN"]


@dataclass
class TextCNNConfig:
    """Hyper-parameters of the Kim CNN.

    Paper values: windows (3, 4, 5) × 100 maps, dropout 0.5, max-norm 3,
    300-d static embeddings. Benches scale down feature maps / dims, never
    the structure.
    """

    num_classes: int = 2
    filter_windows: tuple[int, ...] = (3, 4, 5)
    feature_maps: int = 100
    dropout: float = 0.5
    max_norm: float = 3.0
    static_embeddings: bool = True

    def __post_init__(self) -> None:
        if not self.filter_windows:
            raise ValueError("need at least one filter window")
        if any(w < 1 for w in self.filter_windows):
            raise ValueError(f"filter windows must be >= 1, got {self.filter_windows}")
        if self.feature_maps < 1:
            raise ValueError("need at least one feature map")


class TextCNN(TextClassifier):
    """Kim-CNN over pre-trained (synthetic prototype) embeddings.

    Parameters
    ----------
    embeddings:
        ``(V, D)`` pre-trained matrix; frozen when
        ``config.static_embeddings`` (the paper's "static" variant).
    config:
        Architecture hyper-parameters.
    rng:
        Generator for weight init and dropout masks.
    """

    def __init__(self, embeddings: np.ndarray, config: TextCNNConfig, rng: np.random.Generator) -> None:
        super().__init__()
        vocab_size, dim = embeddings.shape
        self.config = config
        self.num_classes = config.num_classes
        self.embedding = Embedding(
            vocab_size, dim, pretrained=embeddings, trainable=not config.static_embeddings
        )
        self.convs = [
            Conv1dSeq(dim, config.feature_maps, width, rng) for width in config.filter_windows
        ]
        self.dropout = Dropout(config.dropout, rng)
        hidden = config.feature_maps * len(config.filter_windows)
        self.output = Linear(hidden, config.num_classes, rng)

    def logits(self, tokens: np.ndarray, lengths: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens)
        lengths = np.asarray(lengths)
        max_window = max(self.config.filter_windows)
        if tokens.shape[1] < max_window:
            pad = np.zeros((tokens.shape[0], max_window - tokens.shape[1]), dtype=tokens.dtype)
            tokens = np.concatenate([tokens, pad], axis=1)
        embedded = self.embedding(tokens)
        pooled = []
        for conv, width in zip(self.convs, self.config.filter_windows):
            convolved = conv(embedded).relu()
            out_time = tokens.shape[1] - width + 1
            # Conv position t is valid iff the window starts inside the true
            # sentence; degenerate short sentences keep position 0 so the
            # max is always over a non-empty set.
            positions = np.arange(out_time)[None, :]
            valid = positions < np.maximum(lengths - width + 1, 1)[:, None]
            pooled.append(F.max_over_time(convolved, mask=valid))
        features = F.concat(pooled, axis=1)
        return self.output(self.dropout(features))

    def apply_max_norm(self) -> None:
        """Kim's constraint: renorm each output-layer column to L2 ≤ 3.

        Called by trainers after each optimizer step.
        """
        if self.config.max_norm <= 0:
            return
        weight = self.output.weight.data
        norms = np.linalg.norm(weight, axis=0, keepdims=True)
        excess = norms > self.config.max_norm
        if excess.any():
            scale = np.where(excess, self.config.max_norm / np.where(norms > 0, norms, 1), 1.0)
            weight *= scale
