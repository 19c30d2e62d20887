"""Bag-of-embeddings classifiers: logistic regression and a small MLP.

Raykar et al. (2010) — the paper's probabilistic baseline — uses logistic
regression as its classifier. We realize it as a linear layer over
mean-pooled word embeddings; :class:`MLPClassifier` adds one hidden layer
and is used in unit tests where a tiny trainable model is convenient.

Like the larger networks, both classifiers follow the autodiff precision
policy: pooling masks and length normalizers are built in the embedding
matrix's dtype, so a model cast to float32 never promotes to float64
mid-graph.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor
from ..autodiff.nn import Embedding, Linear
from .base import TextClassifier

__all__ = ["BagOfEmbeddingsClassifier", "MLPClassifier"]


class BagOfEmbeddingsClassifier(TextClassifier):
    """Logistic regression on mean-pooled (frozen) word embeddings."""

    def __init__(self, embeddings: np.ndarray, num_classes: int, rng: np.random.Generator) -> None:
        super().__init__()
        vocab_size, dim = embeddings.shape
        self.num_classes = num_classes
        self.embedding = Embedding(vocab_size, dim, pretrained=embeddings, trainable=False)
        self.output = Linear(dim, num_classes, rng)

    def _pooled(self, tokens: np.ndarray, lengths: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens)
        lengths = np.asarray(lengths)
        embedded = self.embedding(tokens)
        compute_dtype = embedded.data.dtype
        mask = (np.arange(tokens.shape[1])[None, :] < lengths[:, None]).astype(compute_dtype)
        summed = (embedded * Tensor(mask[:, :, None])).sum(axis=1)
        return summed * Tensor((1.0 / lengths.astype(compute_dtype))[:, None])

    def logits(self, tokens: np.ndarray, lengths: np.ndarray) -> Tensor:
        return self.output(self._pooled(tokens, lengths))


class MLPClassifier(BagOfEmbeddingsClassifier):
    """One-hidden-layer tanh MLP on mean-pooled embeddings."""

    def __init__(
        self, embeddings: np.ndarray, num_classes: int, hidden: int, rng: np.random.Generator
    ) -> None:
        super().__init__(embeddings, num_classes, rng)
        dim = embeddings.shape[1]
        self.hidden_layer = Linear(dim, hidden, rng)
        self.output = Linear(hidden, num_classes, rng)

    def logits(self, tokens: np.ndarray, lengths: np.ndarray) -> Tensor:
        return self.output(self.hidden_layer(self._pooled(tokens, lengths)).tanh())
