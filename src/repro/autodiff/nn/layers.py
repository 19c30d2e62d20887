"""Core layers: Linear, Embedding, Conv1d (sequence), Dropout, activations."""

from __future__ import annotations

import numpy as np

from .. import functional as F
from ..dtypes import coerce_array
from ..tensor import Tensor
from . import init
from .module import Module

__all__ = ["Linear", "Embedding", "Conv1dSeq", "Dropout", "ReLU", "Tanh"]


class Linear(Module):
    """Fully-connected layer ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output width.
    rng:
        Generator used for Glorot-uniform weight init.
    bias:
        Whether to add a bias term.
    dtype:
        Optional parameter dtype; defaults to the ambient precision policy.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
        dtype=None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            init.glorot_uniform(rng, in_features, out_features, dtype=dtype),
            requires_grad=True,
            name="linear.weight",
        )
        self.bias = (
            Tensor(init.zeros((out_features,), dtype=dtype), requires_grad=True, name="linear.bias")
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Word-vector lookup table.

    The paper's Kim-CNN uses the "static" variant (pre-trained vectors kept
    frozen); pass ``trainable=False`` plus a ``pretrained`` matrix for that.

    Dtype resolution follows the policy: an explicit ``dtype`` wins, a
    float32/float64 ``pretrained`` matrix keeps its own dtype (it is *not*
    silently doubled to float64), and otherwise the ambient default
    applies.
    """

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        rng: np.random.Generator | None = None,
        pretrained: np.ndarray | None = None,
        trainable: bool = True,
        dtype=None,
    ) -> None:
        super().__init__()
        if pretrained is not None:
            if pretrained.shape != (vocab_size, dim):
                raise ValueError(
                    f"pretrained shape {pretrained.shape} != ({vocab_size}, {dim})"
                )
            data = coerce_array(pretrained, dtype=dtype, copy=True)
        else:
            if rng is None:
                raise ValueError("rng is required when no pretrained matrix is given")
            data = init.uniform(rng, (vocab_size, dim), -0.25, 0.25, dtype=dtype)
        self.weight = Tensor(data, requires_grad=trainable, name="embedding.weight")
        self.vocab_size = vocab_size
        self.dim = dim

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding(self.weight, indices)


class Conv1dSeq(Module):
    """1-D convolution over the time axis of ``(B, T, D)`` sequences.

    :func:`~repro.autodiff.functional.conv1d_seq` picks its execution
    variant from the input shape, so the layer exposes no variant choice.
    """

    def __init__(
        self,
        in_dim: int,
        out_channels: int,
        width: int,
        rng: np.random.Generator,
        pad: str = "valid",
        dtype=None,
    ) -> None:
        super().__init__()
        self.width = width
        self.pad = pad
        fan_in = width * in_dim
        self.weight = Tensor(
            init.glorot_uniform(rng, fan_in, out_channels, dtype=dtype),
            requires_grad=True,
            name=f"conv{width}.weight",
        )
        self.bias = Tensor(
            init.zeros((out_channels,), dtype=dtype), requires_grad=True, name=f"conv{width}.bias"
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.conv1d_seq(x, self.weight, self.bias, self.width, pad=self.pad)


class Dropout(Module):
    """Inverted dropout layer with an explicit RNG (reproducible runs)."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self._rng, self.training)


class ReLU(Module):
    """Elementwise rectifier."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    """Elementwise hyperbolic tangent."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()
