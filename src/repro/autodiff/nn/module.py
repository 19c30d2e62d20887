"""Module base class: parameter registration, precision cast, train/eval mode, state dicts."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..dtypes import canonical_dtype
from ..tensor import Tensor

__all__ = ["Module", "Sequential"]


class Module:
    """Base class for layers and models.

    Child modules and parameters are discovered by scanning instance
    attributes (including inside lists/tuples), mirroring the convenience of
    ``torch.nn.Module`` without metaclass tricks.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Yield ``(dotted_name, tensor)`` for every trainable parameter."""
        for path, tensor in self._named_tensors(prefix):
            if tensor.requires_grad:
                yield path, tensor

    def _named_tensors(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Yield ``(dotted_name, tensor)`` for every tensor, frozen ones included."""
        for name, value in vars(self).items():
            if name == "training":
                continue
            yield from self._walk(f"{prefix}{name}", value)

    def _walk(self, path: str, value) -> Iterator[tuple[str, Tensor]]:
        if isinstance(value, Tensor):
            yield path, value
        elif isinstance(value, Module):
            yield from value._named_tensors(prefix=f"{path}.")
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                yield from self._walk(f"{path}.{i}", item)

    def parameters(self) -> list[Tensor]:
        """Return all trainable parameters, depth-first."""
        return [tensor for _, tensor in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------ #
    # Precision
    # ------------------------------------------------------------------ #
    def cast(self, dtype) -> "Module":
        """Cast every tensor of this module tree to ``dtype``, in place.

        Frozen tensors (a static embedding) are cast along with the
        parameters, so the whole forward pass runs at ``dtype``. A tensor
        already at ``dtype`` keeps its array object: casting to the
        precision a model was built at copies nothing. Initializers draw in
        float64 and cast, so a model cast after construction holds exactly
        the weights it would have been built with at ``dtype``.
        """
        dtype = canonical_dtype(dtype)
        for _, tensor in self._named_tensors():
            if tensor.data.dtype != dtype:
                tensor.data = tensor.data.astype(dtype)
                if tensor.grad is not None:
                    tensor.grad = tensor.grad.astype(dtype)
        return self

    # ------------------------------------------------------------------ #
    # Modes and gradients
    # ------------------------------------------------------------------ #
    def train(self) -> "Module":
        """Switch this module tree to training mode (enables dropout)."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Switch this module tree to evaluation mode (disables dropout)."""
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(parameter.size for parameter in self.parameters())

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a name → array snapshot (copies) of all parameters."""
        return {name: tensor.data.copy() for name, tensor in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values saved by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch; missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, tensor in own.items():
            if tensor.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{tensor.data.shape} vs {state[name].shape}"
                )
            tensor.data[...] = state[name]

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Apply modules in order; each must be unary."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x
