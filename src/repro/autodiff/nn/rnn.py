"""Gated recurrent units.

The paper's NER architecture (Rodrigues & Pereira, "Deep learning from
crowds") feeds convolution features into a GRU with 50 hidden states.

:class:`GRU` is the production implementation and is *fused*: the three
per-gate input matrices live in one ``(D, 3H)`` block and the three
recurrent matrices in one ``(H, 3H)`` block, and the whole layer —
whole-sequence input projection plus the packed time loop — runs as a
*single* tape node (:func:`repro.autodiff.functional.gru_sequence`),
versus ~12 nodes per timestep for the per-gate loop. Padding semantics
are unchanged: masked steps copy the previous hidden state forward
exactly as the per-gate loop's ``m * h' + (1 - m) * h`` arithmetic did,
so outputs are invariant to padding length bit-for-bit with the
reference.

:class:`GRUCell` is the original per-gate single-step cell. It is kept as
the executable specification: the fused path is validated against it in
``tests/autodiff/test_fused_gru.py`` (outputs and gradients, with and
without masks) and benchmarked against it in
``benchmarks/bench_hotpaths.py``. Given the same RNG, ``GRU`` and
``GRUCell`` draw identical per-gate weight blocks in the same order, so a
same-seed pair is parameter-for-parameter comparable.
"""

from __future__ import annotations

import numpy as np

from .. import functional as F
from ..tensor import Tensor
from . import init
from .module import Module

__all__ = ["GRUCell", "GRU", "gru_reference_forward"]


class GRUCell(Module):
    """Single-step GRU (per-gate reference implementation).

    Update equations (PyTorch convention)::

        r = sigmoid(x W_xr + h W_hr + b_r)
        z = sigmoid(x W_xz + h W_hz + b_z)
        n = tanh(x W_xn + r * (h W_hn) + b_n)
        h' = (1 - z) * n + z * h
    """

    def __init__(
        self, input_dim: int, hidden_dim: int, rng: np.random.Generator, dtype=None
    ) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim

        def w_in() -> Tensor:
            return Tensor(
                init.glorot_uniform(rng, input_dim, hidden_dim, dtype=dtype),
                requires_grad=True,
            )

        def w_rec() -> Tensor:
            return Tensor(
                init.orthogonal(rng, (hidden_dim, hidden_dim), dtype=dtype),
                requires_grad=True,
            )

        def b() -> Tensor:
            return Tensor(init.zeros((hidden_dim,), dtype=dtype), requires_grad=True)

        self.w_xr, self.w_hr, self.b_r = w_in(), w_rec(), b()
        self.w_xz, self.w_hz, self.b_z = w_in(), w_rec(), b()
        self.w_xn, self.w_hn, self.b_n = w_in(), w_rec(), b()

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """Advance one step: ``x`` is ``(B, D)``, ``h`` is ``(B, H)``."""
        r = (x @ self.w_xr + h @ self.w_hr + self.b_r).sigmoid()
        z = (x @ self.w_xz + h @ self.w_hz + self.b_z).sigmoid()
        n = (x @ self.w_xn + r * (h @ self.w_hn) + self.b_n).tanh()
        one = Tensor(np.ones_like(z.data))
        return (one - z) * n + z * h


def gru_reference_forward(cell: GRUCell, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Pre-fusion GRU time loop over a :class:`GRUCell`.

    This is the original (element-at-a-time) implementation, kept verbatim
    as the semantic reference for equivalence tests and as the "before"
    side of the GRU microbenchmark.
    """
    batch, time, _ = x.shape
    h = Tensor(np.zeros((batch, cell.hidden_dim), dtype=cell.w_hr.data.dtype))
    outputs: list[Tensor] = []
    for t in range(time):
        x_t = x[:, t, :]
        h_new = cell(x_t, h)
        if mask is not None:
            m = np.asarray(mask[:, t], dtype=h_new.data.dtype)[:, None]
            h = h_new * Tensor(m) + h * Tensor(1.0 - m)
        else:
            h = h_new
        outputs.append(h)
    return F.stack(outputs, axis=1)


class GRU(Module):
    """Unidirectional fused GRU over ``(B, T, D)`` sequences.

    Parameters are three fused tensors: ``w_x`` ``(D, 3H)``, ``w_h``
    ``(H, 3H)`` and ``bias`` ``(3H,)``, with gate order ``[r | z | n]``.
    Initialization draws the per-gate blocks in the same order and from the
    same distributions as :class:`GRUCell` (Glorot for input blocks,
    orthogonal for recurrent blocks), so a same-seed ``GRU`` and
    ``GRUCell`` hold identical weights.

    Padded steps (mask 0) copy the previous hidden state forward, so the
    final states and per-step outputs are invariant to padding length.
    """

    def __init__(
        self, input_dim: int, hidden_dim: int, rng: np.random.Generator, dtype=None
    ) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        w_x_blocks: list[np.ndarray] = []
        w_h_blocks: list[np.ndarray] = []
        for _ in range(3):  # gate order r, z, n — matches GRUCell's draws
            w_x_blocks.append(init.glorot_uniform(rng, input_dim, hidden_dim, dtype=dtype))
            w_h_blocks.append(init.orthogonal(rng, (hidden_dim, hidden_dim), dtype=dtype))
        self.w_x = Tensor(np.concatenate(w_x_blocks, axis=1), requires_grad=True, name="gru.w_x")
        self.w_h = Tensor(np.concatenate(w_h_blocks, axis=1), requires_grad=True, name="gru.w_h")
        self.bias = Tensor(
            init.zeros((3 * hidden_dim,), dtype=dtype), requires_grad=True, name="gru.bias"
        )

    def gate_cell(self) -> GRUCell:
        """Build a :class:`GRUCell` holding copies of this GRU's weights.

        Used by equivalence tests and the benchmark harness to run the
        per-gate reference computation with identical parameters.
        """
        H = self.hidden_dim
        cell = GRUCell(self.input_dim, H, np.random.default_rng(0))
        for index, gate in enumerate("rzn"):
            getattr(cell, f"w_x{gate}").data[...] = self.w_x.data[:, index * H : (index + 1) * H]
            getattr(cell, f"w_h{gate}").data[...] = self.w_h.data[:, index * H : (index + 1) * H]
            getattr(cell, f"b_{gate}").data[...] = self.bias.data[index * H : (index + 1) * H]
        return cell

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Return per-step hidden states ``(B, T, H)``."""
        batch, _, _ = x.shape
        # The entire layer — whole-sequence input projection plus the fused
        # packed time loop — is a single tape node; see gru_sequence.
        h0 = np.zeros((batch, self.hidden_dim), dtype=self.w_h.data.dtype)
        return F.gru_sequence(x, h0, self.w_h, mask=mask, w_x=self.w_x, bias=self.bias)
