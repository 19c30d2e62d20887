"""Equivalence tests: fused/packed GRU vs. the per-gate reference cell.

The fused implementation (batched input projection + single-tape-node
packed time loop) must reproduce the original per-gate element-at-a-time
loop bit-for-tolerance (atol 1e-10): outputs and every gradient, with and
without padding masks, on prefix and non-prefix masks.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, tape_node_count
from repro.autodiff.nn.rnn import GRU, GRUCell, gru_reference_forward

from .gradcheck import assert_grad_matches

ATOL = 1e-10


def _rng(seed=0):
    return np.random.default_rng(seed)


def _pair(in_dim=6, hidden=5, seed=42):
    """Same-seed fused GRU and per-gate cell — identical weights."""
    gru = GRU(in_dim, hidden, np.random.default_rng(seed))
    cell = GRUCell(in_dim, hidden, np.random.default_rng(seed))
    return gru, cell


class TestSeedParity:
    def test_same_seed_weights_match_per_gate_blocks(self):
        gru, cell = _pair()
        H = gru.hidden_dim
        for index, gate in enumerate("rzn"):
            np.testing.assert_array_equal(
                gru.w_x.data[:, index * H : (index + 1) * H],
                getattr(cell, f"w_x{gate}").data,
            )
            np.testing.assert_array_equal(
                gru.w_h.data[:, index * H : (index + 1) * H],
                getattr(cell, f"w_h{gate}").data,
            )

    def test_gate_cell_roundtrip(self):
        gru, cell = _pair()
        rebuilt = gru.gate_cell()
        np.testing.assert_array_equal(rebuilt.w_xn.data, cell.w_xn.data)
        np.testing.assert_array_equal(rebuilt.w_hz.data, cell.w_hz.data)


class TestForwardEquivalence:
    @pytest.mark.parametrize("masked", [False, True])
    def test_outputs_match_reference(self, masked):
        gru, cell = _pair()
        rng = _rng(1)
        x = rng.normal(size=(4, 9, 6))
        mask = None
        if masked:
            lengths = np.array([9, 2, 7, 1])
            mask = np.arange(9)[None, :] < lengths[:, None]
        fused = gru(Tensor(x), mask=mask).numpy()
        reference = gru_reference_forward(cell, Tensor(x), mask=mask).numpy()
        np.testing.assert_allclose(fused, reference, atol=ATOL, rtol=0)

    def test_non_prefix_mask_falls_back_and_matches(self):
        gru, cell = _pair()
        rng = _rng(2)
        x = rng.normal(size=(3, 6, 6))
        mask = np.array(  # holes in the middle: not a prefix mask
            [[1, 0, 1, 1, 0, 1], [1, 1, 1, 0, 0, 0], [0, 1, 0, 1, 0, 1]]
        )
        fused = gru(Tensor(x), mask=mask).numpy()
        reference = gru_reference_forward(cell, Tensor(x), mask=mask).numpy()
        np.testing.assert_allclose(fused, reference, atol=ATOL, rtol=0)

    def test_soft_fractional_mask_uses_weighted_carry(self):
        # Fractional mask values must not be collapsed to booleans by the
        # packed-sequence fast path; they take the m-weighted blend.
        gru, cell = _pair()
        rng = _rng(12)
        x = rng.normal(size=(2, 6, 6))
        soft = np.array([[1, 1, 0.5, 0, 0, 0], [1, 0.25, 0, 0, 0, 0]])
        fused = gru(Tensor(x), mask=soft).numpy()
        reference = gru_reference_forward(cell, Tensor(x), mask=soft).numpy()
        np.testing.assert_allclose(fused, reference, atol=ATOL, rtol=0)

    def test_padding_invariance_exact(self):
        gru, _ = _pair()
        rng = _rng(3)
        x_short = rng.normal(size=(1, 4, 6))
        x_long = np.concatenate([x_short, rng.normal(size=(1, 3, 6))], axis=1)
        out_short = gru(Tensor(x_short), mask=np.ones((1, 4))).numpy()
        out_long = gru(Tensor(x_long), mask=np.array([[1, 1, 1, 1, 0, 0, 0]])).numpy()
        np.testing.assert_array_equal(out_short[0, 3], out_long[0, 3])
        np.testing.assert_array_equal(out_long[0, 3], out_long[0, 6])  # frozen


class TestGradientEquivalence:
    @pytest.mark.parametrize("masked", [False, True])
    def test_all_gradients_match_reference(self, masked):
        gru, cell = _pair(in_dim=5, hidden=4, seed=7)
        H = gru.hidden_dim
        rng = _rng(4)
        x = rng.normal(size=(3, 8, 5))
        mask = None
        if masked:
            mask = np.arange(8)[None, :] < np.array([8, 3, 5])[:, None]

        x_fused = Tensor(x, requires_grad=True)
        (gru(x_fused, mask=mask) ** 2).sum().backward()

        x_ref = Tensor(x, requires_grad=True)
        (gru_reference_forward(cell, x_ref, mask=mask) ** 2).sum().backward()

        np.testing.assert_allclose(x_fused.grad, x_ref.grad, atol=ATOL, rtol=0)
        for index, gate in enumerate("rzn"):
            cols = slice(index * H, (index + 1) * H)
            np.testing.assert_allclose(
                gru.w_x.grad[:, cols], getattr(cell, f"w_x{gate}").grad, atol=ATOL, rtol=0
            )
            np.testing.assert_allclose(
                gru.w_h.grad[:, cols], getattr(cell, f"w_h{gate}").grad, atol=ATOL, rtol=0
            )
            np.testing.assert_allclose(
                gru.bias.grad[cols], getattr(cell, f"b_{gate}").grad, atol=ATOL, rtol=0
            )

    def test_numerical_gradcheck_masked(self):
        gru = GRU(2, 3, _rng(5))
        x = Tensor(_rng(6).normal(size=(2, 4, 2)))
        mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]])
        assert_grad_matches(
            lambda: (gru(x, mask=mask) ** 2).sum(),
            gru.parameters(),
            atol=1e-4,
            rtol=1e-3,
        )


class TestFusedOps:
    def test_no_grad_builds_no_nodes(self):
        from repro.autodiff import no_grad

        gru, _ = _pair()
        x = _rng(9).normal(size=(2, 5, 6))
        before = tape_node_count()
        with no_grad():
            gru(Tensor(x), mask=np.ones((2, 5)))
        assert tape_node_count() == before
