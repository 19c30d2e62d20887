"""Property-based checks for the two ``conv1d_seq`` execution variants.

The width-loop variant accumulates ``width`` shifted ``(B, T_out, D) @
(D, F)`` matmuls instead of materializing the ``(B, T_out, width·D)``
im2col window buffer. Same tape node, same backward contract, same math —
but *not* bit-for-bit: splitting the shared ``width·D`` contraction into
per-offset GEMMs changes BLAS's reduction order, so the two variants agree
only to float64 round-off (measured ≤ ~1e-13 at paper scale against values
of order ``sqrt(width·D)``). The forward/backward cross-checks below pin
that agreement at atol/rtol 1e-11, and the width-loop path is additionally
checked against central-difference numerics (``gradcheck.py``) so the pin
is to ground truth, not just to the sibling implementation.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, functional as F
from repro.autodiff.functional import (
    CONV1D_VARIANTS,
    IM2COL_ELEMENT_BUDGET,
    _select_conv1d_variant,
)

from .gradcheck import assert_grad_matches

ATOL = RTOL = 1e-11


def random_config(rng):
    """One random (shapes, width, pad, bias?) configuration."""
    width = int(rng.integers(1, 6))
    pad = "valid" if rng.random() < 0.5 else "same"
    batch = int(rng.integers(1, 5))
    dim = int(rng.integers(1, 8))
    feats = int(rng.integers(1, 6))
    low = width if pad == "valid" else 1
    time = int(rng.integers(low, low + 9))
    return batch, time, dim, feats, width, pad, bool(rng.random() < 0.7)


def run_variant(variant, data, weight, bias, width, pad):
    """Forward + backward through a squared loss; returns (out, grads)."""
    x = Tensor(data, requires_grad=True)
    w = Tensor(weight, requires_grad=True)
    b = Tensor(bias, requires_grad=True) if bias is not None else None
    out = F.conv1d_seq(x, w, b, width=width, pad=pad, variant=variant)
    (out**2).sum().backward()
    grads = [x.grad, w.grad] + ([b.grad] if b is not None else [])
    return out.numpy(), grads


class TestVariantEquivalence:
    """Randomized forward/backward agreement between the two variants."""

    def test_random_configs_agree(self):
        rng = np.random.default_rng(20260729)
        for _ in range(40):
            batch, time, dim, feats, width, pad, with_bias = random_config(rng)
            data = rng.normal(size=(batch, time, dim))
            weight = rng.normal(size=(width * dim, feats))
            bias = rng.normal(size=(feats,)) if with_bias else None
            context = f"B={batch} T={time} D={dim} F={feats} w={width} pad={pad} bias={with_bias}"
            out_im2col, grads_im2col = run_variant("im2col", data, weight, bias, width, pad)
            out_loop, grads_loop = run_variant("width_loop", data, weight, bias, width, pad)
            np.testing.assert_allclose(
                out_loop, out_im2col, atol=ATOL, rtol=RTOL, err_msg=f"forward: {context}"
            )
            for name, new, old in zip(("x", "weight", "bias"), grads_loop, grads_im2col):
                np.testing.assert_allclose(
                    new, old, atol=ATOL, rtol=RTOL, err_msg=f"{name} grad: {context}"
                )

    def test_width_one_is_exactly_a_matmul_for_both(self):
        # width == 1 has a single offset: no reduction split, so the two
        # variants really are bit-identical there.
        rng = np.random.default_rng(0)
        data = rng.normal(size=(3, 7, 5))
        weight = rng.normal(size=(5, 4))
        out_im2col, _ = run_variant("im2col", data, weight, None, 1, "valid")
        out_loop, _ = run_variant("width_loop", data, weight, None, 1, "valid")
        np.testing.assert_array_equal(out_loop, out_im2col)


class TestWidthLoopNumerics:
    """The new path is pinned to central-difference ground truth too."""

    @pytest.mark.parametrize("pad", ["valid", "same"])
    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_gradcheck(self, pad, width):
        rng = np.random.default_rng(width * 7 + (pad == "same"))
        time = max(width, 6)
        x = Tensor(rng.normal(size=(2, time, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(width * 3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2,)), requires_grad=True)
        assert_grad_matches(
            lambda: (F.conv1d_seq(x, w, b, width=width, pad=pad, variant="width_loop") ** 2).sum(),
            [x, w, b],
        )

    def test_no_grad_fast_path(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 6, 3)))
        w = Tensor(rng.normal(size=(9, 2)))
        out = F.conv1d_seq(x, w, None, width=3, variant="width_loop")
        assert out._op is None or not out._tracked


class TestAutoSelection:
    def test_small_problems_pick_im2col(self):
        assert _select_conv1d_variant(2, 6, 3, 4) == "im2col"

    def test_width_one_always_im2col(self):
        assert _select_conv1d_variant(10**6, 10**6, 1, 10**6) == "im2col"

    def test_paper_scale_picks_width_loop(self):
        # Tagger/Kim-CNN scale: B=32, T=50, D=300, width=5.
        assert _select_conv1d_variant(32, 46, 5, 300) == "width_loop"
        assert 32 * 46 * 5 * 300 > IM2COL_ELEMENT_BUDGET

    def test_paper_scale_never_materializes_windows(self, monkeypatch):
        """auto at paper scale must not touch the im2col window builder —
        forward *or* backward."""

        def boom(*args, **kwargs):
            raise AssertionError("im2col window buffer materialized")

        monkeypatch.setattr(F, "_sliding_windows", boom)
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(32, 50, 300)), requires_grad=True)
        w = Tensor(rng.normal(size=(5 * 300, 16)), requires_grad=True)
        b = Tensor(np.zeros(16), requires_grad=True)
        out = F.conv1d_seq(x, w, b, width=5, pad="same")
        (out**2).sum().backward()
        assert x.grad is not None and w.grad is not None

    def test_bad_variant_rejected(self):
        x = Tensor(np.zeros((1, 5, 3)))
        w = Tensor(np.zeros((9, 1)))
        with pytest.raises(ValueError, match="variant"):
            F.conv1d_seq(x, w, None, width=3, variant="fft")
        assert set(CONV1D_VARIANTS) == {"auto", "im2col", "width_loop"}
