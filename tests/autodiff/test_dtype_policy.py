"""Precision-policy tests: float64 reference vs the float32 fast path.

Covers the resolution rules in :mod:`repro.autodiff.dtypes`, dtype flow
through tensor creation / constants / backward, the float32 pretrained
embedding regression, same-seed init parity, optimizer state dtype, and
float32 "twins" of the fused-GRU / conv1d / trainer equivalence tests at
the bumped tolerance tier (:func:`equivalence_atol`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, equivalence_atol
from repro.autodiff import functional as F
from repro.autodiff import dtypes
from repro.autodiff.dtypes import (
    FAST_DTYPE,
    REFERENCE_DTYPE,
    canonical_dtype,
    coerce_array,
    default_dtype,
    float_dtype_names,
    get_default_dtype,
    resolve_dtype,
    set_default_dtype,
)
from repro.autodiff.nn import Embedding, init
from repro.autodiff.nn.rnn import GRU, GRUCell
from repro.autodiff.optim import Adam
from repro.baselines.common import TrainerConfig, run_classification_epoch, build_optimizer
from repro.models import MLPClassifier

from ..oracles import gru_reference_forward

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)
F32_ATOL = equivalence_atol("float32")


class TestPolicyBasics:
    def test_default_is_float64(self):
        assert get_default_dtype() == F64

    def test_reference_and_fast_dtypes_name_the_two_engine_dtypes(self):
        assert canonical_dtype(REFERENCE_DTYPE) == F64
        assert canonical_dtype(FAST_DTYPE) == F32
        assert sorted(float_dtype_names()) == sorted([REFERENCE_DTYPE, FAST_DTYPE])
        assert get_default_dtype().name == REFERENCE_DTYPE
        assert {"REFERENCE_DTYPE", "FAST_DTYPE"} <= set(dtypes.__all__)

    def test_canonical_dtype_accepts_aliases(self):
        assert canonical_dtype("float32") == F32
        assert canonical_dtype(np.float32) == F32
        assert canonical_dtype(F64) == F64

    @pytest.mark.parametrize("bad", ["float16", "int64", np.int32, "bogus", object])
    def test_canonical_dtype_rejects_non_engine_dtypes(self, bad):
        with pytest.raises(ValueError):
            canonical_dtype(bad)

    def test_set_default_returns_previous_and_context_restores(self):
        previous = set_default_dtype("float32")
        try:
            assert previous == F64
            assert get_default_dtype() == F32
        finally:
            set_default_dtype(previous)
        with default_dtype("float32"):
            assert get_default_dtype() == F32
            with default_dtype("float64"):
                assert get_default_dtype() == F64
            assert get_default_dtype() == F32
        assert get_default_dtype() == F64

    def test_resolve_dtype(self):
        assert resolve_dtype(None) == F64
        assert resolve_dtype("float32") == F32
        with default_dtype("float32"):
            assert resolve_dtype(None) == F32

    def test_equivalence_atol_tiers(self):
        assert equivalence_atol("float64") == 1e-10
        assert equivalence_atol("float32") == 1e-4

    def test_coerce_array_preserves_float_dtypes(self):
        f32 = np.ones((3,), dtype=F32)
        assert coerce_array(f32).dtype == F32
        assert coerce_array(f32) is f32  # no-copy fast path
        assert coerce_array(np.arange(3)).dtype == F64  # ints take the default
        assert coerce_array(f32, dtype="float64").dtype == F64
        copied = coerce_array(f32, copy=True)
        assert copied is not f32 and copied.dtype == F32


class TestTensorCreation:
    def test_float_arrays_keep_their_dtype(self):
        assert Tensor(np.ones((2,), dtype=F32)).dtype == F32
        assert Tensor(np.ones((2,), dtype=F64)).dtype == F64

    def test_scalars_lists_and_ints_take_ambient_default(self):
        assert Tensor(1.5).dtype == F64
        assert Tensor([1, 2, 3]).dtype == F64
        assert Tensor(np.arange(4)).dtype == F64
        with default_dtype("float32"):
            assert Tensor(1.5).dtype == F32
            assert Tensor([1, 2, 3]).dtype == F32
            assert Tensor(np.arange(4)).dtype == F32
            # an explicit float array still keeps its own dtype
            assert Tensor(np.ones((2,), dtype=F64)).dtype == F64

    def test_explicit_dtype_wins(self):
        assert Tensor(np.ones((2,), dtype=F64), dtype="float32").dtype == F32
        assert Tensor.zeros(3, dtype="float32").dtype == F32
        assert Tensor.ones(3, dtype="float32").dtype == F32
        assert Tensor.from_numpy(np.arange(3), dtype="float32").dtype == F32

    def test_constant_cache_is_keyed_by_dtype(self):
        t32 = Tensor(np.ones((3,), dtype=F32), requires_grad=True)
        with default_dtype("float32"):
            assert (t32 * 2.0).dtype == F32
        # the cached float32 constant for 2.0 must not leak into a
        # float64-ambient graph
        t64 = Tensor(np.ones((3,), dtype=F64), requires_grad=True)
        assert (t64 * 2.0).dtype == F64

    def test_mixed_dtype_inputs_promote_to_float64(self):
        a = Tensor(np.ones((3,), dtype=F32), requires_grad=True)
        b = Tensor(np.ones((3,), dtype=F64), requires_grad=True)
        assert (a + b).dtype == F64
        a2 = Tensor(np.ones((2, 3), dtype=F32), requires_grad=True)
        assert (a2 @ Tensor(np.ones((3, 2), dtype=F64))).dtype == F64


class TestBackwardDtype:
    def test_grads_land_in_each_params_own_dtype(self):
        a = Tensor(np.ones((3,), dtype=F32), requires_grad=True)
        b = Tensor(np.ones((3,), dtype=F64), requires_grad=True)
        ((a * b).sum()).backward()
        assert a.grad.dtype == F32  # cast back down at the leaf
        assert b.grad.dtype == F64

    def test_pure_float32_graph_backward_stays_float32(self):
        with default_dtype("float32"):
            w = Tensor(np.ones((4, 3), dtype=F32), requires_grad=True)
            x = Tensor(np.full((2, 4), 0.5, dtype=F32))
            loss = F.log_softmax(x @ w, axis=-1).sum() * (1.0 / 2.0)
            loss.backward()
        assert loss.dtype == F32
        assert w.grad.dtype == F32


class TestEmbeddingDtypeRegression:
    """Satellite: float32 pretrained matrices must not silently double."""

    def test_float32_pretrained_is_not_doubled(self):
        pretrained = np.random.default_rng(0).normal(size=(20, 8)).astype(F32)
        layer = Embedding(20, 8, pretrained=pretrained)
        assert layer.weight.data.dtype == F32
        assert layer.weight.data.nbytes == pretrained.nbytes  # not 2x
        np.testing.assert_array_equal(layer.weight.data, pretrained)

    def test_float64_pretrained_stays_float64(self):
        pretrained = np.random.default_rng(0).normal(size=(5, 4))
        layer = Embedding(5, 4, pretrained=pretrained)
        assert layer.weight.data.dtype == F64

    def test_explicit_dtype_overrides_pretrained(self):
        pretrained = np.random.default_rng(0).normal(size=(5, 4))
        layer = Embedding(5, 4, pretrained=pretrained, dtype="float32")
        assert layer.weight.data.dtype == F32
        np.testing.assert_array_equal(layer.weight.data, pretrained.astype(F32))

    def test_pretrained_is_copied_not_aliased(self):
        pretrained = np.zeros((3, 2), dtype=F32)
        layer = Embedding(3, 2, pretrained=pretrained)
        layer.weight.data[0, 0] = 1.0
        assert pretrained[0, 0] == 0.0


class TestInitParity:
    """Same seed, different dtype → float32 params are rounded float64 draws."""

    def test_initializers_draw_then_cast(self):
        for name, call in [
            ("glorot_uniform", lambda rng, dt: init.glorot_uniform(rng, 6, 5, dtype=dt)),
            ("glorot_normal", lambda rng, dt: init.glorot_normal(rng, 6, 5, dtype=dt)),
            ("uniform", lambda rng, dt: init.uniform(rng, (4, 3), dtype=dt)),
            ("normal", lambda rng, dt: init.normal(rng, (4, 3), dtype=dt)),
            ("orthogonal", lambda rng, dt: init.orthogonal(rng, (5, 5), dtype=dt)),
        ]:
            ref = call(np.random.default_rng(11), "float64")
            fast = call(np.random.default_rng(11), "float32")
            assert fast.dtype == F32, name
            np.testing.assert_array_equal(fast, ref.astype(F32), err_msg=name)

    def test_gru_same_seed_cross_dtype_parity(self):
        ref = GRU(4, 3, np.random.default_rng(5))
        fast = GRU(4, 3, np.random.default_rng(5), dtype="float32")
        assert fast.w_h.data.dtype == F32
        np.testing.assert_array_equal(fast.w_x.data, ref.w_x.data.astype(F32))
        np.testing.assert_array_equal(fast.w_h.data, ref.w_h.data.astype(F32))


class TestOptimizerStateDtype:
    def test_adam_state_inherits_param_dtype(self):
        p = Tensor(np.ones((3,), dtype=F32), requires_grad=True)
        optimizer = Adam([p], lr=1e-2)
        assert optimizer._m[0].dtype == F32
        assert optimizer._v[0].dtype == F32
        (p * p).sum().backward()
        optimizer.step()
        assert p.data.dtype == F32
        assert p.grad.dtype == F32


class TestConfigPlumbing:
    def test_trainer_config_validates_dtype(self):
        assert TrainerConfig(dtype="float32").dtype == "float32"
        assert TrainerConfig().dtype == "float64"
        with pytest.raises(ValueError):
            TrainerConfig(dtype="float16")

    def test_trainer_config_defaults_to_the_reference_dtype(self):
        # The default trainer runs the reference path; only an explicit
        # dtype (the paper configs pass FAST_DTYPE) takes the fast path.
        assert TrainerConfig().dtype == REFERENCE_DTYPE
        assert TrainerConfig(dtype=FAST_DTYPE).dtype == FAST_DTYPE


def _toy_classification(dtype: str):
    """Same-seed float twin setup: model + data for one training epoch.

    Both twins come from the same constructor; only the trainer config's
    dtype differs, and ``build_optimizer`` casts the model to it.
    """
    rng = np.random.default_rng(3)
    embeddings = rng.normal(size=(12, 6))
    tokens = rng.integers(0, 12, size=(16, 5))
    lengths = rng.integers(1, 6, size=16)
    labels = rng.integers(0, 3, size=16)
    targets = np.eye(3)[labels]
    model = MLPClassifier(embeddings, 3, 8, np.random.default_rng(7))
    config = TrainerConfig(
        epochs=1, batch_size=4, optimizer="sgd", learning_rate=0.1,
        lr_decay_every=None, grad_clip=None, dtype=dtype,
    )
    optimizer, _ = build_optimizer([model], config)
    return model, optimizer, tokens, lengths, targets, config


class TestFloat32Twins:
    """Float32 re-runs of the core equivalence tests at the bumped atol."""

    def test_fused_gru_matches_reference_float32(self):
        gru = GRU(6, 5, np.random.default_rng(42), dtype="float32")
        cell = GRUCell(6, 5, np.random.default_rng(42), dtype="float32")
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 9, 6)).astype(F32)
        lengths = np.array([9, 2, 7, 1])
        mask = np.arange(9)[None, :] < lengths[:, None]

        x_fused = Tensor(x, requires_grad=True)
        fused = gru(x_fused, mask=mask)
        assert fused.dtype == F32
        x_ref = Tensor(x, requires_grad=True)
        reference = gru_reference_forward(cell, x_ref, mask=mask)
        assert reference.dtype == F32
        np.testing.assert_allclose(
            fused.numpy(), reference.numpy(), atol=F32_ATOL, rtol=0
        )

        (fused**2).sum().backward()
        (reference**2).sum().backward()
        assert x_fused.grad.dtype == F32
        np.testing.assert_allclose(x_fused.grad, x_ref.grad, atol=F32_ATOL, rtol=0)
        for fused_param, gate_params in [
            (gru.w_x, [cell.w_xr, cell.w_xz, cell.w_xn]),
            (gru.w_h, [cell.w_hr, cell.w_hz, cell.w_hn]),
        ]:
            stacked = np.concatenate([p.grad for p in gate_params], axis=1)
            assert fused_param.grad.dtype == F32
            np.testing.assert_allclose(fused_param.grad, stacked, atol=F32_ATOL, rtol=0)

    @pytest.mark.parametrize("pad", ["valid", "same"])
    def test_conv1d_variants_agree_float32(self, pad):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 8, 4)).astype(F32)
        w = rng.normal(size=(3 * 4, 5)).astype(F32)
        b = rng.normal(size=(5,)).astype(F32)
        results = {}
        for variant in ("im2col", "width_loop"):
            xt = Tensor(x, requires_grad=True)
            wt = Tensor(w, requires_grad=True)
            bt = Tensor(b, requires_grad=True)
            out = F.conv1d_seq(xt, wt, bt, width=3, pad=pad, variant=variant)
            assert out.dtype == F32
            (out**2).sum().backward()
            assert xt.grad.dtype == F32 and wt.grad.dtype == F32
            results[variant] = (out.numpy(), xt.grad, wt.grad, bt.grad)
        for a, b_ in zip(results["im2col"], results["width_loop"]):
            np.testing.assert_allclose(a, b_, atol=F32_ATOL, rtol=0)

    def test_trainer_epoch_float32_twin_matches_reference(self):
        ref_model, ref_opt, tokens, lengths, targets, ref_cfg = _toy_classification("float64")
        fast_model, fast_opt, _, _, _, fast_cfg = _toy_classification("float32")
        loss64 = run_classification_epoch(
            ref_model, ref_opt, tokens, lengths, targets, np.random.default_rng(9), ref_cfg
        )
        loss32 = run_classification_epoch(
            fast_model, fast_opt, tokens, lengths, targets, np.random.default_rng(9), fast_cfg
        )
        assert np.isfinite(loss32)
        assert abs(loss64 - loss32) < 1e-3
        for p64, p32 in zip(ref_model.parameters(), fast_model.parameters()):
            assert p32.data.dtype == F32
            np.testing.assert_allclose(
                p32.data, p64.data.astype(F32), atol=F32_ATOL, rtol=1e-3
            )
