"""Tests for the layer library (Module, Linear, Embedding, Conv, GRU, ...)."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.autodiff import nn

from .gradcheck import assert_grad_matches


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestModule:
    def test_parameter_discovery_nested(self):
        rng = _rng()

        class Toy(nn.Module):
            def __init__(self):
                super().__init__()
                self.lin = nn.Linear(3, 2, rng)
                self.blocks = [nn.Linear(2, 2, rng), nn.Linear(2, 1, rng)]

        toy = Toy()
        names = dict(toy.named_parameters())
        assert "lin.weight" in names
        assert "blocks.0.weight" in names
        assert "blocks.1.bias" in names
        assert len(toy.parameters()) == 6

    def test_train_eval_propagates(self):
        rng = _rng()
        seq = nn.Sequential(nn.Linear(2, 2, rng), nn.Dropout(0.5, rng))
        seq.eval()
        assert all(not m.training for m in seq.modules())
        seq.train()
        assert all(m.training for m in seq.modules())

    def test_zero_grad(self):
        rng = _rng()
        lin = nn.Linear(2, 2, rng)
        (lin(Tensor(np.ones((1, 2)))) ** 2).sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_state_dict_roundtrip(self):
        rng = _rng()
        a = nn.Linear(3, 2, rng)
        b = nn.Linear(3, 2, _rng(1))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_state_dict_detects_mismatch(self):
        rng = _rng()
        a = nn.Linear(3, 2, rng)
        state = a.state_dict()
        state["extra"] = np.zeros(1)
        with pytest.raises(KeyError):
            a.load_state_dict(state)

    def test_state_dict_detects_shape_mismatch(self):
        rng = _rng()
        a = nn.Linear(3, 2, rng)
        state = a.state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_num_parameters(self):
        lin = nn.Linear(3, 2, _rng())
        assert lin.num_parameters() == 3 * 2 + 2

    def test_cast_reaches_frozen_tensors_and_gradients(self):
        rng = _rng()
        seq = nn.Sequential(
            nn.Embedding(5, 3, pretrained=rng.normal(size=(5, 3)), trainable=False),
            nn.Linear(3, 2, rng),
        )
        embedding, linear = seq.layers
        (linear(Tensor(np.ones((1, 3)))) ** 2).sum().backward()
        reference = linear.weight.data.copy()
        assert seq.cast("float32") is seq
        assert embedding.weight.dtype == np.float32
        assert linear.weight.grad.dtype == np.float32
        np.testing.assert_array_equal(linear.weight.data, reference.astype(np.float32))
        assert [p.dtype for p in seq.parameters()] == [np.float32, np.float32]

    def test_cast_to_own_dtype_keeps_every_array(self):
        rng = _rng()
        lin = nn.Linear(3, 2, rng)
        arrays = [lin.weight.data, lin.bias.data]
        lin.cast("float64")
        assert lin.weight.data is arrays[0] and lin.bias.data is arrays[1]
        with pytest.raises(ValueError):
            lin.cast("float16")


class TestLinear:
    def test_forward_matches_manual(self):
        rng = _rng()
        lin = nn.Linear(3, 2, rng)
        x = rng.normal(size=(4, 3))
        out = lin(Tensor(x)).numpy()
        np.testing.assert_allclose(out, x @ lin.weight.data + lin.bias.data, atol=1e-12)

    def test_no_bias(self):
        lin = nn.Linear(3, 2, _rng(), bias=False)
        assert lin.bias is None
        assert len(lin.parameters()) == 1

    def test_gradcheck(self):
        rng = _rng()
        lin = nn.Linear(3, 2, rng)
        x = Tensor(rng.normal(size=(4, 3)))
        assert_grad_matches(lambda: (lin(x) ** 2).sum(), lin.parameters())


class TestEmbedding:
    def test_pretrained_frozen(self):
        pretrained = _rng().normal(size=(5, 3))
        emb = nn.Embedding(5, 3, pretrained=pretrained, trainable=False)
        assert emb.parameters() == []
        out = emb(np.array([1, 2]))
        np.testing.assert_allclose(out.numpy(), pretrained[[1, 2]])

    def test_pretrained_shape_check(self):
        with pytest.raises(ValueError):
            nn.Embedding(5, 3, pretrained=np.zeros((4, 3)))

    def test_requires_rng_without_pretrained(self):
        with pytest.raises(ValueError):
            nn.Embedding(5, 3)

    def test_trainable_receives_grads(self):
        emb = nn.Embedding(5, 3, rng=_rng())
        emb(np.array([0, 1])).sum().backward()
        assert emb.weight.grad is not None


class TestConvDropout:
    def test_conv_layer_shapes(self):
        conv = nn.Conv1dSeq(4, 8, width=3, rng=_rng())
        out = conv(Tensor(_rng().normal(size=(2, 6, 4))))
        assert out.shape == (2, 4, 8)

    def test_conv_same_padding(self):
        conv = nn.Conv1dSeq(4, 8, width=5, rng=_rng(), pad="same")
        out = conv(Tensor(_rng().normal(size=(2, 6, 4))))
        assert out.shape == (2, 6, 8)

    def test_dropout_rate_validation(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.5, _rng())

    def test_dropout_respects_eval(self):
        drop = nn.Dropout(0.9, _rng())
        drop.eval()
        x = Tensor(np.ones((3, 3)))
        assert drop(x) is x

    def test_activation_modules(self):
        x = Tensor(np.array([-1.0, 2.0]))
        np.testing.assert_allclose(nn.ReLU()(x).numpy(), [0.0, 2.0])
        np.testing.assert_allclose(nn.Tanh()(x).numpy(), np.tanh([-1.0, 2.0]))


class TestGRU:
    def test_cell_output_shape(self):
        cell = nn.GRUCell(4, 6, _rng())
        h = cell(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 6))))
        assert h.shape == (3, 6)

    def test_zero_update_gate_keeps_state_bounded(self):
        cell = nn.GRUCell(2, 3, _rng())
        h = Tensor(np.zeros((1, 3)))
        for _ in range(50):
            h = cell(Tensor(np.ones((1, 2))), h)
        assert np.all(np.abs(h.numpy()) <= 1.0 + 1e-9)  # tanh-bounded

    def test_sequence_output_shape(self):
        gru = nn.GRU(4, 5, _rng())
        out = gru(Tensor(_rng().normal(size=(2, 7, 4))))
        assert out.shape == (2, 7, 5)

    def test_mask_freezes_state(self):
        gru = nn.GRU(3, 4, _rng())
        x = _rng().normal(size=(1, 5, 3))
        mask = np.array([[1, 1, 0, 0, 0]])
        out = gru(Tensor(x), mask=mask).numpy()
        # After the mask ends the hidden state must stay constant.
        np.testing.assert_allclose(out[0, 2], out[0, 3])
        np.testing.assert_allclose(out[0, 3], out[0, 4])

    def test_padding_invariance(self):
        gru = nn.GRU(3, 4, _rng())
        x_short = _rng(3).normal(size=(1, 3, 3))
        x_long = np.concatenate([x_short, np.zeros((1, 2, 3))], axis=1)
        out_short = gru(Tensor(x_short), mask=np.ones((1, 3))).numpy()
        out_long = gru(Tensor(x_long), mask=np.array([[1, 1, 1, 0, 0]])).numpy()
        np.testing.assert_allclose(out_short[0, 2], out_long[0, 4], atol=1e-12)

    def test_gradcheck_small(self):
        rng = _rng()
        gru = nn.GRU(2, 3, rng)
        x = Tensor(rng.normal(size=(2, 3, 2)))
        params = gru.parameters()
        assert len(params) == 3  # fused w_x, w_h, bias
        assert_grad_matches(
            lambda: (gru(x) ** 2).sum(), params, atol=1e-4, rtol=1e-3
        )


class TestInitializers:
    def test_glorot_uniform_bounds(self):
        w = nn.init.glorot_uniform(_rng(), 100, 100)
        bound = np.sqrt(6.0 / 200)
        assert np.all(np.abs(w) <= bound)

    def test_orthogonal_is_orthogonal(self):
        q = nn.init.orthogonal(_rng(), (6, 6))
        np.testing.assert_allclose(q.T @ q, np.eye(6), atol=1e-10)

    def test_zeros(self):
        np.testing.assert_allclose(nn.init.zeros((2, 2)), np.zeros((2, 2)))
