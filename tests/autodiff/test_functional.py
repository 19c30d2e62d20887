"""Tests for the neural-network functional ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor
from repro.autodiff import functional as F

from .gradcheck import assert_grad_matches


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestEmbedding:
    def test_lookup_shape_and_values(self):
        weight = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        idx = np.array([[0, 2], [3, 3]])
        out = F.embedding(weight, idx)
        assert out.shape == (2, 2, 3)
        np.testing.assert_allclose(out.numpy()[0, 1], [6.0, 7.0, 8.0], atol=0)

    def test_repeated_indices_accumulate_grad(self):
        weight = Tensor(np.zeros((3, 2)), requires_grad=True)
        idx = np.array([1, 1, 2])
        F.embedding(weight, idx).sum().backward()
        np.testing.assert_allclose(weight.grad, [[0, 0], [2, 2], [1, 1]], atol=0)

    def test_rejects_float_indices(self):
        weight = Tensor(np.zeros((3, 2)))
        with pytest.raises(TypeError):
            F.embedding(weight, np.array([0.5]))

    def test_gradcheck(self):
        weight = Tensor(_rng().normal(size=(5, 3)), requires_grad=True)
        idx = np.array([[0, 4, 2]])
        assert_grad_matches(lambda: (F.embedding(weight, idx) ** 2).sum(), [weight])


class TestConv1dSeq:
    def test_output_shape_valid(self):
        rng = _rng()
        x = Tensor(rng.normal(size=(2, 7, 4)))
        w = Tensor(rng.normal(size=(3 * 4, 6)))
        b = Tensor(np.zeros(6))
        out = F.conv1d_seq(x, w, b, width=3)
        assert out.shape == (2, 5, 6)

    def test_output_shape_same(self):
        rng = _rng()
        x = Tensor(rng.normal(size=(2, 7, 4)))
        w = Tensor(rng.normal(size=(5 * 4, 6)))
        out = F.conv1d_seq(x, w, None, width=5, pad="same")
        assert out.shape == (2, 7, 6)

    def test_matches_naive_convolution(self):
        rng = _rng()
        x = rng.normal(size=(1, 6, 2))
        w = rng.normal(size=(3 * 2, 4))
        out = F.conv1d_seq(Tensor(x), Tensor(w), None, width=3).numpy()
        for t in range(4):
            window = x[0, t : t + 3, :].reshape(-1)
            np.testing.assert_allclose(out[0, t], window @ w, atol=1e-12)

    def test_rejects_short_sequence(self):
        x = Tensor(np.zeros((1, 2, 3)))
        w = Tensor(np.zeros((5 * 3, 1)))
        with pytest.raises(ValueError):
            F.conv1d_seq(x, w, None, width=5)

    def test_rejects_bad_pad(self):
        x = Tensor(np.zeros((1, 5, 3)))
        w = Tensor(np.zeros((3 * 3, 1)))
        with pytest.raises(ValueError):
            F.conv1d_seq(x, w, None, width=3, pad="reflect")

    def test_rejects_weight_shape_mismatch(self):
        x = Tensor(np.zeros((1, 5, 3)))
        w = Tensor(np.zeros((7, 1)))
        with pytest.raises(ValueError):
            F.conv1d_seq(x, w, None, width=3)

    @pytest.mark.parametrize("pad", ["valid", "same"])
    def test_gradcheck(self, pad):
        rng = _rng()
        x = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3 * 3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2,)), requires_grad=True)
        assert_grad_matches(
            lambda: (F.conv1d_seq(x, w, b, width=3, pad=pad) ** 2).sum(), [x, w, b]
        )


class TestMaxOverTime:
    def test_basic(self):
        x = Tensor([[[1.0, 9.0], [5.0, 2.0], [3.0, 3.0]]])
        out = F.max_over_time(x)
        np.testing.assert_allclose(out.numpy(), [[5.0, 9.0]], atol=0)

    def test_mask_excludes_padding(self):
        x = Tensor([[[1.0], [100.0]]])
        mask = np.array([[True, False]])
        out = F.max_over_time(x, mask)
        np.testing.assert_allclose(out.numpy(), [[1.0]], atol=0)

    def test_mask_all_invalid_raises(self):
        x = Tensor(np.zeros((1, 2, 1)))
        with pytest.raises(ValueError):
            F.max_over_time(x, np.array([[False, False]]))

    def test_mask_shape_mismatch(self):
        x = Tensor(np.zeros((1, 2, 1)))
        with pytest.raises(ValueError):
            F.max_over_time(x, np.zeros((2, 2), dtype=bool))

    def test_gradcheck(self):
        rng = _rng()
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=bool)
        assert_grad_matches(lambda: (F.max_over_time(x, mask) ** 2).sum(), [x])


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(_rng().normal(size=(4, 5)))
        out = F.softmax(x).numpy()
        np.testing.assert_allclose(out.sum(axis=1), np.ones(4), atol=0)
        assert (out > 0).all()

    def test_shift_invariance(self):
        x = _rng().normal(size=(3, 4))
        a = F.softmax(Tensor(x)).numpy()
        b = F.softmax(Tensor(x + 1000.0)).numpy()
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_consistent_with_softmax(self):
        x = Tensor(_rng().normal(size=(3, 4)))
        np.testing.assert_allclose(
            np.exp(F.log_softmax(x).numpy()), F.softmax(x).numpy(), atol=1e-12
        )

    def test_softmax_gradcheck(self):
        x = Tensor(_rng().normal(size=(3, 4)), requires_grad=True)
        assert_grad_matches(lambda: (F.softmax(x) ** 2).sum(), [x])

    def test_log_softmax_gradcheck(self):
        x = Tensor(_rng().normal(size=(3, 4)), requires_grad=True)
        assert_grad_matches(lambda: (F.log_softmax(x) ** 2).sum(), [x])

    def test_softmax_axis0(self):
        x = Tensor(_rng().normal(size=(3, 4)))
        np.testing.assert_allclose(F.softmax(x, axis=0).numpy().sum(axis=0), np.ones(4), atol=0)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(_rng().normal(size=(10, 10)))
        out = F.dropout(x, 0.5, _rng(), training=False)
        assert out is x

    def test_zero_rate_is_identity(self):
        x = Tensor(_rng().normal(size=(4,)))
        assert F.dropout(x, 0.0, _rng(), training=True) is x

    def test_training_scales_kept_units(self):
        x = Tensor(np.ones((2000,)))
        out = F.dropout(x, 0.5, _rng(), training=True).numpy()
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0, atol=0)
        # Keep-rate concentration: ~50% kept.
        assert 0.4 < (out != 0).mean() < 0.6

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor([1.0]), 1.0, _rng(), training=True)

    def test_gradient_uses_same_mask(self):
        x = Tensor(np.ones((100,)), requires_grad=True)
        out = F.dropout(x, 0.5, _rng(7), training=True)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, out.numpy(), atol=0)


class TestJoins:
    def test_concat_values_and_grads(self):
        a = Tensor(_rng().normal(size=(2, 3)), requires_grad=True)
        b = Tensor(_rng().normal(size=(2, 2)), requires_grad=True)
        assert F.concat([a, b], axis=1).shape == (2, 5)
        assert_grad_matches(lambda: (F.concat([a, b], axis=1) ** 2).sum(), [a, b])

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            F.concat([])

    def test_stack_values_and_grads(self):
        a = Tensor(_rng().normal(size=(2, 3)), requires_grad=True)
        b = Tensor(_rng().normal(size=(2, 3)), requires_grad=True)
        assert F.stack([a, b], axis=1).shape == (2, 2, 3)
        assert_grad_matches(lambda: (F.stack([a, b], axis=1) ** 2).sum(), [a, b])

    def test_stack_empty_raises(self):
        with pytest.raises(ValueError):
            F.stack([])


class TestSoftCrossEntropy:
    def test_matches_manual_value(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 1.0]]))
        target = np.array([[1.0, 0.0], [0.5, 0.5]])
        loss = F.cross_entropy_soft(logits, target).item()
        logp = F.log_softmax(logits).numpy()
        expected = -(target * logp).sum(axis=1).mean()
        np.testing.assert_allclose(loss, expected, atol=1e-12)

    def test_weighted_version(self):
        logits = Tensor(np.zeros((2, 2)))
        target = np.array([[1.0, 0.0], [1.0, 0.0]])
        unweighted = F.cross_entropy_soft(logits, target).item()
        weighted = F.cross_entropy_soft(logits, target, weights=np.array([2.0, 0.0])).item()
        np.testing.assert_allclose(weighted, unweighted, atol=0)  # symmetric case

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            F.cross_entropy_soft(Tensor(np.zeros((2, 3))), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            F.cross_entropy_soft(
                Tensor(np.zeros((2, 3))), np.zeros((2, 3)), weights=np.zeros(3)
            )

    def test_gradcheck(self):
        rng = _rng()
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        target = np.abs(rng.normal(size=(3, 4)))
        target /= target.sum(axis=1, keepdims=True)
        weights = np.array([1.0, 2.0, 3.0])
        assert_grad_matches(
            lambda: F.cross_entropy_soft(logits, target, weights=weights), [logits]
        )

    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[50.0, 0.0]]))
        target = np.array([[1.0, 0.0]])
        assert F.cross_entropy_soft(logits, target).item() < 1e-8


class TestSequenceSoftCrossEntropy:
    def test_padding_excluded(self):
        logits = Tensor(np.zeros((1, 3, 2)))
        target = np.array([[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
        full = F.sequence_cross_entropy_soft(
            logits, target, np.array([[1, 1, 1]])
        ).item()
        masked = F.sequence_cross_entropy_soft(
            logits, target, np.array([[1, 1, 0]])
        ).item()
        np.testing.assert_allclose(full, masked, atol=0)  # uniform logits: same per-token CE
        # but gradients at masked positions must be zero:
        logits2 = Tensor(np.zeros((1, 3, 2)), requires_grad=True)
        F.sequence_cross_entropy_soft(logits2, target, np.array([[1, 1, 0]])).backward()
        np.testing.assert_allclose(logits2.grad[0, 2], 0.0, atol=0)

    def test_shape_validation(self):
        logits = Tensor(np.zeros((1, 3, 2)))
        with pytest.raises(ValueError):
            F.sequence_cross_entropy_soft(logits, np.zeros((1, 3, 3)), np.ones((1, 3)))
        with pytest.raises(ValueError):
            F.sequence_cross_entropy_soft(logits, np.zeros((1, 3, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            F.sequence_cross_entropy_soft(
                logits, np.zeros((1, 3, 2)), np.ones((1, 3)), weights=np.ones((1, 2))
            )

    def test_gradcheck(self):
        rng = _rng()
        logits = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        target = np.abs(rng.normal(size=(2, 4, 3)))
        target /= target.sum(axis=-1, keepdims=True)
        mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]])
        weights = np.abs(rng.normal(size=(2, 4))) + 0.5
        assert_grad_matches(
            lambda: F.sequence_cross_entropy_soft(logits, target, mask, weights=weights),
            [logits],
        )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_property_softmax_is_distribution(seed):
    rng = np.random.default_rng(seed)
    out = F.softmax(Tensor(rng.normal(size=(5, 7)) * 10)).numpy()
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_property_cross_entropy_lower_bounded_by_entropy(seed):
    """CE(q, p) >= H(q), with equality iff p == q."""
    rng = np.random.default_rng(seed)
    target = np.abs(rng.normal(size=(4, 3))) + 1e-3
    target /= target.sum(axis=1, keepdims=True)
    logits = Tensor(rng.normal(size=(4, 3)))
    ce = F.cross_entropy_soft(logits, target).item()
    entropy = float(-(target * np.log(target)).sum(axis=1).mean())
    assert ce >= entropy - 1e-9
