"""Unit and property tests for the autodiff Tensor core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, is_grad_enabled, no_grad

from .gradcheck import assert_grad_matches


def _rng():
    return np.random.default_rng(0)


class TestBasics:
    def test_wraps_data_as_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64
        assert t.shape == (3,)

    def test_item_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()
        assert Tensor([[3.5]]).item() == 3.5

    def test_detach_cuts_graph(self):
        a = Tensor([2.0], requires_grad=True)
        b = (a * 3.0).detach()
        c = (b * 2.0).sum()
        c.backward()
        assert a.grad is None

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_backward_requires_scalar_without_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2.0).backward()

    def test_backward_grad_shape_mismatch(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = a * 2.0
        with pytest.raises(ValueError):
            out.backward(np.ones((3,)))

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            b = a * 5.0
        assert is_grad_enabled()
        assert b._op is None

    def test_zeros_ones_constructors(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones(4).data.sum() == 4.0


class TestArithmeticGradients:
    def test_add(self):
        a = Tensor(_rng().normal(size=(3, 4)), requires_grad=True)
        b = Tensor(_rng().normal(size=(3, 4)), requires_grad=True)
        assert_grad_matches(lambda: (a + b).sum(), [a, b])

    def test_add_broadcast(self):
        a = Tensor(_rng().normal(size=(3, 4)), requires_grad=True)
        b = Tensor(_rng().normal(size=(4,)), requires_grad=True)
        assert_grad_matches(lambda: (a + b).sum(), [a, b])

    def test_mul_broadcast_scalar(self):
        a = Tensor(_rng().normal(size=(2, 3)), requires_grad=True)
        assert_grad_matches(lambda: (a * 2.5).sum(), [a])

    def test_sub_and_rsub(self):
        a = Tensor(_rng().normal(size=(3,)), requires_grad=True)
        assert_grad_matches(lambda: (5.0 - a).sum(), [a])
        assert_grad_matches(lambda: (a - 5.0).sum(), [a])

    def test_div(self):
        a = Tensor(_rng().normal(size=(3,)) + 3.0, requires_grad=True)
        b = Tensor(_rng().normal(size=(3,)) + 3.0, requires_grad=True)
        assert_grad_matches(lambda: (a / b).sum(), [a, b])

    def test_rdiv(self):
        a = Tensor(_rng().normal(size=(3,)) + 3.0, requires_grad=True)
        assert_grad_matches(lambda: (1.0 / a).sum(), [a])

    def test_pow(self):
        a = Tensor(np.abs(_rng().normal(size=(3,))) + 0.5, requires_grad=True)
        assert_grad_matches(lambda: (a**3).sum(), [a])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_neg(self):
        a = Tensor(_rng().normal(size=(3,)), requires_grad=True)
        assert_grad_matches(lambda: (-a).sum(), [a])

    def test_matmul(self):
        a = Tensor(_rng().normal(size=(3, 4)), requires_grad=True)
        b = Tensor(_rng().normal(size=(4, 2)), requires_grad=True)
        assert_grad_matches(lambda: (a @ b).sum(), [a, b])

    def test_matmul_batched(self):
        a = Tensor(_rng().normal(size=(5, 3, 4)), requires_grad=True)
        b = Tensor(_rng().normal(size=(4, 2)), requires_grad=True)
        assert_grad_matches(lambda: (a @ b).sum(), [a, b])

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]) @ Tensor([3.0, 4.0])

    def test_diamond_graph_accumulates(self):
        # f(a) = a*a + a*a; df/da = 4a — requires intermediate accumulation.
        a = Tensor([3.0], requires_grad=True)
        b = a * a
        loss = (b + b).sum()
        loss.backward()
        np.testing.assert_allclose(a.grad, [12.0], atol=0)

    def test_reused_leaf_accumulates(self):
        a = Tensor([2.0], requires_grad=True)
        loss = (a * 3.0 + a * 4.0).sum()
        loss.backward()
        np.testing.assert_allclose(a.grad, [7.0], atol=0)

    def test_second_backward_does_not_leak_stale_grads(self):
        a = Tensor([1.0], requires_grad=True)
        loss = (a * 2.0).sum()
        loss.backward()
        first = a.grad.copy()
        loss.backward()
        np.testing.assert_allclose(a.grad, 2 * first, atol=0)


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["exp", "log", "tanh", "sigmoid", "relu"])
    def test_unary_gradients(self, op):
        data = np.abs(_rng().normal(size=(4,))) + 0.5  # positive for log
        a = Tensor(data, requires_grad=True)
        assert_grad_matches(lambda: getattr(a, op)().sum(), [a])

    def test_sigmoid_extreme_values_stable(self):
        a = Tensor([-1000.0, 1000.0])
        out = a.sigmoid().numpy()
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_relu_zero_gradient_below_zero(self):
        a = Tensor([-1.0, 2.0], requires_grad=True)
        a.relu().sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0], atol=0)

    def test_clip_gradient_masked(self):
        a = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0], atol=0)


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        a = Tensor(_rng().normal(size=(3, 4)), requires_grad=True)
        assert_grad_matches(lambda: (a.sum(axis=0, keepdims=True) ** 2).sum(), [a])

    def test_sum_multi_axis(self):
        a = Tensor(_rng().normal(size=(2, 3, 4)), requires_grad=True)
        assert_grad_matches(lambda: (a.sum(axis=(0, 2)) ** 2).sum(), [a])

    def test_mean_matches_manual(self):
        a = Tensor(_rng().normal(size=(3, 4)), requires_grad=True)
        assert_grad_matches(lambda: (a.mean(axis=1) ** 2).sum(), [a])

    def test_max_routes_to_single_argmax(self):
        a = Tensor([[1.0, 5.0, 5.0]], requires_grad=True)
        a.max(axis=1).sum().backward()
        # Ties route to the first maximum only.
        np.testing.assert_allclose(a.grad, [[0.0, 1.0, 0.0]], atol=0)

    def test_max_gradcheck(self):
        a = Tensor(_rng().normal(size=(3, 4)), requires_grad=True)
        assert_grad_matches(lambda: (a.max(axis=1) ** 2).sum(), [a])

    def test_reshape_roundtrip(self):
        a = Tensor(_rng().normal(size=(2, 6)), requires_grad=True)
        assert_grad_matches(lambda: (a.reshape(3, 4) ** 2).sum(), [a])

    def test_transpose_default_reverses(self):
        a = Tensor(_rng().normal(size=(2, 3, 4)), requires_grad=True)
        assert a.transpose().shape == (4, 3, 2)
        assert_grad_matches(lambda: (a.transpose(1, 0, 2) ** 2).sum(), [a])

    def test_getitem_slice(self):
        a = Tensor(_rng().normal(size=(4, 5)), requires_grad=True)
        assert_grad_matches(lambda: (a[1:3, :] ** 2).sum(), [a])

    def test_getitem_fancy_repeated_index_accumulates(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = a[np.array([0, 0, 1])]
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 1.0], atol=0)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_sum_gradient_is_ones(rows, cols, seed):
    """d(sum(x))/dx == 1 for every element, any shape."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    a.sum().backward()
    np.testing.assert_allclose(a.grad, np.ones((rows, cols)), atol=0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_property_chain_rule_linear(seed):
    """For y = (c*x).sum(), dy/dx == c exactly."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(3,))
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)
    (Tensor(c) * x).sum().backward()
    np.testing.assert_allclose(x.grad, c, atol=0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_property_softplus_like_composition(seed):
    """Composite expression gradcheck under random inputs."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(3,)), requires_grad=True)

    def fn():
        return ((a.exp() + 1.0).log() * a.sigmoid()).sum()

    assert_grad_matches(fn, [a])
