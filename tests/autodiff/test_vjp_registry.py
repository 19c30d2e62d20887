"""Meta-tests for the VJP registry.

Every primitive registered in :mod:`repro.autodiff.vjps` must appear in
``GRADCHECK_CASES`` below — a small scalar-loss graph exercising that
primitive, checked against central differences at float64. The sweep is
exhaustive by construction: a new ``defvjp``/``defvjp_fused`` call without
a matching case fails ``test_every_primitive_has_a_gradcheck_case``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, vjps
from repro.autodiff import functional as F

from .gradcheck import assert_grad_matches

RNG_SEED = 20240807


def _leaf(rng: np.random.Generator, *shape: int) -> Tensor:
    return Tensor(rng.normal(0.0, 1.0, size=shape), requires_grad=True)


# primitive name -> builder returning (loss_fn, parameters). Each builder
# creates fresh leaves so cases are independent; the loss closes over them
# so central differences can perturb the same arrays the tape saw.
GRADCHECK_CASES = {}


def case(name):
    def register(builder):
        assert name not in GRADCHECK_CASES, f"duplicate case for {name}"
        GRADCHECK_CASES[name] = builder
        return builder

    return register


@case("add")
def _add(rng):
    a, b = _leaf(rng, 3, 4), _leaf(rng, 3, 4)
    return lambda: (a + b).sum(), [a, b]


@case("neg")
def _neg(rng):
    a = _leaf(rng, 3, 4)
    return lambda: (-a).sum(), [a]


@case("sub")
def _sub(rng):
    a, b = _leaf(rng, 3, 4), _leaf(rng, 4)
    return lambda: (a - b).sum(), [a, b]


@case("mul")
def _mul(rng):
    a, b = _leaf(rng, 3, 4), _leaf(rng, 3, 4)
    return lambda: (a * b).sum(), [a, b]


@case("div")
def _div(rng):
    a, b = _leaf(rng, 3, 4), _leaf(rng, 3, 4)
    b.data[...] = np.abs(b.data) + 0.5
    return lambda: (a / b).sum(), [a, b]


@case("pow")
def _pow(rng):
    a = _leaf(rng, 3, 4)
    a.data[...] = np.abs(a.data) + 0.5
    # exponent 2 takes the dedicated hot path; 1.7 the general one
    return lambda: ((a**2).sum() + (a**1.7).sum()), [a]


@case("matmul")
def _matmul(rng):
    a, b = _leaf(rng, 3, 4), _leaf(rng, 4, 5)
    return lambda: (a @ b).sum(), [a, b]


@case("exp")
def _exp(rng):
    a = _leaf(rng, 3, 4)
    return lambda: a.exp().sum(), [a]


@case("log")
def _log(rng):
    a = _leaf(rng, 3, 4)
    a.data[...] = np.abs(a.data) + 0.5
    return lambda: a.log().sum(), [a]


@case("tanh")
def _tanh(rng):
    a = _leaf(rng, 3, 4)
    return lambda: a.tanh().sum(), [a]


@case("sigmoid")
def _sigmoid(rng):
    a = _leaf(rng, 3, 4)
    return lambda: a.sigmoid().sum(), [a]


@case("relu")
def _relu(rng):
    a = _leaf(rng, 3, 4)
    a.data[np.abs(a.data) < 0.1] = 0.5  # keep clear of the kink
    return lambda: a.relu().sum(), [a]


@case("clip")
def _clip(rng):
    a = _leaf(rng, 3, 4)
    a.data[np.abs(np.abs(a.data) - 1.0) < 0.1] = 0.0  # clear of boundaries
    return lambda: a.clip(-1.0, 1.0).sum(), [a]


@case("sum")
def _sum(rng):
    a = _leaf(rng, 3, 4, 2)
    return lambda: ((a.sum(axis=1, keepdims=True) * 2.0).sum() + a.sum()), [a]


@case("max")
def _max(rng):
    a = _leaf(rng, 3, 4)
    return lambda: a.max(axis=1).sum(), [a]


@case("reshape")
def _reshape(rng):
    a = _leaf(rng, 3, 4)
    return lambda: (a.reshape(2, 6) * a.reshape(12).reshape(2, 6)).sum(), [a]


@case("transpose")
def _transpose(rng):
    a = _leaf(rng, 3, 4)
    return lambda: (a.transpose(1, 0) @ a).sum(), [a]


@case("getitem")
def _getitem(rng):
    a = _leaf(rng, 4, 5)
    return lambda: (a[1:3, :] * a[0:2, :]).sum(), [a]


@case("getitem_fancy")
def _getitem_fancy(rng):
    a = _leaf(rng, 4, 5)
    idx = np.array([0, 2, 2, 3])
    return lambda: (a[idx] * 1.5).sum(), [a]


@case("concat")
def _concat(rng):
    a, b = _leaf(rng, 3, 2), _leaf(rng, 3, 4)
    return lambda: (F.concat([a, b], axis=1) ** 2).sum(), [a, b]


@case("stack")
def _stack(rng):
    a, b = _leaf(rng, 3, 4), _leaf(rng, 3, 4)
    return lambda: (F.stack([a, b], axis=0) ** 2).sum(), [a, b]


@case("embedding")
def _embedding(rng):
    w = _leaf(rng, 6, 3)
    idx = np.array([[0, 2, 5], [2, 2, 1]])
    return lambda: (F.embedding(w, idx) ** 2).sum(), [w]


@case("conv1d_im2col")
def _conv1d_im2col(rng):
    x, w, b = _leaf(rng, 2, 6, 3), _leaf(rng, 9, 4), _leaf(rng, 4)
    def loss():
        return (F.conv1d_seq(x, w, b, width=3, pad="same", variant="im2col") ** 2).sum()
    return loss, [x, w, b]


@case("conv1d_width_loop")
def _conv1d_width_loop(rng):
    x, w, b = _leaf(rng, 2, 6, 3), _leaf(rng, 9, 4), _leaf(rng, 4)
    def loss():
        return (F.conv1d_seq(x, w, b, width=3, variant="width_loop") ** 2).sum()
    return loss, [x, w, b]


@case("max_over_time")
def _max_over_time(rng):
    x = _leaf(rng, 3, 5, 4)
    mask = np.arange(5)[None, :] < np.array([5, 3, 1])[:, None]
    return lambda: (F.max_over_time(x, mask=mask) ** 2).sum(), [x]


@case("softmax")
def _softmax(rng):
    x = _leaf(rng, 3, 4)
    weights = rng.normal(0.0, 1.0, size=(3, 4))
    return lambda: (F.softmax(x, axis=-1) * Tensor(weights)).sum(), [x]


@case("log_softmax")
def _log_softmax(rng):
    x = _leaf(rng, 3, 4)
    weights = rng.normal(0.0, 1.0, size=(3, 4))
    return lambda: (F.log_softmax(x, axis=-1) * Tensor(weights)).sum(), [x]


@case("dropout")
def _dropout(rng):
    x = _leaf(rng, 4, 5)
    # fixed mask rng per call so the forward is deterministic across the
    # central-difference evaluations
    def loss():
        return (F.dropout(x, 0.4, np.random.default_rng(7), training=True) ** 2).sum()
    return loss, [x]


@case("gru_sequence")
def _gru_sequence(rng):
    batch, time, in_dim, hidden = 2, 4, 3, 3
    x, w_h = _leaf(rng, batch, time, in_dim), _leaf(rng, hidden, 3 * hidden)
    w_x, bias = _leaf(rng, in_dim, 3 * hidden), _leaf(rng, 3 * hidden)
    h0 = np.zeros((batch, hidden))
    mask = np.arange(time)[None, :] < np.array([4, 2])[:, None]
    def loss():
        out = F.gru_sequence(x, h0, w_h, mask=mask, w_x=w_x, bias=bias)
        return (out**2).sum()
    return loss, [x, w_h, w_x, bias]


def test_every_primitive_has_a_gradcheck_case():
    registered = vjps.registered_primitives()
    cases = set(GRADCHECK_CASES)
    missing = registered - cases
    assert not missing, (
        f"primitives registered without a gradcheck case: {sorted(missing)} — "
        "add a builder to GRADCHECK_CASES in this file"
    )
    stale = cases - registered
    assert not stale, f"gradcheck cases for unregistered primitives: {sorted(stale)}"


@pytest.mark.parametrize("primitive", sorted(GRADCHECK_CASES))
def test_primitive_gradcheck(primitive):
    rng = np.random.default_rng(RNG_SEED)
    fn, params = GRADCHECK_CASES[primitive](rng)
    assert_grad_matches(fn, params)


def test_duplicate_registration_raises():
    with pytest.raises(ValueError, match="already registered"):
        vjps.defvjp("add", lambda g, ans, a, b: g, lambda g, ans, a, b: g)
    with pytest.raises(ValueError, match="already registered"):
        vjps.defvjp_fused("concat", lambda g, ans, needs: (g,))


def test_unknown_primitive_is_a_hard_error():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    out = Tensor._link(np.array(t.data.sum()), (t,), "definitely_not_registered", ())
    with pytest.raises(KeyError, match="definitely_not_registered"):
        out.backward()
