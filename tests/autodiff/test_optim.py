"""Tests for optimizers and schedules."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.autodiff.optim import SGD, Adadelta, Adam, StepDecay, clip_grad_norm


def _quadratic_param(start=5.0):
    return Tensor(np.array([start]), requires_grad=True)


def _minimize(optimizer, parameter, steps=200):
    for _ in range(steps):
        optimizer.zero_grad()
        loss = (parameter * parameter).sum()
        loss.backward()
        optimizer.step()
    return abs(parameter.data[0])


class TestSGD:
    def test_minimizes_quadratic(self):
        p = _quadratic_param()
        assert _minimize(SGD([p], lr=0.1), p) < 1e-4

    def test_momentum_accelerates(self):
        p_plain = _quadratic_param()
        p_mom = _quadratic_param()
        _minimize(SGD([p_plain], lr=0.01), p_plain, steps=50)
        _minimize(SGD([p_mom], lr=0.01, momentum=0.9), p_mom, steps=50)
        assert abs(p_mom.data[0]) < abs(p_plain.data[0])

    def test_weight_decay_shrinks(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 1.0

    def test_skips_parameters_without_grad(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        SGD([p], lr=0.1).step()  # no grad populated; must not crash
        assert p.data[0] == 1.0

    def test_rejects_empty_parameters(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            SGD([_quadratic_param()], lr=0.0)


class TestAdam:
    def test_minimizes_quadratic(self):
        p = _quadratic_param()
        assert _minimize(Adam([p], lr=0.1), p, steps=300) < 1e-3

    def test_bias_correction_first_step(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.5)
        p.grad = np.array([1.0])
        opt.step()
        # With bias correction the first step has magnitude ~lr.
        np.testing.assert_allclose(p.data[0], 1.0 - 0.5, atol=1e-6)

    def test_weight_decay(self):
        p = Tensor(np.array([10.0]), requires_grad=True)
        opt = Adam([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 10.0


class TestAdadelta:
    def test_minimizes_quadratic(self):
        p = _quadratic_param()
        assert _minimize(Adadelta([p], lr=1.0), p, steps=3000) < 0.5

    def test_step_without_grad_is_noop(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        Adadelta([p]).step()
        assert p.data[0] == 1.0


class TestStepDecay:
    def test_halves_every_n_epochs(self):
        p = _quadratic_param()
        opt = SGD([p], lr=1.0)
        sched = StepDecay(opt, every=5, factor=0.5)
        for _ in range(4):
            sched.step()
        assert opt.lr == 1.0
        sched.step()
        assert opt.lr == 0.5
        for _ in range(5):
            sched.step()
        assert opt.lr == 0.25

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            StepDecay(SGD([_quadratic_param()], lr=1.0), every=0)


class TestClipGradNorm:
    def test_clips_when_above(self):
        p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
        p.grad = np.array([3.0, 4.0])
        norm = clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(norm, 5.0, atol=0)
        np.testing.assert_allclose(np.linalg.norm(p.grad), 1.0, atol=0)

    def test_no_clip_when_below(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([0.5])
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.5], atol=0)

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([], max_norm=-1.0)
