"""Tests for imitation schedules, configs, and the pseudo-E-step math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LogicLNCLConfig,
    constant,
    exponential_ramp,
    ner_paper_config,
    posterior_qa,
    sentiment_paper_config,
    sequence_posterior_qa,
    sequence_update_confusions,
    update_confusions,
)
from repro.crowd import MISSING, CrowdLabelMatrix, SequenceCrowdLabels

M = MISSING


class TestSchedules:
    def test_constant(self):
        schedule = constant(0.3)
        assert schedule(1) == 0.3
        assert schedule(100) == 0.3

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            constant(1.5)

    def test_exponential_ramp_paper_sentiment(self):
        schedule = exponential_ramp(1.0, 0.94)
        assert schedule(1) == pytest.approx(1 - 0.94)
        assert schedule(10) == pytest.approx(1 - 0.94**10)
        assert schedule(200) == pytest.approx(1.0, abs=1e-4)

    def test_exponential_ramp_paper_ner_caps(self):
        schedule = exponential_ramp(0.8, 0.90)
        assert schedule(50) == pytest.approx(0.8)

    def test_ramp_monotone(self):
        schedule = exponential_ramp(1.0, 0.9)
        values = [schedule(t) for t in range(1, 30)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_epoch_one_based(self):
        with pytest.raises(ValueError):
            exponential_ramp(1.0, 0.9)(0)

    def test_ramp_validation(self):
        with pytest.raises(ValueError):
            exponential_ramp(2.0, 0.9)
        with pytest.raises(ValueError):
            exponential_ramp(1.0, 1.0)


class TestConfigs:
    def test_sentiment_paper_values(self):
        config = sentiment_paper_config()
        assert config.optimizer == "adadelta"
        assert config.batch_size == 50
        assert config.C == 5.0
        assert config.lr_decay_every == 5
        assert not config.weighted_loss
        assert config.imitation(1) == pytest.approx(0.06)
        assert config.dtype == "float32"

    def test_ner_paper_values(self):
        config = ner_paper_config()
        assert config.optimizer == "adam"
        assert config.batch_size == 64
        assert config.learning_rate == pytest.approx(1e-3)
        assert config.weighted_loss
        assert config.imitation(100) == pytest.approx(0.8)
        assert config.dtype == "float32"

    def test_library_default_stays_float64(self):
        # The paper configs opt into the fast path; the reference path
        # every equivalence test is pinned to stays the default.
        assert LogicLNCLConfig().dtype == "float64"

    def test_validation(self):
        with pytest.raises(ValueError):
            LogicLNCLConfig(C=-1.0)
        with pytest.raises(ValueError):
            LogicLNCLConfig(confusion_smoothing=-0.1)
        with pytest.raises(ValueError):
            LogicLNCLConfig(optimizer="rmsprop")


class TestUpdateConfusions:
    def test_matches_eq12_hand_computation(self):
        # 3 instances, 1 annotator, 2 classes.
        crowd = CrowdLabelMatrix(np.array([[0], [1], [0]]), 2)
        qf = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        pi = update_confusions(qf, crowd, smoothing=0.0)
        # Row 0 (true class 0): mass 1.5; says 0 on instances 0 (1.0) and 2 (0.5).
        np.testing.assert_allclose(pi[0, 0], [1.0, 0.0])
        # Row 1: mass 1.5; says 1 on instance 1 (1.0), says 0 on instance 2 (0.5).
        np.testing.assert_allclose(pi[0, 1], [1 / 3, 2 / 3])

    def test_missing_labels_excluded(self):
        crowd = CrowdLabelMatrix(np.array([[0, M], [M, 1]]), 2)
        qf = np.array([[1.0, 0.0], [0.0, 1.0]])
        pi = update_confusions(qf, crowd, smoothing=0.0)
        np.testing.assert_allclose(pi[0][0], [1.0, 0.0])  # annotator 0, true 0
        np.testing.assert_allclose(pi[1][1], [0.0, 1.0])  # annotator 1, true 1

    def test_smoothing_fills_unobserved_rows(self):
        crowd = CrowdLabelMatrix(np.array([[0]]), 2)
        qf = np.array([[1.0, 0.0]])
        pi = update_confusions(qf, crowd, smoothing=0.01)
        np.testing.assert_allclose(pi[0][1], [0.5, 0.5])  # no true-1 mass → uniform

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=(50, 4))
        crowd = CrowdLabelMatrix(labels, 3)
        qf = rng.dirichlet(np.ones(3), size=50)
        pi = update_confusions(qf, crowd)
        np.testing.assert_allclose(pi.sum(axis=2), 1.0, atol=1e-9)

    def test_shape_validation(self):
        crowd = CrowdLabelMatrix(np.array([[0]]), 2)
        with pytest.raises(ValueError):
            update_confusions(np.ones((2, 2)) / 2, crowd)


class TestPosteriorQa:
    def test_matches_eq13_hand_computation(self):
        crowd = CrowdLabelMatrix(np.array([[1]]), 2)
        proba = np.array([[0.5, 0.5]])
        confusions = np.array([[[0.9, 0.1], [0.2, 0.8]]])
        qa = posterior_qa(proba, crowd, confusions)
        # qa(0) ∝ 0.5·π[0,1]=0.05; qa(1) ∝ 0.5·π[1,1]=0.4.
        np.testing.assert_allclose(qa[0], [0.05 / 0.45, 0.4 / 0.45])

    def test_no_annotations_returns_model(self):
        crowd = CrowdLabelMatrix(np.array([[M], [0]]), 2)
        proba = np.array([[0.7, 0.3], [0.7, 0.3]])
        confusions = np.array([[[0.9, 0.1], [0.1, 0.9]]])
        qa = posterior_qa(proba, crowd, confusions)
        np.testing.assert_allclose(qa[0], [0.7, 0.3])

    def test_many_annotators_overrule_model(self):
        labels = np.full((1, 10), 1)
        crowd = CrowdLabelMatrix(labels, 2)
        proba = np.array([[0.9, 0.1]])
        confusions = np.tile(np.array([[0.8, 0.2], [0.2, 0.8]]), (10, 1, 1))
        qa = posterior_qa(proba, crowd, confusions)
        assert qa[0, 1] > 0.99

    def test_confusion_shape_validated(self):
        crowd = CrowdLabelMatrix(np.array([[0]]), 2)
        with pytest.raises(ValueError):
            posterior_qa(np.array([[0.5, 0.5]]), crowd, np.ones((2, 2, 2)) / 2)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_property_rows_normalized(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=(20, 5))
        crowd = CrowdLabelMatrix(labels, 2)
        proba = rng.dirichlet(np.ones(2), size=20)
        confusions = np.stack(
            [r * np.eye(2) + (1 - r) / 2 for r in rng.uniform(0.5, 0.99, 5)]
        )
        qa = posterior_qa(proba, crowd, confusions)
        np.testing.assert_allclose(qa.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(qa >= 0)


class TestSequenceEM:
    def _crowd(self):
        return SequenceCrowdLabels(
            labels=[np.array([[0, 0], [1, 2]]), np.array([[2, M], [2, M], [0, M]])],
            num_classes=3,
            num_annotators=2,
        )

    def test_confusions_rows_normalized(self):
        crowd = self._crowd()
        qf = [np.full((2, 3), 1 / 3), np.full((3, 3), 1 / 3)]
        pi = sequence_update_confusions(qf, crowd)
        np.testing.assert_allclose(pi.sum(axis=2), 1.0, atol=1e-9)

    def test_posterior_qa_uses_all_annotators(self):
        crowd = self._crowd()
        proba = [np.full((2, 3), 1 / 3), np.full((3, 3), 1 / 3)]
        sharp = np.eye(3) * 0.9 + 0.05
        sharp /= sharp.sum(axis=1, keepdims=True)
        confusions = np.stack([sharp, sharp])
        qa = sequence_posterior_qa(proba, crowd, confusions)
        # First sentence token 0: both annotators said 0 → class 0 wins.
        assert qa[0][0].argmax() == 0
        # Second sentence tokens 0-1: annotator 0 said 2.
        assert qa[1][0].argmax() == 2

    def test_qf_shape_validated(self):
        crowd = self._crowd()
        with pytest.raises(ValueError):
            sequence_update_confusions([np.ones((5, 3)) / 3, np.ones((3, 3)) / 3], crowd)
