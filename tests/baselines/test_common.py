"""Trainer-config validation and empty-dataset regression tests.

Two confirmed trainer-layer bugs pinned here:

* ``TrainerConfig`` used to accept ``grad_clip=0.0`` (which the truthiness
  guard ``if config.grad_clip:`` then silently treated as "no clipping"),
  negative learning rates, and ``lr_decay_every=0`` (silently disabling
  the schedule). Zero is now rejected up front; ``None`` is the one way
  to disable a feature, and the runtime guards check ``is not None``.
* ``predict_proba_batched`` / ``predict_sequence_proba_batched`` raised
  ``ValueError`` from ``batch_indices`` on empty datasets; they now
  return ``(0, K)`` / ``(0, T, K)`` — matching the I = 0 tolerance all
  inference methods gained in PR 3.
"""

import numpy as np
import pytest

from repro.baselines.common import (
    TrainerConfig,
    build_optimizer,
    predict_proba_batched,
    predict_sequence_proba_batched,
)
from repro.crowd.types import CrowdLabelMatrix
from repro.models.mlp import MLPClassifier
from repro.models.ner_crnn import NERTagger, NERTaggerConfig


class TestTrainerConfigValidation:
    def test_defaults_are_valid(self):
        TrainerConfig()

    @pytest.mark.parametrize("grad_clip", [0.0, -1.0])
    def test_nonpositive_grad_clip_rejected(self, grad_clip):
        with pytest.raises(ValueError, match="grad_clip"):
            TrainerConfig(grad_clip=grad_clip)

    def test_none_grad_clip_disables_clipping(self):
        assert TrainerConfig(grad_clip=None).grad_clip is None

    @pytest.mark.parametrize("learning_rate", [0.0, -0.5])
    def test_nonpositive_learning_rate_rejected(self, learning_rate):
        with pytest.raises(ValueError, match="learning rate"):
            TrainerConfig(learning_rate=learning_rate)

    @pytest.mark.parametrize("lr_decay_every", [0, -3])
    def test_nonpositive_decay_period_rejected(self, lr_decay_every):
        with pytest.raises(ValueError, match="lr_decay_every"):
            TrainerConfig(lr_decay_every=lr_decay_every)

    @pytest.mark.parametrize("lr_decay_factor", [0.0, -0.5, 1.5])
    def test_bad_decay_factor_rejected(self, lr_decay_factor):
        with pytest.raises(ValueError, match="lr_decay_factor"):
            TrainerConfig(lr_decay_factor=lr_decay_factor)

    def test_none_decay_period_disables_schedule(self):
        config = TrainerConfig(lr_decay_every=None)
        _, schedule = build_optimizer([_classifier()], config)
        assert schedule is None

    def test_decay_period_of_one_builds_a_schedule(self):
        # Regression for the truthiness guard: a valid small period must
        # not be confused with "disabled".
        _, schedule = build_optimizer([_classifier()], TrainerConfig(lr_decay_every=1))
        assert schedule is not None


def _classifier():
    rng = np.random.default_rng(0)
    return MLPClassifier(rng.normal(size=(30, 8)), num_classes=3, hidden=16, rng=rng)


def _tagger():
    rng = np.random.default_rng(1)
    config = NERTaggerConfig(num_classes=5, conv_features=12, gru_hidden=6)
    return NERTagger(rng.normal(size=(30, 8)), config, rng)


class TestEmptyDatasetPrediction:
    def test_classifier_empty_dataset_returns_empty_proba(self):
        proba = predict_proba_batched(
            _classifier(),
            np.zeros((0, 7), dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
        assert proba.shape == (0, 3)

    def test_tagger_empty_dataset_returns_empty_proba(self):
        proba = predict_sequence_proba_batched(
            _tagger(),
            np.zeros((0, 9), dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
        assert proba.shape == (0, 9, 5)

    def test_nonempty_path_unchanged(self):
        rng = np.random.default_rng(2)
        tokens = rng.integers(0, 30, size=(5, 7))
        lengths = rng.integers(1, 8, size=5)
        proba = predict_proba_batched(_classifier(), tokens, lengths, batch_size=2)
        assert proba.shape == (5, 3)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)


class TestEmptyTrainingSet:
    """PR 5 contract: an empty training set is a sequence of no-op epochs
    (loss 0.0, zero optimizer steps), not an opaque ``batch_indices``
    ValueError — extending PR 4's empty-dataset tolerance from the
    prediction sweeps to the training entry points."""

    def _empty_classification(self):
        return (
            np.zeros((0, 7), dtype=np.int64),   # tokens
            np.zeros(0, dtype=np.int64),        # lengths
            np.zeros(0, dtype=np.int64),        # hard targets
        )

    def test_fit_classifier_empty_train_is_noop(self):
        from repro.baselines.common import fit_classifier

        model = _classifier()
        before = {k: v.copy() for k, v in model.state_dict().items()}
        tokens, lengths, targets = self._empty_classification()
        history = fit_classifier(
            model, TrainerConfig(epochs=3), np.random.default_rng(0),
            tokens, lengths, targets,
        )
        assert history["loss"] == [0.0, 0.0, 0.0]
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    def test_fit_classifier_empty_train_with_dev_early_stops(self):
        from repro.baselines.common import fit_classifier

        from repro.data.datasets import TextClassificationDataset
        from repro.data.vocab import Vocabulary

        model = _classifier()
        rng = np.random.default_rng(1)
        dev = TextClassificationDataset(
            tokens=rng.integers(0, 30, size=(4, 7)),
            lengths=np.full(4, 7),
            labels=rng.integers(0, 3, size=4),
            vocab=Vocabulary(["a"]),
            num_classes=3,
        )
        tokens, lengths, targets = self._empty_classification()
        history = fit_classifier(
            model, TrainerConfig(epochs=20, patience=2), rng,
            tokens, lengths, targets, dev=dev,
        )
        # The dev score never improves past epoch 1, so patience stops
        # training; EarlyStopping tolerates the stream of no-op epochs.
        assert len(history["loss"]) == 3  # 1 best + 2 bad epochs
        assert np.isfinite(history["best_dev_score"])

    def test_fit_tagger_empty_train_is_noop_and_keeps_finite_bias(self):
        from repro.baselines.common import fit_tagger

        model = _tagger()
        history = fit_tagger(
            model, TrainerConfig(epochs=2, optimizer="adam", learning_rate=1e-3),
            np.random.default_rng(2),
            np.zeros((0, 9), dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros((0, 9, 5)),
        )
        assert history["loss"] == [0.0, 0.0]
        # The majority-prior bias init must be skipped (0/0 would be NaN).
        for value in model.state_dict().values():
            assert np.isfinite(value).all()

    def test_epoch_runners_report_zero_loss_zero_steps(self):
        from repro.baselines.common import (
            build_optimizer,
            run_classification_epoch,
            run_sequence_epoch,
        )

        model = _classifier()
        config = TrainerConfig()
        optimizer, _ = build_optimizer([model], config)
        loss = run_classification_epoch(
            model, optimizer,
            np.zeros((0, 7), dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros((0, 3)), np.random.default_rng(3), config,
        )
        assert loss == 0.0
        tagger = _tagger()
        optimizer, _ = build_optimizer([tagger], config)
        loss = run_sequence_epoch(
            tagger, optimizer,
            np.zeros((0, 9), dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros((0, 9, 5)), np.random.default_rng(4), config,
        )
        assert loss == 0.0

    def test_crowd_layer_empty_train_fits_without_error(self):
        from repro.baselines.crowd_layer import CrowdLayerClassifier
        from repro.data.datasets import TextClassificationDataset
        from repro.data.vocab import Vocabulary

        vocab = Vocabulary(["a"])
        train = TextClassificationDataset(
            tokens=np.zeros((0, 7), dtype=np.int64),
            lengths=np.zeros(0, dtype=np.int64),
            labels=np.zeros(0, dtype=np.int64),
            vocab=vocab,
            num_classes=3,
            crowd=CrowdLabelMatrix(np.zeros((0, 4), dtype=np.int64), 3),
        )
        method = CrowdLayerClassifier(
            _classifier(), "MW", TrainerConfig(epochs=2), np.random.default_rng(5),
            pretrain_epochs=1,
        )
        history = method.fit(train)
        assert history["loss"] == [0.0, 0.0]
        assert method.train_proba_.shape == (0, 3)
