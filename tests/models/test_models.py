"""Tests for the classifier architectures."""

import numpy as np
import pytest

from repro.autodiff import functional as F
from repro.models import (
    BagOfEmbeddingsClassifier,
    MLPClassifier,
    NERTagger,
    NERTaggerConfig,
    TextCNN,
    TextCNNConfig,
)


def _embeddings(vocab=20, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(vocab, dim))
    matrix[0] = 0.0
    return matrix


def _small_cnn(num_classes=2, **overrides):
    config = TextCNNConfig(
        num_classes=num_classes, filter_windows=(2, 3), feature_maps=4, **overrides
    )
    return TextCNN(_embeddings(), config, np.random.default_rng(0))


class TestTextCNN:
    def test_logits_shape(self):
        model = _small_cnn()
        tokens = np.array([[2, 3, 4, 5, 0], [6, 7, 8, 9, 10]])
        lengths = np.array([4, 5])
        assert model.logits(tokens, lengths).shape == (2, 2)

    def test_short_sentence_padded_internally(self):
        model = _small_cnn()
        tokens = np.array([[2]])
        lengths = np.array([1])
        out = model.logits(tokens, lengths)
        assert out.shape == (1, 2)
        assert np.isfinite(out.numpy()).all()

    def test_padding_invariance(self):
        model = _small_cnn()
        model.eval()
        short = model.predict_proba(np.array([[2, 3, 4]]), np.array([3]))
        padded = model.predict_proba(np.array([[2, 3, 4, 0, 0, 0]]), np.array([3]))
        np.testing.assert_allclose(short, padded, atol=1e-12)

    def test_predict_proba_rows_sum_one(self):
        model = _small_cnn()
        proba = model.predict_proba(np.array([[2, 3, 4, 5]]), np.array([4]))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=0)

    def test_predict_restores_training_mode(self):
        model = _small_cnn()
        model.train()
        model.predict(np.array([[2, 3, 4]]), np.array([3]))
        assert model.training

    def test_static_embeddings_frozen(self):
        model = _small_cnn()
        names = [name for name, _ in model.named_parameters()]
        assert not any("embedding" in name for name in names)

    def test_nonstatic_embeddings_trainable(self):
        config = TextCNNConfig(filter_windows=(2,), feature_maps=3, static_embeddings=False)
        model = TextCNN(_embeddings(), config, np.random.default_rng(0))
        names = [name for name, _ in model.named_parameters()]
        assert any("embedding" in name for name in names)

    def test_max_norm_constrains_columns(self):
        model = _small_cnn()
        model.output.weight.data *= 100.0
        model.apply_max_norm()
        norms = np.linalg.norm(model.output.weight.data, axis=0)
        assert (norms <= model.config.max_norm + 1e-9).all()

    def test_max_norm_disabled(self):
        config = TextCNNConfig(filter_windows=(2,), feature_maps=3, max_norm=0.0)
        model = TextCNN(_embeddings(), config, np.random.default_rng(0))
        model.output.weight.data *= 100.0
        before = model.output.weight.data.copy()
        model.apply_max_norm()
        np.testing.assert_allclose(model.output.weight.data, before, atol=0)

    def test_gradients_flow_to_all_parameters(self):
        # Dropout off: with rate 0.5 a conv branch can legitimately receive
        # zero gradient when all its pooled features are dropped.
        model = _small_cnn(dropout=0.0)
        tokens = np.array([[2, 3, 4, 5, 6], [7, 8, 9, 10, 11]])
        loss = F.cross_entropy_soft(
            model.logits(tokens, np.array([5, 5])), np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        loss.backward()
        for name, parameter in model.named_parameters():
            assert parameter.grad is not None, name
            assert np.abs(parameter.grad).sum() > 0, name

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TextCNNConfig(filter_windows=())
        with pytest.raises(ValueError):
            TextCNNConfig(filter_windows=(0,))
        with pytest.raises(ValueError):
            TextCNNConfig(feature_maps=0)


def _small_tagger(num_classes=5):
    config = NERTaggerConfig(num_classes=num_classes, conv_width=3, conv_features=6, gru_hidden=4)
    return NERTagger(_embeddings(), config, np.random.default_rng(0))


class TestNERTagger:
    def test_logits_shape(self):
        model = _small_tagger()
        tokens = np.array([[2, 3, 4, 0], [5, 6, 7, 8]])
        lengths = np.array([3, 4])
        assert model.logits(tokens, lengths).shape == (2, 4, 5)

    def test_predict_trims_to_lengths(self):
        model = _small_tagger()
        tokens = np.array([[2, 3, 4, 0], [5, 6, 7, 8]])
        predictions = model.predict(tokens, np.array([3, 4]))
        assert len(predictions[0]) == 3
        assert len(predictions[1]) == 4

    def test_per_token_proba_normalized(self):
        model = _small_tagger()
        proba = model.predict_proba(np.array([[2, 3, 4]]), np.array([3]))
        np.testing.assert_allclose(proba.sum(axis=-1), 1.0, atol=0)

    def test_gradients_flow(self):
        model = _small_tagger(num_classes=3)
        tokens = np.array([[2, 3, 4, 5]])
        target = np.tile([1.0, 0.0, 0.0], (1, 4, 1))
        loss = F.sequence_cross_entropy_soft(
            model.logits(tokens, np.array([4])), target, np.ones((1, 4))
        )
        loss.backward()
        grads = [parameter.grad for _, parameter in model.named_parameters()]
        assert all(grad is not None for grad in grads)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NERTaggerConfig(conv_width=0)
        with pytest.raises(ValueError):
            NERTaggerConfig(gru_hidden=0)


class TestBagOfEmbeddings:
    def test_logreg_logits_shape(self):
        model = BagOfEmbeddingsClassifier(_embeddings(), 3, np.random.default_rng(0))
        assert model.logits(np.array([[2, 3, 0]]), np.array([2])).shape == (1, 3)

    def test_mean_pooling_ignores_padding(self):
        model = BagOfEmbeddingsClassifier(_embeddings(), 2, np.random.default_rng(0))
        short = model.predict_proba(np.array([[2, 3]]), np.array([2]))
        padded = model.predict_proba(np.array([[2, 3, 0, 0]]), np.array([2]))
        np.testing.assert_allclose(short, padded, atol=1e-12)

    def test_mlp_has_hidden_layer(self):
        model = MLPClassifier(_embeddings(), 2, 7, np.random.default_rng(0))
        names = [name for name, _ in model.named_parameters()]
        assert any("hidden_layer" in name for name in names)

    def test_mlp_trains_on_separable_data(self):
        from repro.autodiff.optim import Adam

        rng = np.random.default_rng(0)
        emb = np.zeros((4, 8))
        emb[2] = 1.0
        emb[3] = -1.0
        model = MLPClassifier(emb, 2, 8, rng)
        tokens = np.array([[2, 2], [3, 3]] * 8)
        lengths = np.full(16, 2)
        labels = np.array([0, 1] * 8)
        target = np.eye(2)[labels]
        optimizer = Adam(model.parameters(), lr=0.05)
        for _ in range(60):
            optimizer.zero_grad()
            loss = F.cross_entropy_soft(model.logits(tokens, lengths), target)
            loss.backward()
            optimizer.step()
        assert (model.predict(tokens, lengths) == labels).all()
