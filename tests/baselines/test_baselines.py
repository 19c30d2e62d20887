"""Tests for the LNCL competitor methods and shared training machinery."""

import numpy as np
import pytest

from repro.baselines import (
    AggNetClassifier,
    AggNetSequenceTagger,
    CrowdLayerClassifier,
    CrowdLayerSequenceTagger,
    DeepMultiNetworkClassifier,
    EarlyStopping,
    RaykarClassifier,
    TrainerConfig,
    TwoStageClassifier,
    TwoStageSequenceTagger,
    build_optimizer,
    train_gold_classifier,
    train_gold_tagger,
)
from repro.core import LogicLNCLConfig, constant
from repro.eval import accuracy, posterior_accuracy, span_f1_score
from repro.inference import GLAD, HMMCrowd, MajorityVote, TokenLevelInference
from repro.logic import ButRule, bio_transition_rules, chain_marginals
from repro.models import (
    BagOfEmbeddingsClassifier,
    NERTagger,
    NERTaggerConfig,
    TextCNN,
    TextCNNConfig,
)


def _cls_config(epochs=5, **overrides):
    defaults = dict(
        epochs=epochs, batch_size=32, optimizer="adadelta", learning_rate=1.0,
        lr_decay_every=None, patience=3,
    )
    defaults.update(overrides)
    return TrainerConfig(**defaults)


def _lncl_config(epochs=5, **overrides):
    defaults = dict(
        epochs=epochs, batch_size=32, optimizer="adadelta", learning_rate=1.0,
        lr_decay_every=None, patience=3, C=5.0, imitation=constant(0.3),
    )
    defaults.update(overrides)
    return LogicLNCLConfig(**defaults)


def _cnn(task, seed=0):
    return TextCNN(
        task.embeddings, TextCNNConfig(filter_windows=(2, 3), feature_maps=8),
        np.random.default_rng(seed),
    )


def _tagger(task, seed=0):
    return NERTagger(
        task.embeddings, NERTaggerConfig(conv_width=3, conv_features=64, gru_hidden=32),
        np.random.default_rng(seed),
    )


def _seq_config(epochs=5, **overrides):
    defaults = dict(
        epochs=epochs, batch_size=32, optimizer="adam", learning_rate=1e-2,
        lr_decay_every=None, patience=5,
    )
    defaults.update(overrides)
    return TrainerConfig(**defaults)


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainerConfig(optimizer="lion")
        with pytest.raises(ValueError):
            TrainerConfig(patience=0)

    @pytest.mark.parametrize("name", ["adadelta", "adam", "sgd"])
    def test_build_optimizer_variants(self, name, sentiment_task):
        model = _cnn(sentiment_task)
        optimizer, schedule = build_optimizer(
            [model], TrainerConfig(optimizer=name, learning_rate=0.5)
        )
        assert optimizer.lr == 0.5
        assert schedule is not None  # default decay every 5

    def test_no_schedule_when_disabled(self, sentiment_task):
        model = _cnn(sentiment_task)
        _, schedule = build_optimizer([model], TrainerConfig(lr_decay_every=None))
        assert schedule is None


class TestEarlyStopping:
    def test_stops_after_patience(self, sentiment_task):
        model = _cnn(sentiment_task)
        stopper = EarlyStopping(model, patience=2)
        assert not stopper.update(0.5)
        assert not stopper.update(0.4)
        assert stopper.update(0.3)

    def test_restores_best_parameters(self, sentiment_task):
        model = _cnn(sentiment_task)
        stopper = EarlyStopping(model, patience=5)
        stopper.update(0.9)
        best = model.output.weight.data.copy()
        model.output.weight.data += 100.0
        stopper.update(0.1)
        stopper.restore_best()
        np.testing.assert_allclose(model.output.weight.data, best)


class TestGold:
    def test_classifier_learns(self, sentiment_task):
        model = _cnn(sentiment_task)
        history = train_gold_classifier(
            model, _cls_config(12, patience=12), np.random.default_rng(0),
            sentiment_task.train, sentiment_task.dev,
        )
        test = sentiment_task.test
        assert accuracy(test.labels, model.predict(test.tokens, test.lengths)) > 0.6
        assert "best_dev_score" in history

    def test_tagger_learns(self, ner_task):
        model = _tagger(ner_task)
        train_gold_tagger(
            model, _seq_config(10, patience=10), np.random.default_rng(0),
            ner_task.train, ner_task.dev,
        )
        test = ner_task.test
        f1 = span_f1_score(test.tags, model.predict(test.tokens, test.lengths)).f1
        assert f1 > 0.3


class TestTwoStage:
    def test_mv_classifier(self, sentiment_task):
        method = TwoStageClassifier(
            _cnn(sentiment_task), MajorityVote(), _cls_config(6), np.random.default_rng(0)
        )
        method.fit(sentiment_task.train, sentiment_task.dev)
        test = sentiment_task.test
        assert accuracy(test.labels, method.predict(test.tokens, test.lengths)) > 0.55
        inference = posterior_accuracy(
            sentiment_task.train.labels, method.inference_posterior()
        )
        assert inference > 0.75

    def test_glad_classifier_runs(self, sentiment_task):
        method = TwoStageClassifier(
            _cnn(sentiment_task), GLAD(em_iterations=5), _cls_config(2),
            np.random.default_rng(0),
        )
        method.fit(sentiment_task.train)
        assert method.inference_posterior().shape == (len(sentiment_task.train), 2)

    def test_requires_crowd(self, sentiment_task):
        method = TwoStageClassifier(
            _cnn(sentiment_task), MajorityVote(), _cls_config(1), np.random.default_rng(0)
        )
        with pytest.raises(ValueError):
            method.fit(sentiment_task.dev)

    def test_mv_t_teacher_changes_predictions(self, sentiment_task):
        """MV-t: test-time rule adaptation must act on but-sentences."""
        plain = TwoStageClassifier(
            _cnn(sentiment_task), MajorityVote(), _cls_config(4), np.random.default_rng(0)
        )
        plain.fit(sentiment_task.train)
        with_rule = TwoStageClassifier(
            _cnn(sentiment_task), MajorityVote(), _cls_config(4), np.random.default_rng(0),
            test_rule=ButRule(sentiment_task.but_id),
        )
        with_rule.fit(sentiment_task.train)
        test = sentiment_task.test
        base = with_rule.predict_proba(test.tokens, test.lengths)
        assert base.shape == (len(test), 2)

    def test_sequence_two_stage_with_hmm(self, ner_task):
        method = TwoStageSequenceTagger(
            _tagger(ner_task), HMMCrowd(max_iterations=5), _seq_config(6),
            np.random.default_rng(0),
        )
        method.fit(ner_task.train, ner_task.dev)
        predictions = [p.argmax(axis=1) for p in method.inference_posteriors()]
        f1 = span_f1_score(ner_task.train.tags, predictions).f1
        assert f1 > 0.4

    def test_sequence_two_stage_token_mv(self, ner_task):
        method = TwoStageSequenceTagger(
            _tagger(ner_task), TokenLevelInference(MajorityVote()), _seq_config(6),
            np.random.default_rng(0),
        )
        method.fit(ner_task.train, ner_task.dev)
        test = ner_task.test
        f1 = span_f1_score(test.tags, method.predict(test.tokens, test.lengths)).f1
        assert f1 > 0.15

    def test_sequence_mv_t_decodes_fewer_invalid_transitions(self, ner_task):
        """MV-t for NER: test-time rules go through one batched chain DP for
        all sentences. On an untrained tagger, whose argmax decode breaks
        the BIO scheme often, the rules must not add invalid transitions,
        and each sentence must decode as if it were run alone."""
        labels = ner_task.test.label_names
        rules = bio_transition_rules(labels)
        method = TwoStageSequenceTagger(
            _tagger(ner_task), TokenLevelInference(MajorityVote()), _seq_config(1),
            np.random.default_rng(0), test_rules=rules, C=5.0,
        )
        test = ner_task.test
        with_rules = method.predict(test.tokens, test.lengths)
        method.test_rules = None
        rule_free = method.predict(test.tokens, test.lengths)
        assert [len(tags) for tags in with_rules] == [int(n) for n in test.lengths]
        assert [len(tags) for tags in rule_free] == [int(n) for n in test.lengths]
        assert _invalid_transitions(rule_free, labels) > 0
        assert _invalid_transitions(with_rules, labels) <= _invalid_transitions(rule_free, labels)

        proba = method.model.predict_proba(test.tokens, test.lengths)
        pairwise, initial = rules.pairwise_potential(5.0), rules.initial_potential(5.0)
        for i, n in enumerate(test.lengths):
            alone = chain_marginals(proba[i, :n][None], [n], pairwise, initial)[0]
            np.testing.assert_array_equal(with_rules[i], alone.argmax(axis=1))


def _invalid_transitions(predictions, labels) -> int:
    """Count I-X tags not preceded by B-X or I-X (sentence start included)."""
    count = 0
    for tags in predictions:
        previous = "O"
        for tag in tags:
            name = labels[tag]
            if name.startswith("I-") and previous not in ("B-" + name[2:], name):
                count += 1
            previous = name
    return count


class TestAggNetRaykar:
    def test_aggnet_is_rule_free(self, sentiment_task):
        method = AggNetClassifier(_cnn(sentiment_task), _lncl_config(3), np.random.default_rng(0))
        assert method.rule is None
        history = method.fit(sentiment_task.train)
        assert history["k"] == [0.0, 0.0, 0.0]

    def test_raykar_uses_logreg(self, sentiment_task):
        method = RaykarClassifier(
            sentiment_task.embeddings, 2, _lncl_config(3), np.random.default_rng(0)
        )
        assert isinstance(method.model, BagOfEmbeddingsClassifier)
        method.fit(sentiment_task.train)
        inference = posterior_accuracy(
            sentiment_task.train.labels, method.inference_posterior()
        )
        assert inference > 0.7

    def test_aggnet_sequence_runs(self, ner_task):
        method = AggNetSequenceTagger(
            _tagger(ner_task), _lncl_config(3, optimizer="adam", learning_rate=1e-2, weighted_loss=True),
            np.random.default_rng(0),
        )
        method.fit(ner_task.train)
        assert method.rules is None
        assert len(method.qf_) == len(ner_task.train)


class TestCrowdLayer:
    @pytest.mark.parametrize("variant", ["MW", "VW", "VW-B"])
    def test_variants_run_and_learn(self, sentiment_task, variant):
        method = CrowdLayerClassifier(
            _cnn(sentiment_task), variant, _cls_config(4), np.random.default_rng(0),
            pretrain_epochs=2,
        )
        method.fit(sentiment_task.train, sentiment_task.dev)
        test = sentiment_task.test
        score = accuracy(test.labels, method.predict(test.tokens, test.lengths))
        assert score > 0.5
        assert method.inference_posterior().shape == (len(sentiment_task.train), 2)

    def test_invalid_variant_rejected(self, sentiment_task):
        with pytest.raises(ValueError):
            CrowdLayerClassifier(
                _cnn(sentiment_task), "XX", _cls_config(1), np.random.default_rng(0)
            )

    def test_mw_initialized_to_identity(self, sentiment_task):
        method = CrowdLayerClassifier(
            _cnn(sentiment_task), "MW", _cls_config(1), np.random.default_rng(0),
            pretrain_epochs=0,
        )
        method.fit(sentiment_task.train)
        # After one epoch the matrix moved, but its shape must be (K, J*K).
        assert method.layer.matrix.shape == (2, 12 * 2)

    def test_no_pretrain_variant(self, sentiment_task):
        method = CrowdLayerClassifier(
            _cnn(sentiment_task), "MW", _cls_config(2), np.random.default_rng(0),
            pretrain_epochs=0,
        )
        history = method.fit(sentiment_task.train)
        assert history["pretrain"] is None

    def test_sequence_crowd_layer(self, ner_task):
        method = CrowdLayerSequenceTagger(
            _tagger(ner_task), "MW", _seq_config(8), np.random.default_rng(0),
            pretrain_epochs=5,
        )
        method.fit(ner_task.train, ner_task.dev)
        test = ner_task.test
        f1 = span_f1_score(test.tags, method.predict(test.tokens, test.lengths)).f1
        assert f1 > 0.1
        assert len(method.inference_posteriors()) == len(ner_task.train)


class TestDLDN:
    def test_ensemble_runs(self, sentiment_task):
        def factory():
            return BagOfEmbeddingsClassifier(
                sentiment_task.embeddings, 2, np.random.default_rng(7)
            )

        method = DeepMultiNetworkClassifier(
            factory, _cls_config(3), np.random.default_rng(0), min_labels=30
        )
        method.fit(sentiment_task.train, sentiment_task.dev)
        test = sentiment_task.test
        proba = method.predict_proba(test.tokens, test.lengths)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert accuracy(test.labels, method.predict(test.tokens, test.lengths)) > 0.5

    def test_weighted_variant_weights_sum_to_one(self, sentiment_task):
        def factory():
            return BagOfEmbeddingsClassifier(
                sentiment_task.embeddings, 2, np.random.default_rng(7)
            )

        method = DeepMultiNetworkClassifier(
            factory, _cls_config(2), np.random.default_rng(0), weighted=True, min_labels=30
        )
        method.fit(sentiment_task.train)
        np.testing.assert_allclose(method.member_weights_.sum(), 1.0)

    def test_min_labels_too_high_rejected(self, sentiment_task):
        method = DeepMultiNetworkClassifier(
            lambda: BagOfEmbeddingsClassifier(sentiment_task.embeddings, 2, np.random.default_rng(0)),
            _cls_config(1), np.random.default_rng(0), min_labels=10**6,
        )
        with pytest.raises(ValueError):
            method.fit(sentiment_task.train)

    def test_predict_before_fit_rejected(self, sentiment_task):
        method = DeepMultiNetworkClassifier(
            lambda: None, _cls_config(1), np.random.default_rng(0)
        )
        with pytest.raises(RuntimeError):
            method.predict(sentiment_task.test.tokens, sentiment_task.test.lengths)
