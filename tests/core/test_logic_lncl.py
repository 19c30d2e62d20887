"""End-to-end tests for Logic-LNCL (classification)."""

import numpy as np
import pytest

from repro.core import LogicLNCLClassifier, LogicLNCLConfig, constant, exponential_ramp
from repro.eval import accuracy, posterior_accuracy
from repro.logic import ButRule
from repro.models import TextCNN, TextCNNConfig


def _config(epochs=5, **overrides):
    defaults = dict(
        epochs=epochs,
        batch_size=32,
        optimizer="adadelta",
        learning_rate=1.0,
        lr_decay_every=None,
        patience=3,
        C=5.0,
        imitation=exponential_ramp(1.0, 0.7),
    )
    defaults.update(overrides)
    return LogicLNCLConfig(**defaults)


def _model(task, seed=0):
    return TextCNN(
        task.embeddings,
        TextCNNConfig(filter_windows=(2, 3), feature_maps=8),
        np.random.default_rng(seed),
    )


class TestFitBasics:
    def test_requires_crowd_labels(self, sentiment_task):
        trainer = LogicLNCLClassifier(
            _model(sentiment_task), _config(1), np.random.default_rng(0)
        )
        with pytest.raises(ValueError):
            trainer.fit(sentiment_task.dev)  # dev split has no crowd labels

    def test_fit_populates_posteriors(self, sentiment_task):
        trainer = LogicLNCLClassifier(
            _model(sentiment_task), _config(2), np.random.default_rng(0),
            rule=ButRule(sentiment_task.but_id),
        )
        trainer.fit(sentiment_task.train, dev=sentiment_task.dev)
        I = len(sentiment_task.train)
        assert trainer.qa_.shape == (I, 2)
        assert trainer.qb_.shape == (I, 2)
        assert trainer.qf_.shape == (I, 2)
        assert trainer.confusions_.shape == (12, 2, 2)
        np.testing.assert_allclose(trainer.qf_.sum(axis=1), 1.0, atol=1e-9)

    def test_history_records_k_schedule(self, sentiment_task):
        trainer = LogicLNCLClassifier(
            _model(sentiment_task), _config(3, imitation=constant(0.5)),
            np.random.default_rng(0), rule=ButRule(sentiment_task.but_id),
        )
        history = trainer.fit(sentiment_task.train)
        assert history["k"] == [0.5, 0.5, 0.5]

    def test_rule_free_variant_has_zero_k(self, sentiment_task):
        trainer = LogicLNCLClassifier(
            _model(sentiment_task), _config(2), np.random.default_rng(0), rule=None
        )
        history = trainer.fit(sentiment_task.train)
        assert history["k"] == [0.0, 0.0]
        np.testing.assert_allclose(trainer.qa_, trainer.qb_, atol=0)
        np.testing.assert_allclose(trainer.qa_, trainer.qf_, atol=0)

    def test_inference_posterior_requires_fit(self, sentiment_task):
        trainer = LogicLNCLClassifier(
            _model(sentiment_task), _config(1), np.random.default_rng(0)
        )
        with pytest.raises(RuntimeError):
            trainer.inference_posterior()

    def test_fixed_qa_shape_validated(self, sentiment_task):
        trainer = LogicLNCLClassifier(
            _model(sentiment_task), _config(1), np.random.default_rng(0),
            fixed_qa=np.ones((3, 2)) / 2,
        )
        with pytest.raises(ValueError):
            trainer.fit(sentiment_task.train)


class TestLearningQuality:
    def test_beats_chance_and_tracks_truth(self, sentiment_task):
        trainer = LogicLNCLClassifier(
            _model(sentiment_task), _config(6), np.random.default_rng(0),
            rule=ButRule(sentiment_task.but_id),
        )
        trainer.fit(sentiment_task.train, dev=sentiment_task.dev)
        test = sentiment_task.test
        student = accuracy(test.labels, trainer.predict_student(test.tokens, test.lengths))
        assert student > 0.6
        inference = posterior_accuracy(
            sentiment_task.train.labels, trainer.inference_posterior()
        )
        assert inference > 0.75

    def test_inference_beats_mv_init(self, sentiment_task):
        from repro.inference import majority_vote_posterior

        mv_acc = posterior_accuracy(
            sentiment_task.train.labels,
            majority_vote_posterior(sentiment_task.train.crowd),
        )
        trainer = LogicLNCLClassifier(
            _model(sentiment_task), _config(6), np.random.default_rng(0),
            rule=ButRule(sentiment_task.but_id),
        )
        trainer.fit(sentiment_task.train, dev=sentiment_task.dev)
        lncl_acc = posterior_accuracy(
            sentiment_task.train.labels, trainer.inference_posterior()
        )
        assert lncl_acc >= mv_acc - 0.02

    def test_confusion_estimates_track_reality(self, sentiment_task):
        from repro.crowd import classification_annotator_report
        from repro.eval import compare_reliability

        trainer = LogicLNCLClassifier(
            _model(sentiment_task), _config(6), np.random.default_rng(0),
            rule=ButRule(sentiment_task.but_id),
        )
        trainer.fit(sentiment_task.train, dev=sentiment_task.dev)
        report = classification_annotator_report(
            sentiment_task.train.crowd, sentiment_task.train.labels
        )
        comparison = compare_reliability(
            trainer.confusions_, report.confusions,
            min_labels=10, counts=report.counts,
        )
        assert comparison.pearson > 0.5


class TestTeacherStudent:
    def test_teacher_equals_student_without_rule(self, sentiment_task):
        trainer = LogicLNCLClassifier(
            _model(sentiment_task), _config(2), np.random.default_rng(0), rule=None
        )
        trainer.fit(sentiment_task.train)
        test = sentiment_task.test
        np.testing.assert_allclose(
            trainer.predict_proba_teacher(test.tokens, test.lengths),
            trainer.predict_proba_student(test.tokens, test.lengths),
            atol=0,
        )

    def test_teacher_differs_on_but_sentences(self, sentiment_task):
        trainer = LogicLNCLClassifier(
            _model(sentiment_task), _config(3), np.random.default_rng(0),
            rule=ButRule(sentiment_task.but_id),
        )
        trainer.fit(sentiment_task.train)
        test = sentiment_task.test
        student = trainer.predict_proba_student(test.tokens, test.lengths)
        teacher = trainer.predict_proba_teacher(test.tokens, test.lengths)
        has_but = np.array(
            [
                (test.tokens[i, : test.lengths[i]] == sentiment_task.but_id).any()
                for i in range(len(test))
            ]
        )
        # No groundings → identical; groundings → (generally) adapted.
        np.testing.assert_allclose(student[~has_but], teacher[~has_but], atol=1e-12)
        if has_but.any():
            assert np.abs(student[has_but] - teacher[has_but]).max() > 1e-6


class TestEarlyStopping:
    def test_stops_before_max_epochs_when_saturated(self, sentiment_task):
        trainer = LogicLNCLClassifier(
            _model(sentiment_task),
            _config(30, patience=2, imitation=constant(0.2)),
            np.random.default_rng(0),
            rule=ButRule(sentiment_task.but_id),
        )
        history = trainer.fit(sentiment_task.train, dev=sentiment_task.dev)
        assert len(history["loss"]) <= 30
        assert "best_dev_score" in history

    def test_best_state_restored(self, sentiment_task):
        trainer = LogicLNCLClassifier(
            _model(sentiment_task), _config(6, patience=2), np.random.default_rng(0),
            rule=ButRule(sentiment_task.but_id),
        )
        history = trainer.fit(sentiment_task.train, dev=sentiment_task.dev)
        dev = sentiment_task.dev
        restored = accuracy(dev.labels, trainer.predict_student(dev.tokens, dev.lengths))
        assert restored == pytest.approx(history["best_dev_score"], abs=1e-9)


class TestAblationHooks:
    def test_fixed_qa_stays_fixed(self, sentiment_task):
        from repro.inference import majority_vote_posterior

        mv = majority_vote_posterior(sentiment_task.train.crowd)
        trainer = LogicLNCLClassifier(
            _model(sentiment_task), _config(3), np.random.default_rng(0),
            rule=ButRule(sentiment_task.but_id), fixed_qa=mv,
        )
        trainer.fit(sentiment_task.train)
        np.testing.assert_allclose(trainer.qa_, mv, atol=0)
        # qb still adapts via the rule.
        assert not np.allclose(trainer.qb_, mv)
