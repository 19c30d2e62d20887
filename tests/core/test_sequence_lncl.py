"""End-to-end tests for Logic-LNCL (sequence tagging / NER)."""

import numpy as np
import pytest

from repro.core import LogicLNCLConfig, LogicLNCLSequenceTagger, constant
from repro.data import CONLL_LABELS, label_index
from repro.eval import span_f1_score
from repro.logic import bio_transition_rules
from repro.models import NERTagger, NERTaggerConfig

IDX = label_index(CONLL_LABELS)


def _config(epochs=3, **overrides):
    defaults = dict(
        epochs=epochs,
        batch_size=32,
        optimizer="adam",
        learning_rate=1e-2,
        lr_decay_every=None,
        patience=5,
        weighted_loss=True,
        C=5.0,
        imitation=constant(0.5),
    )
    defaults.update(overrides)
    return LogicLNCLConfig(**defaults)


def _model(task, seed=0):
    return NERTagger(
        task.embeddings,
        NERTaggerConfig(conv_width=3, conv_features=64, gru_hidden=32),
        np.random.default_rng(seed),
    )


def _rules():
    return bio_transition_rules(CONLL_LABELS)


class TestFitBasics:
    def test_requires_crowd(self, ner_task):
        trainer = LogicLNCLSequenceTagger(
            _model(ner_task), _config(1), np.random.default_rng(0)
        )
        with pytest.raises(ValueError):
            trainer.fit(ner_task.dev)

    def test_posteriors_shapes(self, ner_task):
        trainer = LogicLNCLSequenceTagger(
            _model(ner_task), _config(2), np.random.default_rng(0), rules=_rules()
        )
        trainer.fit(ner_task.train, dev=ner_task.dev)
        assert len(trainer.qf_) == len(ner_task.train)
        for qf, tags in zip(trainer.qf_, ner_task.train.tags):
            assert qf.shape == (len(tags), 9)
            np.testing.assert_allclose(qf.sum(axis=1), 1.0, atol=1e-9)
        assert trainer.confusions_.shape == (8, 9, 9)

    def test_rule_free_variant(self, ner_task):
        trainer = LogicLNCLSequenceTagger(
            _model(ner_task), _config(2), np.random.default_rng(0), rules=None
        )
        history = trainer.fit(ner_task.train)
        assert history["k"] == [0.0, 0.0]
        for qa, qf in zip(trainer.qa_, trainer.qf_):
            np.testing.assert_allclose(qa, qf)


class TestRuleEffects:
    def test_qb_suppresses_invalid_transitions(self, ner_task):
        """After distillation, sentence-initial I-X mass must shrink."""
        trainer = LogicLNCLSequenceTagger(
            _model(ner_task), _config(2), np.random.default_rng(0), rules=_rules()
        )
        trainer.fit(ner_task.train)
        inside_ids = [IDX[name] for name in CONLL_LABELS if name.startswith("I-")]
        qa_initial_mass = np.mean([qa[0, inside_ids].sum() for qa in trainer.qa_])
        qb_initial_mass = np.mean([qb[0, inside_ids].sum() for qb in trainer.qb_])
        assert qb_initial_mass <= qa_initial_mass + 1e-9

    def test_teacher_decodes_valid_sequences_more_often(self, ner_task):
        trainer = LogicLNCLSequenceTagger(
            _model(ner_task), _config(3), np.random.default_rng(0), rules=_rules()
        )
        trainer.fit(ner_task.train, dev=ner_task.dev)
        test = ner_task.test

        def invalid_transitions(sequences):
            bad = 0
            for seq in sequences:
                previous = "O"
                for tag in seq:
                    name = CONLL_LABELS[int(tag)]
                    if name.startswith("I-") and previous not in (
                        f"B-{name[2:]}", name
                    ):
                        bad += 1
                    previous = name
            return bad

        student_bad = invalid_transitions(trainer.predict_student(test.tokens, test.lengths))
        teacher_bad = invalid_transitions(trainer.predict_teacher(test.tokens, test.lengths))
        assert teacher_bad <= student_bad

    def test_learns_better_than_chance(self, ner_task):
        trainer = LogicLNCLSequenceTagger(
            _model(ner_task), _config(8), np.random.default_rng(0), rules=_rules()
        )
        trainer.fit(ner_task.train, dev=ner_task.dev)
        test = ner_task.test
        f1 = span_f1_score(test.tags, trainer.predict_teacher(test.tokens, test.lengths)).f1
        assert f1 > 0.2

    def test_inference_posterior_tracks_truth(self, ner_task):
        trainer = LogicLNCLSequenceTagger(
            _model(ner_task), _config(4), np.random.default_rng(0), rules=_rules()
        )
        trainer.fit(ner_task.train, dev=ner_task.dev)
        predictions = [qf.argmax(axis=1) for qf in trainer.inference_posterior()]
        f1 = span_f1_score(ner_task.train.tags, predictions).f1
        assert f1 > 0.4


class TestEarlyStoppingSequence:
    def test_best_restored(self, ner_task):
        trainer = LogicLNCLSequenceTagger(
            _model(ner_task), _config(4, patience=2), np.random.default_rng(0),
            rules=_rules(),
        )
        history = trainer.fit(ner_task.train, dev=ner_task.dev)
        dev = ner_task.dev
        f1 = span_f1_score(dev.tags, trainer.predict_student(dev.tokens, dev.lengths)).f1
        assert f1 == pytest.approx(history["best_dev_score"], abs=1e-9)


class TestFixedQaValidation:
    """A wrong-shaped frozen posterior is rejected before any training, as
    the classification variant already does, instead of training on it
    and failing (or silently returning wrong-shaped posteriors) later."""

    @staticmethod
    def _uniform(lengths):
        K = len(CONLL_LABELS)
        return [np.full((int(n), K), 1.0 / K) for n in lengths]

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda qa: [np.vstack([q, q[:1]]) for q in qa], r"fixed_qa\[0\] has shape"),
            (lambda qa: qa[:5] + [qa[5][:, :4]] + qa[6:], r"fixed_qa\[5\] has shape"),
            (lambda qa: qa[:-1], "fixed_qa has"),
        ],
        ids=["every-entry-too-long", "one-entry-wrong-classes", "one-sentence-missing"],
    )
    def test_rejected_before_the_first_epoch(self, ner_task, corrupt, message):
        model = _model(ner_task)
        before = model.state_dict()
        trainer = LogicLNCLSequenceTagger(
            model, _config(3), np.random.default_rng(0), rules=_rules(),
            fixed_qa=corrupt(self._uniform(ner_task.train.lengths)),
        )
        with pytest.raises(ValueError, match=message):
            trainer.fit(ner_task.train)
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[key])
        assert trainer.qf_ is None

    def test_matching_fixed_qa_stays_fixed(self, ner_task):
        fixed = self._uniform(ner_task.train.lengths)
        trainer = LogicLNCLSequenceTagger(
            _model(ner_task), _config(1), np.random.default_rng(0), rules=_rules(),
            fixed_qa=fixed,
        )
        trainer.fit(ner_task.train)
        assert trainer.qa_ is fixed
        assert [q.shape for q in trainer.qf_] == [q.shape for q in fixed]


class TestEmptyTrainingSet:
    @pytest.mark.parametrize("rules", [None, _rules()], ids=["no-rules", "bio-rules"])
    def test_fit_on_empty_train_is_noop_epochs(self, rules):
        """PR 5 empty-training-set contract extended to the Logic-LNCL
        entry point: zero sentences means no-op epochs (loss 0.0) and an
        untouched (finite) output bias, not an opaque crash. With rules,
        the pseudo-E-step's batched chain DP sees an empty batch."""
        from repro.crowd import SequenceCrowdLabels
        from repro.data.datasets import SequenceTaggingDataset
        from repro.data.vocab import Vocabulary

        rng = np.random.default_rng(0)
        embeddings = rng.normal(size=(30, 8))
        model = NERTagger(
            embeddings,
            NERTaggerConfig(conv_width=3, conv_features=8, gru_hidden=4),
            rng,
        )
        train = SequenceTaggingDataset(
            tokens=np.zeros((0, 7), dtype=np.int64),
            lengths=np.zeros(0, dtype=np.int64),
            tags=[],
            vocab=Vocabulary(["a"]),
            label_names=list(CONLL_LABELS),
            crowd=SequenceCrowdLabels([], num_classes=9, num_annotators=3),
        )
        trainer = LogicLNCLSequenceTagger(model, _config(2), rng, rules=rules)
        history = trainer.fit(train)
        assert history["loss"] == [0.0, 0.0]
        assert trainer.qf_ == []
        assert trainer.qb_ == []
        for value in model.state_dict().values():
            assert np.isfinite(value).all()


class TestZeroSmoothing:
    @pytest.mark.parametrize("rules", [None, _rules()], ids=["no-rules", "bio-rules"])
    def test_fit_stays_finite_when_an_annotator_misses_classes(self, rules):
        """``confusion_smoothing=0.0`` is a legal config. Annotator 1
        labels only the second sentence, whose token majority vote puts
        mass on ``O`` alone, so the Eq. 12 rows of every other class have
        no counts: they must come back uniform, and the pseudo-E-step
        posteriors must stay finite."""
        from repro.crowd import SequenceCrowdLabels
        from repro.data.datasets import SequenceTaggingDataset
        from repro.data.vocab import Vocabulary

        rng = np.random.default_rng(0)
        model = NERTagger(
            rng.normal(size=(30, 8)),
            NERTaggerConfig(conv_width=3, conv_features=8, gru_hidden=4),
            rng,
        )
        first = np.array([IDX["B-PER"], IDX["I-PER"], IDX["O"]])
        second = np.array([IDX["O"], IDX["O"]])
        train = SequenceTaggingDataset(
            tokens=np.array([[3, 4, 5], [6, 7, 0]]),
            lengths=np.array([3, 2]),
            tags=[first, second],
            vocab=Vocabulary(["a"]),
            label_names=list(CONLL_LABELS),
            crowd=SequenceCrowdLabels(
                [
                    np.stack([first, np.full(3, -1)], axis=1),
                    np.stack([second, second], axis=1),
                ],
                num_classes=9,
                num_annotators=2,
            ),
        )
        config = _config(2, confusion_smoothing=0.0)
        trainer = LogicLNCLSequenceTagger(model, config, rng, rules=rules)
        trainer.fit(train)
        assert np.isfinite(trainer.confusions_).all()
        np.testing.assert_allclose(trainer.confusions_.sum(axis=2), 1.0, atol=1e-12)
        for posterior in (*trainer.qa_, *trainer.qf_):
            assert np.isfinite(posterior).all()
