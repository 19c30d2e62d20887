"""Tests for the synthetic sentiment and NER corpus generators."""

import numpy as np
import pytest

from repro.data import (
    CONLL_LABELS,
    NERCorpusConfig,
    SentimentCorpusConfig,
    label_index,
    make_ner_task,
    make_sentiment_task,
    spans_from_bio,
)


def _small_sentiment_config(**overrides):
    defaults = dict(num_train=200, num_dev=50, num_test=50, embedding_dim=16)
    defaults.update(overrides)
    return SentimentCorpusConfig(**defaults)


class TestSentimentCorpus:
    def test_split_sizes(self):
        task = make_sentiment_task(np.random.default_rng(0), _small_sentiment_config())
        assert len(task.train) == 200
        assert len(task.dev) == 50
        assert len(task.test) == 50

    def test_labels_binary_and_roughly_balanced(self):
        task = make_sentiment_task(np.random.default_rng(0), _small_sentiment_config())
        labels = task.train.labels
        assert set(np.unique(labels)) <= {0, 1}
        assert 0.3 < labels.mean() < 0.7

    def test_but_sentences_present_at_configured_rate(self):
        config = _small_sentiment_config(num_train=600)
        task = make_sentiment_task(np.random.default_rng(1), config)
        has_but = np.array(
            [
                (task.train.tokens[i, : task.train.lengths[i]] == task.but_id).any()
                for i in range(len(task.train))
            ]
        )
        assert abs(has_but.mean() - config.but_fraction) < 0.07

    def test_but_clause_b_predicts_label(self):
        """In 'A but B' sentences, clause-B polarity words should match the
        label at roughly the configured dominance rate."""
        config = _small_sentiment_config(num_train=800, but_dominance=0.95)
        task = make_sentiment_task(np.random.default_rng(2), config)
        pos_set = {task.vocab.id_of(f"pos{i}") for i in range(config.num_positive_words)}
        neg_set = {task.vocab.id_of(f"neg{i}") for i in range(config.num_negative_words)}
        agree = total = 0
        for i in range(len(task.train)):
            tokens = task.train.tokens[i, : task.train.lengths[i]]
            positions = np.nonzero(tokens == task.but_id)[0]
            if positions.size == 0:
                continue
            clause_b = tokens[positions[-1] + 1 :]
            pos_count = sum(1 for t in clause_b if int(t) in pos_set)
            neg_count = sum(1 for t in clause_b if int(t) in neg_set)
            if pos_count == neg_count:
                continue
            lean = 1 if pos_count > neg_count else 0
            agree += lean == task.train.labels[i]
            total += 1
        assert total > 20
        assert agree / total > 0.75

    def test_embeddings_shape_and_pad_zero(self):
        config = _small_sentiment_config()
        task = make_sentiment_task(np.random.default_rng(0), config)
        assert task.embeddings.shape == (len(task.vocab), config.embedding_dim)
        np.testing.assert_allclose(task.embeddings[0], 0.0, atol=0)

    def test_no_crowd_attached(self):
        task = make_sentiment_task(np.random.default_rng(0), _small_sentiment_config())
        assert task.train.crowd is None

    def test_deterministic_given_seed(self):
        a = make_sentiment_task(np.random.default_rng(7), _small_sentiment_config())
        b = make_sentiment_task(np.random.default_rng(7), _small_sentiment_config())
        np.testing.assert_array_equal(a.train.tokens, b.train.tokens)
        np.testing.assert_array_equal(a.train.labels, b.train.labels)
        np.testing.assert_allclose(a.embeddings, b.embeddings, atol=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SentimentCorpusConfig(but_fraction=0.8, however_fraction=0.3)
        with pytest.raises(ValueError):
            SentimentCorpusConfig(but_dominance=1.5)
        with pytest.raises(ValueError):
            SentimentCorpusConfig(min_length=10, max_length=5)


def _small_ner_config(**overrides):
    defaults = dict(num_train=120, num_dev=40, num_test=40, embedding_dim=16)
    defaults.update(overrides)
    return NERCorpusConfig(**defaults)


class TestNERCorpus:
    def test_split_sizes_and_labels(self):
        task = make_ner_task(np.random.default_rng(0), _small_ner_config())
        assert len(task.train) == 120
        assert task.label_names == CONLL_LABELS

    def test_tags_are_valid_bio(self):
        task = make_ner_task(np.random.default_rng(0), _small_ner_config())
        idx = label_index(CONLL_LABELS)
        inverse = {v: k for k, v in idx.items()}
        for tags in task.train.tags:
            previous = "O"
            for tag in tags:
                name = inverse[int(tag)]
                if name.startswith("I-"):
                    assert previous in (f"B-{name[2:]}", name), (previous, name)
                previous = name

    def test_every_sentence_has_entities(self):
        task = make_ner_task(np.random.default_rng(1), _small_ner_config())
        for tags in task.train.tags:
            assert len(spans_from_bio(tags)) >= 1

    def test_multi_token_entities_exist(self):
        task = make_ner_task(np.random.default_rng(2), _small_ner_config())
        lengths = [
            end - start
            for tags in task.train.tags
            for _, start, end in spans_from_bio(tags)
        ]
        assert max(lengths) >= 2  # transition rules have work to do

    def test_all_entity_types_appear(self):
        task = make_ner_task(np.random.default_rng(3), _small_ner_config(num_train=200))
        types = {
            span[0] for tags in task.train.tags for span in spans_from_bio(tags)
        }
        assert types == {"PER", "LOC", "ORG", "MISC"}

    def test_ambiguous_tokens_shared_between_pools(self):
        task = make_ner_task(np.random.default_rng(0), _small_ner_config())
        assert any(tok.startswith("amb") for tok in [task.vocab.token_of(i) for i in range(2, len(task.vocab))])

    def test_embeddings_shape(self):
        config = _small_ner_config()
        task = make_ner_task(np.random.default_rng(0), config)
        assert task.embeddings.shape == (len(task.vocab), config.embedding_dim)

    def test_deterministic_given_seed(self):
        a = make_ner_task(np.random.default_rng(5), _small_ner_config())
        b = make_ner_task(np.random.default_rng(5), _small_ner_config())
        np.testing.assert_array_equal(a.train.tokens, b.train.tokens)
        for ta, tb in zip(a.train.tags, b.train.tags):
            np.testing.assert_array_equal(ta, tb)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NERCorpusConfig(ambiguous_fraction=1.5)
        with pytest.raises(ValueError):
            NERCorpusConfig(min_entities=3, max_entities=1)
        with pytest.raises(ValueError):
            NERCorpusConfig(max_entity_tokens=0)
