"""Tests for evaluation metrics: accuracy, span F1, statistics, reliability."""

import numpy as np
import pytest

from repro.data import CONLL_LABELS, label_index
from repro.eval import (
    accuracy,
    compare_reliability,
    confusion_mae,
    one_sided_t_test,
    overall_reliability,
    pearson_correlation,
    per_class_accuracy,
    posterior_accuracy,
    span_f1_score,
    token_accuracy,
)

IDX = label_index(CONLL_LABELS)


class TestAccuracy:
    def test_basic(self):
        assert accuracy(np.array([0, 1, 1]), np.array([0, 1, 0])) == pytest.approx(2 / 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0]), np.array([0, 1]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_posterior_accuracy_uses_argmax(self):
        posterior = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert posterior_accuracy(np.array([0, 1, 1]), posterior) == pytest.approx(2 / 3)

    def test_posterior_shape_validated(self):
        with pytest.raises(ValueError):
            posterior_accuracy(np.array([0]), np.array([0.5, 0.5]))

    def test_per_class_accuracy(self):
        truth = np.array([0, 0, 1, 2])
        pred = np.array([0, 1, 1, 0])
        out = per_class_accuracy(truth, pred, 4)
        np.testing.assert_allclose(out[:3], [0.5, 1.0, 0.0], atol=0)
        assert np.isnan(out[3])


def _tags(*names):
    return np.array([IDX[name] for name in names])


class TestSpanF1:
    def test_perfect_prediction(self):
        gold = [_tags("O", "B-PER", "I-PER", "O")]
        result = span_f1_score(gold, gold)
        assert result.f1 == 1.0
        assert result.true_positives == 1

    def test_boundary_error_counts_as_both_fp_and_fn(self):
        gold = [_tags("B-PER", "I-PER", "O")]
        pred = [_tags("B-PER", "O", "O")]
        result = span_f1_score(gold, pred)
        assert result.true_positives == 0
        assert result.false_positives == 1
        assert result.false_negatives == 1
        assert result.f1 == 0.0

    def test_type_error_is_not_a_match(self):
        gold = [_tags("B-PER", "I-PER")]
        pred = [_tags("B-ORG", "I-ORG")]
        assert span_f1_score(gold, pred).f1 == 0.0

    def test_micro_average_over_sentences(self):
        gold = [_tags("B-PER", "O"), _tags("B-LOC", "O")]
        pred = [_tags("B-PER", "O"), _tags("O", "O")]
        result = span_f1_score(gold, pred)
        assert result.precision == 1.0
        assert result.recall == 0.5
        assert result.f1 == pytest.approx(2 / 3)

    def test_no_entities_anywhere(self):
        gold = [_tags("O", "O")]
        result = span_f1_score(gold, gold)
        assert result.f1 == 0.0  # conventional: no TPs → 0, not 1

    def test_sentence_count_mismatch(self):
        with pytest.raises(ValueError):
            span_f1_score([_tags("O")], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            span_f1_score([_tags("O")], [_tags("O", "O")])

    def test_token_accuracy(self):
        gold = [_tags("O", "B-PER"), _tags("O")]
        pred = [_tags("O", "O"), _tags("O")]
        assert token_accuracy(gold, pred) == pytest.approx(2 / 3)


class TestStatistics:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_sided_detects_improvement(self):
        # The differences need their own spread: a constant shift leaves
        # scipy a t statistic made of rounding noise.
        rng = np.random.default_rng(0)
        base = rng.normal(0.0, 0.01, size=30)
        better = base + 0.05 + rng.normal(0.0, 0.01, size=30)
        result = one_sided_t_test(better, base)
        assert result.p_value < 0.01
        assert result.significant_at_1pct

    def test_no_difference_not_significant(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=30)
        result = one_sided_t_test(a, a + rng.normal(0, 1e-6, size=30))
        assert result.p_value > 0.01

    def test_unpaired_variant(self):
        rng = np.random.default_rng(0)
        a = rng.normal(1.0, 0.1, size=25)
        b = rng.normal(0.0, 0.1, size=20)
        assert one_sided_t_test(a, b, paired=False).p_value < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            one_sided_t_test(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            one_sided_t_test(np.ones(3), np.ones(4), paired=True)

    def test_pearson_perfect_correlation(self):
        x = np.arange(10, dtype=float)
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_pearson_validation(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            pearson_correlation(np.array([1.0]), np.array([1.0]))


class TestReliability:
    def test_overall_reliability(self):
        confusions = np.stack([np.eye(2), np.full((2, 2), 0.5)])
        np.testing.assert_allclose(overall_reliability(confusions), [1.0, 0.5], atol=0)

    def test_single_matrix_promoted(self):
        np.testing.assert_allclose(overall_reliability(np.eye(3)), [1.0], atol=0)

    def test_confusion_mae(self):
        a = np.zeros((1, 2, 2))
        b = np.ones((1, 2, 2))
        assert confusion_mae(a, b) == 1.0
        with pytest.raises(ValueError):
            confusion_mae(np.zeros((1, 2, 2)), np.zeros((2, 2, 2)))

    def test_compare_reliability_recovers_correlation(self):
        rng = np.random.default_rng(0)
        real = np.stack([np.eye(2) * r + (1 - r) / 2 for r in rng.uniform(0.3, 1.0, 20)])
        noisy = real + rng.normal(0, 0.01, real.shape)
        comparison = compare_reliability(noisy, real)
        assert comparison.pearson > 0.95
        assert comparison.mae < 0.05

    def test_min_labels_filter(self):
        real = np.stack([np.eye(2), np.eye(2) * 0.8 + 0.1, np.full((2, 2), 0.5)])
        counts = np.array([100, 50, 2])
        with pytest.raises(ValueError):
            compare_reliability(real, real, min_labels=5, counts=None)
        filtered = compare_reliability(real, real + 1e-9, min_labels=5, counts=counts)
        assert filtered.estimated.shape == (2,)
