"""Tests for the A-but-B sentiment rule and the BIO transition rules."""

import numpy as np
import pytest

from repro.logic import ButRule, TransitionRules, bio_transition_rules

BUT = 7
PAD = 0


def _uniform_proba(tokens, lengths):
    return np.full((tokens.shape[0], 2), 0.5)


class TestButRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            ButRule(BUT, weight=2.0)
        with pytest.raises(ValueError):
            ButRule(BUT, num_classes=1)

    def test_clause_b_extraction(self):
        rule = ButRule(BUT)
        tokens = np.array([1, 2, BUT, 4, 5, PAD, PAD])
        np.testing.assert_array_equal(rule.clause_b(tokens, 5), [4, 5])

    def test_clause_b_uses_last_trigger(self):
        rule = ButRule(BUT)
        tokens = np.array([1, BUT, 3, BUT, 5])
        np.testing.assert_array_equal(rule.clause_b(tokens, 5), [5])

    def test_no_trigger_returns_none(self):
        rule = ButRule(BUT)
        assert rule.clause_b(np.array([1, 2, 3]), 3) is None

    def test_trailing_trigger_returns_none(self):
        rule = ButRule(BUT)
        assert rule.clause_b(np.array([1, 2, BUT]), 3) is None

    def test_trigger_in_padding_ignored(self):
        rule = ButRule(BUT)
        tokens = np.array([1, 2, 3, BUT, 9])
        assert rule.clause_b(tokens, 3) is None  # BUT is beyond the length

    def test_penalties_zero_without_groundings(self):
        rule = ButRule(BUT)
        batch = np.array([[1, 2, 3], [4, 5, 6]])
        lengths = np.array([3, 3])
        penalties = rule.penalties(batch, lengths, _uniform_proba)
        np.testing.assert_allclose(penalties, 0.0, atol=0)

    def test_penalties_follow_clause_probability(self):
        rule = ButRule(BUT)
        batch = np.array([[1, BUT, 3, PAD], [4, 5, 6, PAD]])
        lengths = np.array([3, 3])

        def proba(tokens, lengths_):
            assert tokens.shape[0] == 1  # only the grounded sentence
            return np.array([[0.2, 0.8]])

        penalties = rule.penalties(batch, lengths, proba)
        # grounded row: penalty_k = 1 - sigma(B)_k
        np.testing.assert_allclose(penalties[0], [0.8, 0.2], atol=1e-12)
        np.testing.assert_allclose(penalties[1], 0.0, atol=0)

    def test_penalties_weight_scales(self):
        rule = ButRule(BUT, weight=0.5)
        batch = np.array([[1, BUT, 3]])
        penalties = rule.penalties(batch, np.array([3]), lambda t, l: np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(penalties[0], [0.5, 0.0], atol=0)

    def test_penalties_shape_validation(self):
        rule = ButRule(BUT)
        with pytest.raises(ValueError):
            rule.penalties(np.array([1, 2, 3]), np.array([3]), _uniform_proba)
        with pytest.raises(ValueError):
            rule.penalties(np.array([[1, 2, 3]]), np.array([3, 3]), _uniform_proba)

    def test_predict_proba_bad_shape_detected(self):
        rule = ButRule(BUT)
        batch = np.array([[1, BUT, 3]])
        with pytest.raises(ValueError):
            rule.penalties(batch, np.array([3]), lambda t, l: np.zeros((1, 5)))

    def test_clause_batch_padding(self):
        rule = ButRule(BUT, pad_id=PAD)
        batch = np.array([[1, BUT, 3, 4, 5], [1, 2, 3, BUT, 9]])
        lengths = np.array([5, 5])
        seen = {}

        def proba(tokens, lengths_):
            seen["tokens"] = tokens.copy()
            seen["lengths"] = lengths_.copy()
            return np.full((2, 2), 0.5)

        rule.penalties(batch, lengths, proba)
        np.testing.assert_array_equal(seen["lengths"], [3, 1])
        np.testing.assert_array_equal(seen["tokens"][0], [3, 4, 5])
        np.testing.assert_array_equal(seen["tokens"][1], [9, PAD, PAD])


LABELS = ["O", "B-PER", "I-PER", "B-ORG", "I-ORG"]


class TestTransitionRules:
    def test_penalty_matrix_values(self):
        tr = TransitionRules(LABELS)
        idx = {name: i for i, name in enumerate(LABELS)}
        P = tr.penalty_matrix
        # Into I-PER: from B-PER costs 0.2, from I-PER costs 0.8, else 1.0.
        assert P[idx["B-PER"], idx["I-PER"]] == pytest.approx(0.2)
        assert P[idx["I-PER"], idx["I-PER"]] == pytest.approx(0.8)
        assert P[idx["O"], idx["I-PER"]] == pytest.approx(1.0)
        assert P[idx["B-ORG"], idx["I-PER"]] == pytest.approx(1.0)
        # Non-inside columns are penalty-free.
        assert P[:, idx["O"]].sum() == 0.0
        assert P[:, idx["B-PER"]].sum() == 0.0

    def test_initial_penalty_blocks_inside_start(self):
        tr = TransitionRules(LABELS)
        idx = {name: i for i, name in enumerate(LABELS)}
        assert tr.initial_penalty[idx["I-ORG"]] == pytest.approx(1.0)
        assert tr.initial_penalty[idx["B-ORG"]] == 0.0
        assert tr.initial_penalty[idx["O"]] == 0.0

    def test_matches_generic_psl_engine(self):
        """The compiled matrix must equal rule-by-rule PSL evaluation."""
        tr = TransitionRules(LABELS)
        rules = tr.as_rule_set()
        for p_idx, prev in enumerate(LABELS):
            for c_idx, cur in enumerate(LABELS):
                interp = tr.interpretation(prev, cur)
                expected = 0.0
                for rule in rules:
                    # Only rules whose consequent concerns `cur` contribute.
                    if rule.name.startswith(f"{cur}->"):
                        expected += rule.weight * float(
                            rule.distance_to_satisfaction(interp)
                        )
                assert tr.penalty_matrix[p_idx, c_idx] == pytest.approx(expected), (
                    prev,
                    cur,
                )

    def test_pairwise_potential_exponentiates(self):
        tr = TransitionRules(LABELS)
        np.testing.assert_allclose(
            tr.pairwise_potential(5.0), np.exp(-5.0 * tr.penalty_matrix),
            atol=0,
        )
        np.testing.assert_allclose(
            tr.initial_potential(5.0), np.exp(-5.0 * tr.initial_penalty),
            atol=0,
        )

    def test_negative_C_rejected(self):
        tr = TransitionRules(LABELS)
        with pytest.raises(ValueError):
            tr.pairwise_potential(-1.0)
        with pytest.raises(ValueError):
            tr.initial_potential(-1.0)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            TransitionRules(LABELS, begin_weight=1.5)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            TransitionRules(["O", "O"])

    def test_inside_without_begin_label(self):
        # I-MISC with no B-MISC: the begin rule simply has no satisfier.
        tr = TransitionRules(["O", "I-MISC"])
        idx = {"O": 0, "I-MISC": 1}
        assert tr.penalty_matrix[idx["O"], idx["I-MISC"]] == pytest.approx(1.0)
        assert tr.penalty_matrix[idx["I-MISC"], idx["I-MISC"]] == pytest.approx(0.8)

    def test_ablation_only_begin_rule(self):
        tr = bio_transition_rules(LABELS, only_begin_rule=True)
        idx = {name: i for i, name in enumerate(LABELS)}
        # Only Eq. 18 at weight 1: B->I free, I->I fully penalized.
        assert tr.penalty_matrix[idx["B-PER"], idx["I-PER"]] == pytest.approx(0.0)
        assert tr.penalty_matrix[idx["I-PER"], idx["I-PER"]] == pytest.approx(1.0)
        assert tr.penalty_matrix[idx["O"], idx["I-PER"]] == pytest.approx(1.0)

    def test_factory_default_matches_paper_weights(self):
        tr = bio_transition_rules(LABELS)
        assert tr.begin_weight == pytest.approx(0.8)
        assert tr.inside_weight == pytest.approx(0.2)
