"""Tests for weighted rules, rule sets, and groundings."""

import numpy as np
import pytest

from repro.logic import Atom, Grounding, Rule, RuleSet


def _rule(name="r", weight=1.0):
    return Rule(name, Atom("p") >> Atom("q"), weight=weight)


class TestRule:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            _rule(weight=1.5)
        with pytest.raises(ValueError):
            _rule(weight=-0.1)

    def test_value_and_distance_complementary(self):
        rule = _rule()
        interp = {"p": 1.0, "q": 0.3}
        assert rule.value(interp) == pytest.approx(0.3)
        assert rule.distance_to_satisfaction(interp) == pytest.approx(0.7)

    def test_satisfied_rule_zero_distance(self):
        rule = _rule()
        assert rule.distance_to_satisfaction({"p": 0.2, "q": 0.9}) == pytest.approx(0.0)

    def test_repr(self):
        assert "weight=0.8" in repr(_rule(weight=0.8))


class TestRuleSet:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RuleSet([_rule("a"), _rule("a")])
        rs = RuleSet([_rule("a")])
        with pytest.raises(ValueError):
            rs.add(_rule("a"))

    def test_penalty_weighted_sum(self):
        rs = RuleSet(
            [
                Rule("r1", Atom("p") >> Atom("q"), weight=0.8),
                Rule("r2", Atom("p") >> Atom("s"), weight=0.2),
            ]
        )
        interp = {"p": 1.0, "q": 0.0, "s": 1.0}
        # r1 fully violated (d=1), r2 satisfied (d=0) → 0.8.
        assert rs.penalty(interp) == pytest.approx(0.8)

    def test_len_and_iter(self):
        rs = RuleSet([_rule("a"), _rule("b")])
        assert len(rs) == 2
        assert [r.name for r in rs] == ["a", "b"]

    def test_ground_penalties(self):
        rs = RuleSet([Rule("but", Atom("label_pos") >> Atom("clause_pos"), weight=1.0)])
        groundings = [
            Grounding("but", {"clause_pos": 0.9}),
            Grounding("but", {"clause_pos": 0.1}),
        ]

        def label_atoms(k):
            return {"label_pos": 1.0 if k == 1 else 0.0}

        penalties = rs.ground_penalties(groundings, label_atoms, num_classes=2)
        # class 0: antecedent false → satisfied → penalty 0.
        np.testing.assert_allclose(penalties[:, 0], 0.0, atol=0)
        # class 1: penalty = 1 - clause_pos.
        np.testing.assert_allclose(penalties[:, 1], [0.1, 0.9], atol=1e-12)

    def test_ground_penalties_unknown_rule(self):
        rs = RuleSet([_rule("a")])
        with pytest.raises(KeyError):
            rs.ground_penalties([Grounding("zzz")], lambda k: {}, 2)
