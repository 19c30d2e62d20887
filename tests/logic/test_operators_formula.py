"""Tests for Łukasiewicz operators and the formula AST."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff.dtypes import REFERENCE_DTYPE
from repro.logic import (
    And,
    Atom,
    Implies,
    Not,
    Or,
    soft_and,
    soft_implies,
    soft_not,
    soft_or,
    validate_truth,
)

unit = st.floats(min_value=0.0, max_value=1.0)


class TestOperators:
    def test_and_paper_example(self):
        # Paper: I(friend ∧ votesFor) with truths 1 and 0.9 gives 0.9.
        assert soft_and(1.0, 0.9) == pytest.approx(0.9)

    def test_and_truncates_at_zero(self):
        assert soft_and(0.3, 0.4) == 0.0

    def test_or_truncates_at_one(self):
        assert soft_or(0.8, 0.7) == 1.0

    def test_not(self):
        assert soft_not(0.3) == pytest.approx(0.7)

    def test_implies_satisfied_when_consequent_stronger(self):
        assert soft_implies(0.4, 0.9) == 1.0

    def test_implies_partial(self):
        assert soft_implies(1.0, 0.25) == pytest.approx(0.25)

    def test_elementwise_arrays(self):
        a = np.array([0.2, 0.9])
        b = np.array([0.9, 0.9])
        np.testing.assert_allclose(soft_and(a, b), [0.1, 0.8], atol=0)

    @pytest.mark.parametrize("op", [soft_and, soft_or, soft_implies])
    def test_binary_operators_compute_in_the_reference_dtype(self, op):
        # Truth values from a float32 network are combined in float64.
        a = np.array([0.2, 0.7, 1.0], dtype=np.float32)
        b = np.array([0.9, 0.6, 0.0], dtype=np.float32)
        out = op(a, b)
        assert out.dtype == np.dtype(REFERENCE_DTYPE)
        reference = op(a.astype(REFERENCE_DTYPE), b.astype(REFERENCE_DTYPE))
        np.testing.assert_array_equal(out, reference)

    def test_not_computes_in_the_reference_dtype(self):
        a = np.array([0.2, 0.7], dtype=np.float32)
        assert soft_not(a).dtype == np.dtype(REFERENCE_DTYPE)
        assert validate_truth(a).dtype == np.dtype(REFERENCE_DTYPE)

    def test_validate_truth_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_truth(1.5)
        with pytest.raises(ValueError):
            validate_truth(-0.2)

    def test_validate_truth_clips_float_noise(self):
        assert validate_truth(1.0 + 1e-14) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(a=unit, b=unit)
    def test_property_outputs_in_unit_interval(self, a, b):
        for value in (soft_and(a, b), soft_or(a, b), soft_not(a), soft_implies(a, b)):
            assert -1e-12 <= float(value) <= 1.0 + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(a=unit, b=unit)
    def test_property_de_morgan(self, a, b):
        # Łukasiewicz satisfies De Morgan: ~(a & b) == ~a | ~b.
        left = soft_not(soft_and(a, b))
        right = soft_or(soft_not(a), soft_not(b))
        assert float(left) == pytest.approx(float(right), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(a=unit, b=unit)
    def test_property_implication_as_disjunction(self, a, b):
        assert float(soft_implies(a, b)) == pytest.approx(
            float(soft_or(soft_not(a), b)), abs=1e-12
        )

    @settings(max_examples=100, deadline=None)
    @given(a=unit)
    def test_property_boolean_boundary_agreement(self, a):
        # On {0, 1} inputs the operators agree with classical logic.
        for x in (0.0, 1.0):
            for y in (0.0, 1.0):
                assert soft_and(x, y) == float(bool(x) and bool(y))
                assert soft_or(x, y) == float(bool(x) or bool(y))
                assert soft_implies(x, y) == float((not bool(x)) or bool(y))


class TestFormula:
    def test_atom_lookup(self):
        assert Atom("p").truth({"p": 0.7}) == pytest.approx(0.7)

    def test_atom_missing_raises(self):
        with pytest.raises(KeyError):
            Atom("p").truth({})

    def test_atom_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Atom("")

    def test_operator_sugar_builds_ast(self):
        f = (Atom("a") & Atom("b")) >> ~Atom("c")
        assert isinstance(f, Implies)
        assert isinstance(f.left, And)
        assert isinstance(f.right, Not)
        assert f.atoms() == {"a", "b", "c"}

    def test_voting_rule_from_paper(self):
        # friend(B,A) ∧ votesFor(A,P) → votesFor(B,P)
        rule = (Atom("friend") & Atom("votesA")) >> Atom("votesB")
        interp = {"friend": 1.0, "votesA": 0.9, "votesB": 0.4}
        # body truth = 0.9, head = 0.4 → implication = min(1, 1-0.9+0.4) = 0.5
        assert rule.truth(interp) == pytest.approx(0.5)

    def test_or_and_not_composition(self):
        f = Or(Not(Atom("a")), Atom("b"))
        assert f.truth({"a": 0.2, "b": 0.1}) == pytest.approx(0.9)

    def test_repr_readable(self):
        f = (Atom("a") & Atom("b")) >> Atom("c")
        assert "=>" in repr(f)
        assert "&" in repr(f)

    def test_array_interpretation(self):
        f = Atom("a") >> Atom("b")
        interp = {"a": np.array([1.0, 0.0]), "b": np.array([0.3, 0.3])}
        np.testing.assert_allclose(f.truth(interp), [0.3, 1.0], atol=0)
