"""Tests for the Eq. 15 closed form and the chain DP."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff.dtypes import equivalence_atol
from repro.logic import chain_marginals, distill_posterior

ATOL = equivalence_atol("float64")


def _random_posterior(rng, rows, K):
    q = rng.random((rows, K)) + 1e-3
    return q / q.sum(axis=1, keepdims=True)


class TestDistillPosterior:
    def test_zero_penalty_returns_qa(self):
        rng = np.random.default_rng(0)
        qa = _random_posterior(rng, 4, 3)
        np.testing.assert_allclose(distill_posterior(qa, np.zeros((4, 3)), C=5.0), qa, atol=ATOL)

    def test_zero_C_returns_qa(self):
        rng = np.random.default_rng(0)
        qa = _random_posterior(rng, 4, 3)
        penalties = rng.random((4, 3))
        np.testing.assert_allclose(distill_posterior(qa, penalties, C=0.0), qa, atol=ATOL)

    def test_matches_paper_formula(self):
        qa = np.array([[0.6, 0.4]])
        penalties = np.array([[0.0, 1.0]])
        C = 5.0
        expected = qa * np.exp(-C * penalties)
        expected /= expected.sum()
        np.testing.assert_allclose(distill_posterior(qa, penalties, C), expected, atol=ATOL)

    def test_penalty_shifts_mass_away(self):
        qa = np.array([[0.5, 0.5]])
        qb = distill_posterior(qa, np.array([[0.0, 0.5]]), C=2.0)
        assert qb[0, 0] > 0.5
        assert qb[0, 1] < 0.5
        np.testing.assert_allclose(qb.sum(), 1.0, atol=ATOL)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            distill_posterior(np.ones((2, 2)) / 2, np.zeros((3, 2)), C=1.0)

    def test_negative_C_rejected(self):
        with pytest.raises(ValueError):
            distill_posterior(np.ones((1, 2)) / 2, np.zeros((1, 2)), C=-1.0)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            distill_posterior(np.ones((1, 2)) / 2, np.array([[-0.5, 0.0]]), C=1.0)

    def test_degenerate_row_falls_back_to_qa(self):
        # All qa mass on the (astronomically) penalized label.
        qa = np.array([[1.0, 0.0]])
        qb = distill_posterior(qa, np.array([[5000.0, 0.0]]), C=1.0)
        assert np.isfinite(qb).all()
        np.testing.assert_allclose(qb.sum(axis=1), 1.0, atol=ATOL)

    def test_large_penalties_numerically_stable(self):
        qa = np.array([[0.5, 0.5]])
        qb = distill_posterior(qa, np.array([[1000.0, 999.0]]), C=10.0)
        assert np.isfinite(qb).all()
        np.testing.assert_allclose(qb.sum(axis=1), 1.0, atol=ATOL)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**16), C=st.floats(0.0, 10.0))
    def test_property_output_is_distribution(self, seed, C):
        rng = np.random.default_rng(seed)
        qa = _random_posterior(rng, 5, 4)
        penalties = rng.random((5, 4)) * 3
        qb = distill_posterior(qa, penalties, C)
        assert np.all(qb >= 0)
        np.testing.assert_allclose(qb.sum(axis=1), np.ones(5), atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_property_kl_projection_direction(self, seed):
        """qb must put no *more* mass than qa on the most-penalized label."""
        rng = np.random.default_rng(seed)
        qa = _random_posterior(rng, 1, 3)
        penalties = np.array([[0.0, 0.0, 2.0]])
        qb = distill_posterior(qa, penalties, C=3.0)
        assert qb[0, 2] <= qa[0, 2] + 1e-12


def _brute_force_chain_marginals(unary, pairwise, initial):
    """Enumerate all label sequences (exponential; tiny test cases only).

    Returns None when every sequence has zero potential (no support).
    """
    T, K = unary.shape
    if T == 0:
        return np.zeros((0, K))
    marginals = np.zeros((T, K))
    total = 0.0
    for assignment in itertools.product(range(K), repeat=T):
        weight = initial[assignment[0]] * unary[0, assignment[0]]
        for s in range(1, T):
            weight *= pairwise[assignment[s - 1], assignment[s]] * unary[s, assignment[s]]
        total += weight
        for s, label in enumerate(assignment):
            marginals[s, label] += weight
    return marginals / total if total > 0 else None


def _single(unary, pairwise, initial=None):
    """Marginals of one ``(T, K)`` chain through the batched entry point."""
    return chain_marginals(unary[None], [unary.shape[0]], pairwise, initial)[0]


class TestChainMarginals:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        T, K = 4, 3
        unary = rng.random((T, K)) + 0.05
        pairwise = rng.random((K, K)) + 0.05
        initial = rng.random(K) + 0.05
        got = _single(unary, pairwise, initial)
        expected = _brute_force_chain_marginals(unary, pairwise, initial)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_identity_pairwise_reduces_to_unary(self):
        rng = np.random.default_rng(1)
        unary = rng.random((5, 3)) + 0.1
        got = _single(unary, np.ones((3, 3)))
        expected = unary / unary.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_forbidden_transition_removes_mass(self):
        # Two tokens; transitioning 0→1 forbidden; token2 unary prefers 1.
        unary = np.array([[1.0, 0.0], [0.2, 0.8]])
        pairwise = np.array([[1.0, 0.0], [1.0, 1.0]])
        got = _single(unary, pairwise)
        np.testing.assert_allclose(got[1], [1.0, 0.0], atol=1e-12)

    def test_long_chain_no_underflow(self):
        rng = np.random.default_rng(2)
        unary = rng.random((500, 4)) * 1e-3 + 1e-6
        pairwise = rng.random((4, 4)) * 1e-3 + 1e-6
        got = _single(unary, pairwise)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got.sum(axis=1), np.ones(500), atol=1e-9)

    def test_single_token_chain(self):
        unary = np.array([[0.2, 0.8]])
        got = _single(unary, np.ones((2, 2)))
        np.testing.assert_allclose(got, [[0.2, 0.8]], atol=ATOL)

    def test_initial_potential_applies(self):
        unary = np.array([[0.5, 0.5]])
        got = _single(unary, np.ones((2, 2)), initial=np.array([1.0, 0.0]))
        np.testing.assert_allclose(got, [[1.0, 0.0]], atol=ATOL)

    def test_validation(self):
        with pytest.raises(ValueError):
            chain_marginals(np.ones(3)[None], [3], np.ones((3, 3)))
        with pytest.raises(ValueError):
            chain_marginals(np.ones((2, 3))[None], [2], np.ones((2, 2)))
        with pytest.raises(ValueError):
            chain_marginals(np.ones((2, 3))[None], [2], np.ones((3, 3)), initial=np.ones(2))
        with pytest.raises(ValueError):
            chain_marginals(-np.ones((2, 3))[None], [2], np.ones((3, 3)))
        with pytest.raises(ValueError):
            chain_marginals(np.ones((2, 3))[None], [2], np.ones((3, 3)), initial=-np.ones(3))

    def test_lengths_validation(self):
        unary = np.ones((2, 3, 2))
        with pytest.raises(ValueError, match="lengths"):
            chain_marginals(unary, [3], np.ones((2, 2)))
        with pytest.raises(ValueError, match="lengths"):
            chain_marginals(unary, [3, 4], np.ones((2, 2)))
        with pytest.raises(ValueError, match="lengths"):
            chain_marginals(unary, [-1, 2], np.ones((2, 2)))

    def test_no_support_raises(self):
        with pytest.raises(ValueError, match="no support at position 0"):
            chain_marginals(np.zeros((2, 2))[None], [2], np.ones((2, 2)))

    def test_empty_chains_and_batches(self):
        got = chain_marginals(np.zeros((0, 3))[None], [0], np.ones((3, 3)))
        assert got.shape == (1, 0, 3)
        empty_batch = chain_marginals(np.zeros((0, 0, 3)), np.zeros(0), np.ones((3, 3)))
        assert empty_batch.shape == (0, 0, 3)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_property_matches_brute_force_random(self, seed):
        rng = np.random.default_rng(seed)
        T, K = 3, 2
        unary = rng.random((T, K)) + 0.05
        pairwise = rng.random((K, K)) + 0.05
        initial = rng.random(K) + 0.05
        got = _single(unary, pairwise, initial)
        expected = _brute_force_chain_marginals(unary, pairwise, initial)
        np.testing.assert_allclose(got, expected, atol=1e-9)


@st.composite
def _ragged_batches(draw):
    """Ragged chains (lengths 0-4, K <= 3) whose potentials are sometimes
    zero: zero unary entries, forbidden transitions and hard (zero)
    initial entries all occur, while most batches keep their support."""
    K = draw(st.integers(1, 3))
    lengths = np.array(draw(st.lists(st.integers(0, 4), min_size=1, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def potentials(shape, zero_share):
        return np.where(rng.random(shape) < zero_share, 0.0, rng.random(shape) + 0.05)

    unary = potentials((lengths.size, lengths.max(), K), 0.1)
    unary[np.arange(lengths.max()) >= lengths[:, None]] = -1.0  # padding: ignored
    return unary, lengths, potentials((K, K), 0.3), potentials(K, 0.3)


@settings(max_examples=200, deadline=None)
@given(batch=_ragged_batches())
def test_property_ragged_batch_matches_brute_force_per_chain(batch):
    """One batched call equals brute-force enumeration chain by chain, and
    raises exactly when some chain has no support."""
    unary, lengths, pairwise, initial = batch
    expected = [
        _brute_force_chain_marginals(unary[i, :length], pairwise, initial)
        for i, length in enumerate(lengths)
    ]
    if any(marginals is None for marginals in expected):
        with pytest.raises(ValueError, match="no support"):
            chain_marginals(unary, lengths, pairwise, initial)
        return
    got = chain_marginals(unary, lengths, pairwise, initial)
    assert got.shape == unary.shape
    for i, length in enumerate(lengths):
        np.testing.assert_allclose(got[i, :length], expected[i], atol=ATOL)
        assert np.all(got[i, length:] == 0.0)
