"""Equivalence tests for the shared sparse-crowd kernels.

The batched forward–backward must match the per-chain reference (gamma,
xi sums, log-likelihood) on ragged chains, and the confusion-count /
emission-log-likelihood / weighted-vote kernels must agree between their
sparse-incidence and bincount fallback paths on both crowd containers
(and against the dense one-hot einsums they replaced).
"""

import numpy as np
import pytest

from repro.autodiff.dtypes import equivalence_atol
from repro.crowd.types import MISSING, CrowdLabelMatrix, SequenceCrowdLabels
from repro.inference.primitives import (
    annotator_agreement,
    batched_forward_backward,
    confusion_counts,
    crowd_views,
    emission_log_likelihood,
    normalize_log_posterior,
    normalize_vote_scores,
    weighted_vote_scores,
)

from ..oracles import seed_forward_backward


def ragged_chains(seed, instances=30, classes=6, t_max=18):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, t_max + 1, size=instances)
    lengths[0] = t_max  # pin one chain at the pad length
    lengths[1] = 1      # and one single-token chain
    chains = [np.log(rng.random((t, classes)) + 1e-3) for t in lengths]
    transition = rng.dirichlet(np.ones(classes), size=classes)
    initial = rng.dirichlet(np.ones(classes))
    return chains, lengths, np.log(transition), np.log(initial)


def classification_crowd(seed, instances=50, annotators=9, classes=4):
    rng = np.random.default_rng(seed)
    labels = np.full((instances, annotators), MISSING, dtype=np.int64)
    for i in range(instances):
        chosen = rng.choice(annotators, size=rng.integers(1, 4), replace=False)
        labels[i, chosen] = rng.integers(0, classes, size=chosen.size)
    return CrowdLabelMatrix(labels, classes)


def sequence_crowd(seed, instances=25, annotators=7, classes=5, t_max=10):
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(instances):
        t = int(rng.integers(1, t_max + 1))
        matrix = np.full((t, annotators), MISSING, dtype=np.int64)
        chosen = rng.choice(annotators, size=rng.integers(1, 4), replace=False)
        for j in chosen:
            matrix[:, j] = rng.integers(0, classes, size=t)
        sentences.append(matrix)
    return SequenceCrowdLabels(sentences, classes, annotators)


class TestBatchedForwardBackward:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_chain_reference(self, seed):
        chains, lengths, log_A, log_pi = ragged_chains(seed)
        I, K = len(chains), log_pi.size
        padded = np.zeros((I, lengths.max(), K))
        for i, chain in enumerate(chains):
            padded[i, : lengths[i]] = chain
        gamma, xi_sum, log_likelihood = batched_forward_backward(
            padded, log_A, log_pi, lengths
        )
        for i, chain in enumerate(chains):
            ref_gamma, ref_xi, ref_ll = seed_forward_backward(chain, log_A, log_pi)
            np.testing.assert_allclose(
                gamma[i, : lengths[i]], ref_gamma, atol=1e-10, rtol=0
            )
            np.testing.assert_allclose(xi_sum[i], ref_xi, atol=1e-10, rtol=0)
            np.testing.assert_allclose(log_likelihood[i], ref_ll, atol=1e-10, rtol=0)

    def test_gamma_zero_past_length(self):
        chains, lengths, log_A, log_pi = ragged_chains(3)
        I, K = len(chains), log_pi.size
        padded = np.zeros((I, lengths.max(), K))
        for i, chain in enumerate(chains):
            padded[i, : lengths[i]] = chain
        gamma, _, _ = batched_forward_backward(padded, log_A, log_pi, lengths)
        mask = np.arange(lengths.max())[None, :] >= lengths[:, None]
        assert np.all(gamma[mask] == 0.0)

    def test_single_token_chains(self):
        rng = np.random.default_rng(4)
        K = 3
        log_em = np.log(rng.random((5, 1, K)) + 0.1)
        log_pi = np.log(rng.dirichlet(np.ones(K)))
        gamma, xi_sum, _ = batched_forward_backward(
            log_em, np.zeros((K, K)), log_pi, np.ones(5, dtype=np.int64)
        )
        assert np.all(xi_sum == 0.0)
        expected = np.exp(log_em[:, 0] + log_pi)
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(gamma[:, 0], expected, atol=1e-10)

    def test_rejects_bad_lengths(self):
        log_em = np.zeros((2, 4, 3))
        with pytest.raises(ValueError):
            batched_forward_backward(log_em, np.zeros((3, 3)), np.zeros(3), np.array([-1, 4]))
        with pytest.raises(ValueError):
            batched_forward_backward(log_em, np.zeros((3, 3)), np.zeros(3), np.array([5, 4]))

    def test_zero_length_chains_masked_out(self):
        chains, lengths, log_A, log_pi = ragged_chains(6, instances=8)
        lengths = lengths.copy()
        lengths[2] = 0
        lengths[5] = 0
        I, K = len(chains), log_pi.size
        padded = np.zeros((I, lengths.max(), K))
        for i, chain in enumerate(chains):
            padded[i, : lengths[i]] = chain[: lengths[i]]
        gamma, xi_sum, log_likelihood = batched_forward_backward(
            padded, log_A, log_pi, lengths
        )
        for i in (2, 5):
            assert np.all(gamma[i] == 0.0)
            assert np.all(xi_sum[i] == 0.0)
            assert log_likelihood[i] == 0.0
        # Non-empty chains still match the per-chain reference.
        for i in (0, 1, 3):
            ref_gamma, ref_xi, ref_ll = seed_forward_backward(
                chains[i][: lengths[i]], log_A, log_pi
            )
            np.testing.assert_allclose(gamma[i, : lengths[i]], ref_gamma, atol=1e-10, rtol=0)
            np.testing.assert_allclose(xi_sum[i], ref_xi, atol=1e-10, rtol=0)

    def test_all_empty_returns_zero_shapes(self):
        gamma, xi_sum, ll = batched_forward_backward(
            np.zeros((3, 0, 2)), np.zeros((2, 2)), np.zeros(2), np.zeros(3, dtype=np.int64)
        )
        assert gamma.shape == (3, 0, 2)
        assert np.all(xi_sum == 0.0) and np.all(ll == 0.0)

    def test_no_support_raises_like_reference(self):
        # An all-zero transition matrix kills every path after t=0.
        K = 2
        log_A = np.full((K, K), -np.inf)
        with pytest.raises(ValueError, match="no support"):
            batched_forward_backward(
                np.zeros((1, 3, K)), log_A, np.log(np.full(K, 0.5)), np.array([3])
            )

    def test_first_token_without_support_raises(self):
        # Finite inputs whose first-token product underflows: the emission
        # allows only label 1, the initial distribution only label 0.
        log_em = np.zeros((2, 2, 2))
        log_em[1, 0] = [-800.0, 0.0]
        with np.errstate(invalid="raise", divide="raise"):
            with pytest.raises(ValueError, match="chain 1 has no support at position 0"):
                batched_forward_backward(
                    log_em, np.zeros((2, 2)), np.array([0.0, -800.0]), np.array([2, 2])
                )

    def test_log_zero_rules_labels_out(self):
        # -inf (log 0) rules a label out; a position with every label ruled
        # out has no support.
        log_em = np.zeros((1, 2, 2))
        log_em[0, 1, 0] = -np.inf
        gamma, _, _ = batched_forward_backward(log_em, np.zeros((2, 2)), np.zeros(2), [2])
        np.testing.assert_allclose(
            gamma[0], [[0.5, 0.5], [0.0, 1.0]], atol=equivalence_atol("float64")
        )
        log_em[0, 1, 1] = -np.inf
        with np.errstate(invalid="raise"):
            with pytest.raises(ValueError, match="chain 0 has no support at position 1"):
                batched_forward_backward(log_em, np.zeros((2, 2)), np.zeros(2), [2])


class TestSharedKernels:
    @pytest.mark.parametrize("make_crowd", [classification_crowd, sequence_crowd])
    def test_fallback_matches_sparse(self, make_crowd, monkeypatch):
        crowd = make_crowd(6)
        rng = np.random.default_rng(7)
        _, _, _, num_rows, _ = crowd_views(crowd)
        posterior = rng.dirichlet(np.ones(crowd.num_classes), size=num_rows)
        log_conf = np.log(
            rng.dirichlet(
                np.ones(crowd.num_classes),
                size=(crowd.num_annotators, crowd.num_classes),
            )
        )
        sparse_counts = confusion_counts(posterior, crowd)
        sparse_ll = emission_log_likelihood(crowd, log_conf)

        incidence_name = (
            "token_label_incidence"
            if isinstance(crowd, SequenceCrowdLabels)
            else "label_incidence"
        )
        weights = rng.random(crowd.num_annotators) + 0.1
        sparse_scores = weighted_vote_scores(weights, crowd)

        monkeypatch.setattr(type(crowd), incidence_name, lambda self: None)
        np.testing.assert_allclose(
            confusion_counts(posterior, crowd), sparse_counts, atol=1e-12, rtol=0
        )
        np.testing.assert_allclose(
            emission_log_likelihood(crowd, log_conf), sparse_ll, atol=1e-12, rtol=0
        )
        np.testing.assert_allclose(
            weighted_vote_scores(weights, crowd), sparse_scores, atol=1e-12, rtol=0
        )

    def test_counts_match_dense_einsum(self):
        crowd = classification_crowd(8)
        rng = np.random.default_rng(9)
        posterior = rng.dirichlet(np.ones(crowd.num_classes), size=crowd.num_instances)
        dense = np.einsum("im,ijn->jmn", posterior, crowd.one_hot())
        np.testing.assert_allclose(
            confusion_counts(posterior, crowd), dense, atol=1e-12, rtol=0
        )

    def test_emission_matches_dense_einsum(self):
        crowd = classification_crowd(10)
        rng = np.random.default_rng(11)
        log_conf = np.log(
            rng.dirichlet(
                np.ones(crowd.num_classes),
                size=(crowd.num_annotators, crowd.num_classes),
            )
        )
        dense = np.einsum("ijn,jmn->im", crowd.one_hot(), log_conf)
        np.testing.assert_allclose(
            emission_log_likelihood(crowd, log_conf), dense, atol=1e-12, rtol=0
        )

    def test_agreement_matches_dense_einsum(self):
        crowd = classification_crowd(16)
        rng = np.random.default_rng(17)
        posterior = rng.dirichlet(np.ones(crowd.num_classes), size=crowd.num_instances)
        agreement = np.einsum("ijk,ik->ij", crowd.one_hot(), posterior)
        dense = np.where(crowd.observed_mask, agreement, 0.0).sum(axis=0)
        np.testing.assert_allclose(
            annotator_agreement(posterior, crowd), dense, atol=1e-12, rtol=0
        )

    def test_vote_scores_match_dense_einsum(self):
        crowd = classification_crowd(18)
        rng = np.random.default_rng(19)
        weights = rng.random(crowd.num_annotators) + 0.1
        dense = np.einsum("j,ijk->ik", weights, crowd.one_hot())
        np.testing.assert_allclose(
            weighted_vote_scores(weights, crowd), dense, atol=1e-12, rtol=0
        )

    def test_normalize_vote_scores_uniform_on_empty_rows(self):
        scores = np.array([[2.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
        posterior = normalize_vote_scores(scores)
        atol = equivalence_atol("float64")
        np.testing.assert_allclose(posterior[0], [0.5, 0.5, 0.0], atol=atol)
        np.testing.assert_allclose(posterior[1], [1 / 3, 1 / 3, 1 / 3], atol=atol)

    def test_shape_validation(self):
        crowd = classification_crowd(12)
        with pytest.raises(ValueError):
            confusion_counts(np.zeros((3, crowd.num_classes)), crowd)
        with pytest.raises(ValueError):
            emission_log_likelihood(crowd, np.zeros((1, 2, 2)))
        with pytest.raises(TypeError):
            crowd_views([1, 2, 3])
        with pytest.raises(ValueError):
            annotator_agreement(np.zeros((3, crowd.num_classes)), crowd)
        with pytest.raises(ValueError):
            weighted_vote_scores(np.zeros(crowd.num_annotators + 1), crowd)

    def test_normalize_log_posterior(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(10, 4)) * 50
        posterior = normalize_log_posterior(logits)
        np.testing.assert_allclose(posterior.sum(axis=1), 1.0, atol=1e-12)
        assert np.isfinite(posterior).all()


class TestCrowdLabelMatrixViews:
    def test_pairs_and_incidence_consistent(self):
        crowd = classification_crowd(14)
        rows, cols, given = crowd.flat_label_pairs()
        assert rows.size == crowd.total_annotations()
        np.testing.assert_array_equal(crowd.labels[rows, cols], given)
        incidence = crowd.label_incidence()
        assert incidence.shape == (
            crowd.num_instances,
            crowd.num_annotators * crowd.num_classes,
        )
        assert incidence.sum() == rows.size
        # vote_counts via bincount equals the dense scatter.
        dense = np.zeros((crowd.num_instances, crowd.num_classes), dtype=np.int64)
        np.add.at(dense, (rows, given), 1)
        np.testing.assert_array_equal(crowd.vote_counts(), dense)
