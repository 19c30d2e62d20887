"""Tests for sequential truth inference (HMM-Crowd, BSC-seq, token adapters)."""

import numpy as np
import pytest

from repro.crowd import sample_ner_pool, simulate_ner_crowd
from repro.data import CONLL_LABELS, NERCorpusConfig, label_index, make_ner_task
from repro.eval import span_f1_score
from repro.inference import (
    BSCSeq,
    DawidSkene,
    HMMCrowd,
    MajorityVote,
    TokenLevelInference,
)

from ..oracles import seed_forward_backward

IDX = label_index(CONLL_LABELS)


def _ner_crowd(seed=0, sentences=80, annotators=12, mean=4.0):
    rng = np.random.default_rng(seed)
    task = make_ner_task(
        rng, NERCorpusConfig(num_train=sentences, num_dev=5, num_test=5, embedding_dim=8)
    )
    pool = sample_ner_pool(rng, annotators)
    crowd = simulate_ner_crowd(rng, task.train.tags, pool, mean_labels_per_instance=mean)
    return task, crowd


def _posterior_f1(posteriors, truth):
    predictions = [posterior.argmax(axis=1) for posterior in posteriors]
    return span_f1_score(truth, predictions).f1


class TestForwardBackward:
    def test_uniform_transition_reduces_to_independent(self):
        rng = np.random.default_rng(0)
        log_em = np.log(rng.random((6, 3)) + 0.1)
        gamma, _, _ = seed_forward_backward(log_em, np.zeros((3, 3)), np.zeros(3))
        independent = np.exp(log_em)
        independent /= independent.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(gamma, independent, atol=1e-10)

    def test_xi_rows_consistent_with_gamma(self):
        rng = np.random.default_rng(1)
        log_em = np.log(rng.random((5, 2)) + 0.1)
        log_A = np.log(rng.random((2, 2)) + 0.1)
        gamma, xi_sum, _ = seed_forward_backward(log_em, log_A, np.zeros(2))
        # Sum of pairwise marginals over "to" equals gamma of the "from"
        # tokens 0..T-2 summed.
        np.testing.assert_allclose(xi_sum.sum(axis=1), gamma[:-1].sum(axis=0), atol=1e-8)

    def test_log_likelihood_matches_brute_force(self):
        import itertools

        rng = np.random.default_rng(2)
        T, K = 3, 2
        log_em = np.log(rng.random((T, K)) + 0.1)
        A = rng.random((K, K)) + 0.1
        A /= A.sum(axis=1, keepdims=True)
        pi = np.array([0.4, 0.6])
        _, _, log_like = seed_forward_backward(log_em, np.log(A), np.log(pi))
        total = 0.0
        for seq in itertools.product(range(K), repeat=T):
            weight = pi[seq[0]] * np.exp(log_em[0, seq[0]])
            for t in range(1, T):
                weight *= A[seq[t - 1], seq[t]] * np.exp(log_em[t, seq[t]])
            total += weight
        np.testing.assert_allclose(log_like, np.log(total), atol=1e-8)


class TestFlatten:
    def test_token_level_mv(self):
        task, crowd = _ner_crowd(sentences=40)
        result = TokenLevelInference(MajorityVote()).infer(crowd)
        assert len(result.posteriors) == 40
        for posterior, tags in zip(result.posteriors, task.train.tags):
            assert posterior.shape == (len(tags), len(CONLL_LABELS))


class TestHMMCrowd:
    def test_beats_token_mv(self):
        task, crowd = _ner_crowd(seed=3)
        mv = _posterior_f1(
            TokenLevelInference(MajorityVote()).infer(crowd).posteriors, task.train.tags
        )
        hmm = _posterior_f1(HMMCrowd().infer(crowd).posteriors, task.train.tags)
        assert hmm > mv - 0.02

    def test_transition_matrix_learned(self):
        _, crowd = _ner_crowd(seed=4, sentences=60)
        result = HMMCrowd().infer(crowd)
        transition = result.extras["transition"]
        np.testing.assert_allclose(transition.sum(axis=1), 1.0, atol=1e-9)
        # O→I-X must be rarer than B-X→I-X for every type with data.
        o = IDX["O"]
        assert transition[IDX["B-PER"], IDX["I-PER"]] > transition[o, IDX["I-PER"]]

    def test_validation(self):
        with pytest.raises(ValueError):
            HMMCrowd(max_iterations=0)


class TestBSCSeq:
    def test_comparable_to_hmm_crowd(self):
        task, crowd = _ner_crowd(seed=5)
        hmm = _posterior_f1(HMMCrowd().infer(crowd).posteriors, task.train.tags)
        bsc = _posterior_f1(BSCSeq().infer(crowd).posteriors, task.train.tags)
        assert bsc > hmm - 0.1

    def test_posteriors_normalized(self):
        _, crowd = _ner_crowd(seed=6, sentences=20)
        result = BSCSeq().infer(crowd)
        for posterior in result.posteriors:
            np.testing.assert_allclose(posterior.sum(axis=1), 1.0, atol=1e-8)

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            BSCSeq(prior_diagonal=0.0)


class TestTokenDSOnSequences:
    def test_ds_token_level_runs(self):
        task, crowd = _ner_crowd(seed=7, sentences=30)
        result = TokenLevelInference(DawidSkene()).infer(crowd)
        f1 = _posterior_f1(result.posteriors, task.train.tags)
        assert 0.0 <= f1 <= 1.0
        assert result.confusions is not None

    def test_token_level_runs_share_the_crowds_token_shard(self):
        _, crowd = _ner_crowd(seed=8, sentences=20)
        TokenLevelInference(DawidSkene()).infer(crowd)
        incidence = crowd.token_shard().label_incidence()
        method = DawidSkene(smoothing=0.1)
        received = []
        run = method.infer
        method.infer = lambda shard: received.append(shard) or run(shard)
        TokenLevelInference(method).infer(crowd)
        # The second run got the crowd's cached shard, so it multiplied
        # against the incidence the first run built.
        assert len(received) == 1 and received[0] is crowd.token_shard()
        assert received[0].label_incidence() is incidence
