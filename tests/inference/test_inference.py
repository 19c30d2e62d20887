"""Tests for the truth-inference baselines (classification)."""

import numpy as np
import pytest

from repro.autodiff.dtypes import equivalence_atol
from repro.crowd import (
    MISSING,
    CrowdLabelMatrix,
    sample_annotator_pool,
    simulate_classification_crowd,
)
from repro.eval import posterior_accuracy
from repro.inference import (
    CATD,
    GLAD,
    IBCC,
    PM,
    DawidSkene,
    InferenceResult,
    MajorityVote,
    majority_vote_posterior,
)

M = MISSING


def _simulated(seed=0, I=400, J=25, mean=5.0, num_classes=2):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, num_classes, size=I)
    pool = sample_annotator_pool(rng, J, num_classes)
    crowd = simulate_classification_crowd(rng, truth, pool, mean_labels_per_instance=mean)
    return truth, crowd


class TestInferenceResult:
    def test_posterior_must_normalize(self):
        with pytest.raises(ValueError):
            InferenceResult(posterior=np.array([[0.5, 0.2]]))

    def test_hard_labels(self):
        result = InferenceResult(posterior=np.array([[0.9, 0.1], [0.3, 0.7]]))
        np.testing.assert_array_equal(result.hard_labels(), [0, 1])


class TestMajorityVote:
    def test_vote_fractions(self):
        crowd = CrowdLabelMatrix(np.array([[0, 0, 1], [1, M, M]]), 2)
        posterior = majority_vote_posterior(crowd)
        np.testing.assert_allclose(
            posterior, [[2 / 3, 1 / 3], [0, 1]], atol=equivalence_atol("float64")
        )

    def test_unlabeled_instance_uniform(self):
        crowd = CrowdLabelMatrix(np.array([[M, M], [0, 0]]), 2)
        posterior = majority_vote_posterior(crowd)
        np.testing.assert_allclose(posterior[0], [0.5, 0.5], atol=equivalence_atol("float64"))

    def test_reasonable_on_simulation(self):
        truth, crowd = _simulated()
        accuracy = posterior_accuracy(truth, MajorityVote().infer(crowd).posterior)
        assert accuracy > 0.8


class TestDawidSkene:
    def test_beats_mv_on_heterogeneous_crowd(self):
        truth, crowd = _simulated(seed=1, I=600, J=30, mean=5.0)
        mv = posterior_accuracy(truth, MajorityVote().infer(crowd).posterior)
        ds = posterior_accuracy(truth, DawidSkene().infer(crowd).posterior)
        assert ds >= mv - 0.005  # DS should match or beat MV

    def test_recovers_confusion_matrices(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 2, size=2000)
        pool = sample_annotator_pool(rng, 8, 2)
        crowd = simulate_classification_crowd(rng, truth, pool, mean_labels_per_instance=6.0)
        result = DawidSkene().infer(crowd)
        active = crowd.annotations_per_annotator() > 200
        if active.sum() < 2:
            pytest.skip("too few active annotators in this draw")
        error = np.abs(result.confusions[active] - pool.confusions[active]).mean()
        assert error < 0.1

    def test_converges_and_reports_iterations(self):
        truth, crowd = _simulated()
        result = DawidSkene().infer(crowd)
        assert result.extras["iterations"] <= 100

    def test_rejects_empty_instances(self):
        crowd = CrowdLabelMatrix(np.array([[M, M], [0, 1]]), 2)
        with pytest.raises(ValueError):
            DawidSkene().infer(crowd)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            DawidSkene(max_iterations=0)
        with pytest.raises(ValueError):
            DawidSkene(smoothing=-1.0)


class TestGLAD:
    def test_binary_only(self):
        crowd = CrowdLabelMatrix(np.array([[0, 1, 2]]), 3)
        with pytest.raises(ValueError):
            GLAD().infer(crowd)

    def test_accuracy_on_simulation(self):
        truth, crowd = _simulated(seed=3)
        glad = posterior_accuracy(truth, GLAD().infer(crowd).posterior)
        mv = posterior_accuracy(truth, MajorityVote().infer(crowd).posterior)
        assert glad >= mv - 0.02

    def test_ability_identifies_spammer(self):
        rng = np.random.default_rng(4)
        truth = rng.integers(0, 2, size=800)
        # Two perfect annotators, one uniform spammer, all labeling everything.
        labels = np.stack([truth, truth, rng.integers(0, 2, size=800)], axis=1)
        crowd = CrowdLabelMatrix(labels, 2)
        result = GLAD().infer(crowd)
        alpha = result.extras["alpha"]
        assert alpha[2] < alpha[0]
        assert alpha[2] < alpha[1]

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            GLAD(prior_correct=0.0)
        with pytest.raises(ValueError):
            GLAD(em_iterations=0)

    def test_tolerance_enables_early_stop(self):
        truth, crowd = _simulated(seed=12)
        eager = GLAD(tolerance=1e9).infer(crowd)
        assert eager.extras["iterations"] == 1
        assert eager.extras["converged"]
        # Default tolerance 0.0 never stops early (the paper's fixed budget).
        full = GLAD().infer(crowd)
        assert full.extras["iterations"] == GLAD().em_iterations
        assert not full.extras["converged"]


class TestPMAndCATD:
    @pytest.mark.parametrize("method_cls", [PM, CATD])
    def test_matches_or_beats_mv(self, method_cls):
        truth, crowd = _simulated(seed=5)
        score = posterior_accuracy(truth, method_cls().infer(crowd).posterior)
        mv = posterior_accuracy(truth, MajorityVote().infer(crowd).posterior)
        assert score >= mv - 0.02

    @pytest.mark.parametrize("method_cls", [PM, CATD])
    def test_weights_favor_good_annotators(self, method_cls):
        # Two reliable annotators plus one spammer (a 2-annotator crowd is
        # degenerate for agreement-based weighting: every label always gets
        # at least half the soft vote).
        rng = np.random.default_rng(6)
        truth = rng.integers(0, 2, size=600)
        labels = np.stack([truth, truth, rng.integers(0, 2, size=600)], axis=1)
        crowd = CrowdLabelMatrix(labels, 2)
        weights = method_cls().infer(crowd).extras["weights"]
        assert weights[0] > weights[2]
        assert weights[1] > weights[2]

    def test_pm_validation(self):
        with pytest.raises(ValueError):
            PM(max_iterations=0)

    def test_catd_validation(self):
        with pytest.raises(ValueError):
            CATD(alpha=0.0)

    def test_catd_downweights_scarce_annotators(self):
        # Annotator 1 agrees with the consensus whenever present but has
        # only a handful of labels; CATD must not give it a huge weight.
        rng = np.random.default_rng(7)
        truth = rng.integers(0, 2, size=300)
        labels = np.stack([truth.copy(), truth.copy(), np.full(300, M)], axis=1)
        labels[:5, 2] = truth[:5]
        crowd = CrowdLabelMatrix(labels, 2)
        weights = CATD().infer(crowd).extras["weights"]
        assert weights[2] < weights[0]


class TestIBCC:
    def test_matches_or_beats_ds_on_sparse_annotators(self):
        truth, crowd = _simulated(seed=8, I=300, J=60, mean=3.0)
        ds = posterior_accuracy(truth, DawidSkene().infer(crowd).posterior)
        ibcc = posterior_accuracy(truth, IBCC().infer(crowd).posterior)
        assert ibcc >= ds - 0.03

    def test_returns_confusions(self):
        truth, crowd = _simulated(seed=9)
        result = IBCC().infer(crowd)
        assert result.confusions.shape == (crowd.num_annotators, 2, 2)
        np.testing.assert_allclose(result.confusions.sum(axis=2), 1.0, atol=1e-9)

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            IBCC(prior_diagonal=0.0)


class TestGLADGradientConvergence:
    """GLAD's inner gradient ascent must actually *work*, not just run: on
    a separable crowd (two experts, three coin-flippers, one adversary)
    only learned abilities — including a *negative* one — beat equal-vote
    majority voting."""

    def test_beats_mv_on_separable_heterogeneous_crowd(self):
        rng = np.random.default_rng(42)
        truth = rng.integers(0, 2, size=600)
        accuracies = (0.95, 0.93, 0.57, 0.55, 0.55, 0.12)
        columns = [
            np.where(rng.random(600) < p, truth, 1 - truth) for p in accuracies
        ]
        crowd = CrowdLabelMatrix(np.stack(columns, axis=1), 2)
        mv = posterior_accuracy(truth, MajorityVote().infer(crowd).posterior)
        result = GLAD().infer(crowd)
        glad = posterior_accuracy(truth, result.posterior)
        assert glad > mv
        assert glad > 0.9
        # The adversary is identified by sign, not merely down-weighted.
        assert result.extras["alpha"][-1] < 0
        assert result.extras["alpha"][0] > result.extras["alpha"][2]

    def test_learns_negative_ability_for_adversaries(self):
        rng = np.random.default_rng(43)
        truth = rng.integers(0, 2, size=500)
        labels = np.stack(
            [truth, truth, np.where(rng.random(500) < 0.1, truth, 1 - truth)], axis=1
        )
        result = GLAD().infer(CrowdLabelMatrix(labels, 2))
        assert result.extras["alpha"][2] < 0  # adversary, not merely noisy
        assert result.extras["iterations"] == GLAD().em_iterations


class TestWeightedVotingDegenerateCrowds:
    """PM/CATD on single-annotator and unanimous crowds: the agreement
    terms hit their boundary values (error → 0) and must stay finite."""

    @pytest.mark.parametrize("method_cls", [PM, CATD])
    def test_single_annotator_crowd_no_nans(self, method_cls):
        rng = np.random.default_rng(44)
        labels = rng.integers(0, 3, size=(40, 1))
        result = method_cls().infer(CrowdLabelMatrix(labels, 3))
        assert np.isfinite(result.posterior).all()
        assert np.isfinite(result.extras["weights"]).all()
        # The lone annotator's labels are the only evidence: posterior must
        # follow them exactly.
        np.testing.assert_array_equal(result.hard_labels(), labels[:, 0])

    @pytest.mark.parametrize("method_cls", [PM, CATD])
    def test_unanimous_crowd_no_nans(self, method_cls):
        rng = np.random.default_rng(45)
        truth = rng.integers(0, 2, size=80)
        labels = np.repeat(truth[:, None], 4, axis=1)
        result = method_cls().infer(CrowdLabelMatrix(labels, 2))
        assert np.isfinite(result.posterior).all()
        assert np.isfinite(result.extras["weights"]).all()
        np.testing.assert_array_equal(result.hard_labels(), truth)
        assert result.extras["converged"]


class TestAgainstKnownOptimum:
    def test_all_methods_perfect_on_noiseless_crowd(self):
        rng = np.random.default_rng(10)
        truth = rng.integers(0, 2, size=100)
        labels = np.stack([truth] * 3, axis=1)
        crowd = CrowdLabelMatrix(labels, 2)
        for method in (MajorityVote(), DawidSkene(), GLAD(), PM(), CATD(), IBCC()):
            result = method.infer(crowd)
            assert posterior_accuracy(truth, result.posterior) == 1.0, method.name
