"""Tests for the truth-inference baselines (classification)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from repro.inference.base import _row_sums
from repro.inference.glad import _sigmoid as glad_sigmoid

from .equivalence_harness import random_classification_crowd

M = MISSING


def _simulated(seed=0, I=400, J=25, mean=5.0, num_classes=2):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, num_classes, size=I)
    pool = sample_annotator_pool(rng, J, num_classes)
    crowd = simulate_classification_crowd(rng, truth, pool, mean_labels_per_instance=mean)
    return truth, crowd


def _row_sum_edges() -> list[float]:
    """Row sums at the check's edges: non-finite values, signed zeros,
    subnormals, and 1 ± 1.1e-5 (the bound) with their float neighbours."""
    edges = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0]
    for bound in (1.0 + 1.1e-5, 1.0 - 1.1e-5):
        near = [bound]
        for direction in (np.inf, -np.inf):
            step = bound
            for _ in range(2):
                step = np.nextafter(step, direction)
                near.append(float(step))
        edges += near
    return edges


@st.composite
def _posteriors(draw):
    """``(I, K)`` float64 posteriors whose rows sum to edge values: column 0
    carries the sum and the others are 0, or every entry is free."""
    rows = draw(st.integers(0, 6))
    classes = draw(st.integers(0, 4))
    value = st.one_of(
        st.sampled_from(_row_sum_edges()),
        st.floats(1.0 - 3e-5, 1.0 + 3e-5),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
    if draw(st.booleans()) and classes:
        posterior = np.zeros((rows, classes))
        posterior[:, 0] = draw(st.lists(value, min_size=rows, max_size=rows))
        return posterior
    return draw(hnp.arrays(np.float64, (rows, classes), elements=value))


class TestInferenceResult:
    def test_posterior_must_normalize(self):
        with pytest.raises(ValueError):
            InferenceResult(posterior=np.array([[0.5, 0.2]]))

    @settings(max_examples=300, deadline=None)
    @given(posterior=_posteriors())
    @example(posterior=np.zeros((0, 3)))
    @example(posterior=np.zeros((2, 0)))
    @example(posterior=np.array([[1.0 + 1.1e-5], [np.nextafter(1.0 - 1.1e-5, 0.0)]]))
    def test_row_check_accepts_exactly_what_allclose_did(self, posterior):
        # The check's contract is the accept set of the call it replaced.
        with np.errstate(all="ignore"):
            accepted = bool(np.allclose(posterior.sum(axis=1), 1.0, atol=1e-6))
            try:
                InferenceResult(posterior=posterior)
            except ValueError:
                assert not accepted
            else:
                assert accepted

    @pytest.mark.parametrize("classes", range(0, 11))
    def test_row_sums_are_numpys(self, classes):
        # The check's sums must be the ones allclose was given, bit for
        # bit (signed zeros and NaN included).
        rng = np.random.default_rng(classes)
        posterior = rng.random((64, classes)) * rng.choice([1e-300, 1e-3, 1.0, 1e16], size=(64, classes))
        posterior[rng.random(posterior.shape) < 0.1] *= -1.0
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324])
        posterior[rng.random(posterior.shape) < 0.1] = rng.choice(specials)
        posterior[:4] = -0.0
        with np.errstate(all="ignore"):
            got, want = _row_sums(posterior), posterior.sum(axis=1)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_row_check_bound_is_1_1e_5(self):
        for bound in (1.0 + 1.1e-5, 1.0 - 1.1e-5):
            InferenceResult(posterior=np.array([[bound]]))
            outward = np.nextafter(bound, np.inf if bound > 1.0 else -np.inf)
            with pytest.raises(ValueError):
                InferenceResult(posterior=np.array([[outward]]))

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


def _two_branch_sigmoid(x):
    """GLAD's sigmoid before it took one ``exp``: the reference form."""
    return np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.abs(x))),
        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
    )


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

    def test_sigmoid_matches_the_two_branch_form(self):
        # Zeros, infinities, NaN, subnormals, and the magnitudes where
        # exp(-|x|) goes subnormal (708, 745) and then underflows to 0.
        edge = np.array([0.0, np.inf, np.nan, 5e-324, 1e-300, 708.0, 745.0, 746.0, 800.0])
        draws = np.random.default_rng(29).uniform(-50.0, 50.0, size=100_000)
        x = np.concatenate([edge, -edge, draws])
        got, want = glad_sigmoid(x), _two_branch_sigmoid(x)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


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

    @pytest.mark.parametrize("num_classes", [2, 3, 5])
    @pytest.mark.parametrize("seed", range(12))
    def test_catd_label_less_annotator_weighs_zero(self, seed, num_classes):
        # A χ² with zero degrees of freedom is the point mass at 0: an
        # annotator with no labels weighs 0 and cannot rescale the others.
        crowd = random_classification_crowd(seed, 200, 8, num_classes)
        column = seed % (crowd.num_annotators + 1)
        widened = CrowdLabelMatrix(np.insert(crowd.labels, column, M, axis=1), num_classes)
        base, result = CATD().infer(crowd), CATD().infer(widened)
        weights = result.extras["weights"]
        assert weights[column] == 0.0
        np.testing.assert_array_equal(np.delete(weights, column), base.extras["weights"])
        np.testing.assert_array_equal(result.posterior, base.posterior)

    def test_catd_reports_zero_weights_when_nobody_labels(self):
        result = CATD().infer(CrowdLabelMatrix(np.zeros((0, 4), dtype=np.int64), 2))
        np.testing.assert_array_equal(result.extras["weights"], np.zeros(4))


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
