"""Property-based tests for the EM math against brute-force references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import posterior_qa, update_confusions
from repro.crowd import MISSING, CrowdLabelMatrix
from repro.logic import chain_marginals, distill_posterior


def _random_crowd(rng, I, J, K, missing_rate=0.4):
    labels = rng.integers(0, K, size=(I, J))
    mask = rng.random((I, J)) < missing_rate
    labels = np.where(mask, MISSING, labels)
    # Guarantee at least one label per instance.
    for i in range(I):
        if (labels[i] == MISSING).all():
            labels[i, rng.integers(J)] = rng.integers(K)
    return CrowdLabelMatrix(labels, K)


def _random_posterior(rng, I, K):
    q = rng.random((I, K)) + 1e-3
    return q / q.sum(axis=1, keepdims=True)


def _brute_force_confusions(qf, crowd, smoothing):
    J, K = crowd.num_annotators, crowd.num_classes
    out = np.zeros((J, K, K))
    for j in range(J):
        counts = np.full((K, K), smoothing)
        for i in range(crowd.num_instances):
            label = crowd.labels[i, j]
            if label == MISSING:
                continue
            for m in range(K):
                counts[m, label] += qf[i, m]
        out[j] = counts / counts.sum(axis=1, keepdims=True)
    return out


def _brute_force_qa(proba, crowd, confusions):
    I, K = proba.shape
    out = np.zeros((I, K))
    for i in range(I):
        for k in range(K):
            value = proba[i, k]
            for j in range(crowd.num_annotators):
                label = crowd.labels[i, j]
                if label != MISSING:
                    value *= confusions[j, k, label]
            out[i, k] = value
        out[i] /= out[i].sum()
    return out


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_property_eq12_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    crowd = _random_crowd(rng, I=15, J=4, K=3)
    qf = _random_posterior(rng, 15, 3)
    fast = update_confusions(qf, crowd, smoothing=0.05)
    slow = _brute_force_confusions(qf, crowd, smoothing=0.05)
    np.testing.assert_allclose(fast, slow, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_property_eq13_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    crowd = _random_crowd(rng, I=12, J=4, K=3)
    proba = _random_posterior(rng, 12, 3)
    confusions = np.stack(
        [update_confusions(_random_posterior(rng, 12, 3), crowd, 0.1)[j] for j in range(4)]
    )
    fast = posterior_qa(proba, crowd, confusions)
    slow = _brute_force_qa(proba, crowd, confusions)
    np.testing.assert_allclose(fast, slow, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), C=st.floats(0.1, 8.0))
def test_property_distillation_reduces_expected_penalty(seed, C):
    """E_qb[penalty] ≤ E_qa[penalty]: the projection moves toward the rules."""
    rng = np.random.default_rng(seed)
    qa = _random_posterior(rng, 8, 4)
    penalties = rng.random((8, 4)) * 2
    qb = distill_posterior(qa, penalties, C)
    expected_before = (qa * penalties).sum(axis=1)
    expected_after = (qb * penalties).sum(axis=1)
    assert np.all(expected_after <= expected_before + 1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_property_chain_distillation_reduces_invalid_transition_mass(seed):
    """Chain marginals shift mass off rule-violating transitions."""
    from repro.logic import bio_transition_rules

    rng = np.random.default_rng(seed)
    labels = ["O", "B-PER", "I-PER"]
    rules = bio_transition_rules(labels)
    T = 6
    qa = _random_posterior(rng, T, 3)
    qb = chain_marginals(qa[None], [T], rules.pairwise_potential(5.0), rules.initial_potential(5.0))[0]
    # First-token I-PER mass must not grow.
    assert qb[0, 2] <= qa[0, 2] + 1e-9
    np.testing.assert_allclose(qb.sum(axis=1), 1.0, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_property_qa_sharpness_grows_with_annotations(seed):
    """More (consistent) annotations → more confident qa."""
    rng = np.random.default_rng(seed)
    K = 2
    proba = np.array([[0.5, 0.5]])
    sharp = np.array([[0.8, 0.2], [0.2, 0.8]])
    few = CrowdLabelMatrix(np.array([[1, MISSING, MISSING]]), K)
    many = CrowdLabelMatrix(np.array([[1, 1, 1]]), K)
    confusions = np.stack([sharp] * 3)
    qa_few = posterior_qa(proba, few, confusions)
    qa_many = posterior_qa(proba, many, confusions)
    assert qa_many[0, 1] >= qa_few[0, 1]


class TestExamplesCompile:
    """Examples must at least be syntactically valid and importable."""

    @pytest.mark.parametrize(
        "name",
        [
            "quickstart",
            "ner_crowdsourcing",
            "custom_rules",
            "truth_inference_comparison",
            "weak_supervision",
        ],
    )
    def test_example_compiles(self, name):
        import pathlib
        import py_compile

        path = pathlib.Path(__file__).parents[2] / "examples" / f"{name}.py"
        assert path.exists(), path
        py_compile.compile(str(path), doraise=True)
