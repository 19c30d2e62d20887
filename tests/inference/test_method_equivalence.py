"""Vectorized truth-inference methods vs. their seed oracles.

Each reworked method (DS, IBCC, HMM-Crowd, BSC-seq) must reproduce the
pre-refactor implementation's posteriors and confusion matrices at atol
1e-10 on random crowds — including the iteration count, so convergence
behaviour is pinned too. Also covers the BSC-seq diagnostics regression:
``extras["last_change"]`` must report the change that actually triggered
convergence, not the previous sweep's.
"""

import numpy as np
import pytest

from repro.autodiff.dtypes import equivalence_atol
from repro.crowd import (
    sample_annotator_pool,
    sample_ner_pool,
    simulate_classification_crowd,
    simulate_ner_crowd,
)
from repro.data import NERCorpusConfig, make_ner_task
from repro.inference import BSCSeq, DawidSkene, HMMCrowd, IBCC

from .equivalence_harness import reference_result


def classification_crowd(seed, instances=300, annotators=15, classes=3, mean=4.0):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, classes, size=instances)
    pool = sample_annotator_pool(rng, annotators, classes)
    return simulate_classification_crowd(rng, truth, pool, mean_labels_per_instance=mean)


def ner_crowd(seed, sentences=50, annotators=8, mean=4.0):
    rng = np.random.default_rng(seed)
    task = make_ner_task(
        rng, NERCorpusConfig(num_train=sentences, num_dev=5, num_test=5, embedding_dim=8)
    )
    return simulate_ner_crowd(rng, task.train.tags, sample_ner_pool(rng, annotators), mean)


def assert_sequence_results_close(result, reference, atol=equivalence_atol("float64")):
    assert len(result.posteriors) == len(reference.posteriors)
    for new, old in zip(result.posteriors, reference.posteriors):
        np.testing.assert_allclose(new, old, atol=atol, rtol=0)
    np.testing.assert_allclose(result.confusions, reference.confusions, atol=atol, rtol=0)
    np.testing.assert_allclose(
        result.extras["transition"], reference.extras["transition"], atol=atol, rtol=0
    )
    assert result.extras["iterations"] == reference.extras["iterations"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dawid_skene_matches_reference(seed):
    crowd = classification_crowd(seed)
    result = DawidSkene().infer(crowd)
    reference = reference_result("DS", "classification", crowd)
    atol = equivalence_atol("float64")
    np.testing.assert_allclose(result.posterior, reference.posterior, atol=atol, rtol=0)
    np.testing.assert_allclose(result.confusions, reference.confusions, atol=atol, rtol=0)
    assert result.extras["iterations"] == reference.extras["iterations"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ibcc_matches_reference(seed):
    crowd = classification_crowd(seed, annotators=25, mean=3.0)
    result = IBCC().infer(crowd)
    reference = reference_result("IBCC", "classification", crowd)
    atol = equivalence_atol("float64")
    np.testing.assert_allclose(result.posterior, reference.posterior, atol=atol, rtol=0)
    np.testing.assert_allclose(result.confusions, reference.confusions, atol=atol, rtol=0)
    assert result.extras["iterations"] == reference.extras["iterations"]


@pytest.mark.parametrize("seed", [0, 1])
def test_hmm_crowd_matches_reference(seed):
    crowd = ner_crowd(seed)
    result = HMMCrowd().infer(crowd)
    reference = reference_result("HMM-Crowd", "sequence", crowd)
    assert_sequence_results_close(result, reference)
    assert "initial" in result.extras and "log_likelihood" in result.extras


@pytest.mark.parametrize("seed", [0, 1])
def test_bsc_seq_matches_reference(seed):
    crowd = ner_crowd(seed, sentences=40)
    result = BSCSeq().infer(crowd)
    reference = reference_result("BSC-seq", "sequence", crowd)
    assert_sequence_results_close(result, reference)


def test_empty_sequence_crowd_returns_degenerate_result():
    from repro.crowd.types import SequenceCrowdLabels

    empty = SequenceCrowdLabels([], num_classes=4, num_annotators=3)
    for method in (HMMCrowd(), BSCSeq()):
        result = method.infer(empty)
        assert result.posteriors == []
        assert result.confusions.shape == (3, 4, 4)
        np.testing.assert_allclose(result.confusions.sum(axis=2), 1.0, atol=1e-12)
        assert result.extras["iterations"] == 0
        assert result.extras["converged"]


def test_mixed_empty_sentences_supported():
    from repro.crowd.types import MISSING, SequenceCrowdLabels

    rng = np.random.default_rng(6)
    sentences = []
    for t in (3, 0, 2):
        matrix = np.full((t, 2), MISSING, dtype=np.int64)
        matrix[:, 0] = rng.integers(0, 3, size=t)
        matrix[:, 1] = rng.integers(0, 3, size=t)
        sentences.append(matrix)
    crowd = SequenceCrowdLabels(sentences, num_classes=3, num_annotators=2)
    for method in (HMMCrowd(max_iterations=5), BSCSeq(max_iterations=5)):
        result = method.infer(crowd)
        assert [p.shape[0] for p in result.posteriors] == [3, 0, 2]
        for posterior in result.posteriors:
            if posterior.size:
                np.testing.assert_allclose(posterior.sum(axis=1), 1.0, atol=1e-8)


def test_diagnostics_contract_present():
    crowd = classification_crowd(3)
    for method in (DawidSkene(), IBCC()):
        extras = method.infer(crowd).extras
        assert {"iterations", "last_change", "converged"} <= set(extras)
    seq_crowd = ner_crowd(3, sentences=20)
    for method in (HMMCrowd(max_iterations=5), BSCSeq(max_iterations=5)):
        extras = method.infer(seq_crowd).extras
        assert {"iterations", "last_change", "converged"} <= set(extras)
        assert "log_likelihood_trace" in extras
        assert len(extras["log_likelihood_trace"]) == extras["iterations"]


class TestBSCSeqDiagnosticsRegression:
    """``last_change`` must be the change that triggered convergence."""

    def test_last_change_is_triggering_change(self):
        crowd = ner_crowd(4, sentences=30)
        result = BSCSeq().infer(crowd)
        if result.extras["converged"]:
            # The old loop reported the *previous* sweep's change, which by
            # definition was >= tolerance; the fix reports the sub-tolerance
            # change that stopped the loop.
            assert result.extras["last_change"] < BSCSeq().tolerance
        assert np.isfinite(result.extras["last_change"])

    def test_convergence_on_first_iteration_not_inf(self):
        # A huge tolerance forces convergence on sweep 1; the old loop
        # reported last_change = inf in that case.
        crowd = ner_crowd(5, sentences=15)
        result = BSCSeq(tolerance=1e9).infer(crowd)
        assert result.extras["iterations"] == 1
        assert result.extras["converged"]
        assert np.isfinite(result.extras["last_change"])

    def test_old_behavior_really_was_stale(self):
        # Documents the bug the reference still carries: converged runs
        # report a last_change at or above tolerance (the prior sweep's).
        crowd = ner_crowd(4, sentences=30)
        reference = reference_result("BSC-seq", "sequence", crowd)
        if reference.extras["iterations"] < BSCSeq().max_iterations:
            assert reference.extras["last_change"] >= BSCSeq().tolerance
