"""Equivalence tests: vectorized sequence-EM vs. the loop references.

The vectorized Eq. 12 / Eq. 13 implementations (flat token matrix + sparse
incidence / bincount accumulation) must match the per-sentence /
per-annotator loop implementations on random ragged crowds, including the
degenerate cases (annotators who labeled nothing, sentences with a single
annotator).
"""

import numpy as np
import pytest

from repro.core.em import sequence_posterior_qa, sequence_update_confusions
from repro.crowd.types import MISSING, SequenceCrowdLabels

from ..oracles import (
    seed_sequence_posterior_qa,
    seed_sequence_update_confusions,
    seed_token_vote_counts,
)


def random_crowd(seed, instances=40, annotators=11, classes=5, t_max=12):
    rng = np.random.default_rng(seed)
    labels = []
    for i in range(instances):
        t = int(rng.integers(1, t_max + 1))
        matrix = np.full((t, annotators), MISSING, dtype=np.int64)
        # 1..4 annotators per sentence; annotator 0 never labels anything.
        chosen = rng.choice(np.arange(1, annotators), size=rng.integers(1, 5), replace=False)
        for j in chosen:
            matrix[:, j] = rng.integers(0, classes, size=t)
        labels.append(matrix)
    crowd = SequenceCrowdLabels(labels, classes, annotators)
    qf = [rng.dirichlet(np.ones(classes), size=m.shape[0]) for m in labels]
    proba = [rng.dirichlet(np.ones(classes), size=m.shape[0]) for m in labels]
    return crowd, qf, proba


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_update_confusions_matches_reference(seed):
    crowd, qf, _ = random_crowd(seed)
    vectorized = sequence_update_confusions(qf, crowd)
    reference = seed_sequence_update_confusions(
        qf, crowd.labels, crowd.num_annotators, crowd.num_classes
    )
    np.testing.assert_allclose(vectorized, reference, atol=1e-12, rtol=0)
    # Rows are proper distributions.
    np.testing.assert_allclose(vectorized.sum(axis=2), 1.0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_posterior_qa_matches_reference(seed):
    crowd, qf, proba = random_crowd(seed)
    confusions = sequence_update_confusions(qf, crowd)
    vectorized = sequence_posterior_qa(proba, crowd, confusions)
    reference = seed_sequence_posterior_qa(proba, crowd.labels, confusions)
    assert len(vectorized) == len(reference)
    for new, old in zip(vectorized, reference):
        np.testing.assert_allclose(new, old, atol=1e-12, rtol=0)


def test_bincount_fallback_matches_sparse(monkeypatch):
    """Force the bincount path and check it agrees with the sparse one.

    Without an incidence the kernels scatter with ``bincount``; in the
    library only a ``SparseLabelShard`` built with
    ``sparse_incidence=False`` takes that path, so the test patches the
    incidence away on a whole crowd.
    """
    crowd, qf, proba = random_crowd(3)
    confusions = sequence_update_confusions(qf, crowd)
    sparse_post = sequence_posterior_qa(proba, crowd, confusions)

    crowd_no_scipy, _, _ = random_crowd(3)
    monkeypatch.setattr(
        type(crowd_no_scipy), "token_label_incidence", lambda self: None
    )
    fallback_conf = sequence_update_confusions(qf, crowd_no_scipy)
    fallback_post = sequence_posterior_qa(proba, crowd_no_scipy, confusions)
    np.testing.assert_allclose(fallback_conf, confusions, atol=1e-12, rtol=0)
    for a, b in zip(sparse_post, fallback_post):
        np.testing.assert_allclose(a, b, atol=1e-12, rtol=0)


def test_shape_validation_still_raises():
    crowd, qf, _ = random_crowd(4)
    qf[3] = qf[3][:-1]  # truncate one sentence's posterior
    with pytest.raises(ValueError):
        sequence_update_confusions(qf, crowd)


def test_flat_caches_consistent_with_loops():
    crowd, _, _ = random_crowd(5)
    stacked, offsets = crowd.flat_labels()
    assert stacked.shape[0] == sum(m.shape[0] for m in crowd.labels)
    votes_flat = crowd.token_vote_counts_flat()
    for i in range(crowd.num_instances):
        np.testing.assert_array_equal(
            votes_flat[offsets[i] : offsets[i + 1]],
            seed_token_vote_counts(crowd.labels[i], crowd.num_classes),
        )
        expected = np.nonzero((crowd.labels[i] != MISSING).all(axis=0))[0]
        np.testing.assert_array_equal(crowd.annotators_of(i), expected)
    assert crowd.annotations_per_instance().tolist() == [
        len(crowd.annotators_of(i)) for i in range(crowd.num_instances)
    ]
