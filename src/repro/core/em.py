"""Pseudo-E-step posterior math shared by the classification and sequence
variants of Logic-LNCL (and by the AggNet/Raykar baselines, which are the
rule-free special case).

* :func:`update_confusions` — the Eq. 12 closed form: re-estimate every
  annotator's confusion matrix from the current final posterior ``qf``.
* :func:`posterior_qa` — the Eq. 13 Bayes update: combine the network's
  prediction with annotator likelihoods.

Sequence versions treat each (sentence, token) as an instance whose
annotator set is the sentence's annotator set.

Eq. 12 is Dawid & Skene's M-step on ``qf``: both variants normalize the
smoothed counts with :func:`repro.inference.primitives.normalize_rows`,
as DS, streaming DS and HMM-Crowd do, so a row with no mass is uniform.

Performance: all four functions run on the shared sparse-crowd kernels of
:mod:`repro.inference.primitives` — the same confusion-count scatter and
log-likelihood gather that DS/IBCC/HMM-Crowd/BSC-seq use. Both crowd
containers cache their flat COO views (``flat_label_pairs`` plus a sparse
instance × (annotator, label) incidence), so each update is one
sparse–dense product — no Python loop over instances, sentences, or
annotators. The seed per-sentence loops of the two sequence updates are
the executable specification (``seed_sequence_update_confusions`` /
``seed_sequence_posterior_qa`` in ``tests/oracles.py``), used by the
equivalence tests and as the "before" side of
``benchmarks/bench_hotpaths.py``.
"""

from __future__ import annotations

import numpy as np

from ..autodiff.dtypes import REFERENCE_DTYPE
from ..crowd.types import CrowdLabelMatrix, SequenceCrowdLabels
from ..inference.primitives import (
    confusion_counts,
    emission_log_likelihood,
    normalize_log_posterior,
    normalize_rows,
    split_by_offsets,
)

__all__ = [
    "update_confusions",
    "posterior_qa",
    "sequence_update_confusions",
    "sequence_posterior_qa",
]


def update_confusions(
    qf: np.ndarray, crowd: CrowdLabelMatrix, smoothing: float = 0.01
) -> np.ndarray:
    """Eq. 12: ``π_jmn = Σ_i qf(t_i=m)·1[y_ij=n] / Σ_i qf(t_i=m)·1[y_ij≠∅]``.

    Laplace ``smoothing`` keeps rows proper for annotators with few (or no)
    labels for some true class; at zero smoothing such a row is uniform.
    """
    qf = np.asarray(qf, dtype=REFERENCE_DTYPE)
    if qf.shape != (crowd.num_instances, crowd.num_classes):
        raise ValueError(
            f"qf shape {qf.shape} != ({crowd.num_instances}, {crowd.num_classes})"
        )
    return normalize_rows(confusion_counts(qf, crowd) + smoothing)


def posterior_qa(
    proba: np.ndarray, crowd: CrowdLabelMatrix, confusions: np.ndarray
) -> np.ndarray:
    """Eq. 13: ``qa(t_i=k) ∝ p(t_i=k|x_i;Θ) · Π_{j∈J(i)} π_j[k, y_ij]``.

    Computed in log space for stability; instances with no annotations
    reduce to the network prediction.
    """
    proba = np.asarray(proba, dtype=REFERENCE_DTYPE)
    I, K = proba.shape
    if confusions.shape != (crowd.num_annotators, K, K):
        raise ValueError(
            f"confusions shape {confusions.shape} != ({crowd.num_annotators}, {K}, {K})"
        )
    log_likelihood = emission_log_likelihood(crowd, np.log(confusions + 1e-300))
    return normalize_log_posterior(np.log(proba + 1e-300) + log_likelihood)


def _stack_ragged(arrays: list[np.ndarray], crowd: SequenceCrowdLabels) -> np.ndarray:
    """Validate per-sentence arrays against the crowd and stack to (ΣT_i, K)."""
    K = crowd.num_classes
    for i, item in enumerate(arrays):
        shape = item.shape if isinstance(item, np.ndarray) else np.asarray(item).shape
        if shape != (crowd.labels[i].shape[0], K):
            raise ValueError(f"entry {i} shape {shape} mismatches sentence")
    if not arrays:
        return np.zeros((0, K))
    return np.concatenate(arrays, axis=0).astype(REFERENCE_DTYPE, copy=False)


def sequence_update_confusions(
    qf: list[np.ndarray], crowd: SequenceCrowdLabels, smoothing: float = 0.01
) -> np.ndarray:
    """Token-level Eq. 12 over all sentences, vectorized.

    Every labeled ``(token, annotator)`` pair contributes the token's
    posterior row ``qf[t, :]`` to ``counts[j, :, y_tj]`` — the shared
    :func:`repro.inference.primitives.confusion_counts` kernel (one sparse
    matmul against the token incidence), normalized like
    :func:`update_confusions`. Matches the seed per-sentence loop
    (``tests/oracles.py``) at atol 1e-12.
    """
    gamma = _stack_ragged(qf, crowd)                          # (N, K)
    return normalize_rows(confusion_counts(gamma, crowd) + smoothing)


def sequence_posterior_qa(
    proba: list[np.ndarray], crowd: SequenceCrowdLabels, confusions: np.ndarray
) -> list[np.ndarray]:
    """Token-level Eq. 13 for every sentence, vectorized.

    The per-annotator likelihood rows ``log π_j[:, y_tj]`` are gathered and
    summed into each token by the shared
    :func:`repro.inference.primitives.emission_log_likelihood` kernel (one
    sparse matmul against the token incidence). Matches the seed
    per-sentence loop (``tests/oracles.py``) at atol 1e-12.
    """
    p = _stack_ragged(proba, crowd)                           # (N, K)
    _, offsets = crowd.flat_labels()
    log_posterior = np.log(p + 1e-300)
    log_posterior += emission_log_likelihood(crowd, np.log(confusions + 1e-300))
    return split_by_offsets(normalize_log_posterior(log_posterior), offsets)

