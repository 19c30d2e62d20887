"""Shared vectorized kernels for the truth-inference subsystem.

Every confusion-matrix method (DS, IBCC, HMM-Crowd, BSC-seq) and the
Logic-LNCL pseudo-E/M in :mod:`repro.core.em` needs the same four
operations over a sparse crowd:

* **confusion counts** — scatter a soft truth posterior into per-annotator
  ``(K, K)`` count matrices over the observed ``(instance, annotator,
  label)`` triples (the M-step numerator of paper Eq. 12 and of DS/IBCC);
* **emission log-likelihood** — gather ``Σ_j log π_j[m, y_ij]`` into an
  ``(N, K)`` matrix (the E-step evidence term of Eq. 13 and the HMM
  emission scores);
* **log-space normalization** — turn unnormalized log scores into a
  proper posterior;
* **row normalization** — turn nonnegative counts into distributions, a
  row with no mass uniform: every count-to-distribution step (the M-steps
  of DS, streaming DS, HMM-Crowd and Eq. 12, the MV and PM/CATD votes).
  :func:`normalize_rows` is defined beside the containers in
  :mod:`repro.crowd.types`, whose empirical ``annotator_confusion`` uses
  it too, and is re-exported here.

Both containers in :mod:`repro.crowd.types` and the
:class:`~repro.crowd.sharding.SparseLabelShard` expose the cached flat COO
views these kernels run on (``flat_label_pairs`` plus a sparse
instance × (annotator, label) incidence); each kernel is one sparse–dense
matmul against the incidence.

The module also hosts :func:`batched_forward_backward`: a length-masked
forward–backward over padded ``(I, T_max, K)`` emissions that vectorizes
across all chains at every timestep, replacing per-chain Python loops in
HMM-Crowd/BSC-seq. The seed per-chain forward–backward
(``seed_forward_backward`` in ``tests/oracles.py``) is kept as the
executable specification; equivalence (gamma, xi, log-likelihood) is
enforced at atol 1e-10 by ``tests/inference/test_primitives.py``.
"""

from __future__ import annotations

import numpy as np

from ..autodiff.dtypes import REFERENCE_DTYPE
from ..crowd.sharding import SparseLabelShard
from ..crowd.types import CrowdLabelMatrix, SequenceCrowdLabels, normalize_rows

__all__ = [
    "crowd_views",
    "confusion_counts",
    "emission_log_likelihood",
    "normalize_log_posterior",
    "annotator_agreement",
    "weighted_vote_scores",
    "normalize_rows",
    "chain_indices",
    "flat_chain_views",
    "token_majority_vote_flat",
    "scatter_to_padded",
    "split_by_offsets",
    "batched_forward_backward",
]


def crowd_views(crowd) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, object]:
    """Uniform flat view of any crowd container or shard.

    Returns ``(rows, annotators, labels, num_rows, incidence)`` where
    ``rows`` indexes instances (:class:`CrowdLabelMatrix` and
    :class:`~repro.crowd.sharding.SparseLabelShard`) or stacked tokens
    (:class:`SequenceCrowdLabels`), and ``incidence`` is the cached sparse
    ``(num_rows, J·K)`` matrix.

    Dispatch is structural beyond the built-in containers: any object
    exposing the kernel-facing surface (``flat_labels`` +
    ``token_label_incidence`` for token-level crowds, or
    ``flat_label_pairs`` + ``num_instances`` + ``label_incidence`` for
    instance-level ones, plus ``num_classes``/``num_annotators``)
    qualifies — the shard protocol :mod:`repro.inference.sharding`
    documents for user-defined out-of-core shards. The incidence method
    must return the sparse matrix: the kernels have no other path.
    """
    if isinstance(crowd, SequenceCrowdLabels) or (
        hasattr(crowd, "flat_labels") and hasattr(crowd, "token_label_incidence")
    ):
        stacked, _ = crowd.flat_labels()
        rows, annotators, given = crowd.flat_label_pairs()
        return rows, annotators, given, stacked.shape[0], crowd.token_label_incidence()
    if isinstance(crowd, (CrowdLabelMatrix, SparseLabelShard)) or (
        hasattr(crowd, "flat_label_pairs") and hasattr(crowd, "label_incidence")
    ):
        rows, annotators, given = crowd.flat_label_pairs()
        return rows, annotators, given, crowd.num_instances, crowd.label_incidence()
    raise TypeError(f"unsupported crowd container {type(crowd).__name__}")


def confusion_counts(posterior: np.ndarray, crowd) -> np.ndarray:
    """Soft confusion counts ``C[j, m, n] = Σ_r posterior[r, m]·1[y_rj = n]``.

    ``posterior`` is ``(N, K)`` over instances (classification) or stacked
    tokens (sequences). Callers add their own prior/smoothing pseudo-counts
    and normalize. One spMM against the incidence.
    """
    K = crowd.num_classes
    J = crowd.num_annotators
    posterior = np.asarray(posterior, dtype=REFERENCE_DTYPE)
    _, _, _, num_rows, incidence = crowd_views(crowd)
    if posterior.shape != (num_rows, K):
        raise ValueError(f"posterior shape {posterior.shape} != ({num_rows}, {K})")
    summed = np.asarray(incidence.T @ posterior)              # (J·K, K)
    # summed[(j, n), m] → counts[j, m, n]
    return summed.reshape(J, K, K).transpose(0, 2, 1)


def emission_log_likelihood(crowd, log_confusions: np.ndarray) -> np.ndarray:
    """``L[r, m] = Σ_{j∈J(r)} log π_j[m, y_rj]`` for every row, ``(N, K)``.

    The evidence term of every E-step: rows with no annotations get zeros
    (log 1). ``log_confusions`` is ``(J, K, K)``.
    """
    K = crowd.num_classes
    J = crowd.num_annotators
    *_, incidence = crowd_views(crowd)
    if log_confusions.shape != (J, K, K):
        raise ValueError(f"log_confusions shape {log_confusions.shape} != ({J}, {K}, {K})")
    # (J·K, K): row (j, y) holds log π_j[:, y] — annotator j's per-true-class
    # log-likelihood of emitting label y.
    by_label = np.ascontiguousarray(log_confusions.transpose(0, 2, 1)).reshape(J * K, K)
    return np.asarray(incidence @ by_label)


def annotator_agreement(posterior: np.ndarray, crowd) -> np.ndarray:
    """``A[j] = Σ_r posterior[r, y_rj]`` over observed labels, shape ``(J,)``.

    The agreement term of the truth-discovery weight updates (PM's expected
    non-error, CATD's complement of the error sum): gather each observed
    label's soft-truth mass, then one scatter-add per annotator. Runs
    directly on the cached COO triples — no incidence needed, O(n_obs) instead
    of the dense ``(I, J, K)`` agreement einsum.
    """
    posterior = np.asarray(posterior, dtype=REFERENCE_DTYPE)
    rows, annotators, given, num_rows, _ = crowd_views(crowd)
    if posterior.shape != (num_rows, crowd.num_classes):
        raise ValueError(
            f"posterior shape {posterior.shape} != ({num_rows}, {crowd.num_classes})"
        )
    return np.bincount(
        annotators, weights=posterior[rows, given], minlength=crowd.num_annotators
    )


def weighted_vote_scores(weights: np.ndarray, crowd) -> np.ndarray:
    """``S[r, k] = Σ_{j : y_rj = k} w_j`` — annotator-weighted votes, ``(N, K)``.

    The voting step of PM/CATD: one spMM of the cached incidence against a
    ``(J·K, K)`` weight scatter. Rows with no labels come back zero
    (callers decide the tie/empty policy).
    """
    K = crowd.num_classes
    J = crowd.num_annotators
    weights = np.asarray(weights, dtype=REFERENCE_DTYPE)
    if weights.shape != (J,):
        raise ValueError(f"weights shape {weights.shape} != ({J},)")
    *_, incidence = crowd_views(crowd)
    spread = np.zeros((J * K, K))
    spread[np.arange(J * K), np.tile(np.arange(K), J)] = np.repeat(weights, K)
    return np.asarray(incidence @ spread)


def normalize_log_posterior(log_posterior: np.ndarray) -> np.ndarray:
    """Row-wise softmax of unnormalized log scores (max-shifted; returns a
    new array, the input is left untouched)."""
    log_posterior = log_posterior - log_posterior.max(axis=1, keepdims=True)
    posterior = np.exp(log_posterior)
    posterior /= posterior.sum(axis=1, keepdims=True)
    return posterior


def scatter_to_padded(
    flat: np.ndarray,
    num_chains: int,
    T_max: int,
    chain_index: np.ndarray,
    time_index: np.ndarray,
) -> np.ndarray:
    """Scatter a flat ``(ΣT_i, K)`` array into zero-padded ``(I, T_max, K)``."""
    padded = np.zeros((num_chains, T_max, flat.shape[1]))
    padded[chain_index, time_index] = flat
    return padded


def split_by_offsets(flat: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    """Split a flat stacked array back into its per-chain blocks."""
    return [flat[offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)]


# --------------------------------------------------------------------- #
# Batched forward–backward
# --------------------------------------------------------------------- #
def chain_indices(offsets: np.ndarray):
    """Flat↔padded index plumbing for a ragged layout given row offsets.

    Returns ``(lengths, chain_index, time_index, T_max)``; for any stacked
    ``(ΣT_i, K)`` array following the offsets,
    ``padded[chain_index, time_index] == flat``.
    """
    lengths = np.diff(offsets).astype(np.int64)
    chain_index = np.repeat(np.arange(lengths.size), lengths)
    time_index = np.arange(int(offsets[-1]) if lengths.size else 0) - np.repeat(
        offsets[:-1], lengths
    )
    T_max = int(lengths.max()) if lengths.size else 0
    return lengths, chain_index, time_index, T_max


def flat_chain_views(crowd: SequenceCrowdLabels):
    """Per-crowd chain plumbing for the batched sequence E-step.

    Returns ``(offsets, lengths, starts, chain_index, time_index, T_max)``
    where ``starts`` holds the flat row of each non-empty sentence's first
    token (for initial-distribution counts).
    """
    _, offsets = crowd.flat_labels()
    lengths, chain_index, time_index, T_max = chain_indices(offsets)
    starts = offsets[:-1][lengths > 0]
    return offsets, lengths, starts, chain_index, time_index, T_max


def token_majority_vote_flat(crowd: SequenceCrowdLabels, prior: float = 1e-3) -> np.ndarray:
    """Token-level majority-vote initialization, flat ``(ΣT_i, K)``."""
    return normalize_rows(crowd.token_vote_counts_flat() + prior)


def batched_forward_backward(
    log_emissions: np.ndarray,
    log_transition: np.ndarray,
    log_initial: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled forward–backward over all chains at once.

    Parameters
    ----------
    log_emissions:
        ``(I, T_max, K)`` padded log emission likelihoods; ``-inf`` (log 0)
        marks a label a token cannot take. Entries at or beyond each
        chain's length are ignored but must be finite (pad with zeros, as
        :func:`scatter_to_padded` does).
    log_transition:
        ``(K, K)`` log transition matrix shared by all chains.
    log_initial:
        ``(K,)`` log initial distribution.
    lengths:
        ``(I,)`` chain lengths in ``[0, T_max]``; a zero-length chain
        yields all-zero gamma and xi rows and zero log evidence.

    Returns
    -------
    ``(gamma, xi_sum, log_likelihood)`` — per-token marginals
    ``(I, T_max, K)`` (zero past each chain's length), per-chain summed
    pairwise marginals ``(I, K, K)``, and per-chain log evidence ``(I,)``.
    Matches the seed per-chain forward–backward (``tests/oracles.py``)
    on every chain; each timestep is one ``(I, K) @ (K, K)`` matmul across
    all chains instead of ``I`` separate vector–matrix products.

    Raises
    ------
    ValueError
        On malformed lengths, or when some chain has no support at a
        position ``t`` (every label path through ``t``, the first token
        included, has zero potential).
    """
    I, T_max, K = log_emissions.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (I,):
        raise ValueError(f"lengths shape {lengths.shape} != ({I},)")
    if lengths.min(initial=0) < 0 or lengths.max(initial=0) > T_max:
        raise ValueError("lengths must lie in [0, T_max]")
    if T_max == 0:
        return np.zeros((I, 0, K)), np.zeros((I, K, K)), np.zeros(I)

    shift = log_emissions.max(axis=2, keepdims=True)          # (I, T_max, 1)
    # A position where every label is log 0 keeps a zero shift: its
    # emissions vanish and the support check below reports it.
    shift[np.isneginf(shift)] = 0.0
    emissions = np.exp(log_emissions - shift)
    transition = np.exp(log_transition)
    initial = np.exp(log_initial - log_initial.max())
    initial = initial / initial.sum()
    active = np.arange(T_max)[None, :] < lengths[:, None]     # (I, T_max)

    # Forward. Padded positions (emissions exp(0 - 0) = 1) evolve into
    # harmless, well-normalized alphas — they are masked out of gamma, xi,
    # and the evidence below, so no per-step masking is needed.
    alpha = np.zeros((I, T_max, K))
    scales = np.ones((I, T_max))
    step = initial[None, :] * emissions[:, 0]
    for t in range(T_max):
        if t:
            step = emissions[:, t] * (alpha[:, t - 1] @ transition)
        totals = step.sum(axis=1)
        if (totals <= 0).any():
            bad = active[:, t] & (totals <= 0)
            if bad.any():
                raise ValueError(
                    f"chain {int(np.nonzero(bad)[0][0])} has no support at position {t}"
                )
            totals = np.where(totals > 0, totals, 1.0)
        alpha[:, t] = step / totals[:, None]
        scales[:, t] = totals

    # Backward. Chains ending at t keep beta[t] = 1 (their last token);
    # longer chains pull mass back from t+1.
    beta = np.ones((I, T_max, K))
    for t in range(T_max - 2, -1, -1):
        step = (emissions[:, t + 1] * beta[:, t + 1]) @ transition.T
        step /= np.maximum(step.sum(axis=1, keepdims=True), 1e-300)
        beta[:, t] = np.where((lengths > t + 1)[:, None], step, 1.0)

    gamma = alpha * beta
    gamma_sums = gamma.sum(axis=2, keepdims=True)
    gamma /= np.where(gamma_sums > 0, gamma_sums, 1.0)
    gamma *= active[:, :, None]

    # Pairwise marginals. xi_t ∝ (α_t ⊗ b_{t+1}) ⊙ A with b = emissions·β,
    # normalized per (chain, t); because A is shared, the whole time sum
    # collapses to one outer-product accumulation:
    #   xi_chain = A ⊙ Σ_t (α_t / total_t) ⊗ b_{t+1},
    # with total_t = (α_t A) · b_{t+1} — no per-timestep (I, K, K) loop.
    if T_max > 1:
        b_next = emissions[:, 1:] * beta[:, 1:]               # (I, T-1, K)
        propagated = alpha[:, :-1] @ transition               # (I, T-1, K)
        totals = np.einsum("itk,itk->it", propagated, b_next)
        pair = active[:, 1:] & (totals > 0)                   # t and t+1 both real
        weights = np.where(pair, 1.0 / np.where(totals > 0, totals, 1.0), 0.0)
        xi_sum = transition[None, :, :] * np.einsum(
            "itm,itn->imn", alpha[:, :-1] * weights[:, :, None], b_next
        )
    else:
        xi_sum = np.zeros((I, K, K))

    log_scales = np.where(active, np.log(scales), 0.0)
    log_likelihood = log_scales.sum(axis=1) + (shift[:, :, 0] * active).sum(axis=1)
    return gamma, xi_sum, log_likelihood
