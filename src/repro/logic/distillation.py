"""Posterior regularization with logic rules (paper Eq. 14–15).

The pseudo-E-step projects the model posterior ``qa(t)`` onto the subspace
that (softly) respects the rule set, solving

    min_{qb, ξ≥0}  KL(qb ‖ qa) + C Σ_l ξ_l
    s.t.           w_l (1 - E_qb[v_l(x, t)]) ≤ ξ_l

whose closed form (paper Eq. 15) is

    qb(t) ∝ qa(t) · exp{ -C Σ_l w_l (1 - v_l(x, t)) }.

Two computational realizations are provided:

* :func:`distill_posterior` — per-instance categorical labels
  (sentiment classification); penalties are a dense ``(B, K)`` array.
* :func:`chain_marginals` — label *sequences* whose rules couple adjacent
  labels (the NER transition rules). Enumerating all ``K^T`` sequences is
  intractable, but the regularized joint factorizes over a chain, so the
  per-token marginals of ``qb`` are computed exactly with the
  forward–backward dynamic program the paper alludes to ("we can use
  dynamic programming for efficient computation in Equation 15"). The
  chains of a whole corpus are padded to ``(I, T_max, K)`` and run through
  the length-masked :func:`repro.inference.primitives.batched_forward_backward`
  together, so one pseudo-E-step sweep is one call.
"""

from __future__ import annotations

import numpy as np

from ..inference.primitives import batched_forward_backward

__all__ = ["distill_posterior", "chain_marginals"]


def distill_posterior(qa: np.ndarray, penalties: np.ndarray, C: float) -> np.ndarray:
    """Closed-form solution of Eq. 15 for categorical posteriors.

    Parameters
    ----------
    qa:
        ``(B, K)`` rows of the model posterior (each row sums to 1).
    penalties:
        ``(B, K)`` of ``Σ_l w_l (1 - v_l(x_i, t=k))``; zero rows mean "no
        rule grounded on this instance", which leaves ``qb = qa``.
    C:
        Regularization strength (paper uses 5.0 on both datasets).

    Returns
    -------
    ``(B, K)`` rule-regularized posterior ``qb``.
    """
    qa = np.asarray(qa, dtype=np.float64)
    penalties = np.asarray(penalties, dtype=np.float64)
    if qa.shape != penalties.shape:
        raise ValueError(f"qa shape {qa.shape} != penalties shape {penalties.shape}")
    if C < 0:
        raise ValueError(f"C must be non-negative, got {C}")
    if np.any(penalties < -1e-9):
        raise ValueError("penalties must be non-negative")

    # Subtract the row minimum before exponentiating for numerical safety;
    # the normalization absorbs the constant.
    shifted = penalties - penalties.min(axis=1, keepdims=True)
    unnormalized = qa * np.exp(-C * shifted)
    norm = unnormalized.sum(axis=1, keepdims=True)
    # If qa put all mass on infinitely-penalized labels the row could vanish;
    # fall back to qa for those rows rather than dividing by zero.
    degenerate = norm[:, 0] <= 0
    out = np.where(degenerate[:, None], qa, unnormalized / np.where(norm > 0, norm, 1.0))
    return out


def chain_marginals(
    unary: np.ndarray,
    lengths: np.ndarray,
    pairwise: np.ndarray,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Exact per-token marginals of a batch of linear-chain distributions.

    Chain ``i`` of length ``T_i`` is ``q(t_1..T_i) ∝ initial[t_1] ·
    Π_s unary[i, s, t_s] · Π_{s>1} pairwise[t_{s-1}, t_s]``; with
    ``unary = qa`` and ``pairwise = exp(-C · transition_penalty)`` this
    yields the sequence version of Eq. 15. All chains go through one
    :func:`repro.inference.primitives.batched_forward_backward` pass, so a
    pseudo-E-step over a corpus is one call.

    Parameters
    ----------
    unary:
        ``(I, T_max, K)`` padded non-negative per-token potentials
        (typically ``qa``); entries at or beyond each chain's length are
        ignored.
    lengths:
        ``(I,)`` chain lengths in ``[0, T_max]``.
    pairwise:
        ``(K, K)`` non-negative transition potentials, ``pairwise[prev, cur]``.
    initial:
        Optional ``(K,)`` non-negative potential applied to each chain's
        first token (encodes "sentence-initial I-X is invalid"). Defaults
        to all-ones.

    Returns
    -------
    ``(I, T_max, K)`` marginals: each row within a chain's length sums to
    one, rows past it are zero (a length-0 chain gets only zero rows).

    Raises
    ------
    ValueError
        On malformed shapes or lengths, negative potentials, or a chain
        with no support (every label path through some position, the
        first token included, has zero potential).
    """
    unary = np.asarray(unary, dtype=np.float64)
    pairwise = np.asarray(pairwise, dtype=np.float64)
    if unary.ndim != 3:
        raise ValueError(f"unary must be (I, T_max, K), got shape {unary.shape}")
    I, T_max, K = unary.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (I,):
        raise ValueError(f"lengths must be ({I},), got shape {lengths.shape}")
    if pairwise.shape != (K, K):
        raise ValueError(f"pairwise must be ({K}, {K}), got {pairwise.shape}")
    if initial is None:
        initial = np.ones(K)
    else:
        initial = np.asarray(initial, dtype=np.float64)
        if initial.shape != (K,):
            raise ValueError(f"initial must be ({K},), got {initial.shape}")

    # Padded entries become potential 1 (log 0) and the initial potential
    # folds into each first token, so the DP sees one uniform prior.
    active = np.arange(T_max)[None, :] < lengths[:, None]
    potentials = np.where(active[:, :, None], unary, 1.0)
    if np.any(potentials < 0) or np.any(pairwise < 0) or np.any(initial < 0):
        raise ValueError("potentials must be non-negative")
    potentials[lengths > 0, :1] *= initial
    with np.errstate(divide="ignore"):
        log_potentials = np.log(potentials)
        log_pairwise = np.log(pairwise)
    marginals, _, _ = batched_forward_backward(
        log_potentials, log_pairwise, np.zeros(K), lengths
    )
    return marginals
