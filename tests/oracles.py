"""Executable specifications: one oracle per algorithm the live code is
pinned to.

Each spec is the seed-commit (``cf64a19``) loop form of its algorithm,
defined here once. The equivalence harness
(``tests/inference/equivalence_harness.py``) and the unit tests pin the
vectorized, sharded and fused code in ``src/`` to these functions at
atol 1e-10, and ``benchmarks/bench_hotpaths.py`` times them as its
"before" column, so "before" cannot silently improve as the live engine
gets faster.

Inputs are plain arrays: a classification crowd is an ``(I, J)`` label
matrix with :data:`MISSING` for absent labels, a sequence crowd a list of
``(T_i, J)`` matrices. The specs use numpy/scipy only; from ``repro``
they import nothing but the result containers and the live autodiff
tape that :func:`gru_reference_forward` runs on, so they share no kernel
or container code with what they pin (``tests/tooling/test_oracles.py``
enforces both rules).

* ``SeedTensor`` / ``SeedGRUCell`` / ``seed_gru_forward`` — the seed
  autodiff tape (closure per op, no no-grad fast path, float64 only) and
  the per-gate GRU time loop on it (~12 tape nodes per step).
* :func:`gru_reference_forward` — the same time loop over the live
  :class:`~repro.autodiff.nn.GRUCell` on the live tape, in either
  precision.
* ``seed_sequence_update_confusions`` / ``seed_sequence_posterior_qa`` —
  Logic-LNCL's token-level Eq. 12 / Eq. 13 as per-sentence /
  per-annotator loops.
* ``seed_majority_vote_posterior``, ``seed_dawid_skene``, ``seed_ibcc``,
  ``seed_glad``, ``seed_pm``, ``seed_catd`` — the classification methods
  on the dense ``(I, J, K)`` one-hot expansion (``seed_one_hot``) or
  GLAD's ``(I, J)`` masked scans.
* ``seed_forward_backward``, ``seed_hmm_crowd``, ``seed_bsc_seq`` — the
  per-chain scaled forward–backward and the sequence EM / VB loops
  around it. Both loops keep the seed's stale diagnostics: at
  convergence HMM-Crowd reports the previous sweep's ``log_likelihood``
  and BSC-seq the previous sweep's ``last_change``.
* ``seed_conv1d_train_step`` — the im2col convolution, which
  materializes the ``(B, T_out, width·D)`` window buffer.
* ``seed_streaming_full_recompute`` — per arriving label batch, re-run
  the dense DS EM from scratch on everything seen so far.

Do not "fix" or optimize anything here: these are the specification and
the measurement baseline, not production code.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.special import digamma

from repro.autodiff import Tensor, functional as F
from repro.inference.base import InferenceResult, SequenceInferenceResult

MISSING = -1


class SeedTensor:
    """Seed-commit Tensor (subset): every op always builds its closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[SeedTensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    # -- graph plumbing (verbatim seed behavior) ----------------------- #
    @staticmethod
    def _make(data, parents: Sequence["SeedTensor"], backward_fn) -> "SeedTensor":
        out = SeedTensor(data)
        if any(p._tracked for p in parents):
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    @property
    def _tracked(self) -> bool:
        return self.requires_grad or self._backward_fn is not None

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self._tracked:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def _topo_order(self):
        order, visited = [], set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    def backward(self, grad: np.ndarray | None = None) -> None:
        if grad is None:
            grad = np.ones_like(self.data)
        order = self._topo_order()
        for node in order:
            if node._backward_fn is not None and node is not self:
                node.grad = None
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward_fn is None or node.grad is None:
                continue
            node_grad, node.grad = node.grad, None
            node._backward_fn(node_grad)
            if node.requires_grad:
                node.grad = node_grad

    # -- ops (seed formulas) ------------------------------------------- #
    @staticmethod
    def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
        if grad.shape == shape:
            return grad
        extra = grad.ndim - len(shape)
        if extra > 0:
            grad = grad.sum(axis=tuple(range(extra)))
        stretched = tuple(
            i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1
        )
        if stretched:
            grad = grad.sum(axis=stretched, keepdims=True)
        return grad.reshape(shape)

    def __add__(self, other):
        other = other if isinstance(other, SeedTensor) else SeedTensor(other)

        def backward_fn(grad):
            self._accumulate(self._unbroadcast(grad, self.data.shape))
            other._accumulate(self._unbroadcast(grad, other.data.shape))

        return SeedTensor._make(self.data + other.data, (self, other), backward_fn)

    def __sub__(self, other):
        other = other if isinstance(other, SeedTensor) else SeedTensor(other)

        def backward_fn(grad):
            self._accumulate(self._unbroadcast(grad, self.data.shape))
            other._accumulate(self._unbroadcast(-grad, other.data.shape))

        return SeedTensor._make(self.data - other.data, (self, other), backward_fn)

    def __mul__(self, other):
        other = other if isinstance(other, SeedTensor) else SeedTensor(other)

        def backward_fn(grad):
            self._accumulate(self._unbroadcast(grad * other.data, self.data.shape))
            other._accumulate(self._unbroadcast(grad * self.data, other.data.shape))

        return SeedTensor._make(self.data * other.data, (self, other), backward_fn)

    def __matmul__(self, other):
        def backward_fn(grad):
            if self._tracked:
                self._accumulate(
                    self._unbroadcast(
                        grad @ np.swapaxes(other.data, -1, -2), self.data.shape
                    )
                )
            if other._tracked:
                other._accumulate(
                    self._unbroadcast(
                        np.swapaxes(self.data, -1, -2) @ grad, other.data.shape
                    )
                )

        return SeedTensor._make(self.data @ other.data, (self, other), backward_fn)

    def __pow__(self, exponent):
        def backward_fn(grad):
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return SeedTensor._make(self.data**exponent, (self,), backward_fn)

    def sigmoid(self):
        out_data = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.abs(self.data))),
            np.exp(-np.abs(self.data)) / (1.0 + np.exp(-np.abs(self.data))),
        )

        def backward_fn(grad):
            self._accumulate(grad * out_data * (1.0 - out_data))

        return SeedTensor._make(out_data, (self,), backward_fn)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward_fn(grad):
            self._accumulate(grad * (1.0 - out_data**2))

        return SeedTensor._make(out_data, (self,), backward_fn)

    def sum(self):
        def backward_fn(grad):
            self._accumulate(np.broadcast_to(grad, self.data.shape).copy())

        return SeedTensor._make(self.data.sum(), (self,), backward_fn)

    def __getitem__(self, index):
        out_data = np.array(self.data[index], copy=True)

        def backward_fn(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return SeedTensor._make(out_data, (self,), backward_fn)


def seed_stack(tensors: list[SeedTensor], axis: int = 0) -> SeedTensor:
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward_fn(grad):
        slices = np.moveaxis(grad, axis, 0)
        for tensor, piece in zip(tensors, slices):
            tensor._accumulate(piece)

    return SeedTensor._make(out_data, tuple(tensors), backward_fn)


class SeedGRUCell:
    """Seed per-gate GRU cell; weights are injected (copied from the fused
    GRU under test so both sides run identical parameters)."""

    def __init__(self, gates: dict[str, np.ndarray]) -> None:
        for name, value in gates.items():
            setattr(self, name, SeedTensor(value, requires_grad=True))

    def parameters(self) -> list[SeedTensor]:
        return [
            getattr(self, name)
            for name in (
                "w_xr", "w_hr", "b_r", "w_xz", "w_hz", "b_z", "w_xn", "w_hn", "b_n",
            )
        ]

    def __call__(self, x: SeedTensor, h: SeedTensor) -> SeedTensor:
        r = (x @ self.w_xr + h @ self.w_hr + self.b_r).sigmoid()
        z = (x @ self.w_xz + h @ self.w_hz + self.b_z).sigmoid()
        n = (x @ self.w_xn + r * (h @ self.w_hn) + self.b_n).tanh()
        one = SeedTensor(np.ones_like(z.data))
        return (one - z) * n + z * h


def seed_gru_forward(cell: SeedGRUCell, x: SeedTensor, mask: np.ndarray | None) -> SeedTensor:
    """Seed GRU.forward: element-at-a-time unroll with mask-weighted carry."""
    batch, time, _ = x.data.shape
    hidden = cell.w_hr.data.shape[0]
    h = SeedTensor(np.zeros((batch, hidden)))
    outputs = []
    for t in range(time):
        x_t = x[:, t, :]
        h_new = cell(x_t, h)
        if mask is not None:
            m = np.asarray(mask[:, t], dtype=np.float64)[:, None]
            h = h_new * SeedTensor(m) + h * SeedTensor(1.0 - m)
        else:
            h = h_new
        outputs.append(h)
    return seed_stack(outputs, axis=1)


def gru_reference_forward(cell, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Pre-fusion GRU time loop over a live per-gate
    :class:`~repro.autodiff.nn.GRUCell`.

    The element-at-a-time loop of ``seed_gru_forward``, but on the live
    tape and in the cell's dtype, so it also serves as the float32
    equivalence twin (the seed tape is float64-only).
    """
    batch, time, _ = x.shape
    h = Tensor(np.zeros((batch, cell.hidden_dim), dtype=cell.w_hr.data.dtype))
    outputs: list[Tensor] = []
    for t in range(time):
        x_t = x[:, t, :]
        h_new = cell(x_t, h)
        if mask is not None:
            m = np.asarray(mask[:, t], dtype=h_new.data.dtype)[:, None]
            h = h_new * Tensor(m) + h * Tensor(1.0 - m)
        else:
            h = h_new
        outputs.append(h)
    return F.stack(outputs, axis=1)


def _seed_annotators_of(matrix: np.ndarray) -> np.ndarray:
    return np.nonzero((matrix != MISSING).all(axis=0))[0]


def seed_sequence_update_confusions(qf, labels, num_annotators, num_classes, smoothing=0.01):
    """Seed token-level Eq. 12: per-sentence / per-annotator scatter loops."""
    K = num_classes
    counts = np.full((num_annotators, K, K), smoothing)
    for i, matrix in enumerate(labels):
        gamma = np.asarray(qf[i])
        for j in _seed_annotators_of(matrix):
            np.add.at(counts[j].T, matrix[:, j], gamma)
    return counts / counts.sum(axis=2, keepdims=True)


def seed_majority_vote_posterior(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Seed MV posterior: ``np.add.at`` vote scatter over the dense matrix."""
    I = labels.shape[0]
    counts = np.zeros((I, num_classes), dtype=np.int64)
    rows, cols = np.nonzero(labels != MISSING)
    np.add.at(counts, (rows, labels[rows, cols]), 1)
    counts = counts.astype(np.float64)
    totals = counts.sum(axis=1, keepdims=True)
    uniform = np.full((1, num_classes), 1.0 / num_classes)
    return np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0), uniform)


def seed_one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Seed one-hot expansion: dense ``(I, J, K)`` with zero rows at MISSING."""
    out = np.zeros((labels.shape[0], labels.shape[1], num_classes))
    rows, cols = np.nonzero(labels != MISSING)
    out[rows, cols, labels[rows, cols]] = 1.0
    return out


def seed_dawid_skene(
    labels: np.ndarray,
    num_classes: int,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
    smoothing: float = 0.01,
):
    """Seed DS EM: dense one-hot einsums every sweep (commit ``cf64a19``)."""
    one_hot = seed_one_hot(labels, num_classes)               # (I, J, K)
    posterior = seed_majority_vote_posterior(labels, num_classes)

    confusions = np.zeros((labels.shape[1], num_classes, num_classes))
    iterations_used = max_iterations
    for iteration in range(max_iterations):
        counts = np.einsum("im,ijn->jmn", posterior, one_hot) + smoothing
        confusions = counts / counts.sum(axis=2, keepdims=True)
        prior = posterior.sum(axis=0) + smoothing
        prior /= prior.sum()

        log_confusions = np.log(confusions)
        log_likelihood = np.einsum("ijn,jmn->im", one_hot, log_confusions)
        log_posterior = np.log(prior)[None, :] + log_likelihood
        log_posterior -= log_posterior.max(axis=1, keepdims=True)
        new_posterior = np.exp(log_posterior)
        new_posterior /= new_posterior.sum(axis=1, keepdims=True)

        delta = float(np.abs(new_posterior - posterior).max())
        posterior = new_posterior
        if delta < tolerance:
            iterations_used = iteration + 1
            break
    return posterior, confusions, iterations_used


def seed_forward_backward(log_emissions, log_transition, log_initial):
    """Seed per-chain scaled forward–backward (commit ``cf64a19``)."""
    T, K = log_emissions.shape
    emissions = np.exp(log_emissions - log_emissions.max(axis=1, keepdims=True))
    transition = np.exp(log_transition)
    initial = np.exp(log_initial - log_initial.max())
    initial /= initial.sum()

    alpha = np.zeros((T, K))
    scales = np.zeros(T)
    alpha[0] = initial * emissions[0]
    scales[0] = alpha[0].sum()
    alpha[0] /= scales[0]
    for t in range(1, T):
        alpha[t] = emissions[t] * (alpha[t - 1] @ transition)
        scales[t] = alpha[t].sum()
        if scales[t] <= 0:
            raise ValueError(f"chain has no support at position {t}")
        alpha[t] /= scales[t]

    beta = np.ones((T, K))
    for t in range(T - 2, -1, -1):
        beta[t] = transition @ (emissions[t + 1] * beta[t + 1])
        beta[t] /= max(beta[t].sum(), 1e-300)

    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)

    xi_sum = np.zeros((K, K))
    for t in range(T - 1):
        xi = (alpha[t][:, None] * transition) * (emissions[t + 1] * beta[t + 1])[None, :]
        total = xi.sum()
        if total > 0:
            xi_sum += xi / total

    log_likelihood = float(np.log(scales).sum() + log_emissions.max(axis=1).sum())
    return gamma, xi_sum, log_likelihood


def seed_sequence_posterior_qa(proba, labels, confusions):
    """Seed token-level Eq. 13: per-sentence Python loop."""
    log_confusions = np.log(confusions + 1e-300)
    out = []
    for i, matrix in enumerate(labels):
        p = np.asarray(proba[i], dtype=np.float64)
        log_posterior = np.log(p + 1e-300)
        for j in _seed_annotators_of(matrix):
            log_posterior = log_posterior + log_confusions[j][:, matrix[:, j]].T
        log_posterior -= log_posterior.max(axis=1, keepdims=True)
        posterior = np.exp(log_posterior)
        posterior /= posterior.sum(axis=1, keepdims=True)
        out.append(posterior)
    return out


def _seed_sigmoid(x: np.ndarray) -> np.ndarray:
    return np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.abs(x))),
        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
    )


def seed_glad(
    labels: np.ndarray,
    em_iterations: int = 30,
    gradient_steps: int = 20,
    learning_rate: float = 0.05,
    prior_correct: float = 0.5,
):
    """Pre-PR-3 GLAD: dense ``(I, J)`` masked scans every inner step."""
    I, J = labels.shape
    observed = labels != MISSING
    sign = np.where(observed, np.where(labels == 1, 1.0, -1.0), 0.0)

    alpha = np.ones(J)
    log_beta = np.zeros(I)
    posterior_one = np.full(I, prior_correct)

    for _ in range(em_iterations):
        strength = np.exp(log_beta)[:, None] * alpha[None, :]
        log_sig = np.log(_seed_sigmoid(strength) + 1e-12)
        log_one_minus = np.log(1.0 - _seed_sigmoid(strength) + 1e-12)
        log_like_one = np.where(observed, np.where(sign > 0, log_sig, log_one_minus), 0.0).sum(axis=1)
        log_like_zero = np.where(observed, np.where(sign < 0, log_sig, log_one_minus), 0.0).sum(axis=1)
        logit = (
            np.log(prior_correct) - np.log(1 - prior_correct)
            + log_like_one - log_like_zero
        )
        posterior_one = _seed_sigmoid(logit)

        for _ in range(gradient_steps):
            strength = np.exp(log_beta)[:, None] * alpha[None, :]
            sig = _seed_sigmoid(strength)
            prob_correct = np.where(
                sign > 0, posterior_one[:, None], 1.0 - posterior_one[:, None]
            )
            residual = np.where(observed, prob_correct - sig, 0.0)
            labels_per_annotator = np.maximum(observed.sum(axis=0), 1)
            labels_per_instance = np.maximum(observed.sum(axis=1), 1)
            grad_alpha = (residual * np.exp(log_beta)[:, None]).sum(axis=0) / labels_per_annotator
            grad_log_beta = (
                (residual * alpha[None, :]).sum(axis=1) * np.exp(log_beta)
            ) / labels_per_instance
            alpha += learning_rate * grad_alpha
            log_beta += learning_rate * grad_log_beta
            log_beta = np.clip(log_beta, -4.0, 4.0)
            alpha = np.clip(alpha, -8.0, 8.0)

    posterior = np.stack([1.0 - posterior_one, posterior_one], axis=1)
    return posterior, alpha, np.exp(log_beta)


def seed_pm(
    labels: np.ndarray,
    num_classes: int,
    max_iterations: int = 50,
    tolerance: float = 1e-6,
    floor: float = 1e-3,
):
    """Pre-PR-3 PM: dense one-hot einsums over ``(I, J, K)`` per sweep."""
    one_hot = seed_one_hot(labels, num_classes)
    observed = labels != MISSING
    counts = observed.sum(axis=0)
    posterior = seed_majority_vote_posterior(labels, num_classes)
    weights = np.ones(labels.shape[1])

    iterations_used = max_iterations
    for iteration in range(max_iterations):
        agreement = np.einsum("ijk,ik->ij", one_hot, posterior)
        per_annotator_agreement = np.where(observed, agreement, 0.0).sum(axis=0)
        error = 1.0 - per_annotator_agreement / np.maximum(counts, 1)
        error = np.clip(error, floor, 1.0 - floor)
        weights = -np.log(error)

        scores = np.einsum("j,ijk->ik", weights, one_hot)
        scores = np.maximum(scores, 0.0)
        totals = scores.sum(axis=1, keepdims=True)
        new_posterior = np.where(
            totals > 0, scores / np.where(totals > 0, totals, 1.0),
            np.full_like(scores, 1.0 / num_classes),
        )
        delta = float(np.abs(new_posterior - posterior).max())
        posterior = new_posterior
        if delta < tolerance:
            iterations_used = iteration + 1
            break
    return posterior, weights, iterations_used


def seed_catd(
    labels: np.ndarray,
    num_classes: int,
    max_iterations: int = 50,
    tolerance: float = 1e-6,
    alpha: float = 0.05,
):
    """Pre-PR-3 CATD: dense one-hot einsums over ``(I, J, K)`` per sweep."""
    from scipy import stats  # seed CATD required scipy, as the live one does

    one_hot = seed_one_hot(labels, num_classes)
    observed = labels != MISSING
    counts = observed.sum(axis=0)
    posterior = seed_majority_vote_posterior(labels, num_classes)
    chi_upper = stats.chi2.ppf(1.0 - alpha / 2.0, df=np.maximum(counts, 1))
    weights = np.ones(labels.shape[1])

    iterations_used = max_iterations
    for iteration in range(max_iterations):
        agreement = np.einsum("ijk,ik->ij", one_hot, posterior)
        error_sum = np.where(observed, 1.0 - agreement, 0.0).sum(axis=0)
        weights = chi_upper / np.maximum(error_sum, 1e-6)
        weights = weights / weights.max()

        scores = np.einsum("j,ijk->ik", weights, one_hot)
        totals = scores.sum(axis=1, keepdims=True)
        new_posterior = np.where(
            totals > 0, scores / np.where(totals > 0, totals, 1.0),
            np.full_like(scores, 1.0 / num_classes),
        )
        delta = float(np.abs(new_posterior - posterior).max())
        posterior = new_posterior
        if delta < tolerance:
            iterations_used = iteration + 1
            break
    return posterior, weights, iterations_used


def seed_ibcc(
    labels: np.ndarray,
    num_classes: int,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
    prior_diagonal: float = 2.0,
    prior_off_diagonal: float = 1.0,
    prior_class: float = 1.0,
) -> InferenceResult:
    """Seed VB-IBCC: dense one-hot einsums over ``(I, J, K)`` per sweep."""
    K = num_classes
    one_hot = seed_one_hot(labels, num_classes)
    posterior = seed_majority_vote_posterior(labels, num_classes)
    prior_matrix = np.full((K, K), prior_off_diagonal)
    np.fill_diagonal(prior_matrix, prior_diagonal)

    confusions = np.zeros((labels.shape[1], K, K))
    iterations_used = max_iterations
    for iteration in range(max_iterations):
        confusion_counts = np.einsum("im,ijn->jmn", posterior, one_hot) + prior_matrix
        class_counts = posterior.sum(axis=0) + prior_class

        expected_log_confusion = digamma(confusion_counts) - digamma(
            confusion_counts.sum(axis=2, keepdims=True)
        )
        expected_log_class = digamma(class_counts) - digamma(class_counts.sum())

        log_posterior = expected_log_class[None, :] + np.einsum(
            "ijn,jmn->im", one_hot, expected_log_confusion
        )
        log_posterior -= log_posterior.max(axis=1, keepdims=True)
        new_posterior = np.exp(log_posterior)
        new_posterior /= new_posterior.sum(axis=1, keepdims=True)

        delta = float(np.abs(new_posterior - posterior).max())
        posterior = new_posterior
        confusions = confusion_counts / confusion_counts.sum(axis=2, keepdims=True)
        if delta < tolerance:
            iterations_used = iteration + 1
            break

    return InferenceResult(
        posterior=posterior,
        confusions=confusions,
        extras={"iterations": iterations_used},
    )


def seed_token_vote_counts(matrix: np.ndarray, num_classes: int) -> np.ndarray:
    """Per-token class vote counts for one sentence, shape ``(T, K)``."""
    T = matrix.shape[0]
    counts = np.zeros((T, num_classes), dtype=np.int64)
    for j in _seed_annotators_of(matrix):
        np.add.at(counts, (np.arange(T), matrix[:, j]), 1)
    return counts


def seed_hmm_crowd(
    labels: list[np.ndarray],
    num_annotators: int,
    num_classes: int,
    max_iterations: int = 30,
    tolerance: float = 1e-4,
    smoothing: float = 0.1,
) -> SequenceInferenceResult:
    """Seed HMM-Crowd EM: per-sentence / per-annotator loops, one
    ``seed_forward_backward`` per chain."""
    K = num_classes
    J = num_annotators

    def log_emissions_of(matrix: np.ndarray, log_confusions: np.ndarray) -> np.ndarray:
        out = np.zeros((matrix.shape[0], K))
        for j in _seed_annotators_of(matrix):
            out += log_confusions[j][:, matrix[:, j]].T  # (T, K) via fancy index
        return out

    # Init from token-level majority voting.
    posteriors: list[np.ndarray] = []
    for matrix in labels:
        votes = seed_token_vote_counts(matrix, K).astype(np.float64) + 1e-3
        posteriors.append(votes / votes.sum(axis=1, keepdims=True))

    transition = np.full((K, K), 1.0 / K)
    initial = np.full(K, 1.0 / K)
    confusions = np.zeros((J, K, K))
    previous_log_likelihood = -np.inf

    iterations_used = max_iterations
    for iteration in range(max_iterations):
        # M-step from current posteriors.
        confusion_count_arr = np.full((J, K, K), smoothing)
        transition_counts = np.full((K, K), smoothing)
        initial_counts = np.full(K, smoothing)
        for gamma, matrix in zip(posteriors, labels):
            initial_counts += gamma[0]
            for j in _seed_annotators_of(matrix):
                np.add.at(confusion_count_arr[j].T, matrix[:, j], gamma)
        confusions = confusion_count_arr / confusion_count_arr.sum(axis=2, keepdims=True)

        # E-step with fresh transition statistics.
        log_confusions = np.log(confusions)
        log_transition = np.log(transition)
        log_initial = np.log(initial)
        total_log_likelihood = 0.0
        new_posteriors: list[np.ndarray] = []
        for matrix in labels:
            log_em = log_emissions_of(matrix, log_confusions)
            gamma, xi_sum, log_like = seed_forward_backward(log_em, log_transition, log_initial)
            new_posteriors.append(gamma)
            transition_counts += xi_sum
            total_log_likelihood += log_like
        posteriors = new_posteriors
        transition = transition_counts / transition_counts.sum(axis=1, keepdims=True)
        initial = initial_counts / initial_counts.sum()

        if abs(total_log_likelihood - previous_log_likelihood) < tolerance:
            iterations_used = iteration + 1
            break
        previous_log_likelihood = total_log_likelihood

    return SequenceInferenceResult(
        posteriors=posteriors,
        confusions=confusions,
        extras={
            "transition": transition,
            "initial": initial,
            "iterations": iterations_used,
            "log_likelihood": previous_log_likelihood,
        },
    )


def seed_bsc_seq(
    labels: list[np.ndarray],
    num_annotators: int,
    num_classes: int,
    max_iterations: int = 30,
    tolerance: float = 1e-4,
    prior_diagonal: float = 2.0,
    prior_off_diagonal: float = 1.0,
    prior_transition: float = 1.0,
) -> SequenceInferenceResult:
    """Seed BSC-seq VB loop: per-sentence / per-annotator loops, one
    ``seed_forward_backward`` per chain on expected-log parameters."""
    K = num_classes
    J = num_annotators
    prior_confusion = np.full((K, K), prior_off_diagonal)
    np.fill_diagonal(prior_confusion, prior_diagonal)

    posteriors: list[np.ndarray] = []
    for matrix in labels:
        votes = seed_token_vote_counts(matrix, K).astype(np.float64) + 1e-3
        posteriors.append(votes / votes.sum(axis=1, keepdims=True))
    transition_counts = np.full((K, K), prior_transition)
    initial_counts = np.full(K, prior_transition)

    confusions = np.zeros((J, K, K))
    previous_change = np.inf
    iterations_used = max_iterations
    for iteration in range(max_iterations):
        confusion_count_arr = np.tile(prior_confusion, (J, 1, 1))
        new_initial_counts = np.full(K, prior_transition)
        for gamma, matrix in zip(posteriors, labels):
            new_initial_counts += gamma[0]
            for j in _seed_annotators_of(matrix):
                np.add.at(confusion_count_arr[j].T, matrix[:, j], gamma)

        # Variational expectations of log parameters.
        expected_log_confusion = digamma(confusion_count_arr) - digamma(
            confusion_count_arr.sum(axis=2, keepdims=True)
        )
        expected_log_transition = digamma(transition_counts) - digamma(
            transition_counts.sum(axis=1, keepdims=True)
        )
        expected_log_initial = digamma(new_initial_counts) - digamma(new_initial_counts.sum())

        new_transition_counts = np.full((K, K), prior_transition)
        max_change = 0.0
        new_posteriors: list[np.ndarray] = []
        for old_gamma, matrix in zip(posteriors, labels):
            log_em = np.zeros((matrix.shape[0], K))
            for j in _seed_annotators_of(matrix):
                log_em += expected_log_confusion[j][:, matrix[:, j]].T
            gamma, xi_sum, _ = seed_forward_backward(
                log_em, expected_log_transition, expected_log_initial
            )
            new_transition_counts += xi_sum
            max_change = max(max_change, float(np.abs(gamma - old_gamma).max()))
            new_posteriors.append(gamma)
        posteriors = new_posteriors
        transition_counts = new_transition_counts
        initial_counts = new_initial_counts
        confusions = confusion_count_arr / confusion_count_arr.sum(axis=2, keepdims=True)

        if max_change < tolerance:
            iterations_used = iteration + 1
            break
        previous_change = max_change

    return SequenceInferenceResult(
        posteriors=posteriors,
        confusions=confusions,
        extras={
            "transition": transition_counts / transition_counts.sum(axis=1, keepdims=True),
            "iterations": iterations_used,
            "last_change": previous_change,
        },
    )


def seed_conv1d_train_step(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    width: int,
    pad: str = "same",
):
    """Pre-PR-3 im2col convolution, forward + backward of ``(out**2).sum()``.

    Both passes materialize the ``(B, T_out, width·D)`` window buffer —
    the memory expansion the width-loop variant removes. Returns
    ``(out, xgrad, wgrad, bgrad)``.
    """
    batch, time, dim = x.shape
    left = right = 0
    data = x
    if pad == "same":
        left = (width - 1) // 2
        right = width - 1 - left
        data = np.pad(data, ((0, 0), (left, right), (0, 0)))

    out_time = data.shape[1] - width + 1
    windows = np.lib.stride_tricks.sliding_window_view(data, (width,), axis=1)
    cols = np.ascontiguousarray(
        windows.transpose(0, 1, 3, 2).reshape(batch, out_time, width * dim)
    )
    out = cols @ weight + bias

    grad = 2.0 * out
    bgrad = grad.sum(axis=(0, 1))
    wgrad = np.einsum("btk,btf->kf", cols, grad)
    gcols = (grad @ weight.T).reshape(batch, out_time, width, dim)
    xgrad = np.zeros_like(data)
    for offset in range(width):
        xgrad[:, offset : offset + out_time, :] += gcols[:, :, offset, :]
    if pad == "same":
        xgrad = xgrad[:, left : left + time, :]
    return out, xgrad, wgrad, bgrad


def seed_streaming_full_recompute(
    label_blocks: list[np.ndarray],
    num_classes: int,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
    smoothing: float = 0.01,
):
    """The seed-era answer to a label stream: per arriving block, stack
    everything seen so far and re-run the dense DS EM from scratch.

    A generator so the benchmark can time each update (``next()``) on its
    own — per-update cost grows with *total* observations, which is exactly
    what the streaming subsystem replaces. Yields the full
    ``(posterior, confusions, iterations)`` triple after every block.
    """
    for upto in range(1, len(label_blocks) + 1):
        stacked = np.concatenate(label_blocks[:upto], axis=0)
        yield seed_dawid_skene(
            stacked,
            num_classes,
            max_iterations=max_iterations,
            tolerance=tolerance,
            smoothing=smoothing,
        )
