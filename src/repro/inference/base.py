"""Shared interface for truth-inference methods.

Truth inference (Zheng et al., VLDB 2017) estimates each instance's latent
true label from redundant noisy crowd labels, *without* features. The paper
benchmarks MV, DS, GLAD, PM, CATD on sentiment and MV, DS, IBCC, BSC-seq,
HMM-Crowd on NER (Tables II/III, "Truth Inference" blocks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff.dtypes import REFERENCE_DTYPE
from ..crowd.types import CrowdLabelMatrix

__all__ = [
    "InferenceResult",
    "TruthInferenceMethod",
    "SequenceInferenceResult",
    "ConvergenceMonitor",
]


class ConvergenceMonitor:
    """Shared convergence bookkeeping for the iterative methods.

    Every EM/VB method (DS, IBCC, HMM-Crowd, BSC-seq) tracks the same
    things: how many sweeps ran, the change that was last measured (the one
    that actually triggered convergence, not the previous sweep's), and an
    optional log-likelihood trace. Methods call :meth:`step` once per sweep
    and splice :meth:`extras` into their result, so diagnostics keys are
    identical across the subsystem.
    """

    def __init__(self, tolerance: float, max_iterations: int) -> None:
        if max_iterations < 1:
            raise ValueError("need at least one iteration")
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self.iterations = 0
        self.last_change = float("inf")
        self.converged = False
        self.log_likelihood_trace: list[float] = []

    def step(self, change: float, log_likelihood: float | None = None) -> bool:
        """Record one sweep; returns True when the loop should stop."""
        self.iterations += 1
        self.last_change = float(change)
        if log_likelihood is not None:
            self.log_likelihood_trace.append(float(log_likelihood))
        self.converged = self.last_change < self.tolerance
        return self.converged or self.iterations >= self.max_iterations

    def extras(self) -> dict:
        """Common diagnostics block for ``InferenceResult.extras``."""
        out = {
            "iterations": self.iterations,
            "last_change": self.last_change,
            "converged": self.converged,
        }
        if self.log_likelihood_trace:
            out["log_likelihood_trace"] = list(self.log_likelihood_trace)
        return out


@dataclass
class InferenceResult:
    """Output of a truth-inference method on a classification crowd.

    Attributes
    ----------
    posterior:
        ``(I, K)`` soft truth estimates (rows sum to 1).
    confusions:
        ``(J, K, K)`` estimated annotator confusion matrices, when the
        method models them (DS/IBCC), else None.
    extras:
        Method-specific diagnostics (iterations, weights, ...).
    """

    posterior: np.ndarray
    confusions: np.ndarray | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.posterior = np.asarray(self.posterior, dtype=REFERENCE_DTYPE)
        if self.posterior.ndim != 2:
            raise ValueError(f"posterior must be (I, K), got {self.posterior.shape}")
        sums = self.posterior.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-6):
            raise ValueError("posterior rows must sum to 1")

    def hard_labels(self) -> np.ndarray:
        """Argmax labels (ties resolve to the lowest class id)."""
        return self.posterior.argmax(axis=1)


@dataclass
class SequenceInferenceResult:
    """Output of a truth-inference method on a sequence crowd.

    Attributes
    ----------
    posteriors:
        List of ``(T_i, K)`` per-token soft truth estimates.
    """

    posteriors: list[np.ndarray]
    confusions: np.ndarray | None = None
    extras: dict = field(default_factory=dict)

    def hard_labels(self) -> list[np.ndarray]:
        return [posterior.argmax(axis=1) for posterior in self.posteriors]


class TruthInferenceMethod:
    """Base class; subclasses set :attr:`name` and implement :meth:`infer`."""

    name: str = "base"

    def infer(self, crowd: CrowdLabelMatrix) -> InferenceResult:
        raise NotImplementedError
