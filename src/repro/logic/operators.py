"""Łukasiewicz soft-logic operators (paper Eq. 4).

Probabilistic Soft Logic relaxes Boolean connectives to the interval
[0, 1]::

    I(l1 & l2) = max(0, I(l1) + I(l2) - 1)
    I(l1 | l2) = min(1, I(l1) + I(l2))
    I(~l1)     = 1 - I(l1)

Implication ``a => b`` is defined as ``~a | b``, giving
``min(1, 1 - I(a) + I(b))`` — fully satisfied whenever the consequent's
truth is at least the antecedent's.

All operators accept floats or NumPy arrays (elementwise).
"""

from __future__ import annotations

import numpy as np

from ..autodiff.dtypes import REFERENCE_DTYPE

__all__ = ["soft_and", "soft_or", "soft_not", "soft_implies", "validate_truth"]


def validate_truth(value, name: str = "truth value"):
    """Check that ``value`` lies in [0, 1]; returns it as float/ndarray."""
    arr = np.asarray(value, dtype=REFERENCE_DTYPE)
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    clipped = np.clip(arr, 0.0, 1.0)
    return float(clipped) if clipped.ndim == 0 else clipped


def soft_and(a, b):
    """Łukasiewicz t-norm: ``max(0, a + b - 1)``."""
    return np.maximum(0.0, np.asarray(a, dtype=REFERENCE_DTYPE) + b - 1.0)


def soft_or(a, b):
    """Łukasiewicz t-conorm: ``min(1, a + b)``."""
    return np.minimum(1.0, np.asarray(a, dtype=REFERENCE_DTYPE) + b)


def soft_not(a):
    """Łukasiewicz negation: ``1 - a``."""
    return 1.0 - np.asarray(a, dtype=REFERENCE_DTYPE)


def soft_implies(a, b):
    """Łukasiewicz implication ``a => b``: ``min(1, 1 - a + b)``."""
    return np.minimum(1.0, 1.0 - np.asarray(a, dtype=REFERENCE_DTYPE) + b)
