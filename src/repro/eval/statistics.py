"""Statistical tests used in the paper's analysis (§VI-B).

The paper reports one-sided t-tests of Logic-LNCL vs the strongest
competitor over repeated seeded runs, and Pearson correlations between
estimated and real annotator reliability (Fig. 6b/7b).

:mod:`scipy.stats` is imported inside the two functions, on their first
call: importing it costs ~1 s and ~44 MiB in every process, and
``import repro`` (every training, inference and serving process) would
otherwise pay that for two analysis helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TTestResult", "one_sided_t_test", "pearson_correlation"]


@dataclass
class TTestResult:
    """t statistic and one-sided p-value for H1: mean(a) > mean(b)."""

    t_value: float
    p_value: float

    @property
    def significant_at_1pct(self) -> bool:
        return self.p_value < 0.01


def one_sided_t_test(a: np.ndarray, b: np.ndarray, paired: bool = True) -> TTestResult:
    """One-sided test that ``a``'s mean exceeds ``b``'s.

    Paired by default (same seeds produce matched runs, the paper's
    "unilateral statistics"); falls back to Welch's test otherwise.
    """
    from scipy import stats

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least two runs per method")
    if paired:
        if a.shape != b.shape:
            raise ValueError(f"paired test needs equal shapes, got {a.shape} vs {b.shape}")
        result = stats.ttest_rel(a, b, alternative="greater")
    else:
        result = stats.ttest_ind(a, b, equal_var=False, alternative="greater")
    return TTestResult(t_value=float(result.statistic), p_value=float(result.pvalue))


def pearson_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient (Fig. 6b/7b report ≈0.92/0.91)."""
    from scipy import stats

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("need at least two points")
    return float(stats.pearsonr(x, y).statistic)
