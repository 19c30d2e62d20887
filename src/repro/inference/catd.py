"""CATD (Li et al., VLDB 2014): confidence-aware truth discovery.

CATD addresses the *long tail* of annotators with very few labels: a
point-estimated reliability for a 3-label annotator is meaningless. Instead
each annotator's weight is the upper end of a chi-square confidence
interval on their error sum:

    w_j = χ²(α/2; n_j) / Σ_i d(y_ij, t_i*)

so scarce annotators get conservative (smaller) weights. We alternate this
weight update with weighted voting, using the squared distance
``d = 1 - posterior_match`` for categorical labels.

The bound χ²(α/2; n_j) is the chi-square quantile at ``1 − α/2``,
computed as ``2·gammaincinv(n_j/2, 1 − α/2)`` from :mod:`scipy.special`.
That is the expression ``scipy.stats.chi2.ppf`` evaluates, so the two
agree bit for bit, and CATD does not load :mod:`scipy.stats` (~1 s and
~44 MiB per process) for one quantile.

Everything but the weight update is PM's: the majority-vote init, the
weighted vote and the error sums it needs. So :class:`CATD` is a
:class:`~repro.inference.pm.PM` whose global step is the χ² weight, and it
inherits PM's init pass, vote mapper and loop, sharding included
(``infer(crowd)`` is the one-shard run, ``infer_sharded`` takes any shard
source). The dense ``(I, J, K)`` one-hot einsums survive only in
``seed_catd`` (``tests/oracles.py``), the executable specification the
equivalence harness pins at atol 1e-10.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincinv

from .pm import PM

__all__ = ["CATD"]


class CATD(PM):
    """Confidence-aware iterative weighted voting: PM with a χ² weight.

    Parameters
    ----------
    max_iterations:
        Upper bound on weight/vote alternations.
    tolerance:
        Stop when the posterior's max absolute change falls below this.
    alpha:
        Significance level of the chi-square confidence interval.
    """

    name = "CATD"

    def __init__(
        self, max_iterations: int = 50, tolerance: float = 1e-6, alpha: float = 0.05
    ) -> None:
        # PM's constructor is not called: CATD's weights need no error
        # clamp, so it has no ``floor``.
        if max_iterations < 1:
            raise ValueError("need at least one iteration")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.alpha = alpha

    def _global_step(self, label_counts: np.ndarray, agreement: np.ndarray) -> np.ndarray:
        """χ²(α/2; n_j) over each annotator's error sum, scaled by the
        largest weight: annotators with more labels can earn larger
        weights, and scale-invariant voting needs only the ratios."""
        chi_upper = 2.0 * gammaincinv(np.maximum(label_counts, 1) / 2.0, 1.0 - self.alpha / 2.0)
        weights = chi_upper / np.maximum(label_counts - agreement, 1e-6)
        return weights / weights.max()
