"""Crowd-annotation simulator for classification tasks (substitution S2).

The real Sentiment Polarity (MTurk) dataset cannot be downloaded offline,
so we simulate the annotation process the paper's model family assumes and
that Fig. 4 characterizes empirically:

* each annotator j has a latent confusion matrix Π(j) (paper Eq. 2);
* annotator quality is heterogeneous — a mix of experts, good workers,
  mediocre workers, and near-random spammers (Fig. 4b shows accuracies
  from ~0.2 to 1.0 with a median around 0.8, including annotator 193 whose
  matrix is essentially uniform);
* annotator *activity* is heavy-tailed — a few workers contribute
  thousands of labels, most contribute a handful (Fig. 4a);
* every instance receives a small number of labels (5.55 on average for
  the sentiment dataset).

The simulator samples a pool of annotators from that mixture, then labels
each instance by drawing a subset of annotators (without replacement,
probability proportional to activity) and sampling each label from the
annotator's confusion row for the true class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff.dtypes import REFERENCE_DTYPE
from .types import MISSING, CrowdLabelMatrix

__all__ = [
    "AnnotatorPool",
    "sample_confusion_matrix",
    "sample_annotator_pool",
    "simulate_classification_crowd",
]


@dataclass
class AnnotatorPool:
    """A simulated crowd: per-annotator confusion matrices and activity.

    Attributes
    ----------
    confusions:
        ``(J, K, K)``; row m of matrix j is the distribution of annotator
        j's label given true class m (paper Eq. 2).
    activity:
        ``(J,)`` positive sampling weights (heavy-tailed).
    """

    confusions: np.ndarray
    activity: np.ndarray

    def __post_init__(self) -> None:
        self.confusions = np.asarray(self.confusions, dtype=REFERENCE_DTYPE)
        self.activity = np.asarray(self.activity, dtype=REFERENCE_DTYPE)
        if self.confusions.ndim != 3 or self.confusions.shape[1] != self.confusions.shape[2]:
            raise ValueError(f"confusions must be (J, K, K), got {self.confusions.shape}")
        if self.activity.shape != (self.confusions.shape[0],):
            raise ValueError("activity must have one weight per annotator")
        if np.any(self.activity <= 0):
            raise ValueError("activity weights must be positive")
        rows = self.confusions.sum(axis=2)
        if not np.allclose(rows, 1.0, atol=1e-8):
            raise ValueError("confusion rows must sum to 1")

    @property
    def num_annotators(self) -> int:
        return self.confusions.shape[0]

    @property
    def num_classes(self) -> int:
        return self.confusions.shape[1]

    def accuracies(self) -> np.ndarray:
        """Mean diagonal of each annotator's confusion matrix, shape ``(J,)``."""
        return np.einsum("jkk->j", self.confusions) / self.num_classes


def sample_confusion_matrix(
    rng: np.random.Generator,
    accuracy: float,
    num_classes: int,
    concentration: float = 8.0,
) -> np.ndarray:
    """Sample a confusion matrix with a target mean diagonal.

    Each row is Dirichlet-distributed around "``accuracy`` on the diagonal,
    the rest spread over other classes", so annotators are not perfectly
    symmetric (matching the skewed matrices in paper Fig. 6a).
    """
    if not 0.0 < accuracy < 1.0:
        raise ValueError(f"accuracy must be in (0, 1), got {accuracy}")
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    matrix = np.zeros((num_classes, num_classes))
    off_mass = (1.0 - accuracy) / (num_classes - 1)
    for m in range(num_classes):
        alpha = np.full(num_classes, off_mass * concentration)
        alpha[m] = accuracy * concentration
        matrix[m] = rng.dirichlet(alpha)
    return matrix


_QUALITY_MIXTURE = (
    # (probability, accuracy low, accuracy high) — tuned to reproduce the
    # Fig. 4b accuracy spread (0.2..1.0, median ~0.8, spammers near 0.5).
    (0.15, 0.92, 0.98),  # experts
    (0.45, 0.75, 0.92),  # good workers
    (0.25, 0.55, 0.75),  # mediocre workers
    (0.15, 0.40, 0.55),  # spammers / adversarial-ish
)


def sample_annotator_pool(
    rng: np.random.Generator,
    num_annotators: int,
    num_classes: int,
    zipf_exponent: float = 1.1,
) -> AnnotatorPool:
    """Sample a heterogeneous annotator pool.

    Quality comes from the four-component mixture above; activity follows a
    shuffled Zipf law with the given exponent (heavy tail: the busiest
    annotators label orders of magnitude more than the median, Fig. 4a).
    """
    if num_annotators < 1:
        raise ValueError(f"need at least one annotator, got {num_annotators}")
    probabilities = np.array([component[0] for component in _QUALITY_MIXTURE])
    components = rng.choice(len(_QUALITY_MIXTURE), size=num_annotators, p=probabilities)
    confusions = np.zeros((num_annotators, num_classes, num_classes))
    for j, component in enumerate(components):
        _, low, high = _QUALITY_MIXTURE[component]
        accuracy = rng.uniform(low, high)
        confusions[j] = sample_confusion_matrix(rng, accuracy, num_classes)
    ranks = rng.permutation(num_annotators) + 1
    activity = ranks.astype(REFERENCE_DTYPE) ** (-zipf_exponent)
    return AnnotatorPool(confusions=confusions, activity=activity)


def simulate_classification_crowd(
    rng: np.random.Generator,
    true_labels: np.ndarray,
    pool: AnnotatorPool,
    mean_labels_per_instance: float = 5.55,
    min_labels_per_instance: int = 1,
) -> CrowdLabelMatrix:
    """Simulate crowd labels for a classification dataset.

    Parameters
    ----------
    true_labels:
        ``(I,)`` ground-truth class ids.
    pool:
        The annotator pool (confusions + activity).
    mean_labels_per_instance:
        Average redundancy; the sentiment dataset averages 5.55. Counts are
        Poisson-distributed around this mean, clipped to
        ``[min_labels_per_instance, J]``.
    """
    true_labels = np.asarray(true_labels)
    if true_labels.ndim != 1:
        raise ValueError(f"true_labels must be 1-D, got shape {true_labels.shape}")
    if mean_labels_per_instance < min_labels_per_instance:
        raise ValueError("mean labels per instance below the minimum")
    J = pool.num_annotators
    K = pool.num_classes
    if true_labels.min() < 0 or true_labels.max() >= K:
        raise ValueError(f"true labels out of range [0, {K})")

    I = true_labels.shape[0]
    labels = np.full((I, J), MISSING, dtype=np.int64)
    selection_probability = pool.activity / pool.activity.sum()
    counts = rng.poisson(mean_labels_per_instance - min_labels_per_instance, size=I)
    counts = np.clip(counts + min_labels_per_instance, min_labels_per_instance, J)
    for i in range(I):
        annotators = rng.choice(J, size=counts[i], replace=False, p=selection_probability)
        row = pool.confusions[annotators, true_labels[i], :]
        # Vectorized categorical draw per selected annotator.
        cumulative = row.cumsum(axis=1)
        draws = rng.random(len(annotators))[:, None]
        labels[i, annotators] = (draws < cumulative).argmax(axis=1)
    return CrowdLabelMatrix(labels, K)
