"""Annotator-statistics reports (paper Fig. 4 and the "Real" matrices of
Fig. 6/7).

Given a crowd-label container plus ground truth, these helpers compute each
annotator's volume and quality, boxplot summaries, and empirical confusion
matrices — the quantities the paper visualizes to characterize its two
crowds and to validate Logic-LNCL's reliability estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff.dtypes import REFERENCE_DTYPE
from ..data.bio import CONLL_LABELS
from ..eval.ner_f1 import span_f1_score
from .types import CrowdLabelMatrix, SequenceCrowdLabels

__all__ = [
    "BoxplotStats",
    "boxplot_stats",
    "classification_annotator_report",
    "sequence_annotator_report",
]


@dataclass
class BoxplotStats:
    """Five-number summary (plus mean) of one distribution."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float

    @staticmethod
    def from_values(values: np.ndarray) -> "BoxplotStats":
        values = np.asarray(values, dtype=REFERENCE_DTYPE)
        if values.size == 0:
            raise ValueError("cannot summarize an empty array")
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        return BoxplotStats(
            minimum=float(values.min()),
            q1=float(q1),
            median=float(median),
            q3=float(q3),
            maximum=float(values.max()),
            mean=float(values.mean()),
        )

    def row(self) -> str:
        """One-line rendering used by the Fig. 4 bench."""
        return (
            f"min={self.minimum:.3f} q1={self.q1:.3f} med={self.median:.3f} "
            f"q3={self.q3:.3f} max={self.maximum:.3f} mean={self.mean:.3f}"
        )


def boxplot_stats(values: np.ndarray) -> BoxplotStats:
    """Convenience alias for :meth:`BoxplotStats.from_values`."""
    return BoxplotStats.from_values(values)


@dataclass
class _AnnotatorReport:
    counts: np.ndarray
    quality: np.ndarray          # accuracy (classification) or F1 (sequences);
                                 # NaN for annotators with no labels at all
    confusions: np.ndarray       # (J, K, K) empirical confusion matrices

    def _require_selection(self, values: np.ndarray, what: str, min_labels: int) -> np.ndarray:
        if values.size == 0:
            busiest = int(self.counts.max()) if self.counts.size else 0
            raise ValueError(
                f"no annotator passes min_labels={min_labels} for {what} "
                f"(crowd has {self.counts.size} annotators; the busiest "
                f"labeled {busiest} instances)"
            )
        return values

    def count_stats(self, min_labels: int = 1) -> BoxplotStats:
        selected = self.counts[self.counts >= min_labels]
        return boxplot_stats(self._require_selection(selected, "count_stats", min_labels))

    def quality_stats(self, min_labels: int = 1) -> BoxplotStats:
        # Zero-label annotators carry quality NaN ("no data"), not 0.0
        # ("always wrong"); they are excluded here even at min_labels=0 so
        # they can never drag the Fig. 4 boxplots down.
        keep = (self.counts >= min_labels) & ~np.isnan(self.quality)
        return boxplot_stats(
            self._require_selection(self.quality[keep], "quality_stats", min_labels)
        )

    def top_annotators(self, n: int) -> np.ndarray:
        """Indices of the n most active annotators (Fig. 6/7a selection).

        Stable sort so tied volumes keep ascending annotator order — the
        selection must not reshuffle across platforms/numpy versions.
        """
        return np.argsort(-self.counts, kind="stable")[:n]

    def overall_reliability(self) -> np.ndarray:
        """Mean diagonal of each confusion matrix (Fig. 6/7b y-axis)."""
        K = self.confusions.shape[1]
        return np.einsum("jkk->j", self.confusions) / K


def classification_annotator_report(
    crowd: CrowdLabelMatrix, truth: np.ndarray
) -> _AnnotatorReport:
    """Per-annotator volume, accuracy, and confusion for classification."""
    truth = np.asarray(truth)
    counts = crowd.annotations_per_annotator()
    J = crowd.num_annotators
    # NaN = "never labeled anything": distinct from an accuracy of 0.0,
    # which means "labeled and always wrong".
    accuracy = np.full(J, np.nan)
    confusions = np.zeros((J, crowd.num_classes, crowd.num_classes))
    observed = crowd.observed_mask
    for j in range(J):
        mask = observed[:, j]
        if mask.any():
            accuracy[j] = float((crowd.labels[mask, j] == truth[mask]).mean())
        confusions[j] = crowd.annotator_confusion(truth, j)
    return _AnnotatorReport(counts=counts, quality=accuracy, confusions=confusions)


def sequence_annotator_report(
    crowd: SequenceCrowdLabels,
    truth: list[np.ndarray],
    labels: list[str] = CONLL_LABELS,
) -> _AnnotatorReport:
    """Per-annotator volume, span F1, and token confusion for sequences."""
    J = crowd.num_annotators
    counts = crowd.annotations_per_annotator()
    f1 = np.full(J, np.nan)  # NaN = labeled no sentences (see classification twin)
    confusions = np.zeros((J, crowd.num_classes, crowd.num_classes))
    predictions_per_annotator: list[list[np.ndarray]] = [[] for _ in range(J)]
    truths_per_annotator: list[list[np.ndarray]] = [[] for _ in range(J)]
    for i in range(crowd.num_instances):
        for j in crowd.annotators_of(i):
            predictions_per_annotator[j].append(crowd.labels[i][:, j])
            truths_per_annotator[j].append(np.asarray(truth[i]))
    for j in range(J):
        if predictions_per_annotator[j]:
            f1[j] = span_f1_score(
                truths_per_annotator[j], predictions_per_annotator[j], labels
            ).f1
        confusions[j] = crowd.annotator_confusion(truth, j)
    return _AnnotatorReport(counts=counts, quality=f1, confusions=confusions)
