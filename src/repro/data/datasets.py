"""Dataset containers tying together tokens, ground truth, and crowd labels."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..crowd.types import CrowdLabelMatrix, SequenceCrowdLabels
from .vocab import Vocabulary

__all__ = [
    "TextClassificationDataset", "SequenceTaggingDataset", "pad_sequences",
    "length_mask", "pad_ragged", "trim_padded",
]


def pad_sequences(sequences: list[np.ndarray], pad_id: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Pad ragged integer sequences into ``(tokens, lengths)`` arrays."""
    if not sequences:
        raise ValueError("cannot pad an empty list of sequences")
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    if lengths.min() == 0:
        raise ValueError("sequences must be non-empty")
    out = np.full((len(sequences), int(lengths.max())), pad_id, dtype=np.int64)
    for i, seq in enumerate(sequences):
        out[i, : len(seq)] = seq
    return out, lengths


def length_mask(lengths: np.ndarray, max_time: int) -> np.ndarray:
    """Boolean ``(I, max_time)`` mask: ``position < lengths[i]``."""
    return np.arange(max_time)[None, :] < np.asarray(lengths)[:, None]


def pad_ragged(
    rows: np.ndarray | list[np.ndarray],
    lengths: np.ndarray,
    max_time: int,
    fill: float | np.ndarray = 0,
) -> np.ndarray:
    """Scatter per-sequence rows into a padded ``(I, max_time, ...)`` array.

    ``rows`` is a list of ``(T_i, ...)`` arrays or their ``(ΣT_i, ...)``
    stack; they fill the positions of :func:`length_mask`, in the rows'
    dtype. Every other position holds ``fill``: a scalar, or a row (which
    also gives an empty list its trailing shape).
    """
    fill = np.asarray(fill)
    if isinstance(rows, list):
        rows = np.concatenate(rows) if rows else np.empty((0, *fill.shape), dtype=fill.dtype)
    mask = length_mask(lengths, max_time)
    out = np.full(mask.shape + rows.shape[1:], fill, dtype=rows.dtype)
    out[mask] = rows
    return out


def trim_padded(padded: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """Inverse of :func:`pad_ragged`: the ``(T_i, ...)`` rows of each sequence."""
    lengths = np.asarray(lengths)
    rows = padded[length_mask(lengths, padded.shape[1])]
    ends = np.cumsum(lengths).tolist()
    return [rows[end - length : end] for end, length in zip(ends, lengths.tolist())]


@dataclass
class TextClassificationDataset:
    """Sentence-level classification data (the sentiment task).

    Attributes
    ----------
    tokens:
        ``(I, T_max)`` padded token ids.
    lengths:
        ``(I,)`` true sentence lengths.
    labels:
        ``(I,)`` ground-truth classes (used for Gold training and for
        evaluation only — LNCL methods never see them).
    vocab:
        The shared vocabulary.
    crowd:
        Crowd labels, or None for clean splits (dev/test).
    num_classes:
        ``K``.
    """

    tokens: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray
    vocab: Vocabulary
    num_classes: int
    crowd: CrowdLabelMatrix | None = None

    def __post_init__(self) -> None:
        I = self.tokens.shape[0]
        if self.lengths.shape != (I,) or self.labels.shape != (I,):
            raise ValueError("tokens/lengths/labels row counts disagree")
        if self.crowd is not None and self.crowd.num_instances != I:
            raise ValueError("crowd labels row count disagrees with tokens")

    def __len__(self) -> int:
        return self.tokens.shape[0]

    @property
    def mask(self) -> np.ndarray:
        """Boolean ``(I, T_max)`` validity mask derived from lengths."""
        return length_mask(self.lengths, self.tokens.shape[1])

    def subset(self, indices: np.ndarray) -> "TextClassificationDataset":
        """Select a subset of instances (used by the sample-efficiency bench)."""
        indices = np.asarray(indices)
        return replace(
            self,
            tokens=self.tokens[indices],
            lengths=self.lengths[indices],
            labels=self.labels[indices],
            crowd=self.crowd.subset(indices) if self.crowd is not None else None,
        )


@dataclass
class SequenceTaggingDataset:
    """Token-level tagging data (the NER task).

    Attributes
    ----------
    tokens:
        ``(I, T_max)`` padded token ids.
    lengths:
        ``(I,)`` sentence lengths.
    tags:
        List of ``(T_i,)`` gold tag-id arrays (ragged).
    label_names:
        Tag vocabulary (e.g. the 9 CoNLL classes).
    crowd:
        Token-level crowd labels, or None for clean splits.
    """

    tokens: np.ndarray
    lengths: np.ndarray
    tags: list[np.ndarray]
    vocab: Vocabulary
    label_names: list[str]
    crowd: SequenceCrowdLabels | None = None

    def __post_init__(self) -> None:
        I = self.tokens.shape[0]
        if self.lengths.shape != (I,) or len(self.tags) != I:
            raise ValueError("tokens/lengths/tags row counts disagree")
        for i, (tag_seq, length) in enumerate(zip(self.tags, self.lengths)):
            if len(tag_seq) != length:
                raise ValueError(f"instance {i}: {len(tag_seq)} tags for length {length}")
        if self.crowd is not None and self.crowd.num_instances != I:
            raise ValueError("crowd labels row count disagrees with tokens")

    def __len__(self) -> int:
        return self.tokens.shape[0]

    @property
    def num_classes(self) -> int:
        return len(self.label_names)

    @property
    def mask(self) -> np.ndarray:
        """Boolean ``(I, T_max)`` validity mask derived from lengths."""
        return length_mask(self.lengths, self.tokens.shape[1])

    def padded_tags(self, pad_value: int = 0) -> np.ndarray:
        """Gold tags as a padded ``(I, T_max)`` array (mask out the padding)."""
        out = np.full((len(self), self.tokens.shape[1]), pad_value, dtype=np.int64)
        for i, tag_seq in enumerate(self.tags):
            out[i, : len(tag_seq)] = tag_seq
        return out

    def subset(self, indices: np.ndarray) -> "SequenceTaggingDataset":
        """Select a subset of sentences."""
        indices = np.asarray(indices)
        return replace(
            self,
            tokens=self.tokens[indices],
            lengths=self.lengths[indices],
            tags=[self.tags[int(i)] for i in indices],
            crowd=self.crowd.subset(indices) if self.crowd is not None else None,
        )
