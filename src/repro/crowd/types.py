"""Containers for crowd-annotated data.

The paper's notation: dataset ``D = {x_i, y_i}`` where ``y_i`` is a vector of
labels from ``J`` annotators and ``y_{ij} = 0`` marks "annotator j did not
label instance i". Because our class ids are 0-based we use ``-1`` as the
missing sentinel instead (``MISSING``); conversion helpers are provided.

Two containers cover the paper's two tasks:

* :class:`CrowdLabelMatrix` — instance-level categorical labels
  (sentiment classification); a dense ``(I, J)`` integer matrix.
* :class:`SequenceCrowdLabels` — token-level label sequences (NER); a list
  of per-instance ``(T_i, J)`` matrices, since sentences have ragged
  lengths. An annotator labels either a whole sentence or none of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MISSING", "CrowdLabelMatrix", "SequenceCrowdLabels"]

MISSING = -1


def _validate_label_block(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Validate one ``(n, J)`` block of labels; returns it as int64."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"labels must be (I, J), got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise TypeError(f"labels must be integers, got {labels.dtype}")
    valid = (labels == MISSING) | ((labels >= 0) & (labels < num_classes))
    if not valid.all():
        bad = labels[~valid]
        raise ValueError(f"labels out of range [0, {num_classes}): {np.unique(bad)}")
    return labels.astype(np.int64)


class CrowdLabelMatrix:
    """Dense instance × annotator label matrix with a missing sentinel.

    Parameters
    ----------
    labels:
        ``(I, J)`` integer array; entries are class ids in ``[0, K)`` or
        :data:`MISSING`.
    num_classes:
        Number of classes ``K``.

    The labels are treated as immutable after construction (every mutating
    operation, e.g. :meth:`subset`, builds a new container), which lets the
    flat COO views below — the ``(n_obs,)`` index arrays of
    :meth:`flat_label_pairs` and the sparse instance × (annotator, label)
    incidence of :meth:`label_incidence` — be computed once and cached.
    Vote counts, one-hot expansion, and the confusion-count/E-step kernels
    in :mod:`repro.inference.primitives` all run off these views as single
    bincounts/matmuls instead of ``(I, J, K)`` dense scans.

    The one sanctioned mutation is :meth:`extend` — the streaming append
    path — which adds whole instances and updates every populated cache
    incrementally (O(new observations) of cache *computation*; already-built
    views are carried over, never recomputed from scratch).

    The read-only-views contract is machine-checked: the accessors named
    in ``repro.analysis.flow.facts.BORROWING_CALLS`` (``shards``,
    ``iter_shards``, ``flat_label_pairs``, ``label_incidence``,
    ``vote_counts``, ...) seed "borrowed" taint in the lint engine's
    dataflow tier, and any in-place write reaching a borrowed view
    without an intervening ``.copy()`` is a ``view-mutation`` finding.
    """

    def __init__(self, labels: np.ndarray, num_classes: int) -> None:
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        self.labels = _validate_label_block(labels, num_classes)
        self.num_classes = int(num_classes)

    # ------------------------------------------------------------------ #
    @property
    def num_instances(self) -> int:
        return self.labels.shape[0]

    @property
    def num_annotators(self) -> int:
        return self.labels.shape[1]

    @property
    def observed_mask(self) -> np.ndarray:
        """Boolean ``(I, J)``: which cells carry a label (cached)."""
        cached = getattr(self, "_observed_mask_cache", None)
        if cached is None:
            cached = self.labels != MISSING
            self._observed_mask_cache = cached
        return cached

    def annotations_per_instance(self) -> np.ndarray:
        """``num(J(i))`` of paper Eq. 5: labels per instance, shape ``(I,)``."""
        return self.observed_mask.sum(axis=1)

    def annotations_per_annotator(self) -> np.ndarray:
        """Number of instances each annotator labeled, shape ``(J,)``."""
        return self.observed_mask.sum(axis=0)

    def total_annotations(self) -> int:
        return int(self.observed_mask.sum())

    def flat_label_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(instance, annotator, label)`` triples of observed cells.

        The ``(n_obs,)`` COO view of the matrix; the shared kernels in
        :mod:`repro.inference.primitives` scatter/gather over these triples
        instead of scanning the dense ``(I, J)`` matrix (or its ``(I, J, K)``
        one-hot expansion) every EM round.
        """
        cached = getattr(self, "_flat_pairs_cache", None)
        if cached is None:
            rows, cols = np.nonzero(self.observed_mask)
            cached = (rows, cols, self.labels[rows, cols])
            self._flat_pairs_cache = cached
        return cached

    def label_incidence(self):
        """Cached sparse ``(I, J·K)`` incidence of observed labels.

        Entry ``(i, j·K + y)`` is 1 when annotator ``j`` gave instance ``i``
        label ``y`` — the classification twin of
        :meth:`SequenceCrowdLabels.token_label_incidence`. Confusion-count
        accumulation and the per-instance log-likelihood gather are then
        single sparse–dense products. Never None: only a
        :class:`~repro.crowd.sharding.SparseLabelShard` built with
        ``sparse_incidence=False`` sends the kernels down their bincount
        path.
        """
        cached = getattr(self, "_incidence_cache", None)
        if cached is None:
            from scipy.sparse import csr_matrix

            rows, cols, given = self.flat_label_pairs()
            group = cols * self.num_classes + given
            cached = csr_matrix(
                (np.ones(rows.size), (rows, group)),
                shape=(self.num_instances, self.num_annotators * self.num_classes),
            )
            self._incidence_cache = cached
        return cached

    def vote_counts(self) -> np.ndarray:
        """Per-instance class vote counts, shape ``(I, K)`` (cached view —
        treat as read-only, like the other cached views)."""
        cached = getattr(self, "_vote_counts_cache", None)
        if cached is None:
            rows, _, given = self.flat_label_pairs()
            key = rows * self.num_classes + given
            counts = np.bincount(key, minlength=self.num_instances * self.num_classes)
            cached = counts.reshape(self.num_instances, self.num_classes)
            self._vote_counts_cache = cached
        return cached

    def one_hot(self) -> np.ndarray:
        """``(I, J, K)`` one-hot labels (zero rows where missing)."""
        out = np.zeros((self.num_instances, self.num_annotators, self.num_classes))
        rows, cols, given = self.flat_label_pairs()
        out[rows, cols, given] = 1.0
        return out

    def subset(self, indices: np.ndarray) -> "CrowdLabelMatrix":
        """Restrict to a subset of instances (annotator axis unchanged)."""
        return CrowdLabelMatrix(self.labels[np.asarray(indices)], self.num_classes)

    def shards(self, num_shards: int) -> list:
        """Split into ``num_shards`` contiguous zero-copy shard views.

        Sizing follows ``np.array_split``: near-equal shards, the first
        ``I % num_shards`` one instance larger; when ``num_shards > I``
        the surplus shards are empty (legal — the map-reduce layer treats
        them as contributing nothing). Shard caches are slices of this
        container's caches; see :mod:`repro.crowd.sharding`.
        """
        from .sharding import CrowdShard, partition_bounds

        return [
            CrowdShard(self, start, stop)
            for start, stop in partition_bounds(self.num_instances, num_shards)
        ]

    def iter_shards(self, max_observations: int):
        """Lazily yield contiguous shard views of bounded observation count.

        Each shard carries at most ``max_observations`` observed labels —
        except that every shard holds at least one instance, so a single
        instance with more labels than the budget still ships alone. An
        empty crowd yields one empty shard. The generator is one-shot;
        multi-pass consumers (every iterative sharded method) should wrap
        it in a callable: ``lambda: crowd.iter_shards(n)``.
        """
        from .sharding import CrowdShard

        if max_observations < 1:
            raise ValueError(f"need a positive observation budget, got {max_observations}")
        I = self.num_instances
        if I == 0:
            yield CrowdShard(self, 0, 0)
            return
        per_instance = self.annotations_per_instance()
        start = 0
        while start < I:
            stop = start + 1
            budget = max_observations - int(per_instance[start])
            while stop < I and int(per_instance[stop]) <= budget:
                budget -= int(per_instance[stop])
                stop += 1
            yield CrowdShard(self, start, stop)
            start = stop

    def extend(self, new_labels: np.ndarray) -> "CrowdLabelMatrix":
        """Append whole instances in place — the streaming ingest path.

        ``new_labels`` is ``(n_new, J)`` with the same annotator axis and
        label convention as the constructor. Every *populated* cache is
        updated incrementally rather than invalidated: the observed mask,
        vote counts, and COO triples of the new block are computed in
        O(new observations) and appended to the existing views, and the
        sparse incidence gains the new block's rows via a sparse vstack.
        Unbuilt caches stay unbuilt (they build lazily over the full
        matrix on first use). Returns ``self`` for chaining.
        """
        block = _validate_label_block(new_labels, self.num_classes)
        if block.shape[1] != self.num_annotators:
            raise ValueError(
                f"new labels must keep the annotator axis "
                f"({self.num_annotators}), got {block.shape[1]}"
            )
        old_instances = self.num_instances
        mask_cache = getattr(self, "_observed_mask_cache", None)
        pairs_cache = getattr(self, "_flat_pairs_cache", None)
        incidence_cache = getattr(self, "_incidence_cache", None)
        votes_cache = getattr(self, "_vote_counts_cache", None)
        self.labels = np.concatenate([self.labels, block], axis=0)

        block_mask = block != MISSING
        if mask_cache is not None:
            self._observed_mask_cache = np.concatenate([mask_cache, block_mask], axis=0)
        rows, cols = np.nonzero(block_mask)
        given = block[rows, cols]
        if pairs_cache is not None:
            self._flat_pairs_cache = (
                np.concatenate([pairs_cache[0], rows + old_instances]),
                np.concatenate([pairs_cache[1], cols]),
                np.concatenate([pairs_cache[2], given]),
            )
        if votes_cache is not None:
            key = rows * self.num_classes + given
            counts = np.bincount(key, minlength=block.shape[0] * self.num_classes)
            self._vote_counts_cache = np.concatenate(
                [votes_cache, counts.reshape(block.shape[0], self.num_classes)], axis=0
            )
        if incidence_cache is not None:
            from scipy.sparse import csr_matrix, vstack

            group = cols * self.num_classes + given
            block_incidence = csr_matrix(
                (np.ones(rows.size), (rows, group)),
                shape=(block.shape[0], self.num_annotators * self.num_classes),
            )
            self._incidence_cache = vstack(
                [incidence_cache, block_incidence], format="csr"
            )
        return self

    def annotator_confusion(self, truth: np.ndarray, annotator: int) -> np.ndarray:
        """Empirical row-normalized confusion matrix of one annotator.

        These are the "Real" matrices of paper Fig. 6/7(a): row m = true
        class, column n = annotator's label, conditioned on having labeled.
        Rows with no observations fall back to uniform.
        """
        truth = np.asarray(truth)
        if truth.shape != (self.num_instances,):
            raise ValueError(f"truth must be ({self.num_instances},), got {truth.shape}")
        K = self.num_classes
        counts = np.zeros((K, K))
        observed = self.observed_mask[:, annotator]
        for m in range(K):
            mask = observed & (truth == m)
            given = self.labels[mask, annotator]
            np.add.at(counts[m], given, 1.0)
        row_sums = counts.sum(axis=1, keepdims=True)
        uniform = np.full((K, K), 1.0 / K)
        return np.where(row_sums > 0, counts / np.where(row_sums > 0, row_sums, 1), uniform)

    # ------------------------------------------------------------------ #
    @staticmethod
    def from_paper_convention(labels_1based: np.ndarray, num_classes: int) -> "CrowdLabelMatrix":
        """Convert the paper's 1-based labels (0 = missing) to this container."""
        labels_1based = np.asarray(labels_1based)
        converted = np.where(labels_1based == 0, MISSING, labels_1based - 1)
        return CrowdLabelMatrix(converted.astype(np.int64), num_classes)

    def to_paper_convention(self) -> np.ndarray:
        """Export as the paper's 1-based convention (0 = missing)."""
        return np.where(self.labels == MISSING, 0, self.labels + 1)


@dataclass
class SequenceCrowdLabels:
    """Token-level crowd labels for ragged sentences.

    Attributes
    ----------
    labels:
        List (length I) of ``(T_i, J)`` integer arrays; a column is either
        all :data:`MISSING` (annotator skipped the sentence) or fully
        labeled.
    num_classes:
        Number of tag classes ``K``.
    num_annotators:
        Number of annotators ``J``.
    """

    labels: list[np.ndarray]
    num_classes: int
    num_annotators: int

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        for i, matrix in enumerate(self.labels):
            self.labels[i] = self._validate_sentence(matrix, i)

    def _validate_sentence(self, matrix: np.ndarray, index: int) -> np.ndarray:
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != self.num_annotators:
            raise ValueError(
                f"instance {index}: expected (T_i, {self.num_annotators}), got {matrix.shape}"
            )
        valid = (matrix == MISSING) | ((matrix >= 0) & (matrix < self.num_classes))
        if not valid.all():
            raise ValueError(f"instance {index}: labels out of range")
        # Columns must be fully labeled or fully missing.
        col_missing = (matrix == MISSING).sum(axis=0)
        partial = (col_missing > 0) & (col_missing < matrix.shape[0])
        if partial.any():
            raise ValueError(
                f"instance {index}: annotators {np.nonzero(partial)[0]} labeled "
                "only part of the sentence"
            )
        return matrix.astype(np.int64)

    @property
    def num_instances(self) -> int:
        return len(self.labels)

    def flat_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """All sentences stacked: ``((ΣT_i, J) labels, (I+1,) row offsets)``.

        Sentence ``i`` occupies rows ``offsets[i]:offsets[i+1]``. The result
        is cached — the label matrices are treated as immutable (every
        mutating operation, e.g. :meth:`subset`, builds a new container),
        with one sanctioned exception: :meth:`append_labels`, the streaming
        ingest path, which *replaces* the cached views with incrementally
        grown ones. Don't hold a returned view across an append.
        This flat view is what the vectorized EM updates in
        :mod:`repro.core.em` and the token-level inference adapters operate
        on instead of per-sentence Python loops.
        """
        cached = getattr(self, "_flat_cache", None)
        if cached is None:
            sizes = np.fromiter(
                (matrix.shape[0] for matrix in self.labels), dtype=np.int64, count=len(self.labels)
            )
            offsets = np.zeros(len(self.labels) + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
            stacked = (
                np.concatenate(self.labels, axis=0)
                if self.labels
                else np.zeros((0, self.num_annotators), dtype=np.int64)
            )
            cached = (stacked, offsets)
            self._flat_cache = cached
        return cached

    def flat_label_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(token, annotator, label)`` triples of all observed labels.

        ``token`` indexes rows of :meth:`flat_labels`; the triples drive the
        vectorized EM scatter/gather in :mod:`repro.core.em` without
        re-scanning the ``(ΣT_i, J)`` matrix every round.
        """
        cached = getattr(self, "_flat_pairs_cache", None)
        if cached is None:
            stacked, _ = self.flat_labels()
            tokens, annotators = np.nonzero(stacked != MISSING)
            cached = (tokens, annotators, stacked[tokens, annotators])
            self._flat_pairs_cache = cached
        return cached

    def token_label_incidence(self):
        """Cached sparse ``(ΣT_i, J·K)`` incidence of observed labels.

        Entry ``(t, j·K + y)`` is 1 when annotator ``j`` gave token ``t``
        label ``y``. Both sequence-EM updates are then single sparse–dense
        products (see :mod:`repro.core.em`).
        """
        cached = getattr(self, "_incidence_cache", None)
        if cached is None:
            from scipy.sparse import csr_matrix

            tokens, annotators, given = self.flat_label_pairs()
            stacked, _ = self.flat_labels()
            group = annotators * self.num_classes + given
            cached = csr_matrix(
                (np.ones(tokens.size), (tokens, group)),
                shape=(stacked.shape[0], self.num_annotators * self.num_classes),
            )
            self._incidence_cache = cached
        return cached

    def annotator_mask(self) -> np.ndarray:
        """Boolean ``(I, J)``: which annotators labeled each sentence (cached)."""
        cached = getattr(self, "_annotator_mask_cache", None)
        if cached is None:
            stacked, offsets = self.flat_labels()
            observed = stacked != MISSING
            # Columns are all-or-none per sentence, so "any token labeled"
            # equals "sentence labeled"; reduceat sums per-sentence blocks.
            nonempty = offsets[:-1] < offsets[1:]
            cached = np.zeros((self.num_instances, self.num_annotators), dtype=bool)
            if nonempty.any():
                sums = np.add.reduceat(observed, offsets[:-1][nonempty], axis=0)
                cached[nonempty] = sums > 0
            self._annotator_mask_cache = cached
        return cached

    def annotators_of(self, instance: int) -> np.ndarray:
        """Indices of annotators who labeled this sentence."""
        return np.nonzero(self.annotator_mask()[instance])[0]

    def annotations_per_instance(self) -> np.ndarray:
        """Annotators per sentence, shape ``(I,)``."""
        return self.annotator_mask().sum(axis=1)

    def annotations_per_annotator(self) -> np.ndarray:
        """Sentences labeled by each annotator, shape ``(J,)``."""
        return self.annotator_mask().sum(axis=0)

    def token_vote_counts_flat(self) -> np.ndarray:
        """Per-token class vote counts over all sentences, shape ``(ΣT_i, K)``.

        Row blocks follow :meth:`flat_labels` offsets; one ``bincount`` per
        class replaces the per-sentence / per-annotator scatter loops.
        """
        stacked, _ = self.flat_labels()
        tokens, _, votes = self.flat_label_pairs()
        key = tokens * self.num_classes + votes
        counts = np.bincount(key, minlength=stacked.shape[0] * self.num_classes)
        return counts.reshape(stacked.shape[0], self.num_classes)

    def subset(self, indices: np.ndarray) -> "SequenceCrowdLabels":
        """Restrict to a subset of sentences."""
        picked = [self.labels[int(i)] for i in np.asarray(indices)]
        return SequenceCrowdLabels(picked, self.num_classes, self.num_annotators)

    def shards(self, num_shards: int) -> list:
        """Split into ``num_shards`` contiguous zero-copy sentence-range
        views (``np.array_split`` sizing, like
        :meth:`CrowdLabelMatrix.shards`)."""
        from .sharding import SequenceCrowdShard, partition_bounds

        return [
            SequenceCrowdShard(self, start, stop)
            for start, stop in partition_bounds(self.num_instances, num_shards)
        ]

    def iter_shards(self, max_observations: int):
        """Lazily yield contiguous sentence-range views carrying at most
        ``max_observations`` observed token labels each (at least one
        sentence per shard; one-shot — wrap in a callable for multi-pass
        use, like :meth:`CrowdLabelMatrix.iter_shards`)."""
        from .sharding import SequenceCrowdShard

        if max_observations < 1:
            raise ValueError(f"need a positive observation budget, got {max_observations}")
        I = self.num_instances
        if I == 0:
            yield SequenceCrowdShard(self, 0, 0)
            return
        _, offsets = self.flat_labels()
        lengths = np.diff(offsets)
        per_sentence = self.annotations_per_instance() * lengths
        start = 0
        while start < I:
            stop = start + 1
            budget = max_observations - int(per_sentence[start])
            while stop < I and int(per_sentence[stop]) <= budget:
                budget -= int(per_sentence[stop])
                stop += 1
            yield SequenceCrowdShard(self, start, stop)
            start = stop

    def append_labels(self, new_labels: list[np.ndarray]) -> "SequenceCrowdLabels":
        """Append whole sentences in place — the streaming ingest path.

        The sequence twin of :meth:`CrowdLabelMatrix.extend`: each matrix in
        ``new_labels`` is a ``(T_i, J)`` sentence under the constructor's
        convention. Populated caches (flat stack + offsets, COO triples,
        token incidence, annotator mask) are updated incrementally in
        O(new observations) of cache computation; unbuilt caches stay
        unbuilt. Returns ``self`` for chaining.
        """
        start = self.num_instances
        validated = [
            self._validate_sentence(matrix, start + i) for i, matrix in enumerate(new_labels)
        ]
        flat_cache = getattr(self, "_flat_cache", None)
        pairs_cache = getattr(self, "_flat_pairs_cache", None)
        incidence_cache = getattr(self, "_incidence_cache", None)
        mask_cache = getattr(self, "_annotator_mask_cache", None)
        self.labels.extend(validated)
        if not validated:
            return self

        block = np.concatenate(validated, axis=0)
        if flat_cache is not None:
            old_stacked, old_offsets = flat_cache
            sizes = np.fromiter(
                (matrix.shape[0] for matrix in validated), dtype=np.int64, count=len(validated)
            )
            new_offsets = old_offsets[-1] + np.cumsum(sizes)
            self._flat_cache = (
                np.concatenate([old_stacked, block], axis=0),
                np.concatenate([old_offsets, new_offsets]),
            )
        tokens, annotators = np.nonzero(block != MISSING)
        given = block[tokens, annotators]
        old_tokens = (
            int(flat_cache[1][-1])
            if flat_cache is not None
            else sum(matrix.shape[0] for matrix in self.labels[:start])
        )
        if pairs_cache is not None:
            self._flat_pairs_cache = (
                np.concatenate([pairs_cache[0], tokens + old_tokens]),
                np.concatenate([pairs_cache[1], annotators]),
                np.concatenate([pairs_cache[2], given]),
            )
        if incidence_cache is not None:
            from scipy.sparse import csr_matrix, vstack

            group = annotators * self.num_classes + given
            block_incidence = csr_matrix(
                (np.ones(tokens.size), (tokens, group)),
                shape=(block.shape[0], self.num_annotators * self.num_classes),
            )
            self._incidence_cache = vstack(
                [incidence_cache, block_incidence], format="csr"
            )
        if mask_cache is not None:
            new_mask = np.zeros((len(validated), self.num_annotators), dtype=bool)
            for i, matrix in enumerate(validated):
                if matrix.shape[0]:
                    new_mask[i] = (matrix != MISSING).any(axis=0)
            self._annotator_mask_cache = np.concatenate([mask_cache, new_mask], axis=0)
        return self

    def annotator_confusion(self, truth: list[np.ndarray], annotator: int) -> np.ndarray:
        """Token-level confusion matrix of one annotator vs ground truth."""
        K = self.num_classes
        counts = np.zeros((K, K))
        for i in range(self.num_instances):
            if annotator not in set(self.annotators_of(i).tolist()):
                continue
            given = self.labels[i][:, annotator]
            true = np.asarray(truth[i])
            np.add.at(counts, (true, given), 1.0)
        row_sums = counts.sum(axis=1, keepdims=True)
        uniform = np.full((K, K), 1.0 / K)
        return np.where(row_sums > 0, counts / np.where(row_sums > 0, row_sums, 1), uniform)
