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

Both hand the inference kernels one surface, built in one place: a
cached :class:`~repro.crowd.sharding.SparseLabelShard` over their
observed labels (:meth:`CrowdLabelMatrix.as_shard`,
:meth:`SequenceCrowdLabels.token_shard`). The shard owns the label
triples, the sparse incidence and the vote and label counts; the
containers' own accessors for them delegate to it.

Streams grow in place: :class:`RowBuffer` is the one append-only row
store behind :meth:`CrowdLabelMatrix.extend` and the streaming methods'
stored posteriors (:mod:`repro.inference.streaming`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MISSING",
    "CrowdLabelMatrix",
    "RowBuffer",
    "SequenceCrowdLabels",
    "normalize_rows",
    "read_only",
]

MISSING = -1


def read_only(array: np.ndarray | None) -> np.ndarray | None:
    """A read-only view of ``array`` (None stays None); ``array`` keeps its flags."""
    if array is None:
        return None
    view = array.view()
    view.flags.writeable = False
    return view


class RowBuffer:
    """Append-only rows in a capacity-doubling buffer.

    :meth:`append` copies a block into spare capacity and, when there is
    not enough, first moves the filled rows into storage of twice the
    needed size, so an append costs O(block) amortized instead of the
    O(all rows) of a concatenation. Spare capacity is at most the filled
    size. :meth:`view` hands out the filled prefix as a read-only view.
    Filled rows are never written again, so a view keeps its rows across
    later appends, a reallocation included (it keeps the old storage).

    ``rows`` becomes the first storage without a copy. The buffer never
    writes into it (its capacity is its length, so the first non-empty
    append reallocates), but the caller must not write into it either.
    Pickling keeps the filled rows only.
    """

    __slots__ = ("_storage", "_size", "_view")

    def __init__(self, rows: np.ndarray) -> None:
        self._storage = np.ascontiguousarray(rows)
        self._size = self._storage.shape[0]
        self._view = None

    def append(self, block: np.ndarray) -> None:
        """Copy ``block`` (rows of the same trailing shape) after the filled rows."""
        count = block.shape[0]
        if not count:
            return
        end = self._size + count
        if end > self._storage.shape[0]:
            grown = np.empty(
                (max(end, 2 * self._storage.shape[0]), *self._storage.shape[1:]),
                dtype=self._storage.dtype,
            )
            grown[: self._size] = self._storage[: self._size]
            self._storage = grown
        self._storage[self._size : end] = block
        self._size = end
        self._view = None

    def view(self) -> np.ndarray:
        """The filled rows, as a read-only view (the same object until the next append)."""
        if self._view is None:
            self._view = read_only(self._storage[: self._size])
        return self._view

    def __reduce__(self):
        return type(self), (self.view().copy(),)


def normalize_rows(counts: np.ndarray) -> np.ndarray:
    """Normalize nonnegative ``counts`` over the last axis.

    A row with no mass (total exactly 0) becomes uniform instead of 0/0.
    Every other row is the division ``x / x.sum(-1)`` does, so a NaN in a
    row still propagates. Integer counts give float64.
    """
    totals = counts.sum(axis=-1, keepdims=True)
    empty = totals == 0
    return np.where(empty, 1.0 / counts.shape[-1], counts / np.where(empty, 1.0, totals))


def _validate_label_block(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Validate one ``(n, J)`` block of labels; returns an int64 copy of it."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"labels must be (I, J), got shape {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise TypeError(f"labels must be integers, got {labels.dtype}")
    # MISSING is -1, so the valid labels are exactly the integers in [-1, K).
    if labels.size and (labels.min() < MISSING or labels.max() >= num_classes):
        bad = labels[(labels < MISSING) | (labels >= num_classes)]
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

    The kernels in :mod:`repro.inference.primitives` never scan the
    dense matrix. They run on one cached
    :class:`~repro.crowd.sharding.SparseLabelShard` over its labels
    (:meth:`as_shard`): the ``(instance, annotator, label)`` triples, the
    sparse instance × (annotator, label) incidence, and the vote and
    label counts, which the methods of the same name here delegate to.

    The labels are immutable after construction (every mutating
    operation, e.g. :meth:`subset`, builds a new container), except by
    :meth:`extend`, the streaming append path, which appends whole
    instances into the container's :class:`RowBuffer` and drops the
    derived views. :attr:`labels` is a read-only view of the filled rows,
    so a ``labels`` array taken earlier keeps its rows after an append.

    The read-only-views contract is machine-checked: the accessors named
    in ``repro.analysis.flow.facts.BORROWING_CALLS`` (``as_shard``,
    ``shards``, ``iter_shards``, ``flat_label_pairs``,
    ``label_incidence``, ``vote_counts``, ...) seed "borrowed" taint in
    the lint engine's dataflow tier, and any in-place write reaching a
    borrowed view without an intervening ``.copy()`` is a
    ``view-mutation`` finding.
    """

    def __init__(self, labels: np.ndarray, num_classes: int) -> None:
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        self._rows = RowBuffer(_validate_label_block(labels, num_classes))
        self.num_classes = int(num_classes)

    # ------------------------------------------------------------------ #
    @property
    def labels(self) -> np.ndarray:
        """The ``(I, J)`` int64 label matrix, as a read-only view."""
        return self._rows.view()

    @property
    def num_instances(self) -> int:
        return self.labels.shape[0]

    @property
    def num_annotators(self) -> int:
        return self.labels.shape[1]

    @property
    def observed_mask(self) -> np.ndarray:
        """Boolean ``(I, J)``: which cells carry a label (cached; the one
        dense view, which :meth:`extend` drops)."""
        cached = getattr(self, "_observed_mask_cache", None)
        if cached is None:
            cached = self.labels != MISSING
            self._observed_mask_cache = cached
        return cached

    def as_shard(self):
        """The kernel surface: one cached
        :class:`~repro.crowd.sharding.SparseLabelShard` over every label.

        Built on first use from the dense matrix in row-major order (so
        the triples are row-sorted and each is a C-contiguous array)
        without re-validating labels the constructor already checked;
        :meth:`extend` drops it. Every surface method below delegates to
        it.
        """
        cached = getattr(self, "_shard", None)
        if cached is None:
            from .sharding import SparseLabelShard, _dense_triples

            cached = SparseLabelShard._trusted(
                *_dense_triples(self.labels),
                num_instances=self.num_instances,
                num_annotators=self.num_annotators,
                num_classes=self.num_classes,
                rows_sorted=True,
            )
            self._shard = cached
        return cached

    def annotations_per_instance(self) -> np.ndarray:
        """``num(J(i))`` of paper Eq. 5: labels per instance, shape ``(I,)``."""
        return self.as_shard().annotations_per_instance()

    def annotations_per_annotator(self) -> np.ndarray:
        """Number of instances each annotator labeled, shape ``(J,)``."""
        return self.as_shard().annotations_per_annotator()

    def total_annotations(self) -> int:
        return self.as_shard().total_annotations()

    def flat_label_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(instance, annotator, label)`` triples of observed cells, row-sorted."""
        return self.as_shard().flat_label_pairs()

    def label_incidence(self):
        """Sparse ``(I, J·K)`` incidence: entry ``(i, j·K + y)`` is 1 when
        annotator ``j`` gave instance ``i`` label ``y``."""
        return self.as_shard().label_incidence()

    def vote_counts(self) -> np.ndarray:
        """Per-instance class vote counts, shape ``(I, K)``."""
        return self.as_shard().vote_counts()

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
        """Split into ``num_shards`` contiguous shards.

        Each is a :class:`~repro.crowd.sharding.SparseLabelShard` view over
        this container's cached COO triples: instance indices local to the
        shard, annotator and label columns sliced from the cache (see
        :mod:`repro.crowd.sharding`). Sizing follows ``np.array_split``:
        near-equal shards, the first ``I % num_shards`` one instance
        larger; when ``num_shards > I`` the surplus shards are empty
        (legal — the map-reduce layer treats them as contributing nothing).
        """
        from .sharding import _row_range, partition_bounds

        shard = self.as_shard()
        return [
            _row_range(shard, start, stop)
            for start, stop in partition_bounds(self.num_instances, num_shards)
        ]

    def iter_shards(self, max_observations: int):
        """Lazily yield contiguous shards of bounded observation count.

        The same :class:`~repro.crowd.sharding.SparseLabelShard` views as
        :meth:`shards`. Each carries at most ``max_observations`` observed
        labels — except that every shard holds at least one instance, so a
        single instance with more labels than the budget still ships alone.
        An empty crowd yields one empty shard. The generator is one-shot;
        multi-pass consumers (every iterative sharded method) should wrap
        it in a callable: ``lambda: crowd.iter_shards(n)``.
        """
        from .sharding import _row_range

        if max_observations < 1:
            raise ValueError(f"need a positive observation budget, got {max_observations}")
        I = self.num_instances
        shard = self.as_shard()
        if I == 0:
            yield _row_range(shard, 0, 0)
            return
        per_instance = shard.annotations_per_instance()
        start = 0
        while start < I:
            stop = start + 1
            budget = max_observations - int(per_instance[start])
            while stop < I and int(per_instance[stop]) <= budget:
                budget -= int(per_instance[stop])
                stop += 1
            yield _row_range(shard, start, stop)
            start = stop

    def extend(self, new_labels: np.ndarray) -> "CrowdLabelMatrix":
        """Append whole instances in place — the streaming ingest path.

        ``new_labels`` is ``(n_new, J)`` with the same annotator axis and
        label convention as the constructor; a block that fails
        validation leaves the container untouched. The validated block
        is copied into the container's :class:`RowBuffer`, so an append
        costs O(n_new) amortized, not a copy of every row held. The
        derived views (:meth:`as_shard` and :attr:`observed_mask`) are
        dropped and rebuild over the full matrix on first use. A
        ``labels`` array or a shard handed out earlier keeps describing
        the rows it was taken from. Returns ``self`` for chaining.
        """
        block = _validate_label_block(new_labels, self.num_classes)
        if block.shape[1] != self.num_annotators:
            raise ValueError(
                f"new labels must keep the annotator axis "
                f"({self.num_annotators}), got {block.shape[1]}"
            )
        self._rows.append(block)
        self._shard = None
        self._observed_mask_cache = None
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
        return normalize_rows(counts)

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
        mutating operation, e.g. :meth:`subset`, builds a new container).
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

    def token_shard(self):
        """The kernel surface: one cached
        :class:`~repro.crowd.sharding.SparseLabelShard` with the stacked
        tokens of :meth:`flat_labels` as its instances.

        Built on first use in row-major order (row-sorted, C-contiguous
        triples) without re-validating labels the constructor already
        checked. The token-level kernels (:mod:`repro.core.em`,
        HMM-Crowd, BSC-seq,
        :class:`~repro.inference.sequence_utils.TokenLevelInference`)
        all run on it, so its sparse ``(ΣT_i, J·K)`` incidence is built
        once per container.
        """
        cached = getattr(self, "_token_shard", None)
        if cached is None:
            from .sharding import SparseLabelShard, _dense_triples

            stacked, _ = self.flat_labels()
            cached = SparseLabelShard._trusted(
                *_dense_triples(stacked),
                num_instances=stacked.shape[0],
                num_annotators=self.num_annotators,
                num_classes=self.num_classes,
                rows_sorted=True,
            )
            self._token_shard = cached
        return cached

    def flat_label_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(token, annotator, label)`` triples of all observed labels;
        ``token`` indexes rows of :meth:`flat_labels`."""
        return self.token_shard().flat_label_pairs()

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
        """Per-token class vote counts over all sentences, shape ``(ΣT_i, K)``;
        row blocks follow :meth:`flat_labels` offsets."""
        return self.token_shard().vote_counts()

    def subset(self, indices: np.ndarray) -> "SequenceCrowdLabels":
        """Restrict to a subset of sentences."""
        picked = [self.labels[int(i)] for i in np.asarray(indices)]
        return SequenceCrowdLabels(picked, self.num_classes, self.num_annotators)

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
        return normalize_rows(counts)
