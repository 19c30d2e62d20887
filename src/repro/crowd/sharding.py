"""Crowd shards — the data layer of shard-and-merge truth inference.

The inference kernels in :mod:`repro.inference.primitives` consume a small
surface: the flat COO triples, the sparse incidence, vote counts, and a
handful of counting helpers. A *shard* is anything that
exposes that surface over a slice of a crowd; the map-reduce EM layer in
:mod:`repro.inference.sharding` never touches a whole crowd directly, so
inference memory is bounded by the largest shard plus the O(I·K) posterior
it is asked to produce.

One shard type, :class:`SparseLabelShard`, covers the deployment
spectrum: a shard defined by its ``(instance, annotator, label)`` triples
plus dimensions, with no dense ``(I, J)`` matrix behind it, so a worker
holds exactly what the kernels consume.

* In memory, each container caches one shard over all its labels
  (``CrowdLabelMatrix.as_shard()``, ``SequenceCrowdLabels.token_shard()``)
  and delegates its own surface to it, so the triples, the incidence and
  the vote counts are built here and nowhere else.
  ``CrowdLabelMatrix.shards(n)`` / ``iter_shards(max_observations)`` hand
  out contiguous instance ranges as views over that row-sorted shard:
  the annotator and label columns are slices of its arrays, and only
  the localized row index is fresh memory (O(shard observations)). A view
  pickles its own slice, never the parent. It is a snapshot: ``extend``
  drops the container's shard and the next read builds a new one, so a
  view taken before it keeps describing the rows it was cut from.
* On disk, :meth:`SparseLabelShard.save` / :meth:`SparseLabelShard.load`
  give it a durable form — an int64 header plus the ``(3, n_obs)`` COO
  block, which loads as a memmap.
* :class:`ShardHandle` — a picklable *descriptor* of an on-disk shard:
  path, optional instance range in file coordinates, and dimensions. A
  worker process receives the handle (a few ints and a string), opens the
  memmap itself via :meth:`ShardHandle.open`, and never ships label
  arrays across the pickle boundary. :func:`save_shard_handles` writes a
  whole crowd as ONE row-sorted COO file and returns range handles over
  it — the out-of-core parallel form the process-based map in
  :mod:`repro.inference.sharding` consumes.

In-memory views and range handles are cut by the same range slice of
row-sorted triples (two binary searches on the row column).
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass

import numpy as np

from .types import MISSING, CrowdLabelMatrix

__all__ = [
    "SparseLabelShard",
    "ShardHandle",
    "as_sparse_shard",
    "save_shard_handles",
    "partition_bounds",
]


def partition_bounds(total: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous near-equal ``[start, stop)`` ranges covering ``total``.

    ``np.array_split`` sizing: the first ``total % num_shards`` ranges are
    one element larger; when ``num_shards > total`` the surplus ranges are
    empty. The single source of truth for every contiguous shard layout
    (``CrowdLabelMatrix.shards(n)``, :func:`save_shard_handles` and the
    out-of-core benches).
    """
    if num_shards < 1:
        raise ValueError(f"need at least one shard, got {num_shards}")
    base, extra = divmod(total, num_shards)
    bounds, start = [], 0
    for index in range(num_shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


class SparseLabelShard:
    """A crowd shard defined by its COO triples — no dense matrix.

    The one shard type: it carries exactly what the kernels consume,
    ``(instance, annotator, label)`` triples plus dimensions, so
    construction is O(observations) with no ``(I, J)`` densification.
    It is also the containers' kernel surface:
    ``CrowdLabelMatrix.as_shard()`` and
    ``SequenceCrowdLabels.token_shard()`` each cache one over all their
    labels, ``CrowdLabelMatrix.shards`` / ``iter_shards`` return views
    cut from that one, :meth:`load` and
    :meth:`ShardHandle.open` return file-backed ones, and callers build
    their own from arrays. Triples need not be sorted; instances with no
    triples are simply unlabeled.

    Parameters
    ----------
    rows, annotators, labels:
        ``(n_obs,)`` integer arrays: local instance index in
        ``[0, num_instances)``, annotator in ``[0, num_annotators)``,
        label in ``[0, num_classes)``.
    """

    def __init__(
        self,
        rows: np.ndarray,
        annotators: np.ndarray,
        labels: np.ndarray,
        num_instances: int,
        num_annotators: int,
        num_classes: int,
    ) -> None:
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        if num_instances < 0 or num_annotators < 1:
            raise ValueError("need non-negative instances and at least one annotator")
        rows = np.asarray(rows, dtype=np.int64)
        annotators = np.asarray(annotators, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if not rows.shape == annotators.shape == labels.shape or rows.ndim != 1:
            raise ValueError("rows/annotators/labels must be equal-length 1-D arrays")
        for name, values, bound in (
            ("rows", rows, num_instances),
            ("annotators", annotators, num_annotators),
            ("labels", labels, num_classes),
        ):
            if values.size and (values.min() < 0 or values.max() >= bound):
                raise ValueError(f"{name} out of range [0, {bound})")
        self._rows = rows
        self._annotators = annotators
        self._labels = labels
        self.num_instances = int(num_instances)
        self.num_annotators = int(num_annotators)
        self.num_classes = int(num_classes)
        self._rows_sorted: bool | None = None  # unknown until probed

    @classmethod
    def _trusted(
        cls,
        rows,
        annotators,
        labels,
        num_instances: int,
        num_annotators: int,
        num_classes: int,
        rows_sorted: bool | None = None,
    ) -> "SparseLabelShard":
        """Construct without the O(n_obs) range validation.

        For triples that were validated before: a container's own shard
        (``as_shard``/``token_shard``), views cut from it
        (:func:`_row_range`) and files :meth:`save` wrote
        (:meth:`load`) — re-validating a memmap-backed shard would fault
        in every page of a file the caller asked to map lazily. Arrays are
        stored as given: views stay views, memmap views stay memmaps.
        """
        shard = cls.__new__(cls)
        shard._rows = rows
        shard._annotators = annotators
        shard._labels = labels
        shard.num_instances = int(num_instances)
        shard.num_annotators = int(num_annotators)
        shard.num_classes = int(num_classes)
        shard._rows_sorted = rows_sorted
        return shard

    def _rows_are_sorted(self) -> bool:
        """Whether the triples are row-sorted (probed once, then cached;
        save/load carry the answer in the file header so memmap loads
        never scan)."""
        if self._rows_sorted is None:
            self._rows_sorted = bool(
                self._rows.size == 0 or (np.diff(self._rows) >= 0).all()
            )
        return self._rows_sorted

    def __getstate__(self) -> dict:
        """Pickle the triples and dimensions, never the built caches.

        Workers receiving a shard must not pay for a serialized CSR
        incidence, and memmap-backed triples materialize to plain arrays
        (a pickle cannot carry a file mapping). A view pickles its own
        slice of the parent's triples, not the parent.
        """
        state = self.__dict__.copy()
        state.pop("_incidence_cache", None)
        state["_rows"] = np.asarray(self._rows)
        state["_annotators"] = np.asarray(self._annotators)
        state["_labels"] = np.asarray(self._labels)
        return state

    @classmethod
    def from_dense(cls, labels: np.ndarray, num_classes: int) -> "SparseLabelShard":
        """Build from a dense ``(I, J)`` block under the
        :class:`~repro.crowd.types.CrowdLabelMatrix` convention."""
        labels = np.asarray(labels)
        return cls(
            *_dense_triples(labels),
            num_instances=labels.shape[0],
            num_annotators=labels.shape[1],
            num_classes=num_classes,
        )

    def flat_label_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._rows, self._annotators, self._labels

    def label_incidence(self):
        """Sparse ``(I, J·K)`` incidence of the triples (built once, cached).

        Entry ``(i, j·K + y)`` is 1 when annotator ``j`` gave instance
        ``i`` label ``y``. The one builder of the incidence every kernel
        multiplies against: row-sorted triples (a container's cached
        shard and every view cut from one) give the CSR arrays directly —
        the indptr is one searchsorted, with no COO→CSR sort — and
        unsorted ones go through COO.
        """
        cached = getattr(self, "_incidence_cache", None)
        if cached is None:
            from scipy.sparse import csr_matrix

            group = self._annotators * self.num_classes + self._labels
            shape = (self.num_instances, self.num_annotators * self.num_classes)
            data = np.ones(self._rows.size)
            if self._rows.size and self._rows_are_sorted():
                indptr = np.searchsorted(
                    self._rows, np.arange(self.num_instances + 1)
                ).astype(np.int32)
                cached = csr_matrix((data, group.astype(np.int32), indptr), shape=shape)
            else:
                cached = csr_matrix((data, (self._rows, group)), shape=shape)
            self._incidence_cache = cached
        return cached

    def vote_counts(self) -> np.ndarray:
        key = self._rows * self.num_classes + self._labels
        counts = np.bincount(key, minlength=self.num_instances * self.num_classes)
        return counts.reshape(self.num_instances, self.num_classes)

    def annotations_per_instance(self) -> np.ndarray:
        return np.bincount(self._rows, minlength=self.num_instances)

    def annotations_per_annotator(self) -> np.ndarray:
        return np.bincount(self._annotators, minlength=self.num_annotators)

    def total_annotations(self) -> int:
        return int(self._rows.size)

    def to_matrix(self) -> CrowdLabelMatrix:
        """Densify to a standalone ``(I, J)`` container.

        The inverse of :meth:`from_dense` / :func:`as_sparse_shard` for
        shards without duplicate ``(instance, annotator)`` triples — the
        rehydration path for serving-layer checkpoints, which always
        write from a :class:`~repro.crowd.types.CrowdLabelMatrix`. With
        duplicate cells the last triple wins (numpy fancy-assignment
        order), so round-tripping a deduplicated source is exact.
        """
        labels = np.full(
            (self.num_instances, self.num_annotators), MISSING, dtype=np.int64
        )
        labels[np.asarray(self._rows), np.asarray(self._annotators)] = np.asarray(
            self._labels
        )
        return CrowdLabelMatrix(labels, self.num_classes)

    # -- on-disk format ---------------------------------------------------- #
    def _header_fields(self) -> np.ndarray:
        return np.array(
            [
                _SHARD_FILE_MAGIC,
                _SHARD_FORMAT_VERSION,
                self.num_instances,
                self.num_annotators,
                self.num_classes,
                1,  # field 5: always 1, never read (see save)
                int(self._rows_are_sorted()),
                self._rows.size,
            ],
            dtype=np.int64,
        )

    def file_chunks(self) -> list:
        """The shard file, as buffers to write back to back.

        The one serializer of the layout :meth:`save` writes: the int64
        header array and the ``(3, n_obs)`` COO block, each in
        :mod:`numpy.lib.format`. The first buffer holds both npy headers
        and the header array; the other three are the rows, annotators
        and labels, whose consecutive bytes are the C-order COO block, so
        the triples are written without being copied into one array.
        """
        head = io.BytesIO()
        np.lib.format.write_array(head, self._header_fields(), version=(1, 0))
        np.lib.format.write_array_header_1_0(
            head, {"descr": "<i8", "fortran_order": False, "shape": (3, self._rows.size)}
        )
        return [head.getvalue()] + [
            np.ascontiguousarray(values, dtype="<i8")
            for values in (self._rows, self._annotators, self._labels)
        ]

    def save(self, path) -> str:
        """Persist as a standalone shard file; returns the path written.

        The file is the header+COO stream of :meth:`file_chunks`: two
        consecutive :mod:`numpy.lib.format` arrays, an int64 header
        ``[magic, version, I, J, K, 1, row_sorted, n_obs]`` followed by
        the ``(3, n_obs)`` int64 COO block (rows, annotators, labels as
        contiguous rows). ``load(mmap=True)`` reads the small header and
        memmaps the block in place. Field 5 once held an incidence flag;
        it is written as 1 and not read, so the format stays at version 1
        and every file of that version still loads.
        """
        path = str(path)
        with open(path, "wb") as stream:
            for chunk in self.file_chunks():
                stream.write(chunk)
        return path

    @classmethod
    def load(cls, path, mmap: bool = True) -> "SparseLabelShard":
        """Load a shard written by :meth:`save`.

        ``mmap=True`` (the default) maps the COO block read-only instead
        of reading it — opening a shard costs one header read, and
        triples page in as the kernels touch them. The triples were
        range-validated when written, so loading skips the O(n_obs)
        constructor validation (which would fault in every page). The
        file size is checked against the header's observation count
        before anything is mapped or read: a file that is not a shard
        file (an ``.npz`` archive among them), has another format
        version, or is cut short or runs on past its COO block raises
        ``ValueError`` naming the file, with either ``mmap``.

        A memmapped shard borrows the *file*: in-place writes through it
        would corrupt the shard for every other handle, so the lint
        engine's dataflow tier seeds ``mmap=True`` loads as borrowed and
        flags such writes as ``view-mutation`` findings; pass
        ``mmap=False`` (an eager private copy) if mutation is the point.
        """
        path = str(path)
        with open(path, "rb") as stream:
            meta, offset = _read_layout(stream, path)
            n_obs = int(meta[7])
            if n_obs == 0:
                coo = np.zeros((3, 0), dtype=np.int64)
            elif mmap:
                coo = np.memmap(path, dtype=_COO_DTYPE, mode="r", offset=offset, shape=(3, n_obs))
            else:
                coo = np.fromfile(stream, dtype=_COO_DTYPE, count=3 * n_obs).reshape(3, n_obs)
        return cls._trusted(
            coo[0], coo[1], coo[2],
            num_instances=int(meta[2]),
            num_annotators=int(meta[3]),
            num_classes=int(meta[4]),
            rows_sorted=bool(meta[6]),
        )


_SHARD_FILE_MAGIC = 0x53485244  # "SHRD"
_SHARD_FORMAT_VERSION = 1
_COO_DTYPE = np.dtype("<i8")


def _read_layout(stream, path: str) -> tuple[np.ndarray, int]:
    """Parse a shard file's header array and its COO block's npy header.

    Returns the eight header fields and the byte offset of the COO data
    once the file's size matches the header's observation count. Any
    other file raises ``ValueError`` naming ``path``, which numpy's own
    parse errors ("the magic string is not correct", ...) do not.
    """
    try:
        meta = np.lib.format.read_array(stream, allow_pickle=False)
    except ValueError:
        meta = None
    if (
        meta is None
        or meta.shape != (8,)
        or meta.dtype != np.int64
        or int(meta[0]) != _SHARD_FILE_MAGIC
    ):
        raise ValueError(f"{path} is not a shard file (bad header)")
    if int(meta[1]) != _SHARD_FORMAT_VERSION:
        raise ValueError(
            f"{path}: shard format version {int(meta[1])} "
            f"(this build reads {_SHARD_FORMAT_VERSION})"
        )
    n_obs = int(meta[7])
    try:
        version = np.lib.format.read_magic(stream)
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(stream)
    except ValueError:
        raise ValueError(f"shard file {path} has no readable COO block") from None
    # save writes npy 1.0, C order, little-endian int64.
    if version != (1, 0) or shape != (3, n_obs) or fortran or dtype != _COO_DTYPE:
        raise ValueError(
            f"shard file {path}: header promises {n_obs} observations, "
            f"COO block has shape {shape}"
        )
    offset = stream.tell()
    size = os.fstat(stream.fileno()).st_size
    expected = offset + 3 * n_obs * _COO_DTYPE.itemsize
    if size != expected:
        raise ValueError(
            f"shard file {path} holds {size} bytes but its header promises "
            f"{expected} (truncated or damaged)"
        )
    return meta, offset


def _dense_triples(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The observed cells of a dense ``(I, J)`` block as row-sorted
    ``(rows, annotators, labels)`` triples, each a C-contiguous array.

    The one dense-to-triples step, shared by
    :meth:`SparseLabelShard.from_dense`, ``CrowdLabelMatrix.as_shard()``
    and ``SequenceCrowdLabels.token_shard()``. The flat indices of the
    observed cells, split by ``divmod``, come out contiguous;
    ``np.nonzero`` on the 2-D mask would return strided column views of
    one ``(n, 2)`` array, which every ``bincount`` over them copies again.
    """
    flat = np.flatnonzero(labels != MISSING)
    rows, annotators = np.divmod(flat, labels.shape[1])
    return rows, annotators, labels.reshape(-1)[flat]


def _row_range(source, start: int, stop: int) -> SparseLabelShard:
    """Instances ``[start, stop)`` of row-sorted triples, as a shard view.

    ``source`` is a row-sorted :class:`SparseLabelShard`: a container's
    own (``CrowdLabelMatrix.as_shard()``, built row-major by
    :func:`_dense_triples`) or a row-sorted file. Two binary searches
    bound the range; the annotator and label columns are slices of the
    source's arrays (of the mapped file, for a memmapped shard), and only
    the localized row index is fresh memory (O(range observations)).
    """
    rows, annotators, labels = source.flat_label_pairs()
    lo, hi = np.searchsorted(rows, (start, stop))
    return SparseLabelShard._trusted(
        np.asarray(rows[lo:hi], dtype=np.int64) - start,
        annotators[lo:hi],
        labels[lo:hi],
        num_instances=stop - start,
        num_annotators=source.num_annotators,
        num_classes=source.num_classes,
        rows_sorted=True,
    )


def as_sparse_shard(crowd) -> SparseLabelShard:
    """Export any shard-protocol object as a :class:`SparseLabelShard`.

    A :class:`SparseLabelShard` passes through, and a
    :class:`~repro.crowd.types.CrowdLabelMatrix` hands over its cached
    :meth:`~repro.crowd.types.CrowdLabelMatrix.as_shard`. Anything else
    exposing ``flat_label_pairs`` plus the three dimensions is wrapped
    around its triples without copying, after range validation.
    """
    if isinstance(crowd, SparseLabelShard):
        return crowd
    if isinstance(crowd, CrowdLabelMatrix):
        return crowd.as_shard()
    rows, annotators, given = crowd.flat_label_pairs()
    return SparseLabelShard(
        rows, annotators, given,
        num_instances=crowd.num_instances,
        num_annotators=crowd.num_annotators,
        num_classes=crowd.num_classes,
    )


@dataclass(frozen=True)
class ShardHandle:
    """Picklable descriptor of an on-disk shard (or one row range of it).

    The unit of work the process-based map ships to workers: a path plus
    a few ints. The worker calls :meth:`open`, which memmaps the file and
    localizes the ``[start, stop)`` instance range itself — label arrays
    never cross the pickle boundary. ``start``/``stop`` are in *file*
    coordinates; ``None`` means the whole file. Range handles require a
    row-sorted file (the header records sortedness): localization is then
    one binary search instead of a full-file scan.

    ``num_instances`` (and the other dims) are declared up front so
    planners can size work without touching the file; :meth:`open`
    cross-checks them against the header.
    """

    path: str
    num_instances: int
    num_annotators: int
    num_classes: int
    start: int | None = None
    stop: int | None = None
    mmap: bool = True

    def open(self) -> SparseLabelShard:
        """Open the file and return the described (sub-)shard."""
        shard = SparseLabelShard.load(self.path, mmap=self.mmap)
        if (shard.num_annotators, shard.num_classes) != (
            self.num_annotators,
            self.num_classes,
        ):
            raise ValueError(
                f"{self.path}: file dims (J={shard.num_annotators}, "
                f"K={shard.num_classes}) disagree with handle "
                f"(J={self.num_annotators}, K={self.num_classes})"
            )
        if self.start is None and self.stop is None:
            if shard.num_instances != self.num_instances:
                raise ValueError(
                    f"{self.path}: file holds {shard.num_instances} instances, "
                    f"handle declares {self.num_instances}"
                )
            return shard
        start = 0 if self.start is None else int(self.start)
        stop = shard.num_instances if self.stop is None else int(self.stop)
        if not 0 <= start <= stop <= shard.num_instances:
            raise ValueError(
                f"{self.path}: handle range [{start}, {stop}) outside "
                f"[0, {shard.num_instances}]"
            )
        if stop - start != self.num_instances:
            raise ValueError(
                f"{self.path}: handle range [{start}, {stop}) holds "
                f"{stop - start} instances, handle declares {self.num_instances}"
            )
        if not shard._rows_are_sorted():
            raise ValueError(
                f"{self.path}: range handles need a row-sorted shard file "
                "(save_shard_handles sorts; re-save this file through it)"
            )
        return _row_range(shard, start, stop)


def save_shard_handles(crowd, path, num_shards: int, mmap: bool = True) -> list[ShardHandle]:
    """Write ``crowd`` as ONE row-sorted COO shard file; return range handles.

    The out-of-core parallel form: one file on disk, ``num_shards``
    contiguous near-equal instance ranges over it (the same
    :func:`partition_bounds` split as ``crowd.shards(n)``), each described
    by a :class:`ShardHandle` a worker process opens independently.
    Accepts anything :func:`as_sparse_shard` does; triples are sorted by
    row before writing (stable, so within-instance order is preserved)
    because range localization binary-searches the row column.
    """
    sparse = as_sparse_shard(crowd)
    if not sparse._rows_are_sorted():
        order = np.argsort(sparse._rows, kind="stable")
        sparse = SparseLabelShard._trusted(
            sparse._rows[order],
            sparse._annotators[order],
            sparse._labels[order],
            num_instances=sparse.num_instances,
            num_annotators=sparse.num_annotators,
            num_classes=sparse.num_classes,
            rows_sorted=True,
        )
    path = sparse.save(path)
    return [
        ShardHandle(
            path=path,
            num_instances=stop - start,
            num_annotators=sparse.num_annotators,
            num_classes=sparse.num_classes,
            start=start,
            stop=stop,
            mmap=mmap,
        )
        for start, stop in partition_bounds(sparse.num_instances, num_shards)
    ]
