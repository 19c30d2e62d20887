"""Shard views over the crowd containers — the data layer of shard-and-merge
truth inference.

The inference kernels in :mod:`repro.inference.primitives` consume a small
container surface: the flat COO triples, the (optional) sparse incidence,
vote counts, and a handful of counting helpers. A *shard* is anything that
exposes that surface over a slice of a crowd; the map-reduce EM layer in
:mod:`repro.inference.sharding` never touches a whole crowd directly, so
inference memory is bounded by the largest shard plus the O(I·K) posterior
it is asked to produce.

Three shard flavors cover the deployment spectrum:

* :class:`CrowdShard` / :class:`SequenceCrowdShard` — zero-copy
  contiguous-range views of an in-memory container, produced by
  ``shards(n)`` / ``iter_shards(max_observations)`` on the containers.
  Every cached view (COO triples, incidence, vote counts, masks) is a
  slice of the *parent's* cache: building a cache through one shard
  populates the parent once and every sibling shares it. Only the
  localized row-index array is fresh memory (O(shard observations)).
* :class:`SparseLabelShard` — a standalone shard defined directly by its
  COO triples, with no dense ``(I, J)`` matrix behind it. This is the
  out-of-core interchange format: a worker that loads a shard from disk
  needs exactly what the kernels consume, so it ships the triples and
  skips densification entirely. :meth:`SparseLabelShard.save` /
  :meth:`SparseLabelShard.load` give it a durable on-disk form (a
  header+COO ``.npy`` stream that loads as a memmap, or ``.npz``).
* :class:`ShardHandle` — a picklable *descriptor* of an on-disk shard:
  path, optional instance range in file coordinates, and dimensions. A
  worker process receives the handle (a few ints and a string), opens the
  memmap itself via :meth:`ShardHandle.open`, and never ships label
  arrays across the pickle boundary. :func:`save_shard_handles` writes a
  whole crowd as ONE row-sorted COO file and returns range handles over
  it — the out-of-core parallel form the process-based map in
  :mod:`repro.inference.sharding` consumes.

Shards hold references into their parent's caches; do not ``extend`` /
``append_labels`` on the parent while shard views are alive.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .types import MISSING, CrowdLabelMatrix, SequenceCrowdLabels

__all__ = [
    "CrowdShard",
    "SequenceCrowdShard",
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
    (both containers' ``shards(n)`` and the out-of-core benches).
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


_FAST_CSR_STATE: dict[str, bool | None] = {"ok": None}


def _fast_csr(data, indices, indptr, shape):
    """CSR from already-canonical arrays, skipping constructor validation.

    Out-of-core shards rebuild their incidence every pass, and scipy's
    public constructor spends as long re-validating canonical input as the
    two spMMs it feeds. The bypass is probed once per process against the
    validating constructor (a tiny build + matmul comparison); if the
    installed scipy disagrees or errors, every later call takes the public
    constructor instead.
    """
    from scipy.sparse import csr_matrix

    def bypass(data, indices, indptr, shape):
        matrix = csr_matrix.__new__(csr_matrix)
        matrix.data = data
        matrix.indices = indices
        matrix.indptr = indptr
        matrix._shape = shape
        return matrix

    if _FAST_CSR_STATE["ok"] is None:
        try:
            probe_args = (
                np.ones(3),
                np.array([0, 2, 1], dtype=np.int32),
                np.array([0, 2, 3], dtype=np.int32),
                (2, 3),
            )
            probe = bypass(*probe_args)
            reference = csr_matrix(probe_args[:3], shape=probe_args[3])
            dense = np.arange(6, dtype=np.float64).reshape(3, 2)
            ok = (
                np.abs(probe @ dense - reference @ dense).max() == 0.0
                and np.abs(probe.T @ np.ones((2, 2)) - reference.T @ np.ones((2, 2))).max() == 0.0
            )
            _FAST_CSR_STATE["ok"] = bool(ok)
        except Exception:
            # Capability probe: any scipy surprise (ABI change, internals
            # moved) must degrade to the validated-constructor slow path,
            # never crash the import or the caller.
            _FAST_CSR_STATE["ok"] = False
    if _FAST_CSR_STATE["ok"]:
        return bypass(data, indices, indptr, shape)
    return csr_matrix((data, indices, indptr), shape=shape)


class CrowdShard:
    """Zero-copy view of a contiguous instance range of a
    :class:`~repro.crowd.types.CrowdLabelMatrix`.

    Instance indices are local to the shard (``0 .. num_instances``);
    :attr:`start` records the parent offset. The COO slice bounds come
    from one ``searchsorted`` against the parent's cached (row-sorted)
    triples; the annotator/label columns of :meth:`flat_label_pairs` are
    views into the parent arrays, and :meth:`vote_counts` /
    :attr:`observed_mask` are plain row slices of the parent caches.
    """

    def __init__(self, parent: CrowdLabelMatrix, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= parent.num_instances:
            raise ValueError(
                f"shard range [{start}, {stop}) outside [0, {parent.num_instances}]"
            )
        self.parent = parent
        self.start = int(start)
        self.stop = int(stop)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"CrowdShard([{self.start}:{self.stop}) of {self.parent.num_instances})"

    # -- container surface ------------------------------------------------ #
    @property
    def num_classes(self) -> int:
        return self.parent.num_classes

    @property
    def num_annotators(self) -> int:
        return self.parent.num_annotators

    @property
    def num_instances(self) -> int:
        return self.stop - self.start

    @property
    def labels(self) -> np.ndarray:
        """``(n, J)`` label block — a view of the parent matrix."""
        return self.parent.labels[self.start : self.stop]

    @property
    def observed_mask(self) -> np.ndarray:
        return self.parent.observed_mask[self.start : self.stop]

    def _coo_bounds(self) -> tuple[int, int]:
        cached = getattr(self, "_coo_bounds_cache", None)
        if cached is None:
            rows, _, _ = self.parent.flat_label_pairs()
            cached = (
                int(np.searchsorted(rows, self.start, side="left")),
                int(np.searchsorted(rows, self.stop, side="left")),
            )
            self._coo_bounds_cache = cached
        return cached

    def flat_label_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shard-local ``(instance, annotator, label)`` triples (cached).

        The annotator and label arrays are slices of the parent's cached
        triples; only the localized instance index is new memory.
        """
        cached = getattr(self, "_flat_pairs_cache", None)
        if cached is None:
            rows, annotators, given = self.parent.flat_label_pairs()
            lo, hi = self._coo_bounds()
            cached = (rows[lo:hi] - self.start, annotators[lo:hi], given[lo:hi])
            self._flat_pairs_cache = cached
        return cached

    def label_incidence(self):
        """Row slice of the parent's sparse incidence (cached)."""
        cached = getattr(self, "_incidence_cache", None)
        if cached is None:
            cached = self.parent.label_incidence()[self.start : self.stop]
            self._incidence_cache = cached
        return cached

    def vote_counts(self) -> np.ndarray:
        """``(n, K)`` per-instance vote counts — a row slice of the parent
        cache (read-only, like every cached view)."""
        return self.parent.vote_counts()[self.start : self.stop]

    def annotations_per_instance(self) -> np.ndarray:
        rows, _, _ = self.flat_label_pairs()
        return np.bincount(rows, minlength=self.num_instances)

    def annotations_per_annotator(self) -> np.ndarray:
        _, annotators, _ = self.flat_label_pairs()
        return np.bincount(annotators, minlength=self.num_annotators)

    def total_annotations(self) -> int:
        lo, hi = self._coo_bounds()
        return hi - lo

    def to_matrix(self) -> CrowdLabelMatrix:
        """Materialize as a standalone container (copies the label block)."""
        return CrowdLabelMatrix(self.labels.copy(), self.num_classes)

    def to_sparse(self) -> "SparseLabelShard":
        """Export as a standalone COO shard (the out-of-core format)."""
        rows, annotators, given = self.flat_label_pairs()
        return SparseLabelShard(
            rows.copy(), annotators.copy(), given.copy(),
            num_instances=self.num_instances,
            num_annotators=self.num_annotators,
            num_classes=self.num_classes,
        )


class SequenceCrowdShard:
    """Zero-copy view of a contiguous sentence range of a
    :class:`~repro.crowd.types.SequenceCrowdLabels`.

    Token indices are local to the shard; sentence ``i`` of the shard is
    parent sentence ``start + i``. All flat views are slices of the
    parent's caches with one localized offset/token-index array each.
    """

    def __init__(self, parent: SequenceCrowdLabels, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= parent.num_instances:
            raise ValueError(
                f"shard range [{start}, {stop}) outside [0, {parent.num_instances}]"
            )
        self.parent = parent
        self.start = int(start)
        self.stop = int(stop)

    @property
    def num_classes(self) -> int:
        return self.parent.num_classes

    @property
    def num_annotators(self) -> int:
        return self.parent.num_annotators

    @property
    def num_instances(self) -> int:
        return self.stop - self.start

    @property
    def labels(self) -> list[np.ndarray]:
        return self.parent.labels[self.start : self.stop]

    def _token_bounds(self) -> tuple[int, int]:
        _, offsets = self.parent.flat_labels()
        return int(offsets[self.start]), int(offsets[self.stop])

    def flat_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Shard-local ``((ΣT_i, J) stacked labels, (n+1,) offsets)``."""
        cached = getattr(self, "_flat_cache", None)
        if cached is None:
            stacked, offsets = self.parent.flat_labels()
            lo, hi = self._token_bounds()
            cached = (stacked[lo:hi], offsets[self.start : self.stop + 1] - lo)
            self._flat_cache = cached
        return cached

    def flat_label_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shard-local ``(token, annotator, label)`` triples (cached)."""
        cached = getattr(self, "_flat_pairs_cache", None)
        if cached is None:
            tokens, annotators, given = self.parent.flat_label_pairs()
            lo, hi = self._token_bounds()
            a = int(np.searchsorted(tokens, lo, side="left"))
            b = int(np.searchsorted(tokens, hi, side="left"))
            cached = (tokens[a:b] - lo, annotators[a:b], given[a:b])
            self._flat_pairs_cache = cached
        return cached

    def token_label_incidence(self):
        """Token-row slice of the parent's sparse incidence (cached)."""
        cached = getattr(self, "_incidence_cache", None)
        if cached is None:
            lo, hi = self._token_bounds()
            cached = self.parent.token_label_incidence()[lo:hi]
            self._incidence_cache = cached
        return cached

    def annotator_mask(self) -> np.ndarray:
        return self.parent.annotator_mask()[self.start : self.stop]

    def annotations_per_instance(self) -> np.ndarray:
        return self.annotator_mask().sum(axis=1)

    def annotations_per_annotator(self) -> np.ndarray:
        return self.annotator_mask().sum(axis=0)

    def token_vote_counts_flat(self) -> np.ndarray:
        """Per-token vote counts over the shard's sentences, ``(ΣT_i, K)``."""
        stacked, _ = self.flat_labels()
        tokens, _, votes = self.flat_label_pairs()
        key = tokens * self.num_classes + votes
        counts = np.bincount(key, minlength=stacked.shape[0] * self.num_classes)
        return counts.reshape(stacked.shape[0], self.num_classes)

    def total_annotations(self) -> int:
        return self.flat_label_pairs()[0].size

    def to_sequence_labels(self) -> SequenceCrowdLabels:
        """Materialize as a standalone container (copies the sentences)."""
        return SequenceCrowdLabels(
            [matrix.copy() for matrix in self.labels],
            self.num_classes,
            self.num_annotators,
        )


class SparseLabelShard:
    """Standalone crowd shard defined by its COO triples — no dense matrix.

    The out-of-core interchange format: a shard loaded from disk carries
    exactly what the kernels consume, ``(instance, annotator, label)``
    triples plus dimensions, so construction is O(observations) with no
    ``(I, J)`` densification. Triples need not be sorted; instances with
    no triples are simply unlabeled.

    Parameters
    ----------
    rows, annotators, labels:
        ``(n_obs,)`` integer arrays: local instance index in
        ``[0, num_instances)``, annotator in ``[0, num_annotators)``,
        label in ``[0, num_classes)``.
    sparse_incidence:
        When False, :meth:`label_incidence` always returns None and the
        kernels take their bincount path — the right choice for throwaway
        shards rebuilt every pass, where a per-pass CSR construction would
        dominate the kernel time. It is the only way any crowd or shard
        reports no incidence.
    """

    def __init__(
        self,
        rows: np.ndarray,
        annotators: np.ndarray,
        labels: np.ndarray,
        num_instances: int,
        num_annotators: int,
        num_classes: int,
        sparse_incidence: bool = True,
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
        self._sparse_incidence = bool(sparse_incidence)
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
        sparse_incidence: bool = True,
        rows_sorted: bool | None = None,
    ) -> "SparseLabelShard":
        """Construct without the O(n_obs) range validation.

        For triples that were validated when written (:meth:`load`,
        :meth:`ShardHandle.open`): re-validating a memmap-backed shard
        would fault in every page of a file the caller asked to map
        lazily. Arrays are stored as given — memmap views stay memmaps.
        """
        shard = cls.__new__(cls)
        shard._rows = rows
        shard._annotators = annotators
        shard._labels = labels
        shard.num_instances = int(num_instances)
        shard.num_annotators = int(num_annotators)
        shard.num_classes = int(num_classes)
        shard._sparse_incidence = bool(sparse_incidence)
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
        incidence — in particular one that ``sparse_incidence=False``
        promised to skip — and memmap-backed triples materialize to plain
        arrays (a pickle cannot carry a file mapping).
        """
        state = self.__dict__.copy()
        state.pop("_incidence_cache", None)
        state["_rows"] = np.asarray(self._rows)
        state["_annotators"] = np.asarray(self._annotators)
        state["_labels"] = np.asarray(self._labels)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Shards pickled by older code lack the sortedness hint.
        self.__dict__.setdefault("_rows_sorted", None)

    @classmethod
    def from_dense(cls, labels: np.ndarray, num_classes: int, **kwargs) -> "SparseLabelShard":
        """Build from a dense ``(I, J)`` block under the
        :class:`~repro.crowd.types.CrowdLabelMatrix` convention."""
        labels = np.asarray(labels)
        rows, annotators = np.nonzero(labels != MISSING)
        return cls(
            rows, annotators, labels[rows, annotators],
            num_instances=labels.shape[0],
            num_annotators=labels.shape[1],
            num_classes=num_classes,
            **kwargs,
        )

    def flat_label_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._rows, self._annotators, self._labels

    def label_incidence(self):
        if not self._sparse_incidence:
            return None
        cached = getattr(self, "_incidence_cache", None)
        if cached is None:
            from scipy.sparse import csr_matrix

            group = self._annotators * self.num_classes + self._labels
            shape = (self.num_instances, self.num_annotators * self.num_classes)
            data = np.ones(self._rows.size)
            if self._rows.size and self._rows_are_sorted():
                # Row-sorted triples (the common case: shards cut from
                # a row-major scan) admit a direct CSR build — the
                # indptr is one searchsorted, no COO→CSR sort, and no
                # constructor re-validation (see _fast_csr).
                indptr = np.searchsorted(
                    self._rows, np.arange(self.num_instances + 1)
                ).astype(np.int32)
                indices = group.astype(np.int32)
                cached = _fast_csr(data, indices, indptr, shape)
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
                int(self._sparse_incidence),
                int(self._rows_are_sorted()),
                self._rows.size,
            ],
            dtype=np.int64,
        )

    def file_chunks(self) -> list:
        """The header+COO shard file, as buffers to write back to back.

        The one serializer of the layout :meth:`save` writes by default:
        the int64 header array and the ``(3, n_obs)`` COO block, each in
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

        Two layouts, chosen by extension:

        * default (``.npy`` or anything else): the header+COO stream of
          :meth:`file_chunks` — two consecutive :mod:`numpy.lib.format`
          arrays in one file, an int64 header ``[magic, version, I, J, K,
          sparse_incidence, row_sorted, n_obs]`` followed by the
          ``(3, n_obs)`` int64 COO block (rows, annotators, labels as
          contiguous rows). ``load(mmap=True)`` reads the tiny header and
          memmaps the block in place.
        * ``.npz``: :func:`numpy.savez` with named members — the interop
          form; loads without mmap (numpy cannot map zip members).
        """
        path = str(path)
        if path.endswith(".npz"):
            np.savez(
                path,
                meta=self._header_fields(),
                rows=np.asarray(self._rows, dtype=np.int64),
                annotators=np.asarray(self._annotators, dtype=np.int64),
                labels=np.asarray(self._labels, dtype=np.int64),
            )
            return path
        with open(path, "wb") as stream:
            for chunk in self.file_chunks():
                stream.write(chunk)
        return path

    @classmethod
    def load(cls, path, mmap: bool = True) -> "SparseLabelShard":
        """Load a shard written by :meth:`save`.

        For the header+COO layout, ``mmap=True`` (the default) maps the
        COO block read-only instead of reading it — opening a shard costs
        one header read, and triples page in as the kernels touch them.
        The triples were range-validated when written, so loading skips
        the O(n_obs) constructor validation (which would fault in every
        page). ``.npz`` files always load eagerly.

        A memmapped shard borrows the *file*: in-place writes through it
        would corrupt the shard for every other handle, so the lint
        engine's dataflow tier seeds ``mmap=True`` loads as borrowed and
        flags such writes as ``view-mutation`` findings; pass
        ``mmap=False`` (an eager private copy) if mutation is the point.
        """
        path = str(path)
        if path.endswith(".npz"):
            with np.load(path) as payload:
                meta = payload["meta"]
                _check_shard_header(meta, path)
                return cls._trusted(
                    payload["rows"], payload["annotators"], payload["labels"],
                    num_instances=int(meta[2]),
                    num_annotators=int(meta[3]),
                    num_classes=int(meta[4]),
                    sparse_incidence=bool(meta[5]),
                    rows_sorted=bool(meta[6]),
                )
        with open(path, "rb") as stream:
            meta = np.lib.format.read_array(stream)
            _check_shard_header(meta, path)
            n_obs = int(meta[7])
            if n_obs == 0:
                coo = np.zeros((3, 0), dtype=np.int64)
            elif not mmap:
                coo = np.lib.format.read_array(stream)
            else:
                version = np.lib.format.read_magic(stream)
                if version != (1, 0):  # pragma: no cover - we always write 1.0
                    raise ValueError(f"unsupported npy version {version} in {path}")
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(stream)
                coo = np.memmap(
                    path, dtype=dtype, mode="r", offset=stream.tell(),
                    shape=shape, order="F" if fortran else "C",
                )
            if coo.shape != (3, n_obs):
                raise ValueError(
                    f"shard file {path}: header promises {n_obs} observations, "
                    f"COO block has shape {coo.shape}"
                )
            return cls._trusted(
                coo[0], coo[1], coo[2],
                num_instances=int(meta[2]),
                num_annotators=int(meta[3]),
                num_classes=int(meta[4]),
                sparse_incidence=bool(meta[5]),
                rows_sorted=bool(meta[6]),
            )


_SHARD_FILE_MAGIC = 0x53485244  # "SHRD"
_SHARD_FORMAT_VERSION = 1


def _check_shard_header(meta: np.ndarray, path: str) -> None:
    if meta.shape != (8,) or int(meta[0]) != _SHARD_FILE_MAGIC:
        raise ValueError(f"{path} is not a shard file (bad header)")
    if int(meta[1]) != _SHARD_FORMAT_VERSION:
        raise ValueError(
            f"{path}: shard format version {int(meta[1])} "
            f"(this build reads {_SHARD_FORMAT_VERSION})"
        )


def as_sparse_shard(crowd) -> SparseLabelShard:
    """Export any shard-protocol object as a standalone COO shard.

    :class:`SparseLabelShard` passes through; :class:`CrowdShard` uses its
    ``to_sparse``; anything else exposing ``flat_label_pairs`` plus the
    three dimensions (e.g. a whole :class:`~repro.crowd.types.
    CrowdLabelMatrix`) is wrapped around its triples without copying.
    """
    if isinstance(crowd, SparseLabelShard):
        return crowd
    if hasattr(crowd, "to_sparse"):
        return crowd.to_sparse()
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
    cross-checks them against the header. ``sparse_incidence=None``
    inherits the flag the file was saved with; a bool overrides it (e.g.
    force the bincount path for shards re-opened every pass).
    """

    path: str
    num_instances: int
    num_annotators: int
    num_classes: int
    start: int | None = None
    stop: int | None = None
    mmap: bool = True
    sparse_incidence: bool | None = None

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
        sparse_incidence = (
            shard._sparse_incidence
            if self.sparse_incidence is None
            else self.sparse_incidence
        )
        if self.start is None and self.stop is None:
            if shard.num_instances != self.num_instances:
                raise ValueError(
                    f"{self.path}: file holds {shard.num_instances} instances, "
                    f"handle declares {self.num_instances}"
                )
            if sparse_incidence != shard._sparse_incidence:
                shard._sparse_incidence = sparse_incidence
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
        rows = shard._rows
        lo = int(np.searchsorted(rows, start, side="left"))
        hi = int(np.searchsorted(rows, stop, side="left"))
        # Localized rows are fresh memory (O(range observations)); the
        # annotator/label columns stay views of the mapped file.
        return SparseLabelShard._trusted(
            np.asarray(rows[lo:hi], dtype=np.int64) - start,
            shard._annotators[lo:hi],
            shard._labels[lo:hi],
            num_instances=stop - start,
            num_annotators=shard.num_annotators,
            num_classes=shard.num_classes,
            sparse_incidence=sparse_incidence,
            rows_sorted=True,
        )


def save_shard_handles(
    crowd,
    path,
    num_shards: int,
    mmap: bool = True,
    sparse_incidence: bool | None = None,
) -> list[ShardHandle]:
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
            sparse_incidence=sparse._sparse_incidence,
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
            sparse_incidence=sparse_incidence,
        )
        for start, stop in partition_bounds(sparse.num_instances, num_shards)
    ]
