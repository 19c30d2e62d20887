"""CrowdService: long-lived truth inference over many label streams.

The ROADMAP's north-star scenario made concrete: one process owns the
streaming inference state of many datasets, absorbs interleaved
``partial_fit(dataset_id, batch)`` updates and ``query(dataset_id)``
posterior reads, survives restarts, and bounds resident memory. The
service is a thin ownership layer — all statistics live in the
:mod:`repro.inference.streaming` estimators (any ``"streaming"`` registry
method); the service adds exactly four behaviors:

* **State ownership** — one estimator per dataset, created on first
  ``partial_fit`` (or explicitly via :meth:`CrowdService.create_dataset`)
  with the service's method + constructor overrides; a first batch the
  estimator refuses creates no dataset. The configuration is
  recorded in every checkpoint, so a restarted service resumes each
  dataset under the configuration it was actually trained with.
* **Snapshot semantics** — queries see the last *completed* update. Each
  dataset has a lock serializing updates/recomputation, and a versioned
  ``(version, result)`` snapshot swapped in atomically: a query landing
  mid-update is answered from the previous completed version (no torn
  reads of half-ingested statistics), and repeated queries between
  updates are O(1) cache hits.
* **Checkpoints + replay cursor** — :meth:`CrowdService.checkpoint`
  serializes the estimator's sufficient statistics
  (:meth:`~repro.inference.streaming.StreamingTruthInference.get_state`)
  and the retained crowd (a :class:`~repro.crowd.sharding.
  SparseLabelShard` file) via :mod:`repro.serving.state`. The state's
  ``updates`` counter is the replay cursor: :meth:`CrowdService.cursor`
  tells a label source how many batches were durably applied, and
  replaying the tail after a restore reproduces the uninterrupted stream
  exactly (the recovery contract — pinned by
  ``tests/serving/test_recovery.py`` and gated in the serving bench). A
  checkpoint commits all-or-nothing without renaming or deleting a file:
  each dataset has two fixed slot pairs, ``state.{0,1}.ckpt`` and
  ``crowd.{0,1}.shard``, and a checkpoint overwrites in place the pair
  that does not hold the newest commit, crowd first. The state record is
  checksummed, and a restart takes the newest slot whose state record
  decodes, so a crash at any write step restarts the dataset at either
  the old or the new cursor, never a mix (LMDB's two meta pages, one
  level up).
* **Eviction** — with ``max_resident`` set, cold datasets (LRU by
  last-touch) are checkpointed and dropped from memory; the next touch
  rehydrates them transparently from disk. Disk is the source of truth
  for evicted datasets, so eviction is also what bounds recovery loss:
  an evicted dataset loses nothing on a crash.

Dataset ids are path-safe names (``[A-Za-z0-9][A-Za-z0-9._-]*``); each
dataset checkpoints under ``root/<dataset_id>/``, which holds at most the
two slot pairs. A root written in the older rename-based layout (a
``state.ckpt`` beside ``crowd-<cursor>.shard`` files) is refused at
construction rather than read as empty.
"""

from __future__ import annotations

import itertools
import re
import threading
from pathlib import Path

from ..inference import StreamUpdateRejected, get_method
from ..inference.base import InferenceResult
from .state import (
    _fsync_directory,
    load_crowd,
    load_stream_state,
    save_crowd,
    save_stream_state,
)

__all__ = ["CrowdService"]

_DATASET_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_SLOTS = (0, 1)
_OLD_LAYOUT_STATE_FILE = "state.ckpt"  # the rename-based layout this build refuses
_METHOD_KEY = "service_method"
_OVERRIDE_PREFIX = "override__"


def _state_file(slot: int) -> str:
    return f"state.{slot}.ckpt"


def _crowd_file(slot: int) -> str:
    return f"crowd.{slot}.shard"


def _newest_commit(directory: Path) -> tuple[int, int] | None:
    """``(slot, cursor)`` of the newest slot whose state record decodes.

    None when no record decodes and at most one state slot file exists:
    the dataset's first checkpoint was torn, so nothing was committed.
    Two state slot files of which neither decodes cannot be left by a
    crash (a checkpoint writes into one slot only), so that raises.
    """
    cursors = {}
    present = 0
    for slot in _SLOTS:
        path = directory / _state_file(slot)
        if not path.is_file():
            continue
        present += 1
        try:
            cursors[slot] = int(load_stream_state(path)["updates"])
        except ValueError:
            continue  # torn by a crash mid-checkpoint: the other slot is the commit
    if cursors:
        return max(cursors.items(), key=lambda item: item[1])
    if present == len(_SLOTS):
        raise ValueError(
            f"dataset {directory.name!r}: neither state slot in {directory} decodes"
        )
    return None


class _DatasetEntry:
    """Per-dataset slot: estimator (when resident), lock, snapshot, LRU tick."""

    __slots__ = (
        "dataset_id", "method", "overrides", "lock", "stream",
        "snapshot", "version", "last_touch", "dirty", "slot",
        "provisional", "retired",
    )

    def __init__(self, dataset_id: str, method: str | None, overrides: dict) -> None:
        self.dataset_id = dataset_id
        self.method = method              # None until the checkpoint is read
        self.overrides = dict(overrides)
        self.lock = threading.Lock()
        self.stream = None                # StreamingTruthInference | None (cold)
        self.snapshot: tuple[int, InferenceResult] | None = None
        self.version = 0                  # completed updates (replay cursor)
        self.last_touch = 0
        self.dirty = False                # updates newer than the checkpoint
        self.slot: int | None = None      # slot pair of the newest commit (None: none)
        self.provisional = False          # registered by partial_fit's first touch
        self.retired = False              # unregistered: callers holding it find no dataset


class CrowdService:
    """Serve streaming truth inference for many datasets (see module docs).

    Parameters
    ----------
    root:
        Checkpoint directory. Datasets already checkpointed under it are
        discovered at construction and resume from disk on first touch.
        A dataset directory whose two state slots both fail to decode,
        or that holds an old-layout ``state.ckpt``, raises ``ValueError``.
    method:
        ``"streaming"`` registry name used for new datasets (default DS).
    max_resident:
        Resident-dataset budget; ``None`` means never evict.
    method_overrides:
        Constructor overrides for new datasets' estimators (e.g.
        ``decay=0.6``, ``inner_sweeps=1``). Values must be scalars so the
        configuration can ride inside the checkpoint file.
    """

    def __init__(
        self,
        root,
        method: str = "DS",
        max_resident: int | None = None,
        **method_overrides,
    ) -> None:
        if max_resident is not None and max_resident < 1:
            raise ValueError(f"max_resident must be at least 1, got {max_resident}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.method = method
        self.method_overrides = dict(method_overrides)
        self.max_resident = max_resident
        # The snapshot contract (see class docs) holds only while every
        # touch of the registry/LRU state stays under _lock; the
        # guarded-by markers are enforced by the lock-discipline lint.
        self._lock = threading.Lock()
        self._entries: dict[str, _DatasetEntry] = {}  # guarded-by: _lock
        self._clock = itertools.count(1)              # guarded-by: _lock
        self.stats = {"evictions": 0, "rehydrations": 0, "checkpoints": 0}  # guarded-by: _lock
        children = [
            child for child in sorted(self.root.iterdir())
            if child.is_dir() and _DATASET_ID.match(child.name)
        ]
        old_layout = [
            child.name for child in children if (child / _OLD_LAYOUT_STATE_FILE).exists()
        ]
        if old_layout:
            raise ValueError(
                f"{self.root}: dataset(s) {', '.join(old_layout)} hold a "
                f"{_OLD_LAYOUT_STATE_FILE} checkpoint from the rename-based layout; "
                "this build reads only the state.{0,1}.ckpt + crowd.{0,1}.shard slot pairs"
            )
        for child in children:
            commit = _newest_commit(child)
            if commit is not None:
                entry = _DatasetEntry(child.name, None, {})
                entry.slot, entry.version = commit
                self._entries[child.name] = entry

    # -- registry ------------------------------------------------------- #
    def _entry(self, dataset_id: str, create: bool) -> _DatasetEntry:
        with self._lock:
            entry = self._entries.get(dataset_id)
            if entry is None:
                if not create:
                    known = ", ".join(sorted(self._entries)) or "none"
                    raise KeyError(f"unknown dataset {dataset_id!r} (known: {known})")
                if not _DATASET_ID.match(dataset_id):
                    raise ValueError(
                        f"dataset id {dataset_id!r} is not path-safe "
                        "(need [A-Za-z0-9][A-Za-z0-9._-]*)"
                    )
                entry = _DatasetEntry(dataset_id, self.method, self.method_overrides)
                entry.provisional = True
                self._entries[dataset_id] = entry
            entry.last_touch = next(self._clock)
            return entry

    def _unregister_refused(self, entry: _DatasetEntry) -> None:
        """Drop a dataset whose first batch was refused; entry.lock held.

        Only a dataset ``partial_fit`` registered itself goes, and only
        while it holds no acknowledged update and no checkpoint. The
        entry is removed only if it is still the registered one, and is
        marked retired: a ``partial_fit`` that was waiting on its lock
        registers the id afresh instead of feeding the removed entry, and
        the other calls that were waiting on it treat the id as unknown.
        """
        if not entry.provisional or entry.version or entry.slot is not None:
            return
        with self._lock:
            if self._entries.get(entry.dataset_id) is entry:
                del self._entries[entry.dataset_id]
        entry.retired = True
        entry.stream = None

    @staticmethod
    def _require_registered(entry: _DatasetEntry) -> None:
        """entry.lock held: a retired entry's dataset no longer exists."""
        if entry.retired:
            raise KeyError(f"unknown dataset {entry.dataset_id!r}")

    def datasets(self) -> tuple[str, ...]:
        """Every known dataset id (resident or checkpointed), sorted."""
        with self._lock:
            return tuple(sorted(self._entries))

    def resident_datasets(self) -> tuple[str, ...]:
        """Ids currently holding in-memory estimator state, sorted."""
        with self._lock:
            return tuple(
                sorted(name for name, entry in self._entries.items() if entry.stream is not None)
            )

    # -- residency ------------------------------------------------------ #
    def _dataset_dir(self, dataset_id: str) -> Path:
        return self.root / dataset_id

    def _ensure_resident(self, entry: _DatasetEntry) -> None:
        """Rehydrate (or freshly create) the estimator; entry.lock held."""
        if entry.stream is not None:
            return
        if entry.slot is not None:
            directory = self._dataset_dir(entry.dataset_id)
            state = load_stream_state(directory / _state_file(entry.slot))
            method = state.pop(_METHOD_KEY, entry.method or self.method)
            overrides = {
                key[len(_OVERRIDE_PREFIX):]: value
                for key, value in state.items()
                if key.startswith(_OVERRIDE_PREFIX)
            }
            for key in list(state):
                if key.startswith(_OVERRIDE_PREFIX):
                    del state[key]
            # A stream holds a retained crowd once it has ingested a batch,
            # and the checkpoint that wrote this state wrote that crowd
            # into the same slot pair.
            crowd = load_crowd(directory / _crowd_file(entry.slot)) if state["updates"] else None
            stream = get_method(method, kind="streaming", **overrides)
            stream.set_state(state, crowd)
            entry.stream = stream
            entry.method = method
            entry.overrides = overrides
            entry.version = stream.updates
            entry.dirty = False
            with self._lock:
                self.stats["rehydrations"] += 1
        else:
            entry.method = entry.method or self.method
            entry.stream = get_method(entry.method, kind="streaming", **entry.overrides)
            entry.version = 0
            entry.dirty = False

    # -- the serving surface -------------------------------------------- #
    def create_dataset(self, dataset_id: str, method: str | None = None, **overrides) -> str:
        """Register a dataset explicitly (optionally off-default config).

        ``partial_fit`` creates datasets implicitly with the service
        defaults; this is the hook for per-dataset method/configuration.
        Re-creating a known dataset raises.
        """
        with self._lock:
            if dataset_id in self._entries:
                raise ValueError(f"dataset {dataset_id!r} already exists")
            if not _DATASET_ID.match(dataset_id):
                raise ValueError(
                    f"dataset id {dataset_id!r} is not path-safe "
                    "(need [A-Za-z0-9][A-Za-z0-9._-]*)"
                )
            chosen = dict(self.method_overrides) if method is None and not overrides else dict(overrides)
            entry = _DatasetEntry(dataset_id, method or self.method, chosen)
            entry.last_touch = next(self._clock)
            self._entries[dataset_id] = entry
        return dataset_id

    def partial_fit(self, dataset_id: str, batch) -> dict:
        """Apply one update; returns the post-update cursor (completed updates).

        Creates the dataset on first touch. The per-dataset lock makes
        the update atomic with respect to queries: until ``partial_fit``
        returns, queries are answered from the previous completed
        version. A batch the estimator rejects leaves the dataset
        exactly as it was — its version, cursor, snapshot and last
        checkpoint included — because the streaming layer commits an
        update all or nothing. An update that would commit non-finite
        state raises
        :class:`~repro.inference.streaming.StreamUpdateRejected` naming
        the dataset; an incompatible batch raises ``ValueError``
        (``TypeError`` for a batch that is not a ``CrowdLabelMatrix``).
        A refused first batch of a dataset this call registered leaves
        no dataset behind: ``datasets()`` does not list it, ``query``
        raises ``KeyError`` and no checkpoint writes it. A dataset
        registered by :meth:`create_dataset`, or holding an
        acknowledged update or a checkpoint, stays.
        """
        while True:
            entry = self._entry(dataset_id, create=True)
            with entry.lock:
                if entry.retired:
                    continue  # its first batch was refused while this call waited
                self._ensure_resident(entry)
                try:
                    entry.stream.partial_fit(batch)
                except StreamUpdateRejected as error:
                    self._unregister_refused(entry)
                    raise StreamUpdateRejected(f"dataset {dataset_id!r}: {error}") from error
                except (TypeError, ValueError):
                    self._unregister_refused(entry)
                    raise
                entry.version = entry.stream.updates
                entry.dirty = True
                ack = {
                    "dataset_id": dataset_id,
                    "updates": entry.version,
                    "observations_seen": entry.stream.observations_seen,
                }
            self._maybe_evict(keep=entry)
            return ack

    def query(self, dataset_id: str, refresh: bool = False) -> InferenceResult:
        """Posterior over everything the dataset's stream has seen.

        Snapshot semantics: the result always reflects the last
        *completed* update. Between updates, repeated ``refresh=False``
        queries return the cached snapshot (O(1)); ``refresh=True``
        recomputes under the current annotator model every call (the
        streaming layer keeps refresh side-effect-free, so it never
        disturbs the ingest-time posteriors the snapshot serves). Every
        reader of a version gets the same result, and its arrays are
        read-only views of the stream's stored rows, so a reader can
        neither write into another's result nor into the stream.
        Unknown datasets raise ``KeyError``.
        """
        entry = self._entry(dataset_id, create=False)
        if not refresh:
            snapshot = entry.snapshot
            if snapshot is not None and snapshot[0] == entry.version:
                return snapshot[1]
        with entry.lock:
            self._require_registered(entry)
            self._ensure_resident(entry)
            result = entry.stream.result(refresh=refresh)
            if not refresh:
                # published: frozen once stored — readers hit it lock-free,
                # so no one may mutate `result` (or an alias) past this
                # point; the publish-escape lint rule enforces exactly that.
                entry.snapshot = (entry.version, result)
        self._maybe_evict(keep=entry)
        return result

    def cursor(self, dataset_id: str) -> int:
        """Replay cursor: completed updates applied for this dataset.

        A cold dataset's cursor is that of its newest commit: the newest
        slot whose state record decoded when the service discovered the
        dataset, or the checkpoint that evicted it. So this reads no
        file and rehydrates nothing. A label source resuming after a
        restart feeds batches ``cursor(id)`` onward — the recovery
        contract guarantees the result matches the uninterrupted stream.
        """
        with self._lock:
            entry = self._entries.get(dataset_id)
        if entry is None:
            raise KeyError(f"unknown dataset {dataset_id!r}")
        with entry.lock:
            self._require_registered(entry)
            return entry.version

    # -- durability ------------------------------------------------------ #
    def checkpoint(self, dataset_id: str | None = None) -> dict:
        """Serialize state + crowd + cursor to ``root/<id>/`` (all ids by default).

        Returns ``{dataset_id: cursor}``. Already-clean datasets (cold,
        or resident with no updates since the last checkpoint) are not
        rewritten. Each dataset's checkpoint is one commit into the slot
        pair that does not hold its newest commit (slot 0 for the first):
        the crowd goes to ``crowd.<slot>.shard``, then the state to
        ``state.<slot>.ckpt``, each overwritten from offset 0, cut to its
        record's length and fsynced. The state record, whose CRC holds
        only once all of it is written, is the commit. Creating a slot
        file also fsyncs the dataset directory, and a dataset's first
        checkpoint fsyncs the root after creating that directory. No
        file is renamed or deleted, so from a dataset's third checkpoint
        on a checkpoint makes two fsyncs and frees no disk blocks. When
        this returns, the cursors it reports survive a crash.
        """
        targets = self.datasets() if dataset_id is None else (dataset_id,)
        cursors = {}
        for target in targets:
            with self._lock:
                entry = self._entries.get(target)
            if entry is not None:
                with entry.lock:
                    # A refused first batch may have unregistered it meanwhile.
                    if not entry.retired:
                        cursors[target] = self._checkpoint_locked(entry)
            if dataset_id is not None and target not in cursors:
                raise KeyError(f"unknown dataset {target!r}")
        return cursors

    def _checkpoint_locked(self, entry: _DatasetEntry) -> int:
        """Write the checkpoint if needed; returns the durable cursor."""
        if entry.stream is None:
            if entry.slot is not None:
                # Cold datasets: the newest commit on disk already IS the state.
                return entry.version
            self._ensure_resident(entry)  # registered but never fed
        elif not entry.dirty and entry.slot is not None:
            return entry.version
        state = entry.stream.get_state()
        state[_METHOD_KEY] = entry.method
        for key, value in entry.overrides.items():
            state[_OVERRIDE_PREFIX + key] = value
        directory = self._dataset_dir(entry.dataset_id)
        if entry.slot is None:
            # First commit into this directory: its own entry in the root
            # must be durable too, or a crash could lose the whole dataset.
            directory.mkdir(parents=True, exist_ok=True)
            _fsync_directory(self.root)
        # Overwrite the slot pair that does not hold the newest commit,
        # crowd first: the state record is the commit, so until it is
        # whole (its CRC holds) a restart takes the other slot, and once
        # it is, the crowd it goes with is already durable.
        slot = 0 if entry.slot is None else 1 - entry.slot
        if entry.stream.crowd is not None:
            save_crowd(directory / _crowd_file(slot), entry.stream.crowd)
        save_stream_state(directory / _state_file(slot), state)
        entry.slot = slot
        entry.dirty = False
        with self._lock:
            self.stats["checkpoints"] += 1
        return entry.version

    def evict(self, dataset_id: str) -> bool:
        """Checkpoint (if dirty) and drop a dataset's in-memory state.

        Returns True if the dataset was resident. The next touch
        rehydrates it transparently from the checkpoint.
        """
        with self._lock:
            entry = self._entries.get(dataset_id)
        if entry is None:
            raise KeyError(f"unknown dataset {dataset_id!r}")
        with entry.lock:
            self._require_registered(entry)
            return self._evict_locked(entry)

    def _evict_locked(self, entry: _DatasetEntry) -> bool:
        if entry.stream is None:
            return False
        if entry.dirty:
            self._checkpoint_locked(entry)
        entry.stream = None
        entry.snapshot = None
        with self._lock:
            self.stats["evictions"] += 1
        return True

    def _maybe_evict(self, keep: _DatasetEntry | None = None) -> None:
        """Enforce the resident budget (LRU by last-touch)."""
        if self.max_resident is None:
            return
        while True:
            with self._lock:
                resident = [
                    entry for entry in self._entries.values() if entry.stream is not None
                ]
                if len(resident) <= self.max_resident:
                    return
                candidates = [entry for entry in resident if entry is not keep]
                if not candidates:
                    return
                victim = min(candidates, key=lambda entry: entry.last_touch)
            with victim.lock:
                self._evict_locked(victim)

    def close(self) -> None:
        """Checkpoint every dirty resident dataset (estimators stay resident)."""
        for dataset_id in self.datasets():
            with self._lock:
                entry = self._entries.get(dataset_id)
            if entry is None:
                continue
            with entry.lock:
                if entry.stream is not None and entry.dirty:
                    self._checkpoint_locked(entry)

    def __enter__(self) -> "CrowdService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
