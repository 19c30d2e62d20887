"""Shard-and-merge truth inference: map-reduce EM over crowd shards.

Every classification method with a per-instance E-step (MV, DS, IBCC,
GLAD, PM, CATD) is written once, as a subclass of
:class:`ShardedTruthInference`: a crowd is a collection of shards, every
E/M round maps each shard to a :class:`ShardStats` of mergeable
sufficient statistics with the sparse-COO kernels of
:mod:`repro.inference.primitives`, reduces with the associative
:meth:`ShardStats.merge`, and runs one global closed-form M-step. The
batch call ``infer(crowd)`` is the one-shard run — the container is its
own single shard, so no view is built. Across shards, peak crowd-data
memory is bounded by the largest shard (plus the O(I·K) posterior the
caller asked for), and the map stage is embarrassingly parallel — across
threads *or* worker processes. (The streaming layer relaxes the
one-crowd assumption over *time* instead: see
:mod:`repro.inference.streaming`.)

**Shard sources.** ``infer_sharded`` accepts, in order of increasing
externality:

* a *sequence* of shards — e.g. the
  :class:`~repro.crowd.sharding.SparseLabelShard` views
  :meth:`~repro.crowd.types.CrowdLabelMatrix.shards` cuts from the
  container's triples (in-memory sharding: each view builds its
  incidence once and keeps it across passes, so repeated rounds cost no
  rebuild), or :class:`~repro.crowd.sharding.ShardHandle` descriptors of
  on-disk shard files (the parallel out-of-core form — see
  :func:`~repro.crowd.sharding.save_shard_handles`);
* a zero-arg *callable* returning a fresh iterator of shards — the
  streaming out-of-core form: each EM round lazily loads, consumes, and
  drops one shard at a time. The callable must yield the same shard
  partition in the same order every pass — posterior blocks are carried
  by position;
* a one-shot *iterator* — accepted for single-pass methods (majority
  vote); iterative methods raise a clear error asking for one of the
  re-iterable forms above.

A "shard" is any object exposing the kernel-facing container surface,
incidence included (see :mod:`repro.crowd.sharding`); the built-in one is
:class:`~repro.crowd.sharding.SparseLabelShard`.
:class:`~repro.crowd.sharding.ShardHandle` entries are resolved (opened,
memmapped, localized) where the map runs — in a worker process when one
is attached.

**Parallel map and the pickle boundary.** ``infer_sharded(...)`` takes the
map stage parallel three ways: ``executor=`` with a ``ThreadPoolExecutor``
(shared memory, GIL-bound kernels), ``executor=`` with a
``ProcessPoolExecutor``, or ``workers=N`` — a convenience that builds a
process pool whose initializer pre-opens the run's shard handles in every
worker. The process-based map is engineered so label arrays never cross
the pickle boundary:

* the unit of work shipped per task is a :class:`~repro.crowd.sharding.
  ShardHandle` (a path plus a few ints); the worker opens the memmap
  itself and caches the opened shard (keyed by handle) across passes.
  ``workers=N`` spills in-memory shards of a sequence source to handle
  form automatically (one file per shard in a run-scoped temp dir);
* per-round global model state (log-confusions, digamma expectations,
  weights, GLAD ``α``) is *broadcast once per pass* — pickled to one
  file that every worker loads and caches on first touch — rather than
  serialized into each of the N per-shard tasks;
* only small :class:`ShardStats` (O(J·K²)) and per-shard posterior
  blocks (O(shard instances · K)) return across the boundary.

Shards are submitted through a bounded in-flight window (explicit
``window=`` argument, default ``2 × max_workers`` falling back to
``os.cpu_count()``), so a lazy out-of-core source keeps its O(largest
shard) memory bound even under the parallel map; results are consumed in
submission order.

**Deterministic tree reduce.** ``ShardStats.merge`` is associative only
up to floating-point rounding, so merge *order* is part of the numerical
contract. Every pass reduces through :class:`TreeReducer`, a streaming
balanced (binary-counter) tree fold whose merge shape is a pure function
of the shard count — shard ``i`` always occupies leaf ``i``, pairs merge
bottom-up. Combined with submission-order result consumption, the
posterior is **bit-identical** across serial, thread-pool, and
process-pool execution for a fixed shard layout, regardless of worker
count or completion order. (Across *different* shard counts the grouping
differs, which is why the layout contract below is atol, not bit-for-bit.)

**Equivalence contract.** Any shard layout — one shard, many,
single-instance shards, empty shards interleaved, lazy out-of-core
sources, on-disk handle layouts — reproduces ``infer(crowd)``, the
one-shard run, at atol 1e-10: posterior, confusion matrices, iteration
count, and the annotator-model extras. The only divergence is
floating-point summation *grouping* (per-shard partial sums versus one
scatter over the whole crowd). The randomized harness in
``tests/inference/equivalence_harness.py`` pins this across seeded
crowds, layouts, and executors; the independent anchor is each method's
seed executable specification in ``tests/oracles.py`` (plain arrays in,
no shared kernel or container code), which ``infer(crowd)`` matches at
the same tolerance.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from ..crowd.sharding import ShardHandle, as_sparse_shard
from .base import InferenceResult, TruthInferenceMethod

__all__ = [
    "ShardStats",
    "TreeReducer",
    "tree_merge_shard_stats",
    "shard_base_stats",
    "as_shard_source",
    "resolve_shard",
    "ShardedTruthInference",
    "run_sharded",
]


def _merged_array(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """Elementwise sum with None as the identity (no contribution)."""
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _canonical_layout(value):
    """C-contiguous copies of every array in a (possibly nested) value.

    Part of the bit-identity guarantee: a pickle round trip silently
    rewrites transposed/strided views as C-contiguous arrays, and numpy
    reductions order their additions by memory layout — so the same values
    can reduce to *different bits* depending on whether they crossed a
    process boundary. Canonicalizing layout at the task boundary (mapper
    states, per-pass params, stats fields) makes serial, thread, and
    process execution feed bitwise-identical inputs to every reduction.
    Contiguous arrays pass through untouched.
    """
    if isinstance(value, np.ndarray):
        return np.ascontiguousarray(value)
    if isinstance(value, tuple):
        return tuple(_canonical_layout(item) for item in value)
    if isinstance(value, list):
        return [_canonical_layout(item) for item in value]
    return value


@dataclass(frozen=True)
class ShardStats:
    """Mergeable sufficient statistics of one shard under one model state.

    Every aggregate a global M-step needs decomposes into a sum (or max)
    of per-shard terms; this dataclass names the terms the sharded methods
    use and :meth:`merge` combines them. ``ShardStats()`` is the identity;
    ``merge`` is commutative (IEEE addition is) and associative up to
    floating-point rounding — integer counts merge exactly, which is why
    the drivers reduce through the fixed-shape :class:`TreeReducer` rather
    than an arbitrary fold. Array fields default to None ("no
    contribution"), so stats from different pass kinds (an E-pass carrying
    confusion counts, a gradient pass carrying only ``grad_alpha``) merge
    without shape bookkeeping.

    Fields
    ------
    instances / observations / unannotated:
        Shard size, observed-label count, and how many of the shard's
        instances carry no label at all (the iterative methods refuse
        those).
    confusion:
        ``(J, K, K)`` soft confusion counts of the shard's posterior block
        (DS/IBCC M-step numerator).
    class_totals:
        ``(K,)`` posterior column sums (DS prior / IBCC class counts).
    vote_totals:
        ``(K,)`` raw vote counts (majority-vote diagnostics).
    agreement:
        ``(J,)`` posterior-mass agreement sums (PM/CATD weight updates).
    label_counts:
        ``(J,)`` observed labels per annotator (normalizers, chi-square
        degrees of freedom).
    grad_alpha:
        ``(J,)`` GLAD ability-gradient accumulator (summed raw residual
        scatter; the driver divides by the merged ``label_counts``).
    log_likelihood:
        Shard's E-step log evidence (summed).
    delta:
        Max-abs posterior change on the shard (merged via max — the global
        convergence criterion of every iterative method).
    """

    instances: int = 0
    observations: int = 0
    unannotated: int = 0
    confusion: np.ndarray | None = None
    class_totals: np.ndarray | None = None
    vote_totals: np.ndarray | None = None
    agreement: np.ndarray | None = None
    label_counts: np.ndarray | None = None
    grad_alpha: np.ndarray | None = None
    log_likelihood: float = 0.0
    delta: float = 0.0

    _ARRAY_FIELDS = ("confusion", "class_totals", "vote_totals",
                     "agreement", "label_counts", "grad_alpha")

    def __post_init__(self) -> None:
        # Canonicalize layout at construction (see _canonical_layout):
        # mappers hand in strided views (einsum transposes in particular),
        # and a reduction over a view sums in a different order than over
        # the C-contiguous copy a pickle round trip would produce.
        for name in self._ARRAY_FIELDS:
            value = getattr(self, name)
            if isinstance(value, np.ndarray) and not value.flags["C_CONTIGUOUS"]:
                object.__setattr__(self, name, np.ascontiguousarray(value))

    def merge(self, other: "ShardStats") -> "ShardStats":
        """Combine two shards' statistics (pure — operands untouched)."""
        return ShardStats(
            instances=self.instances + other.instances,
            observations=self.observations + other.observations,
            unannotated=self.unannotated + other.unannotated,
            confusion=_merged_array(self.confusion, other.confusion),
            class_totals=_merged_array(self.class_totals, other.class_totals),
            vote_totals=_merged_array(self.vote_totals, other.vote_totals),
            agreement=_merged_array(self.agreement, other.agreement),
            label_counts=_merged_array(self.label_counts, other.label_counts),
            grad_alpha=_merged_array(self.grad_alpha, other.grad_alpha),
            log_likelihood=self.log_likelihood + other.log_likelihood,
            delta=max(self.delta, other.delta),
        )


class TreeReducer:
    """Streaming balanced binary-tree fold over :meth:`ShardStats.merge`.

    Pushed items are the leaves, in push order; whenever two subtrees of
    equal size exist they merge immediately (the binary-counter / pairwise
    summation scheme), so at most ``O(log n)`` partial merges are held and
    the final tree shape — hence every float's rounding path — is a pure
    function of ``n``. For ``n = 4``: ``(s0·s1)·(s2·s3)``; for ``n = 3``:
    ``(s0·s1)·s2``. This is what makes the sharded posteriors
    bit-identical across serial, thread, and process execution: the
    *shape* never depends on task completion timing.
    """

    def __init__(self) -> None:
        self._levels: list[ShardStats | None] = []
        self.count = 0

    def push(self, stats: ShardStats) -> None:
        """Add the next leaf; merges complete subtrees eagerly."""
        self.count += 1
        level = 0
        while level < len(self._levels) and self._levels[level] is not None:
            stats = self._levels[level].merge(stats)
            self._levels[level] = None
            level += 1
        if level == len(self._levels):
            self._levels.append(stats)
        else:
            self._levels[level] = stats

    def result(self) -> ShardStats:
        """Fold the remaining partial subtrees, smallest first (pure)."""
        merged: ShardStats | None = None
        for stats in self._levels:
            if stats is None:
                continue
            merged = stats if merged is None else stats.merge(merged)
        return ShardStats() if merged is None else merged


def tree_merge_shard_stats(stats: Iterable[ShardStats]) -> ShardStats:
    """Reduce an iterable of stats through :class:`TreeReducer`."""
    reducer = TreeReducer()
    for item in stats:
        reducer.push(item)
    return reducer.result()


def shard_base_stats(shard) -> dict:
    """The size/coverage fields every mapper includes."""
    per_instance = shard.annotations_per_instance()
    return dict(
        instances=shard.num_instances,
        observations=int(per_instance.sum()),
        unannotated=int((per_instance == 0).sum()),
    )


def as_shard_source(shards) -> Callable[[], Iterable]:
    """Normalize a shard source into a fresh-iterable-per-pass callable.

    See the module docstring for the three accepted forms. One-shot
    iterators are handed out once; a second pass raises with instructions
    to use a sequence or callable instead.
    """
    if callable(shards):
        return shards
    if isinstance(shards, Sequence):
        return lambda: shards
    if hasattr(shards, "__iter__"):
        state = {"used": False}

        def once():
            if state["used"]:
                raise ValueError(
                    "shard source is a one-shot iterator but the method needs "
                    "multiple passes over the shards; pass a sequence of shards "
                    "(in-memory) or a zero-arg callable returning a fresh "
                    "iterator per pass (out-of-core)"
                )
            state["used"] = True
            return shards

        return once
    raise TypeError(
        f"shard source must be a sequence, iterator, or callable, "
        f"got {type(shards).__name__}"
    )


# -- worker-side resolution (runs in whichever process executes the map) --- #
#
# Shard files are treated as immutable while handles over them are live:
# the caches below key opened shards by handle (path + range + flags), so
# rewriting a path with different data mid-run is undefined.

_RESOLVED_SHARDS: dict[ShardHandle, object] = {}
_RESOLVED_SHARDS_LIMIT = 256
_BROADCAST_CACHE: dict[str, object] = {}


def resolve_shard(shard):
    """Open a :class:`~repro.crowd.sharding.ShardHandle`; pass others through.

    Opened shards are cached per process (keyed by the frozen handle), so
    iterative methods re-localize and re-build incidence caches once per
    worker, not once per pass.
    """
    if not isinstance(shard, ShardHandle):
        return shard
    opened = _RESOLVED_SHARDS.get(shard)
    if opened is None:
        if len(_RESOLVED_SHARDS) >= _RESOLVED_SHARDS_LIMIT:
            _RESOLVED_SHARDS.clear()
        opened = shard.open()
        _RESOLVED_SHARDS[shard] = opened
    return opened


def _load_broadcast(path: str):
    """Load per-pass parameters broadcast as a pickle file (cached).

    Each pass writes a fresh path, so the cache holds exactly the current
    pass's parameters: first task of a pass loads, the rest hit the cache.
    """
    params = _BROADCAST_CACHE.get(path)
    if params is None:
        with open(path, "rb") as stream:
            params = pickle.load(stream)
        _BROADCAST_CACHE.clear()
        _BROADCAST_CACHE[path] = params
    return params


def _resolve_payload(payload):
    """Unpack ``(kind, mapper, params)``; kind "broadcast" reads the file."""
    kind, mapper, params = payload
    if kind == "broadcast":
        params = _load_broadcast(params)
    return mapper, params


def _run_init_task(payload, shard):
    """Initial-pass unit of work (module-level: must pickle by name)."""
    mapper, params = _resolve_payload(payload)
    shard = resolve_shard(shard)
    state, stats = mapper(params, shard)
    return shard.num_annotators, shard.num_classes, state, stats


def _run_pass_task(payload, pair):
    """Iterative-pass unit of work over one ``(shard, carried state)``."""
    shard, state = pair
    mapper, params = _resolve_payload(payload)
    return mapper(params, resolve_shard(shard), state)


def _warm_worker(handles: tuple) -> None:
    """Process-pool initializer: pre-open the run's shard handles."""
    for handle in handles:
        try:
            resolve_shard(handle)
        except Exception:
            # A broken handle surfaces with a full traceback on the first
            # task that touches it; the warmup must not kill the worker.
            pass


def _is_process_executor(executor) -> bool:
    from concurrent.futures import ProcessPoolExecutor

    return isinstance(executor, ProcessPoolExecutor)


def _window_size(executor, window: int | None) -> int:
    """In-flight window: explicit argument, else 2× the pool's workers.

    ``max_workers`` is read via ``getattr`` because the attribute is an
    implementation detail of the stdlib pools; executors without it fall
    back to ``os.cpu_count()`` instead of a hard-coded guess.
    """
    if window is not None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        return int(window)
    max_workers = getattr(executor, "_max_workers", None)
    if not max_workers:
        max_workers = os.cpu_count() or 1
    return max(2 * int(max_workers), 2)


class _MapContext:
    """Per-run parallel plumbing, built by ``infer_sharded``.

    Normalizes the shard source, attaches (or builds, for ``workers=N``)
    the executor, spills in-memory shards to :class:`~repro.crowd.
    sharding.ShardHandle` files when a process pool will consume them, and
    brokers the per-pass parameter broadcast. Context-manages its own
    resources: an owned executor is shut down and the run-scoped temp dir
    (spilled shards + broadcast files) removed on exit.
    """

    def __init__(self, shards, executor=None, workers: int | None = None,
                 window: int | None = None) -> None:
        if workers is not None:
            if executor is not None:
                raise TypeError("pass either executor= or workers=, not both")
            if workers < 1:
                raise ValueError(f"need at least one worker, got {workers}")
        self.window = window
        self._tempdir: str | None = None
        self._owned_executor = None
        self._broadcast_count = 0
        if workers is not None:
            from concurrent.futures import ProcessPoolExecutor

            if isinstance(shards, Sequence):
                shards = [
                    self._spill_to_handle(index, shard)
                    for index, shard in enumerate(shards)
                ]
                handles = tuple(s for s in shards if isinstance(s, ShardHandle))
            else:
                # Lazy/callable sources are consumed as they come; any
                # non-handle shards they yield are pickled per task.
                handles = ()
            executor = self._owned_executor = ProcessPoolExecutor(
                max_workers=workers, initializer=_warm_worker, initargs=(handles,)
            )
        self.source = as_shard_source(shards)
        self.executor = executor
        self.is_process = _is_process_executor(executor) if executor else False

    def _ensure_tempdir(self) -> str:
        if self._tempdir is None:
            self._tempdir = tempfile.mkdtemp(prefix="repro-sharded-")
        return self._tempdir

    def _spill_to_handle(self, index: int, shard):
        """Write one in-memory shard to disk and describe it by handle."""
        if isinstance(shard, ShardHandle):
            return shard
        sparse = as_sparse_shard(shard)
        path = os.path.join(self._ensure_tempdir(), f"shard-{index:05d}.npy")
        sparse.save(path)
        return ShardHandle(
            path=path,
            num_instances=sparse.num_instances,
            num_annotators=sparse.num_annotators,
            num_classes=sparse.num_classes,
        )

    def payload(self, mapper, params=None):
        """Wrap a mapper + its per-pass params for the task functions.

        Thread/serial execution inlines the params (shared memory); a
        process pool gets them broadcast once per pass via a pickle file,
        so N shard tasks don't ship N copies of the model state.
        """
        params = _canonical_layout(params)
        if params is None or not self.is_process:
            return ("inline", mapper, params)
        self._broadcast_count += 1
        path = os.path.join(
            self._ensure_tempdir(), f"broadcast-{self._broadcast_count:06d}.pkl"
        )
        with open(path, "wb") as stream:
            pickle.dump(params, stream, protocol=pickle.HIGHEST_PROTOCOL)
        return ("broadcast", mapper, path)

    def map(self, task, payload, items):
        """Run ``task(payload, item)`` over items, in submission order."""
        return ShardedTruthInference._map_results(
            partial(task, payload), items, self.executor, window=self.window
        )

    def close(self) -> None:
        if self._owned_executor is not None:
            self._owned_executor.shutdown(wait=True)
            self._owned_executor = None
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)
            self._tempdir = None

    def __enter__(self) -> "_MapContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShardedTruthInference(TruthInferenceMethod):
    """Base class of the map-reduce truth-inference methods.

    Subclasses implement :meth:`_infer` over the pass plumbing here, with
    their mappers as *bound methods* taking ``(params, shard[, state])`` —
    bound methods pickle by instance + name, which is what lets one code
    path serve serial, thread-pool, and process-pool execution (and is the
    precondition for the bit-identity guarantee). :meth:`_initial_pass`
    discovers the (J, K) dimensions, runs the first map, and tree-reduces;
    :meth:`_pass` re-pairs each shard with its carried per-shard state
    (posterior blocks, GLAD difficulties) by position and maps again.
    Per-pass global parameters go through ``ctx.payload`` so a process
    pool broadcasts them once, not per shard. :meth:`infer` is defined
    once, here: the in-memory crowd is its own single shard.
    """

    def infer_sharded(self, shards, executor=None, workers: int | None = None,
                      window: int | None = None) -> InferenceResult:
        """Run inference over a shard source (see module docstring).

        ``executor=`` attaches a ``concurrent.futures`` pool (thread or
        process); ``workers=N`` builds a process pool for the run, with a
        shard-warming initializer, and tears it down after. ``window=``
        overrides the bounded in-flight submission window.
        """
        with _MapContext(shards, executor=executor, workers=workers,
                         window=window) as ctx:
            return self._infer(ctx)

    def _infer(self, ctx: _MapContext) -> InferenceResult:
        raise NotImplementedError

    def infer(self, crowd) -> InferenceResult:
        """Run on one in-memory crowd: the one-shard map-reduce run."""
        return self.infer_sharded([crowd])

    # -- pass plumbing -------------------------------------------------- #
    @staticmethod
    def _map_results(fn, items, executor, window: int | None = None):
        """Yield ``fn`` over ``items`` in order, optionally via an executor.

        The parallel path submits through a bounded window rather than
        ``executor.map`` (which drains the whole iterable up front): at
        most ``window`` shards are in flight (default ``2 × max_workers``,
        falling back to ``os.cpu_count()`` for executors without that
        attribute — see :func:`_window_size`), so lazily loaded
        out-of-core sources never materialize the full crowd. Results are
        yielded in submission order regardless of completion order.
        """
        if executor is None:
            return (fn(item) for item in items)

        def windowed():
            limit = _window_size(executor, window)
            pending = deque()
            for item in items:
                pending.append(executor.submit(fn, item))
                if len(pending) >= limit:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()

        return windowed()

    def _initial_pass(self, ctx: _MapContext, mapper, params=None):
        """First map: returns ``(J, K, per-shard states, merged stats)``."""
        payload = ctx.payload(mapper, params)
        states, reducer, dims = [], TreeReducer(), None
        for J, K, state, stats in ctx.map(_run_init_task, payload, ctx.source()):
            if dims is None:
                dims = (J, K)
            elif dims != (J, K):
                raise ValueError(
                    f"shards disagree on (annotators, classes): "
                    f"{sorted({dims, (J, K)})}"
                )
            states.append(_canonical_layout(state))
            reducer.push(stats)
        if dims is None:
            raise ValueError("shard source yielded no shards")
        return dims[0], dims[1], states, reducer.result()

    def _pass(self, ctx: _MapContext, states, mapper, params=None):
        """One map over ``zip(shards, carried states)``; tree-reduced."""
        payload = ctx.payload(mapper, params)
        new_states, reducer = [], TreeReducer()
        pairs = zip(ctx.source(), states, strict=True)
        for state, stats in ctx.map(_run_pass_task, payload, pairs):
            new_states.append(_canonical_layout(state))
            reducer.push(stats)
        return new_states, reducer.result()

    @staticmethod
    def _require_annotated(stats: ShardStats) -> None:
        """Refuse label-free instances: the iterative methods need at
        least one label per instance."""
        if stats.unannotated:
            raise ValueError(
                f"{stats.unannotated} instances have no annotations at all"
            )

    @staticmethod
    def _concat(blocks: list[np.ndarray], num_classes: int) -> np.ndarray:
        if not blocks:
            return np.zeros((0, num_classes))
        return np.concatenate(blocks, axis=0)


def run_sharded(method, shards, executor=None, workers: int | None = None,
                window: int | None = None, **overrides) -> InferenceResult:
    """Resolve and run a sharded truth-inference method over a shard source.

    ``method`` is a registered ``"sharded"`` name (``"DS"``, ``"MV"``, ...;
    constructor ``overrides`` are forwarded to the registry factory) or an
    already-built :class:`ShardedTruthInference` instance. ``shards`` is
    any source form :func:`as_shard_source` accepts. ``executor`` attaches
    a ``concurrent.futures`` thread or process pool; ``workers=N`` builds
    a process pool for the run instead (see
    :meth:`ShardedTruthInference.infer_sharded`).
    """
    if isinstance(method, str):
        from .registry import get_method  # import here: registry imports the method modules

        method = get_method(method, kind="sharded", **overrides)
    elif overrides:
        raise TypeError(
            "constructor overrides require a method name; got an instance "
            f"of {type(method).__name__} plus overrides {sorted(overrides)}"
        )
    if not isinstance(method, ShardedTruthInference):
        raise TypeError(
            f"expected a sharded method name or instance, got {type(method).__name__}"
        )
    return method.infer_sharded(shards, executor=executor, workers=workers,
                                window=window)
