"""Streaming (online) truth inference over label streams.

The batch methods in this package assume every label is known before
inference starts. Serving a live annotation pipeline needs the
opposite: labels arrive in batches of new instances, posteriors update
incrementally, and the cost of ingesting a batch is O(new observations) —
never a fresh EM run over everything seen so far. This module provides
that as a thin layer over the same sparse-crowd kernels
(:mod:`repro.inference.primitives`) the batch methods run on:

* :class:`StreamingMajorityVote` — running vote counts; exactly the batch
  posterior at every step.
* :class:`StreamingDawidSkene` — stepwise EM (Cappé & Moulines style):
  per-annotator confusion *sufficient statistics* are accumulated across
  batches (optionally exponentially decayed), each arriving batch gets a
  few local E/M sweeps against them, and old instances are never
  re-scanned during ingest.
* :class:`StreamingGLAD` — per-batch E-step + stochastic gradient ascent
  on annotator ability (binary crowds, as in the paper); instance
  difficulties of past batches stay frozen at ingest time.

Shared API: :meth:`~StreamingTruthInference.partial_fit` ingests one
:class:`~repro.crowd.types.CrowdLabelMatrix` of *new* instances (same
annotator axis throughout the stream). An update commits all or nothing:
a batch that fails validation, or whose update would leave a non-finite
array in the state (:class:`StreamUpdateRejected`), raises before
anything is committed, so the stream is exactly as it was.
:meth:`~StreamingTruthInference.result` returns an
:class:`~repro.inference.base.InferenceResult` over everything seen, and
:meth:`~StreamingTruthInference.fit_to_convergence` re-estimates on the
full retained stream with the batch twin. :meth:`~StreamingTruthInference.
get_state` / :meth:`~StreamingTruthInference.set_state` round-trip the
learned state (sufficient statistics, stored posteriors, counters) as a
flat dict of scalars and float64 arrays — the checkpoint surface the
serving layer (:mod:`repro.serving`) persists, under the recovery
contract that a restored stream replaying the tail of its label stream
reproduces the uninterrupted run exactly. Diagnostics
follow the subsystem-wide :class:`~repro.inference.base.ConvergenceMonitor`
contract (``iterations``/``last_change``/``converged``, one step per
update, measuring how much the annotator model still moves) plus the
streaming extras ``updates``, ``observations_seen``, and ``decay``.

**Replay-equivalence contract** (pinned at atol 1e-8 by the randomized
harness in ``tests/inference/equivalence_harness.py``): feeding an entire
crowd through ``partial_fit`` in batches with decay disabled and then
calling ``fit_to_convergence()`` reproduces the batch method's posterior
at convergence exactly — the retained container is grown by
:meth:`~repro.crowd.types.CrowdLabelMatrix.extend`, which appends the
labels into its :class:`~repro.crowd.types.RowBuffer` in place and
drops the derived views, and the twin reads it through the same kernel
surface as a freshly built container. The stored per-batch posteriors
(and GLAD's difficulties) grow in row buffers too, so neither an update
nor a ``result()`` copies the stream: ``result()`` and
:meth:`~StreamingTruthInference.get_state` hand out read-only views of
the filled rows.
For majority vote the contract is stronger: the incremental ``result()``
itself equals the batch posterior after every update, no convergence call
needed. With decay enabled there is deliberately no batch equivalent —
old evidence about annotators is forgotten, which is the point (annotator
drift).

``decay`` semantics: a factor in (0, 1] applied to the *annotator-level*
sufficient statistics once per update before the new batch is added
(1.0 / ``None`` = never forget). Instance posteriors are not decayed —
an instance's labels arrive once, with its batch. Majority vote keeps no
cross-batch annotator state, so its posterior is decay-invariant; the
parameter exists there only for API uniformity.
"""

from __future__ import annotations

import numpy as np

from ..autodiff.dtypes import REFERENCE_DTYPE
from ..crowd.types import CrowdLabelMatrix, RowBuffer, read_only
from .base import ConvergenceMonitor, InferenceResult
from .dawid_skene import DawidSkene
from .glad import GLAD
from .majority_vote import MajorityVote, majority_vote_posterior
from .primitives import (
    confusion_counts,
    emission_log_likelihood,
    normalize_log_posterior,
    normalize_rows,
)

__all__ = [
    "StreamUpdateRejected",
    "StreamingTruthInference",
    "StreamingMajorityVote",
    "StreamingDawidSkene",
    "StreamingGLAD",
]

# Streams are open-ended; the monitor's iteration budget must never be the
# thing that reports "stop".
_UNBOUNDED = 2**62

# get_state/set_state payload format; bumped when keys change meaning.
_STATE_FORMAT = 1


class StreamUpdateRejected(ValueError):
    """A streaming update would commit non-finite state; nothing was committed.

    Raised by :meth:`StreamingTruthInference.partial_fit` when an array
    the update computed (a sufficient statistic, a model parameter or the
    batch's posterior block) holds a NaN or an infinity, e.g. a
    zero-smoothing Dawid–Skene stream fed a batch its learned confusions
    call impossible under every class. The message names the method, the
    update number and the array. The stream is left as it was: the same
    :meth:`~StreamingTruthInference.get_state`, the same retained crowd,
    the same counters, so a later valid batch continues as if the
    rejected one had never arrived.
    """


def _state_array(state: dict, key: str) -> np.ndarray | None:
    """Fetch an optional float64 array from a state dict (defensive copy)."""
    value = state.get(key)
    if value is None:
        return None
    return np.array(value, dtype=REFERENCE_DTYPE)


def _filled(rows: RowBuffer | None) -> np.ndarray | None:
    """The rows a buffer holds, as a read-only view; None before the first append."""
    return None if rows is None else rows.view()


class StreamingTruthInference:
    """Base class: stream bookkeeping shared by every streaming method.

    Subclasses implement :meth:`_ingest` (the O(new observations) state
    update, computed without mutating anything; :meth:`partial_fit`
    checks and commits it), :meth:`_refreshed_posterior`, and
    :meth:`_adopt` for the convergence path, and build ``self._twin`` —
    the batch method this stream converges to (replay contract) — once in
    their constructor. The twin's constructor is the one check of the
    parameters the two share. A method that stores each batch's
    posterior at ingest keeps it in ``self._posteriors``, a
    :class:`~repro.crowd.types.RowBuffer` (None until the first batch).
    """

    name = "streaming-base"

    def __init__(self, decay: float | None = None, tolerance: float = 1e-6) -> None:
        if decay is not None and not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.decay = decay
        self.crowd: CrowdLabelMatrix | None = None
        self.updates = 0
        self.observations_seen = 0
        self._monitor = ConvergenceMonitor(tolerance, _UNBOUNDED)
        self._posteriors: RowBuffer | None = None  # (I, K) rows stored at ingest

    # ------------------------------------------------------------------ #
    @property
    def num_classes(self) -> int:
        self._require_data()
        return self.crowd.num_classes

    @property
    def num_annotators(self) -> int:
        self._require_data()
        return self.crowd.num_annotators

    def _require_data(self) -> None:
        if self.crowd is None:
            raise RuntimeError(f"{type(self).__name__} has not seen any batch yet")

    def _decay_factor(self) -> float:
        return 1.0 if self.decay is None else self.decay

    def streaming_extras(self) -> dict:
        """The streaming diagnostics block, merged into every result."""
        extras = self._monitor.extras()
        extras.update(
            updates=self.updates,
            observations_seen=self.observations_seen,
            decay=self.decay,
        )
        return extras

    # ------------------------------------------------------------------ #
    def partial_fit(self, batch: CrowdLabelMatrix) -> "StreamingTruthInference":
        """Ingest one batch of new instances in O(new observations).

        The batch must keep the stream's annotator axis and class count.
        Empty batches (zero instances) are legal and leave the model
        unchanged apart from the update counter. The update commits all
        or nothing: batch compatibility is validated and the whole update
        is computed first, and only if every array it would commit is
        finite are the retained crowd, the state, ``updates``/
        ``observations_seen`` and the monitor changed. Otherwise it raises
        (``ValueError`` for an incompatible batch,
        :class:`StreamUpdateRejected` for a non-finite update) and the
        stream is exactly as it was.
        """
        if not isinstance(batch, CrowdLabelMatrix):
            raise TypeError(f"streaming methods ingest CrowdLabelMatrix, got {type(batch).__name__}")
        if self.crowd is None:
            self._check_first_batch(batch)
        else:
            if batch.num_classes != self.num_classes:
                raise ValueError(
                    f"batch has {batch.num_classes} classes, stream has {self.num_classes}"
                )
            if batch.num_annotators != self.num_annotators:
                raise ValueError(
                    f"batch has {batch.num_annotators} annotators, "
                    f"stream has {self.num_annotators}"
                )
        assign, append, delta = self._ingest(batch)
        update = self.updates + 1
        for name, value in (*assign.items(), *append.items()):
            if not np.isfinite(value).all():
                raise StreamUpdateRejected(
                    f"{self.name} update {update} would commit non-finite "
                    f"{name.lstrip('_')}; nothing was committed"
                )
        if self.crowd is None:
            self.crowd = CrowdLabelMatrix(batch.labels, batch.num_classes)  # copies
        else:
            self.crowd.extend(batch.labels)
        for name, value in assign.items():
            setattr(self, name, value)
        for name, block in append.items():
            rows = getattr(self, name)
            if rows is None:
                setattr(self, name, RowBuffer(block))
            else:
                rows.append(block)
        self.updates = update
        self.observations_seen += batch.total_annotations()
        self._monitor.step(delta)
        return self

    def result(self, refresh: bool = False) -> InferenceResult:
        """Posterior over every instance seen so far.

        With ``refresh=False`` (default) each instance keeps the posterior
        computed when its batch arrived: the result's posterior is a
        read-only view of the stored rows, built without a copy or a label
        scan, and the only O(I) work is :class:`InferenceResult`'s one
        pass over the row sums (majority vote normalizes the crowd's vote
        counts instead). ``refresh=True`` re-runs one E-step over the full
        retained stream under the *current* annotator model (O(total
        observations)) so early instances benefit from later evidence.
        The refresh is computed into the returned result only — stored
        ingest-time posteriors are never overwritten, so a later
        ``result(refresh=False)`` still reports them (contract pinned by
        ``tests/inference/test_streaming.py``). Every array of the result
        is read-only, so a caller sharing it (``CrowdService`` hands one
        snapshot to every reader) cannot write into another's result or
        into the stream.
        """
        self._require_data()
        result = InferenceResult(
            posterior=self._refreshed_posterior() if refresh else self._stored_posterior(),
            confusions=read_only(self._current_confusions()),
            extras=self.streaming_extras(),
        )
        result.posterior.flags.writeable = False
        return result

    def fit_to_convergence(self) -> InferenceResult:
        """Re-estimate on the full retained stream with the batch twin.

        This is the replay-equivalence anchor: with decay disabled the
        returned result is exactly what the batch method produces on the
        union of all ingested batches (same code path, same data — the
        incrementally-extended container). The converged parameters are
        adopted as the new streaming state, so subsequent ``partial_fit``
        calls continue from them. Extras carry the batch twin's
        convergence diagnostics plus the streaming block.

        Streams may contain instances nobody has labeled yet (their
        annotations are still in flight); the batch twins refuse those, so
        the twin runs on the annotated subset and the unannotated rows get
        the method's no-evidence posterior under the converged model —
        exactly what the twin's E-step would assign them.
        """
        self._require_data()
        counts = self.crowd.annotations_per_instance()
        if counts.size and (counts == 0).any():
            result = self._converge_around_unannotated(
                np.nonzero(counts > 0)[0], np.nonzero(counts == 0)[0]
            )
        else:
            result = self._twin.infer(self.crowd)
        self._adopt(result)
        extras = dict(result.extras)
        streaming = self.streaming_extras()
        extras.update(
            {key: streaming[key] for key in ("updates", "observations_seen", "decay")}
        )
        return InferenceResult(
            posterior=result.posterior, confusions=result.confusions, extras=extras
        )

    def _converge_around_unannotated(
        self, annotated: np.ndarray, unannotated: np.ndarray
    ) -> InferenceResult:
        """Batch-twin convergence when some instances carry no labels yet."""
        sub = self._twin.infer(self.crowd.subset(annotated))
        posterior = np.empty((self.crowd.num_instances, self.num_classes))
        posterior[annotated] = sub.posterior
        posterior[unannotated] = self._no_evidence_posterior(sub)
        extras = dict(sub.extras)
        self._splice_extras(extras, annotated, unannotated)
        return InferenceResult(
            posterior=posterior, confusions=sub.confusions, extras=extras
        )

    # -- checkpoint surface -------------------------------------------- #
    def get_state(self) -> dict:
        """Serializable snapshot of the learned streaming state.

        The returned dict holds only scalars, None, and float64 arrays,
        so it round-trips bit-exactly through the serving layer's
        checkpoint codec (:mod:`repro.serving.state`). It is a snapshot:
        an update commits new arrays or appends rows past the stored ones,
        never writing into what a dict already returned holds, so later
        ``partial_fit`` calls never change it. Its arrays are read-only
        views (the stream still holds them); the stored posteriors are the
        filled rows of their buffer, no copy.
        Restoring it with :meth:`set_state` into a freshly-constructed
        instance (same constructor configuration) and re-attaching the
        retained crowd reproduces the stream bit-for-bit: replaying the
        tail of a label stream after a restore matches the uninterrupted
        run exactly (the recovery contract pinned by
        ``tests/serving/test_recovery.py``). The retained crowd is *not*
        embedded — it dominates the checkpoint size and already has a
        durable form (:class:`~repro.crowd.sharding.SparseLabelShard`).
        """
        state = {
            "format": _STATE_FORMAT,
            "method": self.name,
            "decay": self.decay,
            "updates": self.updates,
            "observations_seen": self.observations_seen,
            "monitor_iterations": self._monitor.iterations,
            "monitor_last_change": self._monitor.last_change,
            "monitor_converged": self._monitor.converged,
        }
        for key, value in self._model_state().items():
            state[key] = read_only(value)
        return state

    def set_state(self, state: dict, crowd: CrowdLabelMatrix | None = None) -> "StreamingTruthInference":
        """Restore a :meth:`get_state` snapshot (plus the retained crowd).

        The instance must be constructed with the configuration the
        snapshot was taken under; ``method`` and ``decay`` are
        cross-checked here because they change what the restored state
        *means*, while the remaining knobs (iteration budgets, learning
        rates) only shape future updates. Arrays are defensively copied.
        """
        method = state.get("method")
        if method != self.name:
            raise ValueError(f"state is for method {method!r}, this stream is {self.name!r}")
        version = int(state.get("format", -1))
        if version != _STATE_FORMAT:
            raise ValueError(f"unsupported streaming state format {version}")
        decay = state.get("decay")
        decay = None if decay is None else float(decay)
        if decay != self.decay:
            raise ValueError(
                f"state was taken with decay={decay!r}, this stream has decay={self.decay!r}"
            )
        updates = int(state["updates"])
        if crowd is not None and not isinstance(crowd, CrowdLabelMatrix):
            raise TypeError(
                f"crowd must be a CrowdLabelMatrix, got {type(crowd).__name__}"
            )
        if crowd is None and updates > 0:
            raise ValueError(
                "a stream that has ingested batches needs its retained crowd back"
            )
        self.crowd = crowd
        self.updates = updates
        self.observations_seen = int(state["observations_seen"])
        self._monitor.iterations = int(state["monitor_iterations"])
        self._monitor.last_change = float(state["monitor_last_change"])
        self._monitor.converged = bool(state["monitor_converged"])
        self._set_model_state(state)
        return self

    # -- subclass hooks ------------------------------------------------ #
    def _model_state(self) -> dict:
        """Subclass state block for :meth:`get_state` (arrays or None)."""
        raise NotImplementedError

    def _set_model_state(self, state: dict) -> None:
        """Restore the :meth:`_model_state` block (inverse hook)."""
        raise NotImplementedError

    def _check_first_batch(self, batch: CrowdLabelMatrix) -> None:
        """Structural constraints checked before the stream starts."""

    def _ingest(self, batch: CrowdLabelMatrix) -> tuple[dict, dict, float]:
        """Compute one batch's update without mutating anything.

        Returns ``(assign, append, delta)``: new values for state
        attributes, one new block per block-list attribute (by name), and
        the monitor delta. It reads the stream's committed state and the
        batch only — not the retained crowd, which :meth:`partial_fit`
        grows after the update passes its finiteness check.
        """
        raise NotImplementedError

    def _stored_posterior(self) -> np.ndarray:
        """``(I, K)`` ingest-time posteriors: a read-only view of the stored rows."""
        if self._posteriors is None:
            return np.zeros((0, self.num_classes))
        return self._posteriors.view()

    def _refreshed_posterior(self) -> np.ndarray:
        """``(I, K)`` posteriors recomputed under the current model.

        Must be side-effect-free: ``result(refresh=True)`` consumes the
        returned array without storing it, so the ingest-time
        posteriors survive a refresh.
        """
        raise NotImplementedError

    def _current_confusions(self) -> np.ndarray | None:
        return None

    def _no_evidence_posterior(self, sub_result: InferenceResult) -> np.ndarray:
        """``(K,)`` posterior the converged model assigns an unlabeled row."""
        return np.full(self.num_classes, 1.0 / self.num_classes)

    def _splice_extras(self, extras: dict, annotated: np.ndarray, unannotated: np.ndarray) -> None:
        """Expand per-instance extras of a subset run back to full size."""

    def _adopt(self, result: InferenceResult) -> None:
        """Adopt a converged batch result as the streaming state."""
        raise NotImplementedError


class StreamingMajorityVote(StreamingTruthInference):
    """Online soft majority voting.

    ``result()`` normalizes the retained container's vote counts (one
    ``bincount`` over its cached shard, rebuilt once after each
    :meth:`~repro.crowd.types.CrowdLabelMatrix.extend`), so it equals the
    batch posterior after *every* update (no convergence step needed).
    The running class totals are float64. The monitor delta is the change
    in the global class vote share — "has the stream's label distribution
    stabilized", the only model-level quantity MV has.
    """

    name = "MV"

    def __init__(self, decay: float | None = None, tolerance: float = 1e-6) -> None:
        super().__init__(decay=decay, tolerance=tolerance)
        self._twin = MajorityVote()
        self._vote_totals: np.ndarray | None = None
        self._vote_share: np.ndarray | None = None

    def _ingest(self, batch: CrowdLabelMatrix) -> tuple[dict, dict, float]:
        totals = self._vote_totals
        if totals is None:
            totals = np.zeros(batch.num_classes)
        totals = totals + batch.vote_counts().sum(axis=0)
        share = normalize_rows(totals)
        previous = self._vote_share
        delta = float(np.abs(share - previous).max()) if previous is not None else np.inf
        return {"_vote_totals": totals, "_vote_share": share}, {}, delta

    def _stored_posterior(self) -> np.ndarray:
        return majority_vote_posterior(self.crowd)

    def _refreshed_posterior(self) -> np.ndarray:
        return self._stored_posterior()  # always reflects every vote seen

    def _model_state(self) -> dict:
        return {"vote_totals": self._vote_totals, "vote_share": self._vote_share}

    def _set_model_state(self, state: dict) -> None:
        self._vote_totals = _state_array(state, "vote_totals")
        self._vote_share = _state_array(state, "vote_share")

    def _adopt(self, result: InferenceResult) -> None:
        pass


class StreamingDawidSkene(StreamingTruthInference):
    """Stepwise-EM Dawid–Skene over decayed sufficient statistics.

    Per batch: an E-step for the new instances under the current
    ``(prior, confusions)``, then ``inner_sweeps`` local E/M refinements
    in which the batch's soft confusion counts are swapped into the
    running statistics (first swap applies the decay). Everything runs on
    the shared COO kernels, so ingest cost is O(batch observations) plus
    the O(J·K²) M-step.

    Parameters mirror :class:`~repro.inference.dawid_skene.DawidSkene`
    (``max_iterations``/``tolerance``/``smoothing`` parameterize the batch
    twin used by :meth:`fit_to_convergence`), plus ``decay`` and
    ``inner_sweeps``.
    """

    name = "DS"

    def __init__(
        self,
        decay: float | None = None,
        inner_sweeps: int = 2,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
        smoothing: float = 0.01,
    ) -> None:
        if inner_sweeps < 1:
            raise ValueError("need at least one inner sweep per batch")
        self._twin = DawidSkene(
            max_iterations=max_iterations, tolerance=tolerance, smoothing=smoothing
        )
        super().__init__(decay=decay, tolerance=tolerance)
        self.inner_sweeps = inner_sweeps
        self.smoothing = smoothing
        self._stat_confusions: np.ndarray | None = None  # (J, K, K) soft counts
        self._stat_prior: np.ndarray | None = None       # (K,) soft counts
        self._confusions: np.ndarray | None = None
        self._prior: np.ndarray | None = None

    @staticmethod
    def _e_step(crowd: CrowdLabelMatrix, prior: np.ndarray, confusions: np.ndarray) -> np.ndarray:
        # At zero smoothing a confusion entry can be exactly 0: its log is
        # the intended -inf of an impossible label. A row impossible under
        # every class normalizes to NaN, which partial_fit refuses to
        # commit (StreamUpdateRejected), so neither is worth a warning.
        with np.errstate(divide="ignore", invalid="ignore"):
            log_posterior = np.log(prior)[None, :] + emission_log_likelihood(
                crowd, np.log(confusions)
            )
            return normalize_log_posterior(log_posterior)

    def _m_step(self, stat_confusions: np.ndarray, stat_prior: np.ndarray) -> tuple:
        # The batch twin's M-step (DawidSkene._global_step), kept in
        # probability space: the state stores the prior, not its log.
        return (
            normalize_rows(stat_confusions + self.smoothing),
            normalize_rows(stat_prior + self.smoothing),
        )

    def _ingest(self, batch: CrowdLabelMatrix) -> tuple[dict, dict, float]:
        K = batch.num_classes
        stat_confusions, stat_prior = self._stat_confusions, self._stat_prior
        if stat_confusions is None:
            stat_confusions = np.zeros((batch.num_annotators, K, K))
            stat_prior = np.zeros(K)
        if batch.total_annotations() == 0:
            # Observation-free update: nothing to learn, and the history is
            # not decayed (decay tracks information arrival, not ticks).
            stats = {"_stat_confusions": stat_confusions, "_stat_prior": stat_prior}
            if self._confusions is None:
                return stats, {"_posteriors": np.full((batch.num_instances, K), 1.0 / K)}, np.inf
            return stats, {"_posteriors": self._e_step(batch, self._prior, self._confusions)}, 0.0
        if self._confusions is None:
            # Nothing learned yet: bootstrap the first real batch from
            # majority voting, exactly like the batch method's init.
            posterior = majority_vote_posterior(batch)
        else:
            posterior = self._e_step(batch, self._prior, self._confusions)

        contrib_confusions = contrib_prior = None
        for _ in range(self.inner_sweeps):
            new_confusions = confusion_counts(posterior, batch)
            new_prior = posterior.sum(axis=0)
            if contrib_confusions is None:
                gamma = self._decay_factor()
                stat_confusions = gamma * stat_confusions + new_confusions
                stat_prior = gamma * stat_prior + new_prior
            else:
                # Inner refinements replace this batch's contribution
                # rather than decaying the history again.
                stat_confusions = stat_confusions + (new_confusions - contrib_confusions)
                stat_prior = stat_prior + (new_prior - contrib_prior)
            contrib_confusions, contrib_prior = new_confusions, new_prior
            confusions, prior = self._m_step(stat_confusions, stat_prior)
            posterior = self._e_step(batch, prior, confusions)

        delta = (
            np.inf
            if self._confusions is None
            else float(np.abs(confusions - self._confusions).max(initial=0.0))
        )
        state = {
            "_stat_confusions": stat_confusions,
            "_stat_prior": stat_prior,
            "_confusions": confusions,
            "_prior": prior,
        }
        return state, {"_posteriors": posterior}, delta

    def _refreshed_posterior(self) -> np.ndarray:
        if self._confusions is None:
            return self._stored_posterior()
        return self._e_step(self.crowd, self._prior, self._confusions)

    def _model_state(self) -> dict:
        return {
            "stat_confusions": self._stat_confusions,
            "stat_prior": self._stat_prior,
            "confusions": self._confusions,
            "prior": self._prior,
            # The per-batch posteriors, stored as one run of rows: they are
            # only ever appended to, never re-split.
            "posterior_blocks": _filled(self._posteriors),
        }

    def _set_model_state(self, state: dict) -> None:
        self._stat_confusions = _state_array(state, "stat_confusions")
        self._stat_prior = _state_array(state, "stat_prior")
        self._confusions = _state_array(state, "confusions")
        self._prior = _state_array(state, "prior")
        packed = _state_array(state, "posterior_blocks")
        self._posteriors = None if packed is None else RowBuffer(packed)
        if packed is not None and self.crowd is not None and packed.shape[0] != self.crowd.num_instances:
            raise ValueError(
                f"state holds {packed.shape[0]} posterior rows, "
                f"crowd has {self.crowd.num_instances} instances"
            )

    def _current_confusions(self) -> np.ndarray | None:
        return self._confusions

    def _no_evidence_posterior(self, sub_result: InferenceResult) -> np.ndarray:
        # DS's E-step gives an unlabeled instance the class prior.
        return normalize_rows(sub_result.posterior.sum(axis=0) + self.smoothing)

    def _adopt(self, result: InferenceResult) -> None:
        # Copies: the caller of fit_to_convergence holds the result's arrays.
        self._confusions = result.confusions.copy()
        self._posteriors = RowBuffer(result.posterior.copy())
        # Rebuild the running statistics from the converged posterior so
        # later partial_fit calls continue from the converged model.
        self._stat_confusions = confusion_counts(result.posterior, self.crowd)
        self._stat_prior = result.posterior.sum(axis=0)
        self._prior = normalize_rows(self._stat_prior + self.smoothing)


class StreamingGLAD(StreamingTruthInference):
    """Streaming GLAD: per-batch E-step + SGD on annotator ability.

    Binary crowds only, as in the paper. Each batch gets an E-step under
    the current abilities, then ``gradient_steps`` ascent steps on
    ``(α, log β_batch)`` using only the batch's observations — stochastic
    gradient ascent over the stream. α gradients are normalized by the
    (decayed) running per-annotator label counts, so a prolific history
    damps per-batch swings while decay lets abilities track drifting
    annotators. Past batches' difficulties stay frozen at ingest time.

    The batch is one shard of the batch twin's EM: ingest runs it through
    :class:`~repro.inference.glad.GLAD`'s own init, E-step and gradient
    mappers, so the E-step and the gradients are defined once, there.
    What stays here is the α update's normalizer (the decayed running
    counts, not the batch's) and the fixed schedule: one E-step, the
    ascent, one E-step under the trained model. The first ``partial_fit``
    on a fresh stream therefore returns the posterior of
    ``GLAD(em_iterations=2, tolerance=0.0)`` on that batch, up to the
    rounding of the α update's operand order.

    The per-batch ascent uses ``gradient_steps``/``learning_rate``/
    ``prior_correct`` only; ``em_iterations`` sizes the batch twin
    :meth:`fit_to_convergence` runs, which is fixed-budget (twin
    ``tolerance=0.0``) exactly like the paper's batch GLAD — that is what
    the replay contract pins against. ``tolerance`` here feeds the
    *streaming* diagnostics monitor (how much α still moves per update),
    not an early stop.
    """

    name = "GLAD"

    def __init__(
        self,
        decay: float | None = None,
        em_iterations: int = 30,
        gradient_steps: int = 20,
        learning_rate: float = 0.05,
        prior_correct: float = 0.5,
        tolerance: float = 1e-6,
    ) -> None:
        self._twin = GLAD(
            em_iterations=em_iterations,
            gradient_steps=gradient_steps,
            learning_rate=learning_rate,
            prior_correct=prior_correct,
            tolerance=0.0,
        )
        super().__init__(decay=decay, tolerance=tolerance)
        self.gradient_steps = gradient_steps
        self.learning_rate = learning_rate
        self.prior_correct = prior_correct
        self._alpha: np.ndarray | None = None
        self._label_counts: np.ndarray | None = None  # decayed per-annotator
        self._log_beta: RowBuffer | None = None  # (I,) frozen at ingest

    def _check_first_batch(self, batch: CrowdLabelMatrix) -> None:
        if batch.num_classes != 2:
            raise ValueError("GLAD supports binary labels only (as in the paper)")

    def _ingest(self, batch: CrowdLabelMatrix) -> tuple[dict, dict, float]:
        if batch.total_annotations() == 0:
            # Observation-free update: abilities and history untouched.
            # Until a real batch has trained the abilities the stream has
            # learned nothing, so the monitor must keep reporting "not
            # converged" — the same `is None` guard StreamingDawidSkene
            # uses, not an update-counter check (an empty→empty stream
            # has updates > 0 but an untrained model).
            prior = np.full(batch.num_instances, self.prior_correct)
            rows = {
                "_log_beta": np.zeros(batch.num_instances),
                "_posteriors": np.stack([1.0 - prior, prior], axis=1),
            }
            return {}, rows, np.inf if self._alpha is None else 0.0
        alpha, label_counts = self._alpha, self._label_counts
        if alpha is None:
            alpha = np.ones(batch.num_annotators)
            label_counts = np.zeros(batch.num_annotators)
        twin = self._twin
        state, stats = twin._init_mapper(None, batch)
        label_counts = self._decay_factor() * label_counts + stats.label_counts
        normalizer = np.maximum(label_counts, 1.0)
        previous_alpha = alpha
        state, _ = twin._e_mapper(alpha, batch, state)
        for _ in range(self.gradient_steps):
            state, grads = twin._grad_mapper(alpha, batch, state)
            # ``lr * (g / n)``, not the batch twin's ``lr * g / n``: the
            # two round differently, and this order keeps α (and so every
            # checkpoint) bit-identical to the stream's earlier releases.
            alpha = np.clip(
                alpha + self.learning_rate * (grads.grad_alpha / normalizer), -8.0, 8.0
            )
        (posterior_one, log_beta, _, _), _ = twin._e_mapper(alpha, batch, state)

        rows = {
            "_log_beta": log_beta,
            "_posteriors": np.stack([1.0 - posterior_one, posterior_one], axis=1),
        }
        delta = float(np.abs(alpha - previous_alpha).max(initial=0.0))
        return {"_alpha": alpha, "_label_counts": label_counts}, rows, delta

    def _refreshed_posterior(self) -> np.ndarray:
        if self._alpha is None or self._log_beta is None:
            return self._stored_posterior()
        # The twin's E-step over the whole retained stream, from its init
        # state with the stream's frozen difficulties (the E-step reads
        # neither the labels-per-instance normalizer nor the carried
        # prob_correct, so neither is built).
        log_beta = self._log_beta.view()
        state = (np.full(log_beta.shape, self.prior_correct), log_beta, None, None)
        (posterior_one, _, _, _), _ = self._twin._e_mapper(self._alpha, self.crowd, state)
        return np.stack([1.0 - posterior_one, posterior_one], axis=1)

    def _model_state(self) -> dict:
        return {
            "alpha": self._alpha,
            "label_counts": self._label_counts,
            "log_beta": _filled(self._log_beta),
            "posterior_blocks": _filled(self._posteriors),
        }

    def _set_model_state(self, state: dict) -> None:
        self._alpha = _state_array(state, "alpha")
        self._label_counts = _state_array(state, "label_counts")
        log_beta = _state_array(state, "log_beta")
        self._log_beta = None if log_beta is None else RowBuffer(log_beta)
        packed = _state_array(state, "posterior_blocks")
        self._posteriors = None if packed is None else RowBuffer(packed)
        if log_beta is not None and self.crowd is not None and log_beta.shape[0] != self.crowd.num_instances:
            raise ValueError(
                f"state holds {log_beta.shape[0]} difficulty rows, "
                f"crowd has {self.crowd.num_instances} instances"
            )

    def _no_evidence_posterior(self, sub_result: InferenceResult) -> np.ndarray:
        # GLAD's E-step gives an unlabeled instance the class-1 prior.
        return np.array([1.0 - self.prior_correct, self.prior_correct])

    def _splice_extras(self, extras: dict, annotated: np.ndarray, unannotated: np.ndarray) -> None:
        # Unlabeled instances keep the neutral difficulty β = 1, so the
        # adopted per-instance state stays aligned with the full stream.
        beta = np.ones(self.crowd.num_instances)
        beta[annotated] = extras["beta"]
        extras["beta"] = beta

    def _adopt(self, result: InferenceResult) -> None:
        self._alpha = np.asarray(result.extras["alpha"], dtype=REFERENCE_DTYPE).copy()
        beta = np.asarray(result.extras["beta"], dtype=REFERENCE_DTYPE)
        self._log_beta = RowBuffer(np.log(beta)) if beta.size else None
        # A copy: the caller of fit_to_convergence holds result.posterior.
        self._posteriors = RowBuffer(result.posterior.copy()) if result.posterior.size else None
        self._label_counts = self.crowd.annotations_per_annotator().astype(REFERENCE_DTYPE)
