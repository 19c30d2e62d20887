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
annotator axis throughout the stream; a batch that fails validation is
rejected *before* any state is touched, so the stream is exactly as it
was), :meth:`~StreamingTruthInference.result` returns an
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
at convergence exactly — the retained container is grown with the
incremental append path (:meth:`~repro.crowd.types.CrowdLabelMatrix.
extend`), so any cache-coherence bug in that path breaks this contract.
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
from ..crowd.types import CrowdLabelMatrix
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


def _state_array(state: dict, key: str) -> np.ndarray | None:
    """Fetch an optional float64 array from a state dict (defensive copy)."""
    value = state.get(key)
    if value is None:
        return None
    return np.array(value, dtype=REFERENCE_DTYPE)


class StreamingTruthInference:
    """Base class: stream bookkeeping shared by every streaming method.

    Subclasses implement :meth:`_ingest` (the O(new observations) state
    update, returning the monitor delta), :meth:`_posterior_blocks`, and
    :meth:`_adopt` for the convergence path, and build ``self._twin`` —
    the batch method this stream converges to (replay contract) — once in
    their constructor. The twin's constructor is the one check of the
    parameters the two share.
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
        unchanged apart from the update counter. Batch compatibility is
        validated *before* the retained crowd is touched: a rejected
        batch raises without mutating anything — no retained labels, no
        ``updates``/``observations_seen`` increment, no monitor step.
        """
        if not isinstance(batch, CrowdLabelMatrix):
            raise TypeError(f"streaming methods ingest CrowdLabelMatrix, got {type(batch).__name__}")
        if self.crowd is None:
            self._check_first_batch(batch)
            self.crowd = CrowdLabelMatrix(batch.labels.copy(), batch.num_classes)
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
            self.crowd.extend(batch.labels)
        delta = self._ingest(batch)
        self.updates += 1
        self.observations_seen += batch.total_annotations()
        self._monitor.step(delta)
        return self

    def result(self, refresh: bool = False) -> InferenceResult:
        """Posterior over every instance seen so far.

        With ``refresh=False`` (default) each instance keeps the posterior
        computed when its batch arrived — O(I) assembly, no label scans.
        ``refresh=True`` re-runs one E-step over the full retained stream
        under the *current* annotator model (O(total observations)) so
        early instances benefit from later evidence. The refresh is
        computed into the returned result only — stored ingest-time
        posteriors are never overwritten, so a later
        ``result(refresh=False)`` still reports them (contract pinned by
        ``tests/inference/test_streaming.py``).
        """
        self._require_data()
        blocks = self._refreshed_blocks() if refresh else self._posterior_blocks()
        posterior = (
            np.concatenate(blocks, axis=0)
            if blocks
            else np.zeros((0, self.num_classes))
        )
        return InferenceResult(
            posterior=posterior,
            confusions=self._current_confusions(),
            extras=self.streaming_extras(),
        )

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
        checkpoint codec (:mod:`repro.serving.state`).
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
        state.update(self._model_state())
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

    def _ingest(self, batch: CrowdLabelMatrix) -> float:
        """Update state from one new batch; returns the monitor delta."""
        raise NotImplementedError

    def _posterior_blocks(self) -> list[np.ndarray]:
        raise NotImplementedError

    def _refreshed_blocks(self) -> list[np.ndarray]:
        """Posterior blocks recomputed under the current model.

        Must be side-effect-free: ``result(refresh=True)`` consumes the
        returned blocks without storing them, so the ingest-time
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

    The retained container's vote-count cache is extended in place by
    :meth:`~repro.crowd.types.CrowdLabelMatrix.extend`, so ``result()`` is
    one O(I) normalization and equals the batch posterior after *every*
    update (no convergence step needed). The monitor delta is the change
    in the global class vote share — "has the stream's label distribution
    stabilized", the only model-level quantity MV has.
    """

    name = "MV"

    def __init__(self, decay: float | None = None, tolerance: float = 1e-6) -> None:
        super().__init__(decay=decay, tolerance=tolerance)
        self._twin = MajorityVote()
        self._vote_totals: np.ndarray | None = None
        self._vote_share: np.ndarray | None = None

    def _ingest(self, batch: CrowdLabelMatrix) -> float:
        if self._vote_totals is None:
            self._vote_totals = np.zeros(self.num_classes)
        self._vote_totals += batch.vote_counts().sum(axis=0)
        share = normalize_rows(self._vote_totals)
        previous, self._vote_share = self._vote_share, share
        return float(np.abs(share - previous).max()) if previous is not None else np.inf

    def _posterior_blocks(self) -> list[np.ndarray]:
        return [majority_vote_posterior(self.crowd)]

    def _refreshed_blocks(self) -> list[np.ndarray]:
        return self._posterior_blocks()  # always reflects every vote seen

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
        self._blocks: list[np.ndarray] = []

    def _e_step(self, crowd: CrowdLabelMatrix) -> np.ndarray:
        log_posterior = np.log(self._prior)[None, :] + emission_log_likelihood(
            crowd, np.log(self._confusions)
        )
        return normalize_log_posterior(log_posterior)

    def _m_step(self) -> None:
        # The batch twin's M-step (DawidSkene._global_step), kept in
        # probability space: the state stores the prior, not its log.
        self._confusions = normalize_rows(self._stat_confusions + self.smoothing)
        self._prior = normalize_rows(self._stat_prior + self.smoothing)

    def _ingest(self, batch: CrowdLabelMatrix) -> float:
        K = self.num_classes
        if self._stat_confusions is None:
            self._stat_confusions = np.zeros((self.num_annotators, K, K))
            self._stat_prior = np.zeros(K)
        if batch.total_annotations() == 0:
            # Observation-free update: nothing to learn, and the history is
            # not decayed (decay tracks information arrival, not ticks).
            if self._confusions is None:
                self._blocks.append(np.full((batch.num_instances, K), 1.0 / K))
                return np.inf
            self._blocks.append(self._e_step(batch))
            return 0.0
        if self._confusions is None:
            # Nothing learned yet: bootstrap the first real batch from
            # majority voting, exactly like the batch method's init.
            posterior = majority_vote_posterior(batch)
        else:
            posterior = self._e_step(batch)
        previous = None if self._confusions is None else self._confusions.copy()

        contrib_confusions = contrib_prior = None
        for _ in range(self.inner_sweeps):
            new_confusions = confusion_counts(posterior, batch)
            new_prior = posterior.sum(axis=0)
            if contrib_confusions is None:
                gamma = self._decay_factor()
                self._stat_confusions = gamma * self._stat_confusions + new_confusions
                self._stat_prior = gamma * self._stat_prior + new_prior
            else:
                # Inner refinements replace this batch's contribution
                # rather than decaying the history again.
                self._stat_confusions += new_confusions - contrib_confusions
                self._stat_prior += new_prior - contrib_prior
            contrib_confusions, contrib_prior = new_confusions, new_prior
            self._m_step()
            posterior = self._e_step(batch)

        self._blocks.append(posterior)
        if previous is None:
            return np.inf
        return float(np.abs(self._confusions - previous).max(initial=0.0))

    def _posterior_blocks(self) -> list[np.ndarray]:
        return self._blocks

    def _refreshed_blocks(self) -> list[np.ndarray]:
        if self._confusions is None:
            return list(self._blocks)
        return [self._e_step(self.crowd)]

    def _model_state(self) -> dict:
        return {
            "stat_confusions": self._stat_confusions,
            "stat_prior": self._stat_prior,
            "confusions": self._confusions,
            "prior": self._prior,
            # Stored per-batch posteriors concatenate losslessly: they are
            # only ever appended to and concatenated, never re-split.
            "posterior_blocks": (
                np.concatenate(self._blocks, axis=0) if self._blocks else None
            ),
        }

    def _set_model_state(self, state: dict) -> None:
        self._stat_confusions = _state_array(state, "stat_confusions")
        self._stat_prior = _state_array(state, "stat_prior")
        self._confusions = _state_array(state, "confusions")
        self._prior = _state_array(state, "prior")
        packed = _state_array(state, "posterior_blocks")
        self._blocks = [] if packed is None else [packed]
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
        self._confusions = result.confusions
        self._blocks = [result.posterior]
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
        self._log_beta_blocks: list[np.ndarray] = []
        self._blocks: list[np.ndarray] = []

    def _check_first_batch(self, batch: CrowdLabelMatrix) -> None:
        if batch.num_classes != 2:
            raise ValueError("GLAD supports binary labels only (as in the paper)")

    def _ingest(self, batch: CrowdLabelMatrix) -> float:
        if batch.total_annotations() == 0:
            # Observation-free update: abilities and history untouched.
            # Until a real batch has trained the abilities the stream has
            # learned nothing, so the monitor must keep reporting "not
            # converged" — the same `is None` guard StreamingDawidSkene
            # uses, not an update-counter check (an empty→empty stream
            # has updates > 0 but an untrained model).
            self._log_beta_blocks.append(np.zeros(batch.num_instances))
            prior = np.full(batch.num_instances, self.prior_correct)
            self._blocks.append(np.stack([1.0 - prior, prior], axis=1))
            return np.inf if self._alpha is None else 0.0
        if self._alpha is None:
            self._alpha = np.ones(self.num_annotators)
            self._label_counts = np.zeros(self.num_annotators)
        twin = self._twin
        state, stats = twin._init_mapper(None, batch)
        self._label_counts = self._decay_factor() * self._label_counts + stats.label_counts
        normalizer = np.maximum(self._label_counts, 1.0)
        previous_alpha = self._alpha.copy()
        state, _ = twin._e_mapper(self._alpha, batch, state)
        for _ in range(self.gradient_steps):
            state, grads = twin._grad_mapper(self._alpha, batch, state)
            # ``lr * (g / n)``, not the batch twin's ``lr * g / n``: the
            # two round differently, and this order keeps α (and so every
            # checkpoint) bit-identical to the stream's earlier releases.
            self._alpha = np.clip(
                self._alpha + self.learning_rate * (grads.grad_alpha / normalizer), -8.0, 8.0
            )
        (posterior_one, log_beta, _), _ = twin._e_mapper(self._alpha, batch, state)

        self._log_beta_blocks.append(log_beta)
        self._blocks.append(np.stack([1.0 - posterior_one, posterior_one], axis=1))
        return float(np.abs(self._alpha - previous_alpha).max(initial=0.0))

    def _posterior_blocks(self) -> list[np.ndarray]:
        return self._blocks

    def _refreshed_blocks(self) -> list[np.ndarray]:
        if self._alpha is None or not self._log_beta_blocks:
            return list(self._blocks)
        # The twin's E-step over the whole retained stream, from its init
        # state with the stream's frozen difficulties (the E-step reads no
        # labels-per-instance normalizer, so none is built).
        log_beta = np.concatenate(self._log_beta_blocks)
        state = (np.full(log_beta.shape, self.prior_correct), log_beta, None)
        (posterior_one, _, _), _ = self._twin._e_mapper(self._alpha, self.crowd, state)
        return [np.stack([1.0 - posterior_one, posterior_one], axis=1)]

    def _model_state(self) -> dict:
        return {
            "alpha": self._alpha,
            "label_counts": self._label_counts,
            "log_beta": (
                np.concatenate(self._log_beta_blocks) if self._log_beta_blocks else None
            ),
            "posterior_blocks": (
                np.concatenate(self._blocks, axis=0) if self._blocks else None
            ),
        }

    def _set_model_state(self, state: dict) -> None:
        self._alpha = _state_array(state, "alpha")
        self._label_counts = _state_array(state, "label_counts")
        log_beta = _state_array(state, "log_beta")
        self._log_beta_blocks = [] if log_beta is None else [log_beta]
        packed = _state_array(state, "posterior_blocks")
        self._blocks = [] if packed is None else [packed]
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
        self._log_beta_blocks = [np.log(beta)] if beta.size else []
        self._blocks = [result.posterior] if result.posterior.size else []
        self._label_counts = self.crowd.annotations_per_annotator().astype(REFERENCE_DTYPE)
