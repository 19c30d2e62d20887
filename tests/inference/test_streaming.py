"""Streaming truth inference: API contract, online behaviour, and decay.

The replay-equivalence contract itself (stream + ``fit_to_convergence``
reproduces the batch methods on every randomized harness crowd) lives in
``test_equivalence_harness.py``; this file covers the streaming-specific
surface — incremental ingest, diagnostics, decay-driven drift tracking,
and the degenerate stream shapes batch methods never see.
"""

import numpy as np
import pytest

from repro.crowd.types import MISSING, CrowdLabelMatrix
from repro.experiments.streaming_suite import stream_crowd_in_batches
from repro.inference import (
    GLAD,
    DawidSkene,
    MajorityVote,
    StreamingDawidSkene,
    StreamingGLAD,
    StreamingMajorityVote,
    available_methods,
    get_method,
)

from .equivalence_harness import random_classification_crowd

STREAMING_METHODS = ("MV", "DS", "GLAD")


@pytest.fixture(scope="module")
def binary_crowd():
    return random_classification_crowd(3, instances=120, annotators=10, classes=2, mean_labels=5.0)


class TestStreamingAPI:
    def test_registered_under_streaming_kind(self):
        assert set(STREAMING_METHODS) <= set(available_methods("streaming"))

    def test_rejects_non_crowd_batches(self):
        with pytest.raises(TypeError):
            StreamingMajorityVote().partial_fit(np.zeros((3, 2), dtype=np.int64))

    def test_rejects_changed_class_count(self):
        stream = StreamingMajorityVote()
        stream.partial_fit(CrowdLabelMatrix(np.array([[0, 1]]), 2))
        with pytest.raises(ValueError, match="classes"):
            stream.partial_fit(CrowdLabelMatrix(np.array([[2, 1]]), 3))

    def test_rejects_changed_annotator_axis(self):
        stream = StreamingMajorityVote()
        stream.partial_fit(CrowdLabelMatrix(np.array([[0, 1]]), 2))
        with pytest.raises(ValueError, match="annotator"):
            stream.partial_fit(CrowdLabelMatrix(np.array([[0, 1, 1]]), 2))

    def test_result_before_any_batch_raises(self):
        for name in STREAMING_METHODS:
            stream = get_method(name, kind="streaming")
            with pytest.raises(RuntimeError):
                stream.result()
            with pytest.raises(RuntimeError):
                stream.fit_to_convergence()

    @pytest.mark.parametrize("decay", [0.0, -0.5, 1.5])
    def test_bad_decay_rejected(self, decay):
        with pytest.raises(ValueError):
            StreamingDawidSkene(decay=decay)

    def test_glad_rejects_multiclass_stream(self):
        stream = StreamingGLAD()
        with pytest.raises(ValueError, match="binary"):
            stream.partial_fit(CrowdLabelMatrix(np.array([[0, 2]]), 3))

    @pytest.mark.parametrize("name", STREAMING_METHODS)
    def test_diagnostics_contract(self, name, binary_crowd):
        stream = get_method(name, kind="streaming")
        for batch in stream_crowd_in_batches(binary_crowd, [40, 40, 40]):
            stream.partial_fit(batch)
        extras = stream.result().extras
        # ConvergenceMonitor block (one step per update) + streaming block.
        assert {"iterations", "last_change", "converged"} <= set(extras)
        assert extras["iterations"] == extras["updates"] == 3
        assert extras["observations_seen"] == binary_crowd.total_annotations()
        assert extras["decay"] is None
        assert np.isfinite(extras["last_change"])

    @pytest.mark.parametrize("name", STREAMING_METHODS)
    def test_empty_batches_are_legal_anywhere(self, name, binary_crowd):
        empty = CrowdLabelMatrix(np.zeros((0, 10), dtype=np.int64), 2)
        stream = get_method(name, kind="streaming")
        stream.partial_fit(empty)
        for batch in stream_crowd_in_batches(binary_crowd, [60, 60]):
            stream.partial_fit(batch)
            stream.partial_fit(empty)
        result = stream.result()
        assert result.posterior.shape == (120, 2)
        assert np.isfinite(result.posterior).all()
        np.testing.assert_allclose(result.posterior.sum(axis=1), 1.0, atol=1e-8)

    @pytest.mark.parametrize("name", STREAMING_METHODS)
    def test_unannotated_instances_survive_convergence(self, name):
        """An instance whose labels are still in flight must not break the
        convergence path the ingest path already tolerates: the batch twin
        runs on the annotated subset and the unlabeled row gets the
        method's no-evidence posterior."""
        labels = np.array([[0, 1, 1], [MISSING, MISSING, MISSING], [1, 1, MISSING]])
        stream = get_method(name, kind="streaming")
        stream.partial_fit(CrowdLabelMatrix(labels[:2], 2))
        stream.partial_fit(CrowdLabelMatrix(labels[2:], 2))
        converged = stream.fit_to_convergence()
        assert converged.posterior.shape == (3, 2)
        assert np.isfinite(converged.posterior).all()
        np.testing.assert_allclose(converged.posterior.sum(axis=1), 1.0, atol=1e-8)
        annotated = get_method(name, kind="classification").infer(
            CrowdLabelMatrix(labels[[0, 2]], 2)
        )
        np.testing.assert_allclose(
            converged.posterior[[0, 2]], annotated.posterior, atol=1e-12, rtol=0
        )
        # Streaming continues past the checkpoint, late labels and all.
        stream.partial_fit(CrowdLabelMatrix(np.array([[1, MISSING, 1]]), 2))
        assert stream.result().posterior.shape == (4, 2)

    @pytest.mark.parametrize("name", STREAMING_METHODS)
    def test_retained_crowd_matches_fresh_container(self, name, binary_crowd):
        stream = get_method(name, kind="streaming")
        for batch in stream_crowd_in_batches(binary_crowd, [50, 0, 70]):
            stream.partial_fit(batch)
        np.testing.assert_array_equal(stream.crowd.labels, binary_crowd.labels)


class TestStreamingMajorityVote:
    def test_exact_after_every_update(self, binary_crowd):
        stream = StreamingMajorityVote()
        seen = 0
        for batch in stream_crowd_in_batches(binary_crowd, [30, 50, 40]):
            stream.partial_fit(batch)
            seen += batch.num_instances
            batch_result = MajorityVote().infer(binary_crowd.subset(np.arange(seen)))
            np.testing.assert_array_equal(stream.result().posterior, batch_result.posterior)

    def test_decay_is_inert_for_mv(self, binary_crowd):
        plain = StreamingMajorityVote()
        decayed = StreamingMajorityVote(decay=0.5)
        for batch in stream_crowd_in_batches(binary_crowd, [60, 60]):
            plain.partial_fit(batch)
            decayed.partial_fit(batch)
        np.testing.assert_array_equal(plain.result().posterior, decayed.result().posterior)


class TestStreamingDawidSkene:
    def test_online_posterior_tracks_batch_hard_labels(self, binary_crowd):
        stream = StreamingDawidSkene()
        for batch in stream_crowd_in_batches(binary_crowd, [40, 40, 40]):
            stream.partial_fit(batch)
        online = stream.result(refresh=True)
        batch = DawidSkene().infer(binary_crowd)
        agreement = (online.hard_labels() == batch.hard_labels()).mean()
        assert agreement >= 0.95

    def test_refresh_updates_early_instances(self):
        crowd = random_classification_crowd(7, instances=200, annotators=12, classes=3)
        stream = StreamingDawidSkene()
        for batch in stream_crowd_in_batches(crowd, [20, 60, 60, 60]):
            stream.partial_fit(batch)
        stale = stream.result(refresh=False).posterior[:20]
        fresh = stream.result(refresh=True).posterior[:20]
        # The first batch was scored before most annotator evidence arrived;
        # a refresh re-scores it under the final model.
        assert np.abs(stale - fresh).max() > 0

    def test_fit_to_convergence_adopts_state(self, binary_crowd):
        batches = stream_crowd_in_batches(binary_crowd, [60, 60])
        stream = StreamingDawidSkene()
        stream.partial_fit(batches[0])
        converged = stream.fit_to_convergence()
        reference = DawidSkene().infer(binary_crowd.subset(np.arange(60)))
        np.testing.assert_allclose(converged.posterior, reference.posterior, atol=1e-12, rtol=0)
        np.testing.assert_allclose(
            stream._confusions, reference.confusions, atol=1e-12, rtol=0
        )
        # The stream keeps going after a convergence checkpoint.
        stream.partial_fit(batches[1])
        assert stream.result().posterior.shape == (120, 2)

    def test_arrival_order_invariant_at_convergence(self):
        crowd = random_classification_crowd(13, instances=90, annotators=9, classes=3)
        forward = StreamingDawidSkene()
        for batch in stream_crowd_in_batches(crowd, [30, 30, 30]):
            forward.partial_fit(batch)
        order = np.random.default_rng(5).permutation(90)
        shuffled_crowd = crowd.subset(order)
        backward = StreamingDawidSkene()
        for batch in stream_crowd_in_batches(shuffled_crowd, [45, 45]):
            backward.partial_fit(batch)
        first = forward.fit_to_convergence().posterior
        second = backward.fit_to_convergence().posterior
        # Same instances, different arrival order/batching: identical
        # converged posteriors (per-instance, after undoing the shuffle).
        np.testing.assert_allclose(first[order], second, atol=1e-12, rtol=0)

    def test_decay_tracks_annotator_drift(self):
        """An annotator who flips from perfect to adversarial mid-stream:
        with decay the estimated confusion follows the recent behaviour,
        without decay it averages the two regimes."""
        rng = np.random.default_rng(17)
        J, K, per_batch, batches_per_phase = 6, 2, 40, 8
        truth = rng.integers(0, K, size=per_batch * batches_per_phase * 2)

        def make_batch(phase, index):
            start = (phase * batches_per_phase + index) * per_batch
            block_truth = truth[start : start + per_batch]
            labels = np.full((per_batch, J), MISSING, dtype=np.int64)
            for j in range(1, J):  # ordinary 80% annotators
                noisy = np.where(
                    rng.random(per_batch) < 0.8,
                    block_truth,
                    1 - block_truth,
                )
                labels[:, j] = noisy
            # Annotator 0: perfect in phase 0, always wrong in phase 1.
            labels[:, 0] = block_truth if phase == 0 else 1 - block_truth
            return CrowdLabelMatrix(labels, K)

        streams = {None: StreamingDawidSkene(), 0.5: StreamingDawidSkene(decay=0.5)}
        for phase in range(2):
            for index in range(batches_per_phase):
                batch = make_batch(phase, index)
                for stream in streams.values():
                    stream.partial_fit(batch)

        diag = {
            decay: float(np.diag(stream.result().confusions[0]).mean())
            for decay, stream in streams.items()
        }
        # Decayed estimate: annotator 0 now looks adversarial (diag ≈ 0);
        # undecayed still credits the good old days.
        assert diag[0.5] < 0.1
        assert diag[None] > diag[0.5] + 0.2


class TestStreamingContracts:
    """Regression pins for the streaming-contract fixes (PR 8).

    Each of the first three tests fails on the pre-fix code: GLAD flagged
    observation-free streams converged after the first tick, ``refresh``
    permanently overwrote the stored ingest-time posteriors, and batch
    validation ran after the retained crowd had already been extended.
    """

    @pytest.mark.parametrize("name", ("DS", "GLAD"))
    def test_observation_free_stream_never_reports_converged(self, name):
        # An empty → empty → ... stream has updates > 0 but an untrained
        # model; the monitor delta must stay inf until a real batch lands.
        empty = CrowdLabelMatrix(np.zeros((0, 4), dtype=np.int64), 2)
        stream = get_method(name, kind="streaming", tolerance=1e-3)
        for _ in range(4):
            stream.partial_fit(empty)
            extras = stream.result().extras
            assert extras["converged"] is False
            assert extras["last_change"] == np.inf

    @pytest.mark.parametrize("name", ("DS", "GLAD"))
    def test_observation_free_delta_is_zero_once_trained(self, name, binary_crowd):
        # After a real batch the model exists, so "nothing arrived, nothing
        # moved" is an honest 0.0.
        empty = CrowdLabelMatrix(np.zeros((0, 10), dtype=np.int64), 2)
        stream = get_method(name, kind="streaming")
        stream.partial_fit(empty)
        stream.partial_fit(binary_crowd.subset(np.arange(60)))
        stream.partial_fit(empty)
        assert stream.result().extras["last_change"] == 0.0

    @pytest.mark.parametrize("name", STREAMING_METHODS)
    def test_refresh_is_side_effect_free(self, name, binary_crowd):
        stream = get_method(name, kind="streaming")
        for batch in stream_crowd_in_batches(binary_crowd, [20, 50, 50]):
            stream.partial_fit(batch)
        ingest_time = stream.result(refresh=False).posterior.copy()
        refreshed = stream.result(refresh=True).posterior.copy()
        # Pre-fix this read returned the refreshed posteriors: the refresh
        # had overwritten the stored blocks.
        np.testing.assert_array_equal(
            stream.result(refresh=False).posterior, ingest_time
        )
        # Same model, same data: refreshing again reproduces the refresh.
        np.testing.assert_array_equal(
            stream.result(refresh=True).posterior, refreshed
        )
        if name != "MV":  # MV's result always reflects every vote
            assert np.abs(refreshed - ingest_time).max() > 0

    def test_glad_refresh_keeps_difficulty_blocks(self, binary_crowd):
        # Pre-fix the refresh also collapsed _log_beta_blocks into one
        # block; the per-batch difficulty state must survive a read.
        stream = StreamingGLAD()
        for batch in stream_crowd_in_batches(binary_crowd, [40, 40, 40]):
            stream.partial_fit(batch)
        before = [block.copy() for block in stream._log_beta_blocks]
        stream.result(refresh=True)
        assert len(stream._log_beta_blocks) == len(before)
        for kept, expected in zip(stream._log_beta_blocks, before):
            np.testing.assert_array_equal(kept, expected)

    @pytest.mark.parametrize("name", STREAMING_METHODS)
    def test_rejected_batch_leaves_stream_untouched(self, name, binary_crowd):
        stream = get_method(name, kind="streaming")
        for batch in stream_crowd_in_batches(binary_crowd, [60, 60]):
            stream.partial_fit(batch)
        labels_before = stream.crowd.labels.copy()
        posterior_before = stream.result().posterior.copy()
        counters_before = (stream.updates, stream.observations_seen)
        monitor_before = (
            stream._monitor.iterations,
            stream._monitor.last_change,
            stream._monitor.converged,
        )

        wrong_classes = CrowdLabelMatrix(np.array([[2] + [MISSING] * 9]), 3)
        wrong_annotators = CrowdLabelMatrix(np.array([[0, 1]]), 2)
        for bad in (wrong_classes, wrong_annotators):
            with pytest.raises(ValueError):
                stream.partial_fit(bad)

        assert (stream.updates, stream.observations_seen) == counters_before
        assert (
            stream._monitor.iterations,
            stream._monitor.last_change,
            stream._monitor.converged,
        ) == monitor_before
        np.testing.assert_array_equal(stream.crowd.labels, labels_before)
        np.testing.assert_array_equal(stream.result().posterior, posterior_before)

    @pytest.mark.parametrize("name", STREAMING_METHODS)
    def test_state_roundtrip_resumes_bit_identically(self, name, binary_crowd):
        params = {"em_iterations": 5, "gradient_steps": 5} if name == "GLAD" else {}
        batches = stream_crowd_in_batches(binary_crowd, [30, 0, 50, 40])
        reference = get_method(name, kind="streaming", **params)
        for batch in batches:
            reference.partial_fit(batch)

        interrupted = get_method(name, kind="streaming", **params)
        for batch in batches[:2]:
            interrupted.partial_fit(batch)
        state = interrupted.get_state()
        restored = get_method(name, kind="streaming", **params)
        restored.set_state(
            state,
            CrowdLabelMatrix(
                interrupted.crowd.labels.copy(), interrupted.crowd.num_classes
            ),
        )
        for batch in batches[2:]:
            restored.partial_fit(batch)

        assert restored.updates == reference.updates
        assert restored.observations_seen == reference.observations_seen
        np.testing.assert_array_equal(
            restored.result().posterior, reference.result().posterior
        )
        np.testing.assert_array_equal(
            restored.result(refresh=True).posterior,
            reference.result(refresh=True).posterior,
        )
        if reference.result().confusions is not None:
            np.testing.assert_array_equal(
                restored.result().confusions, reference.result().confusions
            )

    @pytest.mark.parametrize("name", STREAMING_METHODS)
    def test_state_roundtrip_before_any_batch(self, name):
        state = get_method(name, kind="streaming").get_state()
        restored = get_method(name, kind="streaming").set_state(state)
        assert restored.updates == 0 and restored.crowd is None
        with pytest.raises(RuntimeError):
            restored.result()

    def test_set_state_validates_method_decay_format_and_crowd(self, binary_crowd):
        stream = StreamingDawidSkene()
        stream.partial_fit(binary_crowd.subset(np.arange(40)))
        state = stream.get_state()
        with pytest.raises(ValueError, match="method"):
            StreamingMajorityVote().set_state(state, stream.crowd)
        with pytest.raises(ValueError, match="decay"):
            StreamingDawidSkene(decay=0.5).set_state(state, stream.crowd)
        with pytest.raises(ValueError, match="crowd"):
            StreamingDawidSkene().set_state(state, None)
        with pytest.raises(ValueError, match="format"):
            StreamingDawidSkene().set_state(dict(state, format=99), stream.crowd)


class TestStreamingGLAD:
    def test_learns_negative_ability_for_adversary(self):
        crowd = random_classification_crowd(
            23, instances=150, annotators=12, classes=2, mean_labels=5.0, adversarial=2
        )
        stream = StreamingGLAD()
        for batch in stream_crowd_in_batches(crowd, [50, 50, 50]):
            stream.partial_fit(batch)
        alpha = stream._alpha
        assert alpha[:2].max() < alpha[2:].mean()

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("gradient_steps,learning_rate", [(20, 0.05), (4, 0.3)])
    def test_first_batch_is_two_round_batch_glad(self, seed, gradient_steps, learning_rate):
        # A fresh stream's first ingest is the batch twin's EM on that
        # batch: E-step, ascent normalized by the batch's label counts,
        # E-step — fixed-budget GLAD at two rounds, up to the rounding of
        # the α update's operand order.
        batch = random_classification_crowd(
            seed, instances=80, annotators=9, classes=2, mean_labels=4.0, adversarial=1
        )
        stream = StreamingGLAD(gradient_steps=gradient_steps, learning_rate=learning_rate)
        stream.partial_fit(batch)
        batch_glad = GLAD(
            em_iterations=2,
            gradient_steps=gradient_steps,
            learning_rate=learning_rate,
            tolerance=0.0,
        ).infer(batch)
        np.testing.assert_allclose(
            stream.result().posterior, batch_glad.posterior, rtol=0, atol=1e-12
        )

    def test_refresh_concatenates_difficulties(self, binary_crowd):
        stream = StreamingGLAD()
        for batch in stream_crowd_in_batches(binary_crowd, [40, 80]):
            stream.partial_fit(batch)
        result = stream.result(refresh=True)
        assert result.posterior.shape == (120, 2)
        np.testing.assert_allclose(result.posterior.sum(axis=1), 1.0, atol=1e-8)
