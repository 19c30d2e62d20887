"""CrowdService behavior: snapshots, eviction, restart discovery, validation.

The recovery *contract* lives in ``test_recovery.py``; this module pins
the serving semantics around it — queries see the last completed update
(cached snapshots, no torn reads under a concurrent writer), LRU
eviction respects the resident budget and rehydrates transparently, a
restarted service discovers checkpointed datasets (from the newest slot
whose state record decodes, refusing the older rename-based layout) and
resumes each under the configuration it was trained with, checkpoints
free no disk blocks (counted filesystem calls), and bad inputs
(path-unsafe ids, unknown datasets, incompatible batches) are rejected
without touching state; a refused first batch leaves no dataset behind,
also when a valid first batch races it.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.crowd.types import MISSING, CrowdLabelMatrix
from repro.experiments.streaming_suite import stream_crowd_in_batches
from repro.inference import get_method
from repro.serving import CrowdService, save_crowd, save_stream_state

from ..inference.equivalence_harness import random_classification_crowd


@pytest.fixture
def batches():
    crowd = random_classification_crowd(
        29, instances=90, annotators=8, classes=2, mean_labels=4.0
    )
    return stream_crowd_in_batches(crowd, [30, 30, 30])


def _twin(batches, **overrides):
    """Single-stream DS twin fed the same batches (the service's ground truth)."""
    stream = get_method("DS", kind="streaming", **overrides)
    for batch in batches:
        stream.partial_fit(batch)
    return stream


class TestSnapshots:
    def test_query_is_cached_between_updates(self, tmp_path, batches):
        service = CrowdService(tmp_path, method="DS", inner_sweeps=1)
        ack = service.partial_fit("ds", batches[0])
        assert ack["updates"] == 1
        first = service.query("ds")
        assert service.query("ds") is first  # O(1) snapshot hit
        service.partial_fit("ds", batches[1])
        second = service.query("ds")
        assert second is not first
        assert second.posterior.shape[0] == 60
        np.testing.assert_array_equal(
            second.posterior, _twin(batches[:2], inner_sweeps=1).result().posterior
        )

    @pytest.mark.parametrize("method", ["MV", "DS", "GLAD"])
    def test_shared_snapshot_is_read_only(self, tmp_path, batches, method):
        # Every reader of a version gets the same cached result: a write
        # into it would reach the next reader (and the stored rows).
        service = CrowdService(tmp_path, method=method)
        service.partial_fit("ds", batches[0])
        service.partial_fit("ds", batches[1])
        for refresh in (False, True):
            shared = service.query("ds", refresh=refresh)
            expected = shared.posterior.copy()
            with pytest.raises(ValueError, match="read-only"):
                shared.posterior[:] = 0
            if shared.confusions is not None:
                with pytest.raises(ValueError, match="read-only"):
                    shared.confusions[:] = 0
            np.testing.assert_array_equal(service.query("ds", refresh=refresh).posterior, expected)

    def test_refresh_recomputes_without_disturbing_snapshot(self, tmp_path, batches):
        service = CrowdService(tmp_path, method="DS", inner_sweeps=1)
        service.partial_fit("ds", batches[0])
        service.partial_fit("ds", batches[1])
        snapshot = service.query("ds")
        refreshed = service.query("ds", refresh=True)
        assert refreshed is not snapshot
        # Refresh re-runs the E-step under the current annotator model, so
        # it differs from the ingest-time posteriors the snapshot serves.
        assert not np.array_equal(refreshed.posterior, snapshot.posterior)
        assert service.query("ds") is snapshot  # cache survived the refresh
        np.testing.assert_array_equal(
            refreshed.posterior,
            _twin(batches[:2], inner_sweeps=1).result(refresh=True).posterior,
        )

    def test_queries_never_see_torn_updates(self, tmp_path):
        crowd = random_classification_crowd(
            31, instances=200, annotators=6, classes=2, mean_labels=3.0
        )
        batches = stream_crowd_in_batches(crowd, [10] * 20)
        service = CrowdService(tmp_path, method="DS", inner_sweeps=1)
        service.partial_fit("hot", batches[0])

        def writer():
            for batch in batches[1:]:
                service.partial_fit("hot", batch)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            while thread.is_alive():
                result = service.query("hot")
                rows = result.posterior.shape[0]
                # Every observable posterior is a completed update's: a
                # whole number of 10-row batches, rows normalized.
                assert rows % 10 == 0 and 10 <= rows <= 200
                np.testing.assert_allclose(
                    result.posterior.sum(axis=1), 1.0, atol=1e-8
                )
        finally:
            thread.join()
        np.testing.assert_array_equal(
            service.query("hot").posterior,
            _twin(batches, inner_sweeps=1).result().posterior,
        )


class TestEviction:
    def test_lru_eviction_and_transparent_rehydration(self, tmp_path, batches):
        service = CrowdService(tmp_path, method="DS", max_resident=2, inner_sweeps=1)
        service.partial_fit("alpha", batches[0])
        service.partial_fit("beta", batches[1])
        service.partial_fit("gamma", batches[2])
        # alpha was touched first -> evicted to disk when gamma arrived.
        assert service.resident_datasets() == ("beta", "gamma")
        assert (tmp_path / "alpha" / "state.0.ckpt").is_file()
        assert (tmp_path / "alpha" / "crowd.0.shard").is_file()
        assert service.stats["evictions"] == 1
        assert service.cursor("alpha") == 1  # readable while cold

        # Touching alpha rehydrates it and pushes out the new LRU (beta).
        result = service.query("alpha")
        assert service.resident_datasets() == ("alpha", "gamma")
        assert service.stats["rehydrations"] == 1
        assert service.stats["evictions"] == 2
        np.testing.assert_array_equal(
            result.posterior, _twin(batches[:1], inner_sweeps=1).result().posterior
        )
        np.testing.assert_array_equal(
            result.confusions, _twin(batches[:1], inner_sweeps=1).result().confusions
        )

    def test_explicit_evict_round_trip(self, tmp_path, batches):
        service = CrowdService(tmp_path, method="DS", inner_sweeps=1)
        service.partial_fit("ds", batches[0])
        before = service.query("ds")
        assert service.evict("ds") is True
        assert service.resident_datasets() == ()
        assert service.evict("ds") is False  # already cold
        after = service.query("ds")
        np.testing.assert_array_equal(after.posterior, before.posterior)

    def test_max_resident_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="max_resident"):
            CrowdService(tmp_path, max_resident=0)


class TestRestart:
    def test_discovery_and_config_travel(self, tmp_path, batches):
        with CrowdService(tmp_path, method="DS", inner_sweeps=1) as service:
            service.partial_fit("ds-a", batches[0])
            service.partial_fit("ds-a", batches[1])
            service.partial_fit("ds-b", batches[2])
        # close() checkpointed the dirty residents, each into its first slot pair.
        for dataset_id in ("ds-a", "ds-b"):
            assert sorted(os.listdir(tmp_path / dataset_id)) == ["crowd.0.shard", "state.0.ckpt"]

        # The revived service has *different* defaults; each dataset must
        # resume under the configuration stored in its checkpoint.
        revived = CrowdService(tmp_path, method="MV")
        assert revived.datasets() == ("ds-a", "ds-b")
        assert revived.resident_datasets() == ()
        assert revived.cursor("ds-a") == 2
        assert revived.cursor("ds-b") == 1
        result = revived.query("ds-a")
        assert result.confusions is not None  # DS, not the MV default
        np.testing.assert_array_equal(
            result.posterior, _twin(batches[:2], inner_sweeps=1).result().posterior
        )
        # Feeding the tail continues under the checkpointed inner_sweeps=1.
        revived.partial_fit("ds-a", batches[2])
        np.testing.assert_array_equal(
            revived.query("ds-a").posterior,
            _twin(batches, inner_sweeps=1).result().posterior,
        )

    def test_create_dataset_overrides_service_method(self, tmp_path, batches):
        with CrowdService(tmp_path, method="DS", inner_sweeps=1) as service:
            service.create_dataset("votes", method="MV")
            with pytest.raises(ValueError, match="already exists"):
                service.create_dataset("votes")
            service.partial_fit("votes", batches[0])
            assert service.query("votes").confusions is None  # MV has none
        revived = CrowdService(tmp_path, method="DS", inner_sweeps=1)
        result = revived.query("votes")
        assert result.confusions is None  # rehydrated as MV, not service DS
        mv = get_method("MV", kind="streaming").partial_fit(batches[0])
        np.testing.assert_array_equal(result.posterior, mv.result().posterior)

    def test_checkpoint_skips_clean_datasets(self, tmp_path, batches):
        service = CrowdService(tmp_path, method="DS", inner_sweeps=1)
        service.partial_fit("ds", batches[0])
        cursors = service.checkpoint()
        assert cursors == {"ds": 1}
        assert service.stats["checkpoints"] == 1
        assert service.checkpoint() == {"ds": 1}  # clean: not rewritten
        assert service.stats["checkpoints"] == 1
        service.partial_fit("ds", batches[1])
        assert service.checkpoint() == {"ds": 2}
        assert service.stats["checkpoints"] == 2

    def test_old_layout_root_is_refused(self, tmp_path, batches):
        # A root written by the rename-based layout: state.ckpt beside
        # crowd files named by cursor. Read as slot pairs it would show no
        # datasets, and new updates would start a fresh stream beside it.
        old = tmp_path / "legacy-ds"
        old.mkdir()
        save_stream_state(old / "state.ckpt", _twin(batches[:1], inner_sweeps=1).get_state())
        save_crowd(old / "crowd-1.shard", batches[0])
        with pytest.raises(ValueError, match="legacy-ds.*state.ckpt"):
            CrowdService(tmp_path)

    def test_two_undecodable_state_slots_raise(self, tmp_path, batches):
        with CrowdService(tmp_path, method="DS", inner_sweeps=1) as service:
            for batch in batches[:2]:
                service.partial_fit("ds", batch)
                service.checkpoint()
        for slot in (0, 1):
            path = tmp_path / "ds" / f"state.{slot}.ckpt"
            data = bytearray(path.read_bytes())
            data[-1] ^= 0xFF
            path.write_bytes(data)
        with pytest.raises(ValueError, match="dataset 'ds'"):
            CrowdService(tmp_path)

    def test_restart_takes_the_newest_decodable_slot(self, tmp_path, batches):
        with CrowdService(tmp_path, method="DS", inner_sweeps=1) as service:
            for batch in batches:
                service.partial_fit("ds", batch)
                service.checkpoint()
        # Slot 0 holds cursor 3, slot 1 cursor 2.
        assert CrowdService(tmp_path).cursor("ds") == 3
        newest = tmp_path / "ds" / "state.0.ckpt"
        newest.write_bytes(newest.read_bytes()[:-1])  # torn: slot 1 is the commit
        revived = CrowdService(tmp_path)
        assert revived.cursor("ds") == 2
        np.testing.assert_array_equal(
            revived.query("ds").posterior, _twin(batches[:2], inner_sweeps=1).result().posterior
        )


class TestCheckpointCost:
    """A checkpoint frees no disk blocks, whatever the filesystem.

    Counted from a dataset's third checkpoint on, when both slot pairs
    exist: two fsyncs (crowd, then state), no rename or delete, and no
    file cut shorter.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counted(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return call

        for name in ("fsync", "replace", "rename", "unlink", "remove"):
            monkeypatch.setattr(os, name, counted(name, getattr(os, name)))
        real_ftruncate = os.ftruncate

        def ftruncate(descriptor, length):
            if length < os.fstat(descriptor).st_size:
                calls.append("shorten")
            return real_ftruncate(descriptor, length)

        monkeypatch.setattr(os, "ftruncate", ftruncate)
        return calls

    def test_later_checkpoints_make_two_fsyncs_and_free_nothing(self, tmp_path, calls):
        crowd = random_classification_crowd(
            37, instances=240, annotators=8, classes=2, mean_labels=4.0
        )
        batches = stream_crowd_in_batches(crowd, [30] * 8)
        service = CrowdService(tmp_path, method="DS", inner_sweeps=1)
        for number, batch in enumerate(batches[:5], start=1):
            service.partial_fit("ds", batch)
            calls.clear()
            service.checkpoint()
            if number >= 3:
                assert calls == ["fsync", "fsync"], f"checkpoint {number}"

        # Eviction checkpoints by the same rule, and rehydration writes nothing.
        for batch in batches[5:]:
            calls.clear()
            service.query("ds")
            service.partial_fit("ds", batch)
            assert calls == []
            assert service.evict("ds")
            assert calls == ["fsync", "fsync"]
        assert service.stats == {"evictions": 3, "rehydrations": 2, "checkpoints": 8}


class TestValidation:
    def test_unknown_dataset_raises(self, tmp_path):
        service = CrowdService(tmp_path)
        with pytest.raises(KeyError, match="unknown dataset"):
            service.query("ghost")
        with pytest.raises(KeyError, match="unknown dataset"):
            service.cursor("ghost")
        with pytest.raises(KeyError, match="unknown dataset"):
            service.evict("ghost")
        with pytest.raises(KeyError, match="unknown dataset"):
            service.checkpoint("ghost")

    @pytest.mark.parametrize(
        "dataset_id", ["", "a/b", "../up", ".hidden", "sp ace"]
    )
    def test_path_unsafe_ids_rejected(self, tmp_path, batches, dataset_id):
        service = CrowdService(tmp_path)
        with pytest.raises(ValueError, match="path-safe"):
            service.partial_fit(dataset_id, batches[0])
        with pytest.raises(ValueError, match="path-safe"):
            service.create_dataset(dataset_id)
        assert service.datasets() == ()

    def test_rejected_batch_leaves_dataset_untouched(self, tmp_path, batches):
        service = CrowdService(tmp_path, method="DS", inner_sweeps=1)
        service.partial_fit("ds", batches[0])
        before = service.query("ds")
        wrong_classes = CrowdLabelMatrix(
            np.array([[2] + [MISSING] * 7], dtype=np.int64), 3
        )
        with pytest.raises(ValueError, match="classes"):
            service.partial_fit("ds", wrong_classes)
        assert service.cursor("ds") == 1
        assert service.query("ds") is before  # snapshot still valid
        np.testing.assert_array_equal(
            service.query("ds", refresh=True).posterior,
            _twin(batches[:1], inner_sweeps=1).result(refresh=True).posterior,
        )


def _three_class_batch():
    """A first batch GLAD refuses: GLAD is binary only."""
    return CrowdLabelMatrix(np.array([[0, 2]], dtype=np.int64), 3)


def _binary_batch():
    return CrowdLabelMatrix(np.array([[0, 1], [1, 1]], dtype=np.int64), 2)


class TestRefusedFirstBatch:
    """A dataset ``partial_fit`` registered itself goes away again when its
    first batch is refused; one with any other claim to exist stays."""

    def test_refused_first_batch_leaves_no_dataset(self, tmp_path):
        service = CrowdService(tmp_path, method="GLAD")
        with pytest.raises(ValueError, match="binary"):
            service.partial_fit("x", _three_class_batch())
        assert service.datasets() == ()
        with pytest.raises(KeyError, match="unknown dataset"):
            service.query("x")
        assert service.checkpoint() == {}
        assert not (tmp_path / "x").exists()
        assert CrowdService(tmp_path, method="GLAD").datasets() == ()
        # The id is free for a valid first batch.
        assert service.partial_fit("x", _binary_batch())["updates"] == 1
        assert service.datasets() == ("x",)

    def test_created_dataset_survives_a_refused_first_batch(self, tmp_path):
        service = CrowdService(tmp_path, method="GLAD")
        service.create_dataset("x")
        with pytest.raises(ValueError, match="binary"):
            service.partial_fit("x", _three_class_batch())
        assert service.datasets() == ("x",)
        assert service.cursor("x") == 0
        assert service.partial_fit("x", _binary_batch())["updates"] == 1

    @pytest.fixture
    def refusing(self, monkeypatch):
        """Make GLAD's first-batch check dwell 50 ms before refusing, while
        ``partial_fit`` holds the dataset's lock; the event is set when a
        refusal starts."""
        streaming_glad = type(get_method("GLAD", kind="streaming"))
        check_first_batch = streaming_glad._check_first_batch
        started = threading.Event()

        def dwelling_check(stream, batch):
            if batch.num_classes != 2:
                started.set()
                time.sleep(0.05)
            check_first_batch(stream, batch)

        monkeypatch.setattr(streaming_glad, "_check_first_batch", dwelling_check)
        return started

    def test_refused_and_valid_first_batches_race(self, tmp_path, refusing):
        # A valid first batch started during the refusal usually waits on
        # the dataset's lock and must register the id afresh once the
        # refused entry is removed. Every interleaving must end with the
        # valid batch applied once.
        service = CrowdService(tmp_path, method="GLAD")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_index in range(5):
                dataset_id = f"race{round_index}"
                refusing.clear()
                outcomes = {}

                def feed(name, batch, dataset_id=dataset_id, outcomes=outcomes):
                    try:
                        outcomes[name] = service.partial_fit(dataset_id, batch)["updates"]
                    except ValueError as error:
                        outcomes[name] = error

                refused = threading.Thread(target=feed, args=("refused", _three_class_batch()))
                valid = threading.Thread(target=feed, args=("valid", _binary_batch()))
                refused.start()
                assert refusing.wait(timeout=10)
                valid.start()
                for thread in (refused, valid):
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert outcomes["valid"] == 1
                assert isinstance(outcomes["refused"], ValueError)
                assert dataset_id in service.datasets()
                assert service.cursor(dataset_id) == 1
        finally:
            sys.setswitchinterval(interval)
        assert service.checkpoint() == {f"race{index}": 1 for index in range(5)}

    def test_calls_waiting_on_a_refused_first_batch_find_no_dataset(self, tmp_path, refusing):
        # Each call resolves the dataset during the refusal or after it;
        # either way the id is unknown once the refusal is done.
        service = CrowdService(tmp_path, method="GLAD")
        calls = {
            "partial_fit": lambda: service.partial_fit("x", _three_class_batch()),
            "query": lambda: service.query("x"),
            "cursor": lambda: service.cursor("x"),
            "evict": lambda: service.evict("x"),
            "checkpoint": lambda: service.checkpoint("x"),
        }
        outcomes = {}

        def call(name):
            try:
                outcomes[name] = calls[name]()
            except (KeyError, ValueError) as error:
                outcomes[name] = error

        refused = threading.Thread(target=call, args=("partial_fit",))
        refused.start()
        assert refusing.wait(timeout=10)
        waiting = [
            threading.Thread(target=call, args=(name,)) for name in calls if name != "partial_fit"
        ]
        for thread in waiting:
            thread.start()
        for thread in (refused, *waiting):
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert isinstance(outcomes.pop("partial_fit"), ValueError)
        for name, outcome in outcomes.items():
            assert isinstance(outcome, KeyError), (name, outcome)
        assert service.datasets() == ()
        assert not (tmp_path / "x").exists()
