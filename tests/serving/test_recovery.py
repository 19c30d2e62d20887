"""The recovery contract, pinned at the codec and the service level.

A checkpoint taken mid-stream, written through the on-disk codec (the
same ``state.ckpt`` + crowd shard files a crashed service would read
back), restored into a freshly constructed estimator, and replayed over
the tail of the label stream must reproduce the uninterrupted stream:
MV/DS sufficient statistics bit-exactly, everything end-to-end at
atol 1e-10. The sweep runs every streaming method over the harness's
randomized crowd cases; the service-level test adds eviction churn and a
simulated crash (updates after the last checkpoint are lost and
re-played from the durable cursor). The crash-consistency sweeps crash
a checkpoint at each of its write steps, as a process crash and as a
power loss that keeps only fsynced data, and require the restart to land
on one committed cursor, never a mix of two. The codec tests hold the
state file format to a bit-exact round trip and to typed rejections of
damaged, foreign and unsupported input.
"""

import math
import os
import re
import shutil
import stat
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.experiments.streaming_suite import (
    StreamScenarioConfig,
    stream_crowd_in_batches,
)
from repro.inference import get_method
from repro.serving import (
    CrowdService,
    build_serving_workload,
    load_crowd,
    load_stream_state,
    save_crowd,
    save_stream_state,
)

from ..inference.equivalence_harness import (
    METHOD_OVERRIDES,
    crowd_cases,
    method_supports,
    random_batch_sizes,
    random_classification_crowd,
)

STREAMING_METHODS = ("MV", "DS", "GLAD")
CASES = crowd_cases("classification")


def _make_stream(name):
    params = METHOD_OVERRIDES.get(("streaming", name), {})
    return get_method(name, kind="streaming", **params)


def _assert_states_match(actual: dict, expected: dict, exact: bool, context: str) -> None:
    assert set(actual) == set(expected), context
    for key, want in expected.items():
        got = actual[key]
        if want is None:
            assert got is None, f"{context}: {key}"
        elif isinstance(want, np.ndarray):
            if exact:
                np.testing.assert_array_equal(got, want, err_msg=f"{context}: {key}")
            else:
                np.testing.assert_allclose(
                    got, want, atol=1e-10, rtol=0, err_msg=f"{context}: {key}"
                )
        else:
            assert got == want, f"{context}: {key} ({got!r} != {want!r})"


class TestCheckpointRestoreSweep:
    """Estimator-level contract: every method x every harness crowd case."""

    @pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
    @pytest.mark.parametrize("name", STREAMING_METHODS)
    def test_restore_plus_tail_replay_matches_uninterrupted(self, name, case, tmp_path):
        crowd = case.build()
        if not method_supports(name, "streaming", crowd):
            pytest.skip(f"{name} does not support {case.name}")
        batches = stream_crowd_in_batches(
            crowd, random_batch_sizes(97, crowd.num_instances)
        )

        reference = _make_stream(name)
        for batch in batches:
            reference.partial_fit(batch)

        interrupted = _make_stream(name)
        cut = len(batches) // 2
        for batch in batches[:cut]:
            interrupted.partial_fit(batch)
        save_stream_state(tmp_path / "state.ckpt", interrupted.get_state())
        if interrupted.crowd is not None:
            save_crowd(tmp_path / "crowd.shard", interrupted.crowd)
        del interrupted  # crash: only the files survive

        state = load_stream_state(tmp_path / "state.ckpt")
        crowd_file = tmp_path / "crowd.shard"
        retained = load_crowd(crowd_file) if crowd_file.is_file() else None
        restored = _make_stream(name).set_state(state, retained)
        assert restored.updates == cut
        for batch in batches[restored.updates:]:
            restored.partial_fit(batch)

        context = f"method={name} case={case.name}"
        # MV/DS statistics replay bit-exactly; GLAD is held to the
        # end-to-end 1e-10 contract (in practice it is bit-exact too).
        _assert_states_match(
            restored.get_state(), reference.get_state(), name in ("MV", "DS"), context
        )
        expected = reference.result()
        got = restored.result()
        np.testing.assert_allclose(
            got.posterior, expected.posterior, atol=1e-10, rtol=0, err_msg=context
        )
        if expected.confusions is not None:
            np.testing.assert_allclose(
                got.confusions, expected.confusions, atol=1e-10, rtol=0, err_msg=context
            )
        np.testing.assert_allclose(
            restored.result(refresh=True).posterior,
            reference.result(refresh=True).posterior,
            atol=1e-10,
            rtol=0,
            err_msg=f"{context} (refresh)",
        )


class TestServiceRecovery:
    """Service-level contract: crash + restart + tail replay, with eviction."""

    def test_restart_with_tail_replay_matches_uninterrupted(self, tmp_path):
        config = StreamScenarioConfig(
            instances=60, annotators=8, batch_size=12, mean_labels_per_instance=3.0
        )
        workload = build_serving_workload(
            seed=5, datasets=3, config=config, queries_per_update=0.5
        )

        with CrowdService(
            tmp_path / "uninterrupted", method="DS", inner_sweeps=1
        ) as reference:
            for event in workload.events:
                if event.kind == "update":
                    reference.partial_fit(event.dataset_id, event.batch)
                else:
                    reference.query(event.dataset_id)
            expected = {
                dataset_id: reference.query(dataset_id)
                for dataset_id in workload.datasets
            }

        # The crashing service also runs under eviction pressure, so the
        # contract is exercised through checkpoint/rehydrate churn too.
        crashed_root = tmp_path / "crashed"
        service = CrowdService(crashed_root, method="DS", max_resident=2, inner_sweeps=1)
        updates = [event for event in workload.events if event.kind == "update"]
        cut = len(updates) // 2
        for event in updates[:cut]:
            service.partial_fit(event.dataset_id, event.batch)
        durable = service.checkpoint()
        for event in updates[cut : cut + len(updates) // 4]:
            service.partial_fit(event.dataset_id, event.batch)
        del service  # crash: everything after checkpoint() is lost

        revived = CrowdService(crashed_root, method="DS", max_resident=2, inner_sweeps=1)
        for dataset_id in revived.datasets():
            # Evicted datasets were checkpointed on eviction, so their
            # durable cursor may be ahead of the explicit checkpoint.
            assert revived.cursor(dataset_id) >= durable[dataset_id]
        for dataset_id in workload.datasets:
            cursor = (
                revived.cursor(dataset_id)
                if dataset_id in revived.datasets()
                else 0
            )
            for batch in workload.updates_for(dataset_id)[cursor:]:
                revived.partial_fit(dataset_id, batch)
        for dataset_id in workload.datasets:
            got = revived.query(dataset_id)
            np.testing.assert_array_equal(
                got.posterior, expected[dataset_id].posterior, err_msg=dataset_id
            )
            np.testing.assert_array_equal(
                got.confusions, expected[dataset_id].confusions, err_msg=dataset_id
            )
            assert got.extras["updates"] == expected[dataset_id].extras["updates"]


class _Crash(Exception):
    """Raised by the fault injector in place of a checkpoint write step."""


class _PowerLoss:
    """What a power loss leaves of the tree under ``root``.

    Linux semantics: each directory keeps the entries it had at its last
    fsync, and each file the bytes it had at its last fsync (a file never
    fsynced comes back empty). Everything present when the model starts
    counts as durable.
    """

    def __init__(self, root) -> None:
        self.root = root
        self.listings: dict[int, dict[str, int]] = {}  # directory inode -> {name: inode}
        self.contents: dict[int, bytes] = {}           # file inode -> durable bytes
        for directory in (root, *(child for child in root.iterdir() if child.is_dir())):
            descriptor = os.open(directory, os.O_RDONLY)
            try:
                self.synced(descriptor)
            finally:
                os.close(descriptor)
            for path in directory.iterdir():
                if path.is_file():
                    self.contents[path.stat().st_ino] = path.read_bytes()

    def synced(self, descriptor: int) -> None:
        """Record what an fsync of ``descriptor`` just made durable."""
        info = os.fstat(descriptor)
        if stat.S_ISDIR(info.st_mode):
            self.listings[info.st_ino] = {
                name: os.stat(name, dir_fd=descriptor, follow_symlinks=False).st_ino
                for name in os.listdir(descriptor)
            }
        else:
            self.contents[info.st_ino] = os.pread(descriptor, info.st_size, 0)

    def strike(self) -> None:
        """Rewrite the tree to what survives."""
        kept = self.listings[self.root.stat().st_ino]
        for directory in list(self.root.iterdir()):
            if directory.name not in kept:
                shutil.rmtree(directory)
                continue
            entries = self.listings.get(directory.stat().st_ino, {})
            survivors = {name: self.contents.get(inode, b"") for name, inode in entries.items()}
            for path in directory.iterdir():
                path.unlink()
            for name, data in survivors.items():
                (directory / name).write_bytes(data)


class _CrashInjector:
    """Fault injection at a checkpoint's write steps: ``os.fsync`` and ``os.replace``.

    Steps are numbered from 0 in call order. Step ``crash_at`` raises
    :class:`_Crash` instead of running, and the caller then drops the
    service: every step before it took effect and none after it did.
    ``crash_at=None`` only counts. ``renamed`` lists the target names of
    the renames that went through; each fsync that goes through is
    reported to ``power_loss`` when one is given.
    """

    def __init__(
        self, monkeypatch, crash_at: int | None = None, power_loss: _PowerLoss | None = None
    ) -> None:
        self.crash_at = crash_at
        self.steps = 0
        self.renamed: list[str] = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(descriptor):
            self._step()
            real_fsync(descriptor)
            if power_loss is not None:
                power_loss.synced(descriptor)

        def replace(source, target):
            self._step()
            real_replace(source, target)
            self.renamed.append(os.path.basename(target))

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)

    def _step(self) -> None:
        if self.steps == self.crash_at:
            raise _Crash(f"crash at write step {self.steps}")
        self.steps += 1


# A checkpoint's write steps: fsync, rename and directory fsync for the
# crowd file, then the same for the state file, whose rename is the commit
# point. A dataset's first checkpoint also makes its new directory durable.
LATER_CHECKPOINT_STEPS = 6
FIRST_CHECKPOINT_STEPS = 1 + LATER_CHECKPOINT_STEPS
CRASH_POINTS = [(1, step) for step in range(FIRST_CHECKPOINT_STEPS)] + [
    (2, step) for step in range(LATER_CHECKPOINT_STEPS)
]
# Power-loss points add "after checkpoint() returned" (step None).
POWER_LOSS_POINTS = CRASH_POINTS + [(1, None), (2, None)]


def _point_ids(points):
    return [f"ckpt{checkpoint}-" + ("returned" if step is None else f"step{step}")
            for checkpoint, step in points]


class TestCrashConsistency:
    """A crash at any write step of a checkpoint restarts at a committed cursor.

    Checkpoint ``n`` follows the ``n``-th batch. Checkpoint 1 crashing
    must restart at cursor 1 or at nothing committed (cursor 0);
    checkpoint 2 crashing, with checkpoint 1 committed, at cursor 2 or 1.
    A process crash keeps every write the OS has seen, so the commit is
    the rename of ``state.ckpt``. A power loss keeps only what was
    fsynced, so the commit is ``checkpoint()`` returning.
    """

    BATCH = 30

    @pytest.fixture
    def batches(self):
        crowd = random_classification_crowd(
            53, instances=3 * self.BATCH, annotators=8, classes=2, mean_labels=4.0
        )
        return stream_crowd_in_batches(crowd, [self.BATCH] * 3)

    @staticmethod
    def _service(root, name):
        return CrowdService(root, method=name, **METHOD_OVERRIDES.get(("streaming", name), {}))

    def _crash(self, root, name, batches, checkpoint, step, monkeypatch, power_loss=False):
        """Feed ``checkpoint`` batches, committing a checkpoint after each but
        the last, then crash checkpoint ``checkpoint`` at write step ``step``."""
        service = self._service(root, name)
        for batch in batches[: checkpoint - 1]:
            service.partial_fit("ds", batch)
            service.checkpoint()
        service.partial_fit("ds", batches[checkpoint - 1])
        model = _PowerLoss(root) if power_loss else None
        injector = _CrashInjector(monkeypatch, crash_at=step, power_loss=model)
        if step is None:
            service.checkpoint()
        else:
            with pytest.raises(_Crash):
                service.checkpoint()
        monkeypatch.undo()
        if model is not None:
            model.strike()
        return injector

    def _check_restart(self, root, name, batches, expected_cursor):
        """Restart on ``root``, replay the tail from ``cursor()``, checkpoint."""
        revived = self._service(root, name)
        cursor = revived.cursor("ds") if "ds" in revived.datasets() else 0
        assert cursor == expected_cursor
        if cursor:
            assert revived.query("ds").posterior.shape[0] == self.BATCH * cursor

        for batch in batches[cursor:]:
            revived.partial_fit("ds", batch)
        reference = _make_stream(name)
        for batch in batches:
            reference.partial_fit(batch)
        np.testing.assert_allclose(
            revived.query("ds").posterior, reference.result().posterior, atol=1e-10, rtol=0
        )

        assert revived.checkpoint() == {"ds": 3}
        assert sorted(os.listdir(root / "ds")) == ["crowd-3.shard", "state.ckpt"]

    def test_every_write_step_is_swept(self, tmp_path, batches, monkeypatch):
        service = self._service(tmp_path, "DS")
        for cursor, steps in ((1, FIRST_CHECKPOINT_STEPS), (2, LATER_CHECKPOINT_STEPS)):
            service.partial_fit("ds", batches[cursor - 1])
            injector = _CrashInjector(monkeypatch)
            service.checkpoint()
            monkeypatch.undo()
            assert injector.steps == steps
            assert injector.renamed == [f"crowd-{cursor}.shard", "state.ckpt"]

    @pytest.mark.parametrize("checkpoint, step", CRASH_POINTS, ids=_point_ids(CRASH_POINTS))
    @pytest.mark.parametrize("name", STREAMING_METHODS)
    def test_restart_lands_on_a_committed_cursor(
        self, name, checkpoint, step, tmp_path, batches, monkeypatch
    ):
        injector = self._crash(tmp_path, name, batches, checkpoint, step, monkeypatch)
        committed = "state.ckpt" in injector.renamed
        self._check_restart(tmp_path, name, batches, checkpoint if committed else checkpoint - 1)

    @pytest.mark.parametrize(
        "checkpoint, step", POWER_LOSS_POINTS, ids=_point_ids(POWER_LOSS_POINTS)
    )
    @pytest.mark.parametrize("name", STREAMING_METHODS)
    def test_power_loss_keeps_exactly_the_returned_checkpoints(
        self, name, checkpoint, step, tmp_path, batches, monkeypatch
    ):
        self._crash(tmp_path, name, batches, checkpoint, step, monkeypatch, power_loss=True)
        self._check_restart(tmp_path, name, batches, checkpoint if step is None else checkpoint - 1)


_FLOAT_EDGES = st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, -2.5e-310])
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    _FLOAT_EDGES,
    st.text(),
)
_ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.dtype(np.int64), np.dtype(np.float64)]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)


def _assert_bit_equal(loaded: dict, state: dict) -> None:
    assert loaded.keys() == state.keys()
    for key, want in state.items():
        got = loaded[key]
        assert type(got) is type(want), key
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), key
            assert got.tobytes() == want.tobytes(), key
        elif isinstance(want, float):
            assert struct.pack("<d", got) == struct.pack("<d", want), key
        else:
            assert got == want, key


class TestStateCodec:
    """The flat state-file codec and the shard-backed crowd files."""

    def test_state_round_trip_preserves_types_and_none(self, tmp_path):
        state = {
            "format": 1,
            "method": "DS",
            "decay": None,
            "updates": 7,
            "monitor_last_change": 0.25,
            "monitor_converged": True,
            "stat_prior": np.array([1.5, 2.5]),
            "confusions": None,
        }
        save_stream_state(tmp_path / "state.ckpt", state)
        loaded = load_stream_state(tmp_path / "state.ckpt")
        assert set(loaded) == set(state)
        assert loaded["decay"] is None and loaded["confusions"] is None
        assert loaded["method"] == "DS"
        assert loaded["updates"] == 7 and isinstance(loaded["updates"], int)
        assert loaded["monitor_last_change"] == 0.25
        assert loaded["monitor_converged"] is np.True_ or loaded["monitor_converged"]
        np.testing.assert_array_equal(loaded["stat_prior"], state["stat_prior"])

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(state=st.dictionaries(st.text(), st.one_of(_SCALARS, _ARRAYS), max_size=8))
    def test_round_trip_is_bit_exact(self, tmp_path, state):
        path = save_stream_state(tmp_path / "state.ckpt", state)
        _assert_bit_equal(load_stream_state(path), state)

    def test_save_is_atomic_overwrite(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_stream_state(path, {"updates": 1})
        save_stream_state(path, {"updates": 2})
        assert load_stream_state(path)["updates"] == 2
        assert not path.with_name("state.ckpt.tmp").exists()

    def test_damaged_and_foreign_files_rejected(self, tmp_path):
        stream = _make_stream("DS")
        crowd = random_classification_crowd(59, instances=40, annotators=6, classes=3)
        for batch in stream_crowd_in_batches(crowd, [25, 15]):
            stream.partial_fit(batch)
        save_stream_state(tmp_path / "state.ckpt", stream.get_state())
        data = (tmp_path / "state.ckpt").read_bytes()
        damaged = tmp_path / "damaged.ckpt"
        names_file = re.escape(str(damaged))
        for size in range(len(data)):
            damaged.write_bytes(data[:size])
            with pytest.raises(ValueError, match=names_file):
                load_stream_state(damaged)
        damaged.write_bytes(b"NOTSTAT" + data[7:])
        with pytest.raises(ValueError, match=names_file + ".*not a stream-state file"):
            load_stream_state(damaged)
        damaged.write_bytes(data[:7] + bytes([data[7] + 1]) + data[8:])
        with pytest.raises(ValueError, match=names_file + ".*format version"):
            load_stream_state(damaged)

    def test_object_arrays_refused(self, tmp_path):
        path = tmp_path / "state.ckpt"
        with pytest.raises(TypeError, match="object arrays"):
            save_stream_state(path, {"updates": 1, "blob": np.array([{"a": 1}], dtype=object)})
        assert not path.exists() and not path.with_name("state.ckpt.tmp").exists()

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, values=np.arange(3))
        with pytest.raises(ValueError, match="not a stream-state file"):
            load_stream_state(path)

    def test_crowd_round_trip_is_exact(self, tmp_path):
        crowd = random_classification_crowd(
            43, instances=50, annotators=9, classes=3, mean_labels=2.0
        )
        save_crowd(tmp_path / "crowd.shard", crowd)
        restored = load_crowd(tmp_path / "crowd.shard")
        np.testing.assert_array_equal(restored.labels, crowd.labels)
        assert restored.num_classes == crowd.num_classes

    def test_crowd_rejects_npz_suffix(self, tmp_path):
        crowd = random_classification_crowd(
            47, instances=5, annotators=3, classes=2, mean_labels=2.0
        )
        with pytest.raises(ValueError, match="npz"):
            save_crowd(tmp_path / "crowd.npz", crowd)
