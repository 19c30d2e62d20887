"""The recovery contract, pinned at the codec and the service level.

A checkpoint taken mid-stream, written through the on-disk codec (the
same state record + crowd shard files a crashed service would read
back), restored into a freshly constructed estimator, and replayed over
the tail of the label stream must reproduce the uninterrupted stream:
MV/DS sufficient statistics bit-exactly, everything end-to-end at
atol 1e-10. The sweep runs every streaming method over the harness's
randomized crowd cases; the service-level test adds eviction churn and a
simulated crash (updates after the last checkpoint are lost and
re-played from the durable cursor). The crash-consistency sweeps crash
each of a dataset's first three checkpoints at every write step (each
pwrite, ftruncate and fsync, and part-way through each write), as a
process crash and as a power loss that keeps fsynced data plus some
pages of what was written over it since, and require the restart to
land on the last returned cursor, or on the in-flight one exactly when
its whole state record survived, never a mix of two. The third
checkpoint is the first to overwrite a slot pair in place. The codec
tests hold the state record to a bit-exact round trip and to typed
rejections of torn, damaged, foreign and unsupported input.
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

from repro.crowd.sharding import as_sparse_shard
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
    fsynced has none). Bytes written over a file since its last fsync may
    have reached the disk as well, a page at a time from the start of the
    file: the first ``new_pages`` 4 KiB pages of what the file holds now,
    followed by its fsynced bytes past them, or all of it when
    ``new_pages`` is None. Everything present when the model starts counts
    as durable.
    """

    PAGE = 4096

    def __init__(self, root, new_pages: int | None) -> None:
        self.root = root
        self.new_pages = new_pages
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

    def _survivor(self, durable: bytes, current: bytes) -> bytes:
        if self.new_pages is None:
            return current
        cut = self.new_pages * self.PAGE
        return current[:cut] + durable[cut:] if cut < len(current) else current

    def strike(self) -> None:
        """Rewrite the tree to what survives."""
        kept = self.listings[self.root.stat().st_ino]
        for directory in list(self.root.iterdir()):
            if directory.name not in kept:
                shutil.rmtree(directory)
                continue
            entries = self.listings.get(directory.stat().st_ino, {})
            survivors = {
                # Nothing is renamed, so a durable name still holds its inode.
                name: self._survivor(self.contents.get(inode, b""), (directory / name).read_bytes())
                for name, inode in entries.items()
            }
            for path in directory.iterdir():
                path.unlink()
            for name, data in survivors.items():
                (directory / name).write_bytes(data)


class _CrashInjector:
    """Fault injection at a checkpoint's write steps.

    Each ``os.write``/``os.pwrite``, ``os.ftruncate`` and ``os.fsync`` is
    a step, numbered from 0 in call order, and ``kinds`` logs the call
    name of each. Step ``crash_at`` raises :class:`_Crash` instead of
    running, and the caller then drops the service: every step before it
    took effect and none after it did. With ``torn``, a write step at
    ``crash_at`` first writes the first half of its bytes. ``crash_at=None``
    only counts. Each fsync that goes through is reported to
    ``power_loss`` when one is given. Used as a context manager, it
    restores the patched functions on exit.
    """

    WRITES = ("write", "pwrite")

    def __init__(
        self,
        crash_at: int | None = None,
        torn: bool = False,
        power_loss: _PowerLoss | None = None,
    ) -> None:
        self.crash_at = crash_at
        self.torn = torn
        self.power_loss = power_loss
        self.kinds: list[str] = []
        self.real = {name: getattr(os, name) for name in (*self.WRITES, "ftruncate", "fsync")}

    def __enter__(self) -> "_CrashInjector":
        for name, real in self.real.items():
            setattr(os, name, self._wrap(name, real))
        return self

    def __exit__(self, *exc_info) -> None:
        for name, real in self.real.items():
            setattr(os, name, real)

    @property
    def steps(self) -> int:
        return len(self.kinds)

    def _wrap(self, name, real):
        def step(descriptor, *args):
            if self.steps == self.crash_at:
                if self.torn and name in self.WRITES:
                    data = memoryview(args[0]).cast("B")
                    real(descriptor, data[: len(data) // 2], *args[1:])
                raise _Crash(f"crash at write step {self.steps} ({name})")
            self.kinds.append(name)
            result = real(descriptor, *args)
            if name == "fsync" and self.power_loss is not None:
                self.power_loss.synced(descriptor)
            return result

        return step


SLOT_FILES = {"state.0.ckpt", "state.1.ckpt", "crowd.0.shard", "crowd.1.shard"}
STEP_LETTERS = {"write": "W", "pwrite": "W", "ftruncate": "T", "fsync": "F"}
# The write steps of checkpoints 1, 2 and 3, one letter per step: W a
# pwrite, T the ftruncate that cuts a file to its record, F an fsync. The
# crowd (four pwrites: the npy headers, rows, annotators, labels) comes
# before the state record (one pwrite for the prefix and header, one per
# array and alignment gap, one for the CRC). Checkpoints 1 and 2 create
# their slot pair, and creating a file adds a directory fsync; checkpoint
# 1 first fsyncs the root for the new dataset directory. Checkpoint 3 is
# the first to overwrite a slot pair in place.
CHECKPOINT_STEPS = {
    "MV": ("F WWWWTFF WWWWWTFF", "WWWWTFF WWWWWTFF", "WWWWTF WWWWWTF"),
    "DS": ("F WWWWTFF WWWWWWWWWTFF", "WWWWTFF WWWWWWWWWTFF", "WWWWTF WWWWWWWWWTF"),
    "GLAD": ("F WWWWTFF WWWWWWWTFF", "WWWWTFF WWWWWWWTFF", "WWWWTF WWWWWWWTF"),
}


def _steps(name: str, checkpoint: int) -> str:
    return CHECKPOINT_STEPS[name][checkpoint - 1].replace(" ", "")


# A process crash before each step, and part-way through each write.
CRASH_POINTS = [
    (name, checkpoint, step, torn)
    for name in STREAMING_METHODS
    for checkpoint in (1, 2, 3)
    for step, letter in enumerate(_steps(name, checkpoint))
    for torn in ((False, True) if letter == "W" else (False,))
]
# A power loss before each step, and after checkpoint() returned (None).
POWER_LOSS_POINTS = [
    (name, checkpoint, step)
    for name in STREAMING_METHODS
    for checkpoint in (1, 2, 3)
    for step in (*range(len(_steps(name, checkpoint))), None)
]


def _point_id(name, checkpoint, step, torn=False):
    where = "returned" if step is None else f"step{step}" + ("-torn" if torn else "")
    return f"{name}-ckpt{checkpoint}-{where}"


class TestCrashConsistency:
    """A crash at any write step of a checkpoint restarts at a committed cursor.

    Checkpoint ``n`` follows the ``n``-th batch and writes slot pair
    ``(n - 1) % 2``: checkpoints 1 and 2 create the two pairs, checkpoint
    3 overwrites the first in place. The restart must land on the last
    cursor ``checkpoint()`` returned, or on the in-flight one exactly when
    the whole in-flight state record survived, and never anywhere else. A
    process crash keeps every write the OS has seen, including half of a
    torn write. A power loss keeps what was fsynced plus, for a file
    overwritten since, the pages of new bytes the model lets through.

    fsync is modelled, not made: the power-loss model decides what each
    call made durable, and a real one would only cost disk time (as would
    freeing the blocks of fsynced files, so each test deletes its tree).
    """

    BATCH = 150

    @pytest.fixture
    def batches(self):
        crowd = random_classification_crowd(
            53, instances=4 * self.BATCH, annotators=8, classes=2, mean_labels=4.0
        )
        return stream_crowd_in_batches(crowd, [self.BATCH] * 4)

    @pytest.fixture
    def root(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fsync", lambda descriptor: None)
        root = tmp_path / "service"
        yield root
        shutil.rmtree(root, ignore_errors=True)

    @staticmethod
    def _service(root, name):
        return CrowdService(root, method=name, **METHOD_OVERRIDES.get(("streaming", name), {}))

    def _in_flight_record(self, root, name, batches, checkpoint) -> bytes:
        """The state record checkpoint ``checkpoint`` writes when nothing crashes."""
        reference = root.with_name("reference")
        service = self._service(reference, name)
        for batch in batches[:checkpoint]:
            service.partial_fit("ds", batch)
            service.checkpoint()
        record = (reference / "ds" / f"state.{(checkpoint - 1) % 2}.ckpt").read_bytes()
        shutil.rmtree(reference)
        return record

    def _crash(self, root, name, batches, checkpoint, step, torn=False, new_pages=False):
        """Feed ``checkpoint`` batches, committing a checkpoint after each but
        the last, then crash checkpoint ``checkpoint`` at write step ``step``
        (a power loss unless ``new_pages`` is False). Returns the cursor the
        restart must land on."""
        service = self._service(root, name)
        for batch in batches[: checkpoint - 1]:
            service.partial_fit("ds", batch)
            service.checkpoint()
        service.partial_fit("ds", batches[checkpoint - 1])
        model = None if new_pages is False else _PowerLoss(root, new_pages)
        with _CrashInjector(crash_at=step, torn=torn, power_loss=model):
            if step is None:
                assert service.checkpoint() == {"ds": checkpoint}
            else:
                with pytest.raises(_Crash):
                    service.checkpoint()
        if model is not None:
            model.strike()
        if step is None:
            return checkpoint
        in_flight = root / "ds" / f"state.{(checkpoint - 1) % 2}.ckpt"
        whole = in_flight.is_file() and in_flight.read_bytes() == self._in_flight_record(
            root, name, batches, checkpoint
        )
        return checkpoint if whole else checkpoint - 1

    def _check_restart(self, root, name, batches, expected_cursor):
        """Restart on ``root``, replay the tail from ``cursor()``, checkpoint."""
        if (root / "ds").is_dir():
            assert set(os.listdir(root / "ds")) <= SLOT_FILES
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

        assert revived.checkpoint() == {"ds": len(batches)}
        assert set(os.listdir(root / "ds")) <= SLOT_FILES

    @pytest.mark.parametrize("name", STREAMING_METHODS)
    def test_every_write_step_is_swept(self, name, root, batches):
        service = self._service(root, name)
        for checkpoint in (1, 2, 3):
            service.partial_fit("ds", batches[checkpoint - 1])
            with _CrashInjector() as injector:
                service.checkpoint()
            steps = "".join(STEP_LETTERS[kind] for kind in injector.kinds)
            assert steps == _steps(name, checkpoint), f"checkpoint {checkpoint}"
        assert set(os.listdir(root / "ds")) == SLOT_FILES

    @pytest.mark.parametrize(
        "name, checkpoint, step, torn", CRASH_POINTS,
        ids=[_point_id(*point) for point in CRASH_POINTS],
    )
    def test_restart_lands_on_a_committed_cursor(self, name, checkpoint, step, torn, root, batches):
        expected = self._crash(root, name, batches, checkpoint, step, torn=torn)
        self._check_restart(root, name, batches, expected)

    @pytest.mark.parametrize("new_pages", [0, 1, None], ids=["old", "page", "new"])
    @pytest.mark.parametrize(
        "name, checkpoint, step", POWER_LOSS_POINTS,
        ids=[_point_id(*point) for point in POWER_LOSS_POINTS],
    )
    def test_power_loss_keeps_the_returned_checkpoints(
        self, name, checkpoint, step, new_pages, root, batches
    ):
        expected = self._crash(root, name, batches, checkpoint, step, new_pages=new_pages)
        self._check_restart(root, name, batches, expected)


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

    def test_shorter_record_overwrites_in_place(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_stream_state(path, {"updates": 1, "blob": np.arange(5000.0)})
        inode = path.stat().st_ino
        save_stream_state(path, {"updates": 2})
        assert load_stream_state(path) == {"updates": 2}
        # The same file, cut to exactly the new record, and nothing beside it.
        assert path.stat().st_ino == inode
        save_stream_state(tmp_path / "fresh.ckpt", {"updates": 2})
        assert path.read_bytes() == (tmp_path / "fresh.ckpt").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["fresh.ckpt", "state.ckpt"]

    @staticmethod
    def _ds_record(tmp_path):
        stream = _make_stream("DS")
        crowd = random_classification_crowd(59, instances=40, annotators=6, classes=3)
        for batch in stream_crowd_in_batches(crowd, [25, 15]):
            stream.partial_fit(batch)
        save_stream_state(tmp_path / "state.ckpt", stream.get_state())
        return (tmp_path / "state.ckpt").read_bytes()

    @staticmethod
    def _assert_rejected(path, data, match=""):
        """Write ``data`` to a new file at ``path``; loading it must raise.

        Each damaged copy is a new file, deleted at once: rewriting one
        file over and over (``write_bytes`` truncates it) makes ext4
        allocate and then free its blocks each time, which costs tens of
        milliseconds per call on a disk mounted with online discard.
        """
        path.write_bytes(data)
        try:
            with pytest.raises(ValueError, match=re.escape(str(path)) + match):
                load_stream_state(path)
        finally:
            path.unlink()

    def test_damaged_and_foreign_files_rejected(self, tmp_path):
        data = self._ds_record(tmp_path)
        damaged = tmp_path / "damaged.ckpt"
        for size in range(len(data)):
            self._assert_rejected(damaged, data[:size])
        self._assert_rejected(damaged, b"NOTSTAT" + data[7:], ".*not a stream-state file")
        self._assert_rejected(
            damaged, data[:7] + bytes([data[7] + 1]) + data[8:], ".*format version"
        )

    def test_any_flipped_byte_is_rejected(self, tmp_path):
        data = self._ds_record(tmp_path)
        for index in range(len(data)):
            flipped = bytearray(data)
            flipped[index] ^= 0x20
            self._assert_rejected(tmp_path / "damaged.ckpt", flipped)

    def test_object_arrays_refused(self, tmp_path):
        path = tmp_path / "state.ckpt"
        with pytest.raises(TypeError, match="object arrays"):
            save_stream_state(path, {"updates": 1, "blob": np.array([{"a": 1}], dtype=object)})
        assert os.listdir(tmp_path) == []

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

    def test_crowd_overwrites_a_longer_file(self, tmp_path):
        path = tmp_path / "crowd.shard"
        save_crowd(path, random_classification_crowd(41, instances=400, annotators=9, classes=3))
        crowd = random_classification_crowd(43, instances=50, annotators=7, classes=2)
        save_crowd(path, crowd)
        restored = load_crowd(path)
        np.testing.assert_array_equal(restored.labels, crowd.labels)
        assert restored.num_classes == crowd.num_classes
        assert path.stat().st_size == sum(
            memoryview(chunk).nbytes for chunk in as_sparse_shard(crowd).file_chunks()
        )
