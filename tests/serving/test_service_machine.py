"""CrowdService as a state machine: the crash-free half of the model check.

Hypothesis drives one service over three datasets with a resident budget
of two, so touches evict, through accepted and refused updates, queries
with and without ``refresh``, checkpoints and restarts (the service is
dropped unclosed and rebuilt on the same root with another budget). The
model keeps each dataset's acknowledged batches and the cursor of its
last commit. After every step:

* ``query`` equals an independent ``StreamingDawidSkene`` replay of the
  model's batches at 1e-10; after a restart the model keeps the first
  ``cursor()`` batches, a cursor between its last returned checkpoint and
  its last acknowledged update;
* every posterior the service returned earlier still equals the copy
  taken then;
* each dataset directory holds only ``state.{0,1}.ckpt`` and
  ``crowd.{0,1}.shard``.

Crashes and power losses part-way through a checkpoint stay with the
sweeps in ``test_recovery.py``. fsync is stubbed out: nothing here
crashes, and fsynced files would cost disk time to delete.
"""

import itertools
import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.crowd.types import MISSING, CrowdLabelMatrix
from repro.inference import StreamingDawidSkene
from repro.serving import CrowdService

DATASETS = {"a": (3, 2), "b": (4, 3), "c": (2, 2)}  # id -> (annotators, classes)
NAMES = st.sampled_from(sorted(DATASETS))
OVERRIDES = {"inner_sweeps": 1}
SLOT_FILES = {"state.0.ckpt", "state.1.ckpt", "crowd.0.shard", "crowd.1.shard"}


def _labels(annotators: int, classes: int):
    return hnp.arrays(
        np.int64,
        st.tuples(st.integers(0, 5), st.just(annotators)),
        elements=st.integers(MISSING, classes - 1),
    )


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self, root) -> None:
        super().__init__()
        self.root = root
        self.service = self._service(2)
        self.acked = {name: [] for name in DATASETS}   # acknowledged batches
        self.committed = dict.fromkeys(DATASETS, 0)     # cursor of the last commit
        self.known: set[str] = set()
        self.replays: dict[str, StreamingDawidSkene] = {}
        self.returned = []  # (posterior the service returned, copy taken then)

    def _service(self, max_resident):
        return CrowdService(self.root, method="DS", max_resident=max_resident, **OVERRIDES)

    def _replay(self, name) -> StreamingDawidSkene:
        stream = StreamingDawidSkene(**OVERRIDES)
        for batch in self.acked[name]:
            stream.partial_fit(batch)
        return stream

    def _keep(self, result) -> None:
        self.returned.append((result.posterior, result.posterior.copy()))

    def _known(self, data) -> str:
        return data.draw(st.sampled_from(sorted(self.known)))

    # -- rules ------------------------------------------------------------- #
    @rule(name=NAMES, data=st.data())
    def apply_batch(self, name, data):
        self._apply(name, data)

    @precondition(lambda self: self.known)
    @rule(data=st.data())
    def apply_batch_to_live_stream(self, data):
        # Most traffic feeds live streams, so they grow past a few batches
        # (and rules named first are drawn most often).
        self._apply(self._known(data), data)

    def _apply(self, name, data):
        annotators, classes = DATASETS[name]
        batch = CrowdLabelMatrix(data.draw(_labels(annotators, classes)), classes)
        ack = self.service.partial_fit(name, batch)
        self.acked[name].append(batch)
        self.known.add(name)
        self.replays.setdefault(name, StreamingDawidSkene(**OVERRIDES)).partial_fit(batch)
        assert ack["updates"] == len(self.acked[name])

    @precondition(lambda self: self.known)
    @rule(data=st.data())
    def apply_misshaped_batch(self, data):
        name = self._known(data)
        annotators, classes = DATASETS[name]
        cursor = self.service.cursor(name)
        batch = CrowdLabelMatrix(data.draw(_labels(annotators + 1, classes)), classes)
        with pytest.raises(ValueError, match="annotators"):
            self.service.partial_fit(name, batch)
        assert self.service.cursor(name) == cursor

    @precondition(lambda self: len(self.known) < len(DATASETS))
    @rule(data=st.data())
    def refuse_first_batch(self, data):
        # A streaming DS stream takes any well-formed first batch, so the
        # refusal here is the type check: a bare array is not a crowd.
        name = data.draw(st.sampled_from(sorted(set(DATASETS) - self.known)))
        annotators, classes = DATASETS[name]
        with pytest.raises(TypeError):
            self.service.partial_fit(name, data.draw(_labels(annotators, classes)))
        assert name not in self.service.datasets()
        with pytest.raises(KeyError):
            self.service.query(name)

    @precondition(lambda self: self.known)
    @rule(data=st.data(), refresh=st.booleans())
    def query(self, data, refresh):
        name = self._known(data)
        result = self.service.query(name, refresh=refresh)
        self._keep(result)
        expected = self.replays[name].result(refresh=refresh)
        np.testing.assert_allclose(result.posterior, expected.posterior, rtol=0, atol=1e-10)

    @rule(data=st.data())
    def checkpoint(self, data):
        name = data.draw(st.one_of(st.none(), st.sampled_from(sorted(self.known) or [None])))
        cursors = self.service.checkpoint(name)
        assert set(cursors) == (self.known if name is None else {name})
        for dataset, cursor in cursors.items():
            assert cursor == len(self.acked[dataset])
            self.committed[dataset] = cursor

    @rule(max_resident=st.sampled_from([1, 2, 3, None]))
    def restart(self, max_resident):
        self.service = None  # dropped unclosed: what was not committed is gone
        self.service = self._service(max_resident)
        found = set(self.service.datasets())
        for name in DATASETS:
            if name in found:
                cursor = self.service.cursor(name)
                assert self.committed[name] <= cursor <= len(self.acked[name])
            else:
                assert self.committed[name] == 0
                cursor = 0
            del self.acked[name][cursor:]
            self.committed[name] = cursor
        self.known = found
        self.replays = {name: self._replay(name) for name in found}

    # -- invariants --------------------------------------------------------- #
    @invariant()
    def queries_match_the_replay(self):
        assert set(self.service.datasets()) == self.known
        for name in sorted(self.known):
            result = self.service.query(name)
            self._keep(result)
            expected = self.replays[name].result()
            np.testing.assert_allclose(result.posterior, expected.posterior, rtol=0, atol=1e-10)

    @invariant()
    def returned_posteriors_never_change(self):
        for posterior, then in self.returned:
            np.testing.assert_array_equal(posterior, then)

    @invariant()
    def directories_hold_only_the_slot_pairs(self):
        if not self.root.exists():
            return
        for child in self.root.iterdir():
            assert child.name in self.known
            assert set(os.listdir(child)) <= SLOT_FILES, sorted(os.listdir(child))

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)


def test_crowd_service_state_machine(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fsync", lambda descriptor: None)
    roots = (tmp_path / f"root{index}" for index in itertools.count())
    run_state_machine_as_test(
        lambda: ServiceMachine(next(roots)),
        settings=settings(
            max_examples=200,
            stateful_step_count=30,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
