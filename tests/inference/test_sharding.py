"""Shard-and-merge layer tests: ShardStats algebra, the deterministic
tree reduce, degenerate shard layouts, shard sources, the run_sharded
driver, the executor hooks (thread and process), the shard file format,
and the pickle boundary.

The full method × crowd × layout equivalence sweep lives in
``test_equivalence_harness.py``; this file covers the merge primitive and
the plumbing the sweep rides on.
"""

import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from functools import reduce

import numpy as np
import pytest

from repro.crowd.sharding import ShardHandle, SparseLabelShard, save_shard_handles
from repro.crowd.types import MISSING, CrowdLabelMatrix
from repro.inference import (
    DawidSkene,
    MajorityVote,
    ShardStats,
    get_method,
    run_sharded,
    tree_merge_shard_stats,
)
from repro.inference.majority_vote import majority_vote_posterior
from repro.inference.primitives import confusion_counts
from repro.inference.sharding import (
    TreeReducer,
    _window_size,
    as_shard_source,
    shard_base_stats,
)

from .equivalence_harness import random_classification_crowd


def _stats_from(shard) -> ShardStats:
    """A representative, fully populated ShardStats from a shard's MV
    posterior — the same fields the method mappers fill."""
    block = majority_vote_posterior(shard)
    return ShardStats(
        confusion=confusion_counts(block, shard),
        class_totals=block.sum(axis=0),
        agreement=block.sum(axis=0)[:1].repeat(shard.num_annotators),
        label_counts=np.asarray(shard.annotations_per_annotator(), dtype=np.float64),
        log_likelihood=float(block.sum()),
        delta=float(block.max(initial=0.0)),
        **shard_base_stats(shard),
    )


@pytest.fixture(scope="module")
def crowd():
    return random_classification_crowd(3, instances=90, annotators=9, classes=3)


class TestShardStatsMerge:
    def test_identity(self, crowd):
        stats = _stats_from(crowd.shards(1)[0])
        for merged in (ShardStats().merge(stats), stats.merge(ShardStats())):
            assert merged.instances == stats.instances
            assert merged.observations == stats.observations
            np.testing.assert_array_equal(merged.confusion, stats.confusion)
            np.testing.assert_array_equal(merged.class_totals, stats.class_totals)
            assert merged.delta == stats.delta
            assert merged.log_likelihood == stats.log_likelihood

    def test_commutative_exactly(self, crowd):
        a, b = (_stats_from(shard) for shard in crowd.shards(2))
        ab, ba = a.merge(b), b.merge(a)
        # IEEE addition is commutative, so this holds bit-for-bit.
        np.testing.assert_array_equal(ab.confusion, ba.confusion)
        np.testing.assert_array_equal(ab.class_totals, ba.class_totals)
        np.testing.assert_array_equal(ab.label_counts, ba.label_counts)
        assert ab.instances == ba.instances
        assert ab.delta == ba.delta

    def test_associative_to_rounding(self, crowd):
        a, b, c = (_stats_from(shard) for shard in crowd.shards(3))
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        np.testing.assert_allclose(left.confusion, right.confusion, atol=1e-12, rtol=0)
        np.testing.assert_allclose(left.class_totals, right.class_totals, atol=1e-12, rtol=0)
        # Integer fields merge exactly regardless of grouping.
        assert left.instances == right.instances
        assert left.observations == right.observations
        np.testing.assert_array_equal(left.label_counts, right.label_counts)
        assert left.delta == right.delta

    def test_delta_merges_via_max(self):
        merged = ShardStats(delta=0.25).merge(ShardStats(delta=0.75))
        assert merged.delta == 0.75

    def test_disjoint_fields_merge_without_shape_bookkeeping(self):
        # An E-pass stat (confusion) and a gradient-pass stat (grad_alpha)
        # merge: None is the identity per field.
        a = ShardStats(confusion=np.ones((2, 3, 3)))
        b = ShardStats(grad_alpha=np.ones(2))
        merged = a.merge(b)
        np.testing.assert_array_equal(merged.confusion, a.confusion)
        np.testing.assert_array_equal(merged.grad_alpha, b.grad_alpha)
        assert merged.class_totals is None

    @pytest.mark.parametrize("num_shards", [1, 2, 7, 90, 97])
    def test_shard_count_invariance(self, crowd, num_shards):
        """Merging per-shard statistics reproduces the whole-crowd
        statistics for any shard count (incl. one-instance and empty
        shards) — the associativity property the map-reduce EM rests on."""
        whole = _stats_from(crowd.shards(1)[0])
        merged = reduce(
            ShardStats.merge,
            (_stats_from(shard) for shard in crowd.shards(num_shards)),
            ShardStats(),
        )
        assert merged.instances == whole.instances
        assert merged.observations == whole.observations
        np.testing.assert_array_equal(merged.label_counts, whole.label_counts)
        np.testing.assert_allclose(merged.confusion, whole.confusion, atol=1e-12, rtol=0)
        np.testing.assert_allclose(
            merged.class_totals, whole.class_totals, atol=1e-12, rtol=0
        )


def _assert_stats_equal(left: ShardStats, right: ShardStats) -> None:
    """Bit-for-bit equality over every populated ShardStats field."""
    assert (left.instances, left.observations, left.unannotated) == (
        right.instances, right.observations, right.unannotated,
    )
    assert left.log_likelihood == right.log_likelihood
    assert left.delta == right.delta
    for field in ("confusion", "class_totals", "vote_totals", "agreement",
                  "label_counts", "grad_alpha"):
        a, b = getattr(left, field), getattr(right, field)
        assert (a is None) == (b is None), field
        if a is not None:
            np.testing.assert_array_equal(a, b, err_msg=field)


class TestTreeReduce:
    """The merge *shape* is part of the numerical contract: a pure
    function of the leaf count, independent of completion timing."""

    def test_empty_is_identity(self):
        assert TreeReducer().result().instances == 0
        _assert_stats_equal(tree_merge_shard_stats([]), ShardStats())

    def test_single_leaf_passes_through(self, crowd):
        stats = _stats_from(crowd.shards(1)[0])
        _assert_stats_equal(tree_merge_shard_stats([stats]), stats)

    def test_four_leaves_merge_pairwise(self, crowd):
        a, b, c, d = (_stats_from(shard) for shard in crowd.shards(4))
        expected = (a.merge(b)).merge(c.merge(d))
        _assert_stats_equal(tree_merge_shard_stats([a, b, c, d]), expected)

    def test_odd_leaf_joins_smallest_first(self, crowd):
        a, b, c = (_stats_from(shard) for shard in crowd.shards(3))
        # Binary-counter fold: the leftover leaf c merges into (a·b).
        _assert_stats_equal(tree_merge_shard_stats([a, b, c]), a.merge(b).merge(c))
        # Seven leaves: ((e·f)·g) joins ((a·b)·(c·d)) — levels low→high.
        leaves = [_stats_from(shard) for shard in crowd.shards(7)]
        a, b, c, d, e, f, g = leaves
        expected = (a.merge(b).merge(c.merge(d))).merge(e.merge(f).merge(g))
        _assert_stats_equal(tree_merge_shard_stats(leaves), expected)

    def test_result_is_pure(self, crowd):
        reducer = TreeReducer()
        for shard in crowd.shards(5):
            reducer.push(_stats_from(shard))
        _assert_stats_equal(reducer.result(), reducer.result())
        assert reducer.count == 5

    def test_identity_leaves_do_not_change_integer_fields(self, crowd):
        stats = _stats_from(crowd.shards(1)[0])
        merged = tree_merge_shard_stats([ShardStats(), stats, ShardStats()])
        assert merged.instances == stats.instances
        assert merged.observations == stats.observations
        np.testing.assert_array_equal(merged.label_counts, stats.label_counts)

    def test_matches_left_fold_to_rounding(self, crowd):
        leaves = [_stats_from(shard) for shard in crowd.shards(7)]
        tree = tree_merge_shard_stats(leaves)
        fold = reduce(ShardStats.merge, leaves, ShardStats())
        assert tree.instances == fold.instances
        np.testing.assert_array_equal(tree.label_counts, fold.label_counts)
        np.testing.assert_allclose(tree.confusion, fold.confusion, atol=1e-12, rtol=0)


class TestDegenerateShardLayouts:
    def test_empty_shards_interleaved(self, crowd):
        """Empty shards anywhere in the stream contribute nothing."""
        expected = get_method("DS", kind="classification").infer(crowd)
        pieces = crowd.shards(3)
        empty = SparseLabelShard(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            num_instances=0, num_annotators=crowd.num_annotators,
            num_classes=crowd.num_classes,
        )
        layout = [empty, pieces[0], empty, pieces[1], pieces[2], empty]
        result = run_sharded("DS", layout)
        np.testing.assert_allclose(result.posterior, expected.posterior, atol=1e-10, rtol=0)
        assert result.extras["iterations"] == expected.extras["iterations"]
        assert result.extras["shards"] == len(layout)

    def test_disjoint_annotator_sets(self):
        """Shards whose active annotators do not overlap still merge: the
        annotator axis is global, per-shard statistics are zero for absent
        annotators."""
        rng = np.random.default_rng(11)
        J, K = 10, 3
        labels = np.full((80, J), MISSING, dtype=np.int64)
        truth = rng.integers(0, K, size=80)
        for i in range(80):
            # First half of the instances only sees annotators 0-4,
            # second half only 5-9.
            pool = np.arange(5) if i < 40 else np.arange(5, 10)
            chosen = rng.choice(pool, size=3, replace=False)
            noisy = np.where(
                rng.random(3) < 0.75, truth[i], rng.integers(0, K, size=3)
            )
            labels[i, chosen] = noisy
        crowd = CrowdLabelMatrix(labels, K)
        shards = crowd.shards(2)
        front = shards[0].annotations_per_annotator()
        back = shards[1].annotations_per_annotator()
        assert (front[5:] == 0).all() and (back[:5] == 0).all()  # really disjoint
        for name in ("DS", "PM", "CATD"):
            expected = get_method(name, kind="classification").infer(crowd)
            result = run_sharded(name, shards)
            np.testing.assert_allclose(
                result.posterior, expected.posterior, atol=1e-10, rtol=0,
                err_msg=f"{name} diverged on disjoint-annotator shards",
            )

    def test_single_instance_shards(self, crowd):
        expected = get_method("PM", kind="classification").infer(crowd)
        result = run_sharded("PM", crowd.shards(crowd.num_instances))
        np.testing.assert_allclose(result.posterior, expected.posterior, atol=1e-10, rtol=0)

    def test_empty_crowd_single_empty_shard(self):
        empty = CrowdLabelMatrix(np.zeros((0, 4), dtype=np.int64), 2)
        result = run_sharded("DS", empty.shards(1))
        assert result.posterior.shape == (0, 2)
        assert result.confusions.shape == (4, 2, 2)
        assert np.isfinite(result.confusions).all()


class TestShardSources:
    def test_one_shot_iterator_ok_for_single_pass_mv(self, crowd):
        result = run_sharded("MV", iter(crowd.shards(4)))
        np.testing.assert_allclose(
            result.posterior, majority_vote_posterior(crowd), atol=1e-12, rtol=0
        )

    def test_one_shot_iterator_rejected_for_multi_pass_methods(self, crowd):
        with pytest.raises(ValueError, match="one-shot iterator"):
            run_sharded("DS", iter(crowd.shards(4)))

    def test_callable_source_re_invoked_per_pass(self, crowd):
        passes = {"count": 0}

        def source():
            passes["count"] += 1
            return iter(crowd.shards(3))

        result = run_sharded("DS", source, max_iterations=5, tolerance=0.0)
        # init pass + one pass per EM round
        assert passes["count"] == 6
        assert result.extras["iterations"] == 5

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError, match="no shards"):
            run_sharded("MV", [])

    def test_mismatched_shard_dimensions_rejected(self, crowd):
        other = CrowdLabelMatrix(np.zeros((3, crowd.num_annotators + 1), dtype=np.int64), 2)
        with pytest.raises(ValueError, match="disagree"):
            run_sharded("MV", [crowd.shards(1)[0], other])

    def test_unsupported_source_type_rejected(self):
        with pytest.raises(TypeError, match="shard source"):
            as_shard_source(42)


class TestRunShardedDriver:
    def test_resolves_names_and_forwards_overrides(self, crowd):
        result = run_sharded("DS", crowd.shards(2), max_iterations=3, tolerance=0.0)
        assert result.extras["iterations"] == 3

    def test_accepts_instances(self, crowd):
        method = DawidSkene(max_iterations=3, tolerance=0.0)
        result = run_sharded(method, crowd.shards(2))
        assert result.extras["iterations"] == 3

    def test_instance_plus_overrides_rejected(self, crowd):
        with pytest.raises(TypeError, match="overrides"):
            run_sharded(MajorityVote(), crowd.shards(2), max_iterations=3)

    def test_non_sharded_method_rejected(self, crowd):
        with pytest.raises(TypeError, match="sharded"):
            run_sharded(get_method("HMM-Crowd", kind="sequence"), crowd.shards(2))

    def test_unknown_name_raises_keyerror(self, crowd):
        with pytest.raises(KeyError):
            run_sharded("nope", crowd.shards(2))

    def test_convenience_infer_shards_in_memory(self, crowd):
        """``infer(crowd)`` is the one-shard run: the container is its own
        single shard (agreement across many shards is SHARD_LAYOUTS' job)."""
        expected = run_sharded("DS", [crowd])
        result = DawidSkene().infer(crowd)
        np.testing.assert_array_equal(result.posterior, expected.posterior)
        np.testing.assert_array_equal(result.confusions, expected.confusions)
        assert result.extras["iterations"] == expected.extras["iterations"]
        assert result.extras["shards"] == 1


class TestExecutorHook:
    @pytest.mark.parametrize("name", ["MV", "DS", "PM"])
    def test_thread_pool_map_stage_is_deterministic(self, crowd, name):
        serial = run_sharded(name, crowd.shards(5))
        with ThreadPoolExecutor(max_workers=3) as pool:
            threaded = run_sharded(name, crowd.shards(5), executor=pool)
        # Results are consumed in submission order and reduced on the
        # caller's thread, so parallel mapping is bit-identical.
        np.testing.assert_array_equal(serial.posterior, threaded.posterior)

    def test_lazy_source_keeps_bounded_in_flight_window(self):
        """The parallel map must not drain a lazy out-of-core source up
        front (executor.map would) — at most 2×workers shards in flight."""
        from repro.inference.sharding import ShardedTruthInference

        state = {"issued": 0, "consumed": 0, "max_outstanding": 0}

        def items():
            for index in range(40):
                state["issued"] += 1
                outstanding = state["issued"] - state["consumed"]
                state["max_outstanding"] = max(state["max_outstanding"], outstanding)
                yield index

        with ThreadPoolExecutor(max_workers=2) as pool:
            results = []
            for value in ShardedTruthInference._map_results(
                lambda item: item * 2, items(), pool
            ):
                state["consumed"] += 1
                results.append(value)
        assert results == [index * 2 for index in range(40)]
        # Window is 2 × max_workers = 4 (+1 for the item pulled before
        # the oldest future's result is claimed).
        assert state["max_outstanding"] <= 5

    def test_explicit_window_bounds_in_flight_items(self):
        """Satellite contract: window= is an explicit argument, not a peek
        at executor internals."""
        from repro.inference.sharding import ShardedTruthInference

        state = {"issued": 0, "consumed": 0, "max_outstanding": 0}

        def items():
            for index in range(30):
                state["issued"] += 1
                outstanding = state["issued"] - state["consumed"]
                state["max_outstanding"] = max(state["max_outstanding"], outstanding)
                yield index

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = []
            for value in ShardedTruthInference._map_results(
                lambda item: item + 1, items(), pool, window=2
            ):
                state["consumed"] += 1
                results.append(value)
        assert results == [index + 1 for index in range(30)]
        assert state["max_outstanding"] <= 3  # window 2 (+1 pre-claim pull)

    def test_window_default_without_max_workers_attribute(self):
        """Executors that don't expose the stdlib's private _max_workers
        fall back to os.cpu_count(), not a hard-coded guess."""
        import os

        class OpaqueExecutor:
            pass

        expected = max(2 * (os.cpu_count() or 1), 2)
        assert _window_size(OpaqueExecutor(), None) == expected
        assert _window_size(OpaqueExecutor(), 7) == 7

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            _window_size(None, 0)

    def test_window_forwarded_through_run_sharded(self, crowd):
        serial = run_sharded("DS", crowd.shards(5), max_iterations=4, tolerance=0.0)
        with ThreadPoolExecutor(max_workers=2) as pool:
            windowed = run_sharded(
                "DS", crowd.shards(5), executor=pool, window=1,
                max_iterations=4, tolerance=0.0,
            )
        np.testing.assert_array_equal(serial.posterior, windowed.posterior)


@pytest.fixture(scope="module")
def binary_crowd():
    return random_classification_crowd(5, instances=70, annotators=8, classes=2)


class TestExecutorBitIdentity:
    """Satellite contract: for a fixed shard layout, serial, thread-pool,
    and process-pool execution produce bit-identical posteriors — the
    tree reduce plus submission-order consumption make merge order a pure
    function of shard count."""

    BUDGETS = {
        "DS": {"max_iterations": 6, "tolerance": 0.0},
        "PM": {"max_iterations": 6, "tolerance": 0.0},
        "GLAD": {"em_iterations": 3, "gradient_steps": 3},
    }

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    @pytest.mark.parametrize("name", ["DS", "PM", "GLAD"])
    def test_serial_thread_process_bit_identical(
        self, crowd, binary_crowd, tmp_path, name, num_shards
    ):
        source = binary_crowd if name == "GLAD" else crowd
        handles = save_shard_handles(
            source, tmp_path / f"{name}-{num_shards}.npy", num_shards
        )
        overrides = self.BUDGETS[name]
        serial = run_sharded(name, handles, **overrides)
        with ThreadPoolExecutor(max_workers=3) as pool:
            threaded = run_sharded(name, handles, executor=pool, **overrides)
        with ProcessPoolExecutor(max_workers=2) as pool:
            processed = run_sharded(name, handles, executor=pool, **overrides)
        # Not allclose — array_equal. Bit-identity is the contract.
        np.testing.assert_array_equal(serial.posterior, threaded.posterior)
        np.testing.assert_array_equal(serial.posterior, processed.posterior)
        if serial.confusions is not None:
            np.testing.assert_array_equal(serial.confusions, processed.confusions)
        for key in ("weights", "alpha", "beta"):
            if key in serial.extras:
                np.testing.assert_array_equal(
                    serial.extras[key], processed.extras[key], err_msg=key
                )

    def test_stats_arrays_are_layout_canonical(self):
        """Regression: mappers hand ShardStats strided views (einsum
        transposes); a pickle round trip rewrites those C-contiguous, and
        numpy reductions order additions by memory layout — so without
        canonicalization at construction, serial and process runs sum the
        merged confusion in different orders and diverge in the last bits."""
        view = np.arange(47 * 9 * 9, dtype=np.float64).reshape(47, 9, 9)
        stats = ShardStats(confusion=view.transpose(0, 2, 1))
        assert stats.confusion.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(stats.confusion, view.transpose(0, 2, 1))

    def test_wide_crowd_regression(self, tmp_path):
        """The observed failure case for the layout bug: J=47, K=9 — large
        enough that the confusion reduction's addition order shows up in
        the bits. Small test crowds never caught it."""
        wide = random_classification_crowd(11, instances=150, annotators=47, classes=9)
        [handle] = save_shard_handles(wide, tmp_path / "wide.npy", 1)
        serial = run_sharded("DS", [handle], max_iterations=4, tolerance=0.0)
        with ProcessPoolExecutor(max_workers=1) as pool:
            processed = run_sharded(
                "DS", [handle], executor=pool, max_iterations=4, tolerance=0.0
            )
        np.testing.assert_array_equal(serial.posterior, processed.posterior)
        np.testing.assert_array_equal(serial.confusions, processed.confusions)


class TestProcessExecutor:
    def test_workers_spills_in_memory_shards(self, crowd):
        """workers=N on an in-memory layout: shards are written to handle
        form behind the scenes; the result is bit-identical to serial."""
        serial = run_sharded("DS", crowd.shards(4), max_iterations=5, tolerance=0.0)
        parallel = run_sharded(
            "DS", crowd.shards(4), workers=2, max_iterations=5, tolerance=0.0
        )
        np.testing.assert_array_equal(serial.posterior, parallel.posterior)
        np.testing.assert_array_equal(serial.confusions, parallel.confusions)

    def test_workers_with_lazy_source_pickles_shards_per_task(self, crowd):
        """A callable source under workers=N still works: yielded shards
        cross the pickle boundary directly (no spill for lazy sources)."""

        def source():
            for shard in crowd.shards(3):
                yield shard.to_sparse()

        serial = run_sharded("PM", source, max_iterations=4, tolerance=0.0)
        parallel = run_sharded("PM", source, workers=2, max_iterations=4, tolerance=0.0)
        np.testing.assert_array_equal(serial.posterior, parallel.posterior)

    def test_workers_and_executor_are_mutually_exclusive(self, crowd):
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(TypeError, match="not both"):
                run_sharded("MV", crowd.shards(2), executor=pool, workers=2)

    def test_workers_must_be_positive(self, crowd):
        with pytest.raises(ValueError, match="worker"):
            run_sharded("MV", crowd.shards(2), workers=0)

    def test_user_process_pool_with_handles(self, crowd, tmp_path):
        """A caller-owned ProcessPoolExecutor (no shard-warming
        initializer) resolves handles on demand in the workers."""
        handles = save_shard_handles(crowd, tmp_path / "crowd.npy", 4)
        expected = get_method("DS", kind="classification").infer(crowd)
        with ProcessPoolExecutor(max_workers=2) as pool:
            result = run_sharded("DS", handles, executor=pool)
        np.testing.assert_allclose(result.posterior, expected.posterior, atol=1e-10, rtol=0)
        assert result.extras["iterations"] == expected.extras["iterations"]


class TestShardFileFormat:
    def test_npy_round_trip_mmap_and_eager(self, crowd, tmp_path):
        shard = crowd.shards(1)[0].to_sparse()
        path = shard.save(tmp_path / "shard.npy")
        for mmap in (True, False):
            loaded = SparseLabelShard.load(path, mmap=mmap)
            for a, b in zip(loaded.flat_label_pairs(), shard.flat_label_pairs()):
                np.testing.assert_array_equal(a, b)
            assert loaded.num_instances == shard.num_instances
            assert loaded.num_annotators == shard.num_annotators
            assert loaded.num_classes == shard.num_classes
            np.testing.assert_array_equal(loaded.vote_counts(), shard.vote_counts())

    def test_npz_round_trip(self, crowd, tmp_path):
        shard = crowd.shards(1)[0].to_sparse()
        path = shard.save(tmp_path / "shard.npz")
        loaded = SparseLabelShard.load(path)
        np.testing.assert_array_equal(loaded.vote_counts(), shard.vote_counts())

    def test_sparse_incidence_flag_survives_save_load(self, crowd, tmp_path):
        rows, annotators, given = crowd.flat_label_pairs()
        shard = SparseLabelShard(
            rows, annotators, given,
            num_instances=crowd.num_instances,
            num_annotators=crowd.num_annotators,
            num_classes=crowd.num_classes,
            sparse_incidence=False,
        )
        loaded = SparseLabelShard.load(shard.save(tmp_path / "no-csr.npy"))
        assert loaded.label_incidence() is None

    def test_empty_shard_round_trip(self, tmp_path):
        empty = SparseLabelShard(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            num_instances=0, num_annotators=4, num_classes=2,
        )
        loaded = SparseLabelShard.load(empty.save(tmp_path / "empty.npy"))
        assert loaded.num_instances == 0
        assert loaded.total_annotations() == 0

    def test_non_shard_file_rejected(self, tmp_path):
        path = tmp_path / "other.npy"
        np.save(path, np.arange(8, dtype=np.int64))
        with pytest.raises(ValueError, match="not a shard file"):
            SparseLabelShard.load(path)

    def test_handle_range_localizes_in_file_coordinates(self, crowd, tmp_path):
        handles = save_shard_handles(crowd, tmp_path / "crowd.npy", 3)
        assert sum(h.num_instances for h in handles) == crowd.num_instances
        opened = [handle.open() for handle in handles]
        np.testing.assert_array_equal(
            np.concatenate([s.vote_counts() for s in opened], axis=0),
            crowd.vote_counts(),
        )

    def test_handle_dims_cross_checked_against_header(self, crowd, tmp_path):
        [handle] = save_shard_handles(crowd, tmp_path / "crowd.npy", 1)
        import dataclasses

        with pytest.raises(ValueError, match="disagree"):
            dataclasses.replace(handle, num_classes=handle.num_classes + 1).open()
        with pytest.raises(ValueError, match="declares"):
            dataclasses.replace(handle, num_instances=handle.num_instances + 5).open()

    def test_range_handle_over_unsorted_file_rejected(self, tmp_path):
        shard = SparseLabelShard(
            np.array([3, 0, 2]), np.array([0, 1, 2]), np.array([1, 0, 1]),
            num_instances=4, num_annotators=3, num_classes=2,
        )
        path = shard.save(tmp_path / "unsorted.npy")
        handle = ShardHandle(
            path=str(path), num_instances=2, num_annotators=3, num_classes=2,
            start=0, stop=2,
        )
        with pytest.raises(ValueError, match="row-sorted"):
            handle.open()

    def test_save_shard_handles_sorts_unsorted_input(self, tmp_path):
        shard = SparseLabelShard(
            np.array([3, 0, 2]), np.array([0, 1, 2]), np.array([1, 0, 1]),
            num_instances=4, num_annotators=3, num_classes=2,
        )
        handles = save_shard_handles(shard, tmp_path / "sorted.npy", 2)
        opened = [handle.open() for handle in handles]
        np.testing.assert_array_equal(
            np.concatenate([s.vote_counts() for s in opened], axis=0),
            shard.vote_counts(),
        )


class TestSparseLabelShardPickle:
    """Satellite regression: pickling must drop built caches (the CSR
    incidence in particular) and preserve the sparse_incidence flag."""

    def test_built_incidence_cache_is_dropped(self, crowd):
        shard = crowd.shards(1)[0].to_sparse()
        assert shard.label_incidence() is not None  # build the cache
        assert "_incidence_cache" in shard.__dict__
        clone = pickle.loads(pickle.dumps(shard))
        assert "_incidence_cache" not in clone.__dict__
        # The clone rebuilds on demand and computes the same thing.
        np.testing.assert_array_equal(
            np.asarray(clone.label_incidence().todense()),
            np.asarray(shard.label_incidence().todense()),
        )

    def test_sparse_incidence_false_round_trips(self, crowd):
        rows, annotators, given = crowd.flat_label_pairs()
        shard = SparseLabelShard(
            rows, annotators, given,
            num_instances=crowd.num_instances,
            num_annotators=crowd.num_annotators,
            num_classes=crowd.num_classes,
            sparse_incidence=False,
        )
        clone = pickle.loads(pickle.dumps(shard))
        assert clone.label_incidence() is None  # the flag's promise holds
        np.testing.assert_array_equal(clone.vote_counts(), shard.vote_counts())

    def test_payload_carries_no_csr(self, crowd):
        """The serialized form must not grow when a cache happens to be
        built — what goes over the pickle boundary is triples + dims."""
        shard = crowd.shards(1)[0].to_sparse()
        cold = len(pickle.dumps(shard))
        shard.label_incidence()
        warm = len(pickle.dumps(shard))
        assert warm == cold

    def test_memmap_backed_shard_pickles_as_plain_arrays(self, crowd, tmp_path):
        shard = crowd.shards(1)[0].to_sparse()
        loaded = SparseLabelShard.load(shard.save(tmp_path / "shard.npy"), mmap=True)
        clone = pickle.loads(pickle.dumps(loaded))
        assert not isinstance(clone.flat_label_pairs()[1], np.memmap)
        np.testing.assert_array_equal(clone.vote_counts(), shard.vote_counts())


class TestOutOfCore:
    def test_lazily_loaded_coo_shards_match_batch(self, crowd, tmp_path):
        """The out-of-core path: shards persisted as COO triples, loaded
        one at a time per pass, nothing referencing the parent crowd."""
        paths = []
        for index, shard in enumerate(crowd.shards(6)):
            rows, annotators, given = shard.flat_label_pairs()
            path = tmp_path / f"shard{index}.npz"
            np.savez(
                path, rows=rows, annotators=annotators, labels=given,
                num_instances=shard.num_instances,
            )
            paths.append(path)

        def source():
            for path in paths:
                payload = np.load(path)
                yield SparseLabelShard(
                    payload["rows"], payload["annotators"], payload["labels"],
                    num_instances=int(payload["num_instances"]),
                    num_annotators=crowd.num_annotators,
                    num_classes=crowd.num_classes,
                    sparse_incidence=False,
                )

        expected = get_method("DS", kind="classification").infer(crowd)
        result = run_sharded("DS", source)
        np.testing.assert_allclose(result.posterior, expected.posterior, atol=1e-10, rtol=0)
        np.testing.assert_allclose(result.confusions, expected.confusions, atol=1e-10, rtol=0)
        assert result.extras["iterations"] == expected.extras["iterations"]

    def test_iter_shards_budget_source(self, crowd):
        expected = get_method("IBCC", kind="classification").infer(crowd)
        result = run_sharded("IBCC", lambda: crowd.iter_shards(25))
        np.testing.assert_allclose(result.posterior, expected.posterior, atol=1e-10, rtol=0)

    def test_user_defined_shard_satisfying_the_protocol(self, crowd):
        """The documented shard protocol is structural: any object with
        the kernel-facing surface works, not just the built-in classes."""

        class MyShard:
            def __init__(self, shard):
                self._pairs = tuple(np.array(a) for a in shard.flat_label_pairs())
                self.num_instances = shard.num_instances
                self.num_annotators = shard.num_annotators
                self.num_classes = shard.num_classes

            def flat_label_pairs(self):
                return self._pairs

            def label_incidence(self):
                return None

            def vote_counts(self):
                rows, _, given = self._pairs
                key = rows * self.num_classes + given
                counts = np.bincount(key, minlength=self.num_instances * self.num_classes)
                return counts.reshape(self.num_instances, self.num_classes)

            def annotations_per_instance(self):
                return np.bincount(self._pairs[0], minlength=self.num_instances)

            def annotations_per_annotator(self):
                return np.bincount(self._pairs[1], minlength=self.num_annotators)

        expected = get_method("DS", kind="classification").infer(crowd)
        result = run_sharded("DS", [MyShard(shard) for shard in crowd.shards(3)])
        np.testing.assert_allclose(result.posterior, expected.posterior, atol=1e-10, rtol=0)


class TestSparseLabelShardValidation:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="labels out of range"):
            SparseLabelShard(
                np.array([0]), np.array([0]), np.array([5]),
                num_instances=2, num_annotators=3, num_classes=3,
            )
        with pytest.raises(ValueError, match="rows out of range"):
            SparseLabelShard(
                np.array([7]), np.array([0]), np.array([1]),
                num_instances=2, num_annotators=3, num_classes=3,
            )

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            SparseLabelShard(
                np.array([0, 1]), np.array([0]), np.array([1]),
                num_instances=2, num_annotators=3, num_classes=3,
            )

    def test_from_dense_round_trip(self, crowd):
        shard = SparseLabelShard.from_dense(crowd.labels, crowd.num_classes)
        np.testing.assert_array_equal(shard.vote_counts(), crowd.vote_counts())
        np.testing.assert_array_equal(
            shard.annotations_per_annotator(), crowd.annotations_per_annotator()
        )
        assert shard.total_annotations() == crowd.total_annotations()

    def test_to_matrix_densifies_exactly(self, crowd, tmp_path):
        # dense → COO → dense is lossless, including unlabeled instances
        # and a save/load hop — the serving layer's crowd rehydration path.
        shard = SparseLabelShard.from_dense(crowd.labels, crowd.num_classes)
        restored = shard.to_matrix()
        np.testing.assert_array_equal(restored.labels, crowd.labels)
        assert restored.num_classes == crowd.num_classes
        reloaded = SparseLabelShard.load(shard.save(tmp_path / "crowd.shard"), mmap=False)
        np.testing.assert_array_equal(reloaded.to_matrix().labels, crowd.labels)

    def test_to_matrix_handles_empty_shard(self):
        shard = SparseLabelShard(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            num_instances=0, num_annotators=4, num_classes=2,
        )
        matrix = shard.to_matrix()
        assert matrix.labels.shape == (0, 4)
        assert matrix.num_classes == 2
