"""Tests for crowd-label containers."""

import numpy as np
import pytest

from repro.crowd import MISSING, CrowdLabelMatrix, SequenceCrowdLabels

M = MISSING


class TestCrowdLabelMatrix:
    def _tiny(self):
        labels = np.array(
            [
                [0, 1, M],
                [1, 1, 1],
                [M, M, 0],
            ]
        )
        return CrowdLabelMatrix(labels, num_classes=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            CrowdLabelMatrix(np.array([0, 1]), 2)  # not 2-D
        with pytest.raises(TypeError):
            CrowdLabelMatrix(np.array([[0.5]]), 2)
        with pytest.raises(ValueError):
            CrowdLabelMatrix(np.array([[5]]), 2)  # out of range
        with pytest.raises(ValueError):
            CrowdLabelMatrix(np.array([[0]]), 1)  # too few classes

    def test_counts(self):
        crowd = self._tiny()
        np.testing.assert_array_equal(crowd.annotations_per_instance(), [2, 3, 1])
        np.testing.assert_array_equal(crowd.annotations_per_annotator(), [2, 2, 2])
        assert crowd.total_annotations() == 6

    def test_counts_match_the_dense_mask_without_caching_it(self):
        crowd = _random_matrix_crowd(7, 50, 9, 4)
        observed = crowd.labels != M
        np.testing.assert_array_equal(crowd.annotations_per_instance(), observed.sum(axis=1))
        np.testing.assert_array_equal(crowd.annotations_per_annotator(), observed.sum(axis=0))
        assert crowd.total_annotations() == observed.sum()
        assert getattr(crowd, "_observed_mask_cache", None) is None
        # Direct readers still get the cached mask.
        np.testing.assert_array_equal(crowd.observed_mask, observed)
        assert crowd.observed_mask is crowd.observed_mask

    def test_vote_counts(self):
        crowd = self._tiny()
        np.testing.assert_array_equal(crowd.vote_counts(), [[1, 1], [0, 3], [1, 0]])

    def test_one_hot(self):
        one_hot = self._tiny().one_hot()
        assert one_hot.shape == (3, 3, 2)
        np.testing.assert_allclose(one_hot[0, 0], [1, 0], atol=0)
        np.testing.assert_allclose(one_hot[0, 2], [0, 0], atol=0)  # missing

    def test_subset(self):
        sub = self._tiny().subset(np.array([2]))
        assert sub.num_instances == 1
        np.testing.assert_array_equal(sub.labels[0], [M, M, 0])

    def test_annotator_confusion(self):
        crowd = self._tiny()
        truth = np.array([0, 1, 0])
        confusion = crowd.annotator_confusion(truth, annotator=0)
        # Annotator 0 labeled instance 0 (true 0 → said 0) and 1 (true 1 → said 1).
        np.testing.assert_allclose(confusion, np.eye(2), atol=0)

    def test_annotator_confusion_unobserved_row_uniform(self):
        crowd = CrowdLabelMatrix(np.array([[0], [M]]), 2)
        confusion = crowd.annotator_confusion(np.array([0, 1]), 0)
        np.testing.assert_allclose(confusion[1], [0.5, 0.5], atol=0)

    def test_paper_convention_roundtrip(self):
        paper = np.array([[1, 0, 2], [0, 2, 1]])
        crowd = CrowdLabelMatrix.from_paper_convention(paper, 2)
        np.testing.assert_array_equal(crowd.labels, [[0, M, 1], [M, 1, 0]])
        np.testing.assert_array_equal(crowd.to_paper_convention(), paper)


class TestSequenceCrowdLabels:
    def _tiny(self):
        return SequenceCrowdLabels(
            labels=[
                np.array([[0, M], [1, M]]),          # 2 tokens, annotator 0 only
                np.array([[0, 0], [1, 2], [2, 2]]),  # 3 tokens, both annotators
            ],
            num_classes=3,
            num_annotators=2,
        )

    def test_validation_partial_column_rejected(self):
        with pytest.raises(ValueError):
            SequenceCrowdLabels(
                labels=[np.array([[0, M], [M, M]])],  # annotator 0 labeled 1 of 2
                num_classes=2,
                num_annotators=2,
            )

    def test_validation_out_of_range(self):
        with pytest.raises(ValueError):
            SequenceCrowdLabels([np.array([[9]])], num_classes=2, num_annotators=1)

    def test_validation_shape(self):
        with pytest.raises(ValueError):
            SequenceCrowdLabels([np.zeros((2,), dtype=int)], num_classes=2, num_annotators=1)

    def test_annotators_of(self):
        crowd = self._tiny()
        np.testing.assert_array_equal(crowd.annotators_of(0), [0])
        np.testing.assert_array_equal(crowd.annotators_of(1), [0, 1])

    def test_counts(self):
        crowd = self._tiny()
        np.testing.assert_array_equal(crowd.annotations_per_instance(), [1, 2])
        np.testing.assert_array_equal(crowd.annotations_per_annotator(), [2, 1])

    def test_token_vote_counts(self):
        crowd = self._tiny()
        _, offsets = crowd.flat_labels()
        votes = crowd.token_vote_counts_flat()[offsets[1] : offsets[2]]
        np.testing.assert_array_equal(votes, [[2, 0, 0], [0, 1, 1], [0, 0, 2]])

    def test_subset(self):
        sub = self._tiny().subset(np.array([1]))
        assert sub.num_instances == 1
        assert sub.labels[0].shape == (3, 2)

    def test_annotator_confusion(self):
        crowd = self._tiny()
        truth = [np.array([0, 1]), np.array([0, 1, 2])]
        confusion = crowd.annotator_confusion(truth, 0)
        np.testing.assert_allclose(confusion, np.eye(3), atol=0)
        confusion1 = crowd.annotator_confusion(truth, 1)
        # Annotator 1 labeled only sentence 1: true (0,1,2) → said (0,2,2).
        np.testing.assert_allclose(confusion1[0], [1, 0, 0], atol=0)
        np.testing.assert_allclose(confusion1[1], [0, 0, 1], atol=0)
        np.testing.assert_allclose(confusion1[2], [0, 0, 1], atol=0)


def _assert_classification_caches_match(extended: CrowdLabelMatrix, fresh: CrowdLabelMatrix):
    """Every cached view of an incrementally-extended container must equal a
    from-scratch rebuild — the correctness contract of the streaming append
    path (cache coherence, not just label equality)."""
    np.testing.assert_array_equal(extended.labels, fresh.labels)
    np.testing.assert_array_equal(extended.observed_mask, fresh.observed_mask)
    np.testing.assert_array_equal(extended.vote_counts(), fresh.vote_counts())
    for got, want in zip(extended.flat_label_pairs(), fresh.flat_label_pairs()):
        np.testing.assert_array_equal(got, want)
    got_inc, want_inc = extended.label_incidence(), fresh.label_incidence()
    if want_inc is not None:
        assert (got_inc != want_inc).nnz == 0


class TestCrowdLabelMatrixExtend:
    def _blocks(self):
        rng = np.random.default_rng(7)
        blocks = []
        for size in (5, 3, 0, 8):
            block = rng.integers(-1, 3, size=(size, 4))
            blocks.append(block.astype(np.int64))
        # Guarantee at least one fully-missing row survives validation checks.
        blocks[0][1] = M
        return blocks

    def test_extend_matches_fresh_container_with_warm_caches(self):
        blocks = self._blocks()
        crowd = CrowdLabelMatrix(blocks[0], num_classes=3)
        # Warm every cache before the first append.
        crowd.observed_mask, crowd.flat_label_pairs()
        crowd.label_incidence(), crowd.vote_counts()
        for block in blocks[1:]:
            crowd.extend(block)
        fresh = CrowdLabelMatrix(np.concatenate(blocks, axis=0), num_classes=3)
        _assert_classification_caches_match(crowd, fresh)

    def test_extend_with_cold_caches_builds_lazily(self):
        blocks = self._blocks()
        crowd = CrowdLabelMatrix(blocks[0], num_classes=3)
        for block in blocks[1:]:
            crowd.extend(block)  # nothing cached yet — no incremental work
        fresh = CrowdLabelMatrix(np.concatenate(blocks, axis=0), num_classes=3)
        _assert_classification_caches_match(crowd, fresh)

    def test_extend_returns_self_and_grows(self):
        crowd = CrowdLabelMatrix(np.array([[0, 1]]), 2)
        assert crowd.extend(np.array([[1, M]])) is crowd
        assert crowd.num_instances == 2
        assert crowd.total_annotations() == 3

    def test_extend_from_empty(self):
        crowd = CrowdLabelMatrix(np.zeros((0, 3), dtype=np.int64), 2)
        crowd.vote_counts()
        crowd.extend(np.array([[0, 1, M]]))
        np.testing.assert_array_equal(crowd.vote_counts(), [[1, 1]])

    def test_extend_validates_block(self):
        crowd = CrowdLabelMatrix(np.array([[0, 1]]), 2)
        with pytest.raises(ValueError):
            crowd.extend(np.array([[5, 0]]))  # out of range
        with pytest.raises(ValueError):
            crowd.extend(np.array([[0, 1, 0]]))  # annotator axis changed
        with pytest.raises(TypeError):
            crowd.extend(np.array([[0.5, 0.5]]))
        assert crowd.num_instances == 1  # failed appends leave it untouched


def _random_matrix_crowd(seed: int, instances: int, annotators: int, classes: int):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=(instances, annotators))
    labels[rng.random(labels.shape) < 0.6] = M
    return CrowdLabelMatrix(labels, classes)


class TestCrowdShards:
    """The SparseLabelShard views ``CrowdLabelMatrix.shards`` cuts from the
    container's cached triples."""

    def test_partition_covers_crowd_in_order(self):
        crowd = _random_matrix_crowd(0, 23, 6, 3)
        shards = crowd.shards(4)
        assert [s.num_instances for s in shards] == [6, 6, 6, 5]
        rebuilt = np.concatenate([s.to_matrix().labels for s in shards], axis=0)
        np.testing.assert_array_equal(rebuilt, crowd.labels)

    def test_views_match_subset_containers(self):
        crowd = _random_matrix_crowd(1, 30, 5, 4)
        start = 0
        for shard in crowd.shards(3):
            subset = crowd.subset(np.arange(start, start + shard.num_instances))
            np.testing.assert_array_equal(shard.to_matrix().labels, subset.labels)
            np.testing.assert_array_equal(shard.vote_counts(), subset.vote_counts())
            np.testing.assert_array_equal(
                shard.annotations_per_instance(), subset.annotations_per_instance()
            )
            np.testing.assert_array_equal(
                shard.annotations_per_annotator(), subset.annotations_per_annotator()
            )
            assert shard.total_annotations() == subset.total_annotations()
            for mine, theirs in zip(shard.flat_label_pairs(), subset.flat_label_pairs()):
                np.testing.assert_array_equal(mine, theirs)
            np.testing.assert_array_equal(
                shard.label_incidence().toarray(), subset.label_incidence().toarray()
            )
            start += shard.num_instances

    def test_views_share_parent_cache_memory(self):
        crowd = _random_matrix_crowd(2, 20, 5, 3)
        shard = crowd.shards(2)[1]
        # Annotator/label columns of the COO triples are parent slices;
        # only the localized row index is fresh memory.
        _, annotators, given = shard.flat_label_pairs()
        _, parent_annotators, parent_given = crowd.flat_label_pairs()
        assert np.shares_memory(annotators, parent_annotators)
        assert np.shares_memory(given, parent_given)

    def test_oversized_shard_count_yields_empty_shards(self):
        crowd = _random_matrix_crowd(3, 4, 3, 2)
        shards = crowd.shards(7)
        assert [s.num_instances for s in shards] == [1, 1, 1, 1, 0, 0, 0]
        empty = shards[-1]
        assert empty.num_annotators == 3 and empty.num_classes == 2
        assert empty.total_annotations() == 0
        rows, annotators, given = empty.flat_label_pairs()
        assert rows.size == annotators.size == given.size == 0

    def test_iter_shards_respects_observation_budget(self):
        crowd = _random_matrix_crowd(4, 40, 8, 3)
        per_instance = (crowd.labels != M).sum(axis=1)
        shards = list(crowd.iter_shards(10))
        # Shards are sized from the cached triples: a budgeted pass
        # allocates O(observations), never the dense (I, J) mask.
        assert getattr(crowd, "_observed_mask_cache", None) is None
        assert sum(s.num_instances for s in shards) == crowd.num_instances
        for shard in shards:
            obs = shard.total_annotations()
            assert obs <= 10 or shard.num_instances == 1
        # Greedy packing: every shard but the last would overflow by
        # adding its successor's first instance.
        starts = np.cumsum([0] + [s.num_instances for s in shards])
        for index in range(len(shards) - 1):
            next_first = per_instance[starts[index + 1]]
            assert shards[index].total_annotations() + next_first > 10

    def test_iter_shards_on_empty_crowd_yields_one_empty_shard(self):
        crowd = CrowdLabelMatrix(np.zeros((0, 4), dtype=np.int64), 2)
        shards = list(crowd.iter_shards(5))
        assert len(shards) == 1 and shards[0].num_instances == 0

    def test_invalid_arguments_rejected(self):
        crowd = _random_matrix_crowd(5, 6, 3, 2)
        with pytest.raises(ValueError):
            crowd.shards(0)
        with pytest.raises(ValueError):
            list(crowd.iter_shards(0))
