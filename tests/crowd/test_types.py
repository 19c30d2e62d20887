"""Tests for crowd-label containers."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.crowd import MISSING, CrowdLabelMatrix, SequenceCrowdLabels, SparseLabelShard

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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_token_shard_matches_a_validated_shard(self, data):
        classes = data.draw(st.integers(2, 4))
        annotators = data.draw(st.integers(1, 4))
        sentences = []
        for _ in range(data.draw(st.integers(0, 5))):
            length = data.draw(st.integers(0, 4))
            labels = data.draw(
                hnp.arrays(np.int64, (length, annotators), elements=st.integers(0, classes - 1))
            )
            # An annotator labels a whole sentence or none of it.
            skipped = data.draw(hnp.arrays(bool, annotators))
            labels[:, skipped] = M
            sentences.append(labels)
        crowd = SequenceCrowdLabels(sentences, classes, annotators)
        stacked, _ = crowd.flat_labels()
        expected = SparseLabelShard.from_dense(stacked, classes)
        shard = crowd.token_shard()
        assert shard is crowd.token_shard()
        assert (shard.num_instances, shard.num_annotators, shard.num_classes) == (
            stacked.shape[0], annotators, classes,
        )
        _assert_surface_matches(shard, expected)
        _assert_contiguous_triples(shard)
        _assert_contiguous_triples(expected)
        for mine, its in zip(crowd.flat_label_pairs(), shard.flat_label_pairs()):
            assert mine is its
        np.testing.assert_array_equal(crowd.token_vote_counts_flat(), expected.vote_counts())


def _assert_contiguous_triples(shard) -> None:
    """A shard built from a dense block hands the kernels C-contiguous
    triples, so no ``bincount`` over them copies them again."""
    for values in shard.flat_label_pairs():
        assert values.flags.c_contiguous


def _assert_surface_matches(shard, expected: SparseLabelShard) -> None:
    """A container's kernel surface must equal a range-validated shard
    built from scratch over the same labels: triples, vote and label
    counts, and the incidence's CSR arrays."""
    for got, want in zip(shard.flat_label_pairs(), expected.flat_label_pairs()):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(shard.vote_counts(), expected.vote_counts())
    np.testing.assert_array_equal(
        shard.annotations_per_instance(), expected.annotations_per_instance()
    )
    np.testing.assert_array_equal(
        shard.annotations_per_annotator(), expected.annotations_per_annotator()
    )
    assert shard.total_annotations() == expected.total_annotations()
    got, want = shard.label_incidence(), expected.label_incidence()
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def _assert_container_matches(crowd: CrowdLabelMatrix, labels: np.ndarray) -> None:
    expected = SparseLabelShard.from_dense(labels, crowd.num_classes)
    np.testing.assert_array_equal(crowd.labels, labels)
    _assert_surface_matches(crowd, expected)
    _assert_surface_matches(crowd.as_shard(), expected)
    _assert_contiguous_triples(crowd.as_shard())
    _assert_contiguous_triples(expected)
    np.testing.assert_array_equal(crowd.observed_mask, labels != M)


def _fixed_blocks():
    """Hand-picked blocks: uneven sizes, an empty block, a fully-missing row."""
    rng = np.random.default_rng(7)
    blocks = [rng.integers(-1, 3, size=(size, 4)).astype(np.int64) for size in (5, 3, 0, 8)]
    blocks[0][1] = M  # one fully-missing row
    return blocks


@st.composite
def _extend_schedules(draw):
    """Label blocks over one annotator axis, plus, per step, whether the
    views are read after it (unread views must build right later)."""
    classes = draw(st.integers(2, 4))
    annotators = draw(st.integers(1, 5))
    blocks = draw(
        st.lists(
            hnp.arrays(
                np.int64,
                st.tuples(st.integers(0, 6), st.just(annotators)),
                elements=st.integers(MISSING, classes - 1),
            ),
            min_size=1,
            max_size=5,
        )
    )
    reads = draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)))
    return classes, blocks, reads


class TestCrowdLabelMatrixExtend:
    @settings(max_examples=60, deadline=None)
    @given(schedule=_extend_schedules())
    @example(schedule=(3, _fixed_blocks(), [True] * 4))   # views warm before every append
    @example(schedule=(3, _fixed_blocks(), [False] * 4))  # views built only at the end
    def test_extend_matches_a_validated_shard_at_every_step(self, schedule):
        classes, blocks, reads = schedule
        crowd = CrowdLabelMatrix(blocks[0], classes)
        for step, read in enumerate(reads):
            if step:
                before = crowd.as_shard() if read else None
                labels = crowd.labels
                assert not labels.flags.writeable
                assert crowd.extend(blocks[step]) is crowd
                # The labels grow in place: a matrix taken earlier keeps
                # its rows, also when the append reallocated the buffer.
                np.testing.assert_array_equal(labels, np.concatenate(blocks[:step], axis=0))
                if before is not None:
                    # extend drops the shard; one taken earlier keeps its rows.
                    assert crowd.as_shard() is not before
                    _assert_surface_matches(
                        before, SparseLabelShard.from_dense(labels, classes)
                    )
            if read or step == len(reads) - 1:
                _assert_container_matches(crowd, np.concatenate(blocks[: step + 1], axis=0))

    def test_surface_is_one_cached_shard(self):
        crowd = _random_matrix_crowd(8, 30, 6, 3)
        shard = crowd.as_shard()
        assert crowd.as_shard() is shard
        assert crowd.label_incidence() is shard.label_incidence()
        for mine, its in zip(crowd.flat_label_pairs(), shard.flat_label_pairs()):
            assert mine is its
        _assert_contiguous_triples(shard)

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
        _assert_container_matches(crowd, np.array([[0, 1, M]]))

    def test_labels_are_a_read_only_prefix(self):
        crowd = CrowdLabelMatrix(np.array([[0, 1], [1, M]]), 2)
        with pytest.raises(ValueError, match="read-only"):
            crowd.labels[0, 0] = 1
        crowd.extend(np.array([[M, 0]]))  # reallocates to twice the rows held
        assert crowd.labels.base.shape == (4, 2)
        # Spare capacity shows neither in the container nor in its pickle.
        assert crowd.labels.shape == (3, 2) and crowd.num_instances == 3
        np.testing.assert_array_equal(crowd.labels, [[0, 1], [1, M], [M, 0]])
        clone = pickle.loads(pickle.dumps(crowd))
        np.testing.assert_array_equal(clone.labels, crowd.labels)
        assert clone.labels.base.shape == (3, 2)

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
