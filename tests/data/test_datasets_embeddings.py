"""Tests for dataset containers, padding, loaders, and embeddings."""

import numpy as np
import pytest

from repro.crowd import MISSING, CrowdLabelMatrix
from repro.data import (
    PrototypeEmbeddings,
    SequenceTaggingDataset,
    TextClassificationDataset,
    Vocabulary,
    batch_indices,
    pad_sequences,
)


class TestPadSequences:
    def test_pads_to_longest(self):
        tokens, lengths = pad_sequences([np.array([1, 2]), np.array([3, 4, 5])], pad_id=9)
        np.testing.assert_array_equal(tokens, [[1, 2, 9], [3, 4, 5]])
        np.testing.assert_array_equal(lengths, [2, 3])

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            pad_sequences([])

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            pad_sequences([np.array([], dtype=int)])


def _tiny_classification(crowd=None):
    vocab = Vocabulary(["a", "b"])
    return TextClassificationDataset(
        tokens=np.array([[2, 3, 0], [3, 2, 2]]),
        lengths=np.array([2, 3]),
        labels=np.array([0, 1]),
        vocab=vocab,
        num_classes=2,
        crowd=crowd,
    )


class TestTextClassificationDataset:
    def test_mask_from_lengths(self):
        ds = _tiny_classification()
        np.testing.assert_array_equal(ds.mask, [[True, True, False], [True, True, True]])

    def test_row_count_validation(self):
        with pytest.raises(ValueError):
            TextClassificationDataset(
                tokens=np.zeros((2, 3), dtype=int),
                lengths=np.array([1]),
                labels=np.array([0, 1]),
                vocab=Vocabulary(),
                num_classes=2,
            )

    def test_crowd_row_count_validation(self):
        crowd = CrowdLabelMatrix(np.full((3, 2), MISSING), 2)
        with pytest.raises(ValueError):
            _tiny_classification(crowd=crowd)

    def test_subset_slices_everything(self):
        crowd = CrowdLabelMatrix(np.array([[0, MISSING], [1, 0]]), 2)
        ds = _tiny_classification(crowd=crowd)
        sub = ds.subset(np.array([1]))
        assert len(sub) == 1
        assert sub.labels[0] == 1
        assert sub.crowd.num_instances == 1


class TestSequenceTaggingDataset:
    def _tiny(self):
        return SequenceTaggingDataset(
            tokens=np.array([[2, 3, 0], [3, 2, 2]]),
            lengths=np.array([2, 3]),
            tags=[np.array([0, 1]), np.array([0, 1, 2])],
            vocab=Vocabulary(["a", "b"]),
            label_names=["O", "B-PER", "I-PER"],
        )

    def test_tag_length_validation(self):
        with pytest.raises(ValueError):
            SequenceTaggingDataset(
                tokens=np.array([[2, 3]]),
                lengths=np.array([2]),
                tags=[np.array([0])],
                vocab=Vocabulary(),
                label_names=["O", "B-PER"],
            )

    def test_padded_tags(self):
        ds = self._tiny()
        np.testing.assert_array_equal(ds.padded_tags(), [[0, 1, 0], [0, 1, 2]])

    def test_num_classes(self):
        assert self._tiny().num_classes == 3

    def test_subset(self):
        sub = self._tiny().subset(np.array([0]))
        assert len(sub) == 1
        np.testing.assert_array_equal(sub.tags[0], [0, 1])


class TestBatchIndices:
    def test_covers_everything_once(self):
        batches = list(batch_indices(10, 3, shuffle=False))
        joined = np.concatenate(batches)
        np.testing.assert_array_equal(np.sort(joined), np.arange(10))
        assert [len(b) for b in batches] == [3, 3, 3, 1]

    def test_drop_last(self):
        batches = list(batch_indices(10, 3, shuffle=False, drop_last=True))
        assert [len(b) for b in batches] == [3, 3, 3]

    def test_shuffle_requires_rng(self):
        with pytest.raises(ValueError):
            list(batch_indices(10, 3, shuffle=True))

    def test_shuffle_is_permutation(self):
        rng = np.random.default_rng(0)
        joined = np.concatenate(list(batch_indices(10, 4, rng=rng)))
        np.testing.assert_array_equal(np.sort(joined), np.arange(10))

    def test_empty_dataset_yields_no_batches(self):
        # The empty-dataset contract: zero instances is a no-op epoch
        # (callers see zero batches), not an opaque ValueError.
        assert list(batch_indices(0, 3, shuffle=False)) == []
        rng = np.random.default_rng(0)
        assert list(batch_indices(0, 3, rng=rng)) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            list(batch_indices(-1, 3, shuffle=False))
        with pytest.raises(ValueError):
            list(batch_indices(5, 0, shuffle=False))


class TestPrototypeEmbeddings:
    def test_prototype_unit_norm_and_cached(self):
        factory = PrototypeEmbeddings(16, 0.5, np.random.default_rng(0))
        p1 = factory.prototype("x")
        p2 = factory.prototype("x")
        assert p1 is p2
        np.testing.assert_allclose(np.linalg.norm(p1), 1.0, atol=0)

    def test_opposed_prototypes_anticorrelated(self):
        factory = PrototypeEmbeddings(32, 0.5, np.random.default_rng(0))
        factory.opposed_prototypes("pos", "neg", anticorrelation=0.6)
        cos = factory.prototype("pos") @ factory.prototype("neg")
        assert cos == pytest.approx(-0.6, abs=1e-9)

    def test_vector_mixture_of_roles(self):
        factory = PrototypeEmbeddings(64, 0.0, np.random.default_rng(0))
        a = factory.prototype("a")
        b = factory.prototype("b")
        mixed = factory.vector(["a", "b"])
        np.testing.assert_allclose(mixed, (a + b) / 2, atol=1e-12)

    def test_build_matrix_pad_row_zero(self):
        factory = PrototypeEmbeddings(8, 0.5, np.random.default_rng(0))
        matrix = factory.build_matrix(["a", "a", None])
        np.testing.assert_allclose(matrix[0], 0.0, atol=0)
        assert matrix.shape == (3, 8)

    def test_same_role_words_cluster(self):
        factory = PrototypeEmbeddings(64, 0.3, np.random.default_rng(0))
        factory.opposed_prototypes("pos", "neg", anticorrelation=0.9)
        pos_words = np.array([factory.vector("pos") for _ in range(20)])
        neg_words = np.array([factory.vector("neg") for _ in range(20)])
        within = pos_words.mean(axis=0) @ factory.prototype("pos")
        across = neg_words.mean(axis=0) @ factory.prototype("pos")
        assert within > across

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            PrototypeEmbeddings(1, 0.5, rng)
        with pytest.raises(ValueError):
            PrototypeEmbeddings(8, -1.0, rng)
        factory = PrototypeEmbeddings(8, 0.5, rng)
        with pytest.raises(ValueError):
            factory.vector([])
        with pytest.raises(ValueError):
            factory.opposed_prototypes("a", "b", anticorrelation=2.0)
