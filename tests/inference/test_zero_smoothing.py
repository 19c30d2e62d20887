"""Zero smoothing across the Dawid–Skene family.

``smoothing=0.0`` is a legal value for DS, token-level DS, HMM-Crowd and
streaming DS. An annotator who never labels then has no confusion
counts at all, and a 0/0 row division would report NaN. The shared
``normalize_rows`` makes such a row uniform. These tests pin that the
confusions stay finite and row-stochastic, that the silent annotator's
rows are exactly uniform, and that everything the seed oracles compute
as finite still matches them at 1e-10. The streaming crowd is two
batches whose silent annotators differ, run directly and through
:class:`~repro.serving.CrowdService`, with a checkpoint and a restart
between them.

Zero smoothing can also learn an exact zero that a later batch
contradicts: after a first batch on which annotators 0 and 1 always
agree, a batch holding an instance labelled (0, 1) is impossible under
every class. Streaming DS refuses to commit that update
(:class:`~repro.inference.StreamUpdateRejected`) and the stream, or the
service's dataset, stays exactly as it was.
"""

import itertools

import numpy as np
import pytest

from repro.crowd.types import MISSING, CrowdLabelMatrix, SequenceCrowdLabels
from repro.inference import DawidSkene, HMMCrowd, StreamUpdateRejected, TokenLevelInference
from repro.inference.streaming import StreamingDawidSkene
from repro.serving import CrowdService

from ..oracles import seed_dawid_skene, seed_hmm_crowd
from .equivalence_harness import assert_same_state, copy_state

# The log of an exact zero is an intended -inf, not a numerical accident:
# no method here may warn about it.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

K = 3
J = 4
SILENT = 3
LABELLED = [0, 1, 2]
SENTENCE_BREAKS = [7, 15, 20]
ATOL = 1e-10


def _labels(seed: int, silent: int = SILENT, instances: int = 30) -> np.ndarray:
    """``(instances, J)`` labels with K classes where ``silent`` labels nothing.

    The other three annotators label every row: noisy copies of a random
    truth, then one row per permutation of the classes. On those rows the
    majority vote is uniform, so every labelled annotator's first
    confusion counts are positive and the seed oracles' logs stay finite.
    """
    rng = np.random.default_rng(seed)
    permutations = np.array(list(itertools.permutations(range(K))))
    noisy_rows = instances - len(permutations)
    truth = rng.integers(0, K, noisy_rows)
    noisy = np.where(
        rng.random((noisy_rows, K)) < 0.75, truth[:, None], rng.integers(0, K, (noisy_rows, K))
    )
    labels = np.full((instances, J), MISSING, dtype=np.int64)
    labels[:, [j for j in range(J) if j != silent]] = np.vstack([noisy, permutations])
    return labels


def _sentences(seed: int) -> list[np.ndarray]:
    return list(np.split(_labels(seed), SENTENCE_BREAKS))


def _assert_row_stochastic(confusions: np.ndarray) -> None:
    assert np.isfinite(confusions).all()
    np.testing.assert_allclose(confusions.sum(axis=-1), 1.0, atol=1e-12, rtol=0)
    np.testing.assert_array_equal(confusions[SILENT], np.full((K, K), 1.0 / K))


def _assert_matches_where_finite(actual: np.ndarray, reference: np.ndarray, what: str) -> None:
    finite = np.isfinite(reference)
    np.testing.assert_allclose(actual[finite], reference[finite], atol=ATOL, rtol=0, err_msg=what)


SEEDS = range(6)


@pytest.mark.parametrize("seed", SEEDS)
def test_dawid_skene(seed):
    labels = _labels(seed)
    result = DawidSkene(smoothing=0.0).infer(CrowdLabelMatrix(labels, K))
    _assert_row_stochastic(result.confusions)
    assert np.isfinite(result.posterior).all()
    # On the full crowd the seed's dense einsum multiplies the silent
    # annotator's 0/0 row by 0, so every seed output is NaN. A silent
    # annotator adds nothing to either EM step, so the seed on the
    # labelled columns is the same model.
    with np.errstate(divide="ignore", invalid="ignore"):
        posterior, confusions, iterations = seed_dawid_skene(
            labels[:, LABELLED], K, smoothing=0.0
        )
    _assert_matches_where_finite(result.posterior, posterior, "posterior")
    _assert_matches_where_finite(result.confusions[LABELLED], confusions, "confusions")
    if np.isfinite(posterior).all():
        assert result.extras["iterations"] == iterations


@pytest.mark.parametrize("seed", SEEDS)
def test_token_level_dawid_skene(seed):
    sentences = _sentences(seed)
    result = TokenLevelInference(DawidSkene(smoothing=0.0)).infer(
        SequenceCrowdLabels(sentences, K, J)
    )
    _assert_row_stochastic(result.confusions)
    stacked = np.concatenate(result.posteriors)
    assert np.isfinite(stacked).all()
    with np.errstate(divide="ignore", invalid="ignore"):
        posterior, confusions, _ = seed_dawid_skene(
            np.concatenate(sentences)[:, LABELLED], K, smoothing=0.0
        )
    _assert_matches_where_finite(stacked, posterior, "posterior")
    _assert_matches_where_finite(result.confusions[LABELLED], confusions, "confusions")


@pytest.mark.parametrize("seed", SEEDS)
def test_hmm_crowd(seed):
    sentences = _sentences(seed)
    result = HMMCrowd(smoothing=0.0).infer(SequenceCrowdLabels(sentences, K, J))
    _assert_row_stochastic(result.confusions)
    for name in ("transition", "initial"):
        assert np.isfinite(result.extras[name]).all()
        np.testing.assert_allclose(result.extras[name].sum(axis=-1), 1.0, atol=1e-12, rtol=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = seed_hmm_crowd(sentences, J, K, smoothing=0.0)
    # The seed leaves the silent annotator's rows at 0/0 (NaN) and never
    # reads them; everything else it reports is finite.
    assert np.isnan(expected.confusions[SILENT]).all()
    assert np.isfinite(expected.confusions[LABELLED]).all()
    _assert_matches_where_finite(
        np.concatenate(result.posteriors), np.concatenate(expected.posteriors), "posteriors"
    )
    _assert_matches_where_finite(result.confusions, expected.confusions, "confusions")
    for name in ("transition", "initial"):
        _assert_matches_where_finite(result.extras[name], expected.extras[name], name)
    assert result.extras["iterations"] == expected.extras["iterations"]


def _batches() -> list[CrowdLabelMatrix]:
    """Annotator 3 is silent in the first batch, annotator 2 in the second."""
    return [CrowdLabelMatrix(_labels(0, silent=3), K), CrowdLabelMatrix(_labels(1, silent=2), K)]


def _assert_valid_result(result) -> None:
    assert np.isfinite(result.posterior).all()
    np.testing.assert_allclose(result.posterior.sum(axis=1), 1.0, atol=1e-12, rtol=0)
    assert np.isfinite(result.confusions).all()
    np.testing.assert_allclose(result.confusions.sum(axis=-1), 1.0, atol=1e-12, rtol=0)


class TestStreamingDawidSkene:
    def test_first_batch_leaves_finite_confusions(self):
        stream = StreamingDawidSkene(smoothing=0.0)
        stream.partial_fit(_batches()[0])
        _assert_row_stochastic(stream.get_state()["confusions"])

    def test_result_after_second_batch(self):
        stream = StreamingDawidSkene(smoothing=0.0)
        for batch in _batches():
            stream.partial_fit(batch)
        _assert_valid_result(stream.result())
        _assert_valid_result(stream.result(refresh=True))
        _assert_valid_result(stream.fit_to_convergence())

    def test_crowd_service_answers_and_recovers(self, tmp_path):
        batches = _batches()
        with CrowdService(tmp_path / "uninterrupted", method="DS", smoothing=0.0) as reference:
            for batch in batches:
                reference.partial_fit("stream", batch)
            expected = reference.query("stream")
        _assert_valid_result(expected)

        service = CrowdService(tmp_path / "crashed", method="DS", smoothing=0.0)
        service.partial_fit("stream", batches[0])
        assert service.checkpoint() == {"stream": 1}
        del service  # crash after the checkpoint

        with CrowdService(tmp_path / "crashed", method="DS", smoothing=0.0) as revived:
            for batch in batches[revived.cursor("stream"):]:
                revived.partial_fit("stream", batch)
            got = revived.query("stream")
        np.testing.assert_array_equal(got.posterior, expected.posterior)
        np.testing.assert_array_equal(got.confusions, expected.confusions)


def _agreeing_batch() -> CrowdLabelMatrix:
    """20 two-class instances on which annotators 0 and 1 always agree."""
    truth = np.arange(20) % 2
    return CrowdLabelMatrix(np.stack([truth, truth], axis=1), 2)


CONTRADICTING = np.array([[0, 1], [0, 0]])
LATER = np.array([[1, 1], [0, 0], [1, 1]])


class TestContradictedZero:
    def test_update_is_rejected_and_nothing_commits(self):
        stream = StreamingDawidSkene(smoothing=0.0)
        stream.partial_fit(_agreeing_batch())
        np.testing.assert_array_equal(stream.get_state()["confusions"], np.stack([np.eye(2)] * 2))
        before = copy_state(stream.get_state())
        labels = stream.crowd.labels.copy()

        with pytest.raises(StreamUpdateRejected, match="DS update 2"):
            stream.partial_fit(CrowdLabelMatrix(CONTRADICTING, 2))

        assert_same_state(stream.get_state(), before)
        np.testing.assert_array_equal(stream.crowd.labels, labels)
        assert (stream.crowd.num_instances, stream.updates) == (20, 1)
        _assert_valid_result(stream.result())

    def test_later_batch_continues_as_if_never_rejected(self):
        rejected = StreamingDawidSkene(smoothing=0.0)
        never = StreamingDawidSkene(smoothing=0.0)
        for stream in (rejected, never):
            stream.partial_fit(_agreeing_batch())
        with pytest.raises(StreamUpdateRejected):
            rejected.partial_fit(CrowdLabelMatrix(CONTRADICTING, 2))
        for stream in (rejected, never):
            stream.partial_fit(CrowdLabelMatrix(LATER, 2))
        assert_same_state(rejected.get_state(), never.get_state())
        np.testing.assert_array_equal(rejected.crowd.labels, never.crowd.labels)
        np.testing.assert_array_equal(rejected.result().posterior, never.result().posterior)

    def test_crowd_service_keeps_the_last_commit(self, tmp_path):
        root = tmp_path / "service"
        service = CrowdService(root, method="DS", smoothing=0.0)
        service.partial_fit("agreeing", _agreeing_batch())
        assert service.checkpoint() == {"agreeing": 1}
        expected = service.query("agreeing")

        with pytest.raises(StreamUpdateRejected, match="'agreeing'"):
            service.partial_fit("agreeing", CrowdLabelMatrix(CONTRADICTING, 2))
        assert service.cursor("agreeing") == 1
        got = service.query("agreeing")
        np.testing.assert_array_equal(got.posterior, expected.posterior)
        np.testing.assert_array_equal(got.confusions, expected.confusions)
        del service  # crash: the checkpoint is the last commit

        with CrowdService(root, method="DS", smoothing=0.0) as revived:
            assert revived.cursor("agreeing") == 1
            revived.partial_fit("agreeing", CrowdLabelMatrix(LATER, 2))
            got = revived.query("agreeing")
        reference = StreamingDawidSkene(smoothing=0.0)
        reference.partial_fit(_agreeing_batch())
        reference.partial_fit(CrowdLabelMatrix(LATER, 2))
        np.testing.assert_array_equal(got.posterior, reference.result().posterior)
        np.testing.assert_array_equal(got.confusions, reference.result().confusions)
