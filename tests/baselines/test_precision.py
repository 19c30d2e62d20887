"""``TrainerConfig.dtype`` is the one precision setting of every trainer.

Models are built without a dtype. ``build_optimizer`` casts every tensor
they hold, the frozen embedding included, to the trainer's dtype before it
allocates optimizer state, and each training loop runs under that ambient
dtype. So a float32 trainer config alone must give a float32 run: weights,
optimizer buffers, ``conv1d_seq`` outputs, logits, CrowdLayer scores and
the losses that are back-propagated. At the float64 default the cast must
copy nothing.

The paper's Table I configs set that dtype to the fast path, so a
Logic-LNCL fit under them trains in float32 too, while its pseudo-E-step
stays float64: the Eq. 12–15 functions cast whatever probabilities the
network returns, so ``qa``/``qb``/``qf`` are float64 distributions.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.autodiff import functional as F
from repro.autodiff.dtypes import default_dtype, get_default_dtype
from repro.baselines import CrowdLayerClassifier, CrowdLayerSequenceTagger, TrainerConfig
from repro.baselines.common import build_optimizer, fit_classifier, fit_tagger
from repro.baselines.crowd_layer import _CrowdLayer
from repro.core import (
    LogicLNCLClassifier,
    LogicLNCLSequenceTagger,
    ner_paper_config,
    posterior_qa,
    sentiment_paper_config,
    sequence_posterior_qa,
)
from repro.crowd import CrowdLabelMatrix, SequenceCrowdLabels
from repro.data import CONLL_LABELS
from repro.logic import ButRule, bio_transition_rules, chain_marginals, distill_posterior
from repro.models import MLPClassifier, NERTagger, NERTaggerConfig, TextCNN, TextCNNConfig
from repro.noisy_labels import as_single_source_crowd, forward_correction_baseline

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)


def _float32_config(**overrides) -> TrainerConfig:
    defaults = dict(
        epochs=1, batch_size=32, optimizer="adam", learning_rate=1e-2,
        lr_decay_every=None, dtype="float32",
    )
    defaults.update(overrides)
    return TrainerConfig(**defaults)


def _tensors(model) -> list[Tensor]:
    """Every tensor a test model holds: its parameters and the frozen embedding."""
    return [model.embedding.weight, *model.parameters()]


def _build(name: str, embeddings: np.ndarray):
    rng = np.random.default_rng(5)
    if name == "text_cnn":
        return TextCNN(embeddings, TextCNNConfig(filter_windows=(2, 3), feature_maps=2), rng)
    if name == "tagger":
        return NERTagger(embeddings, NERTaggerConfig(conv_features=3, gru_hidden=2), rng)
    return MLPClassifier(embeddings, 3, 4, rng)


MODELS = ["text_cnn", "tagger", "mlp"]


class _Recorder:
    """Records ``(what, ambient dtype, dtype)`` for every watched call."""

    def __init__(self, monkeypatch) -> None:
        self.records: list[tuple[str, np.dtype, np.dtype]] = []
        self._monkeypatch = monkeypatch

    def watch(self, owner, name: str, what: str) -> None:
        """Record the dtype of everything ``owner.name(...)`` returns."""
        call = getattr(owner, name)

        def recorded(*args, **kwargs):
            out = call(*args, **kwargs)
            self.records.append((what, get_default_dtype(), out.dtype))
            return out

        self._monkeypatch.setattr(owner, name, recorded)

    def watch_losses(self) -> None:
        """Record the dtype of every tensor ``backward()`` is called on."""
        backward = Tensor.backward

        def recorded(loss, *args, **kwargs):
            self.records.append(("loss", get_default_dtype(), loss.dtype))
            return backward(loss, *args, **kwargs)

        self._monkeypatch.setattr(Tensor, "backward", recorded)

    def kinds(self) -> set[str]:
        return {what for what, _, _ in self.records}

    def assert_all_float32(self) -> None:
        assert self.records, "nothing was recorded"
        for what, ambient, dtype in self.records:
            assert ambient == F32, f"{what} ran under an ambient {ambient}"
            assert dtype == F32, f"{what} came out {dtype}"


@pytest.fixture
def seen(monkeypatch):
    """A recorder already watching ``conv1d_seq`` outputs and losses."""
    recorder = _Recorder(monkeypatch)
    recorder.watch(F, "conv1d_seq", "conv1d_seq")
    recorder.watch_losses()
    return recorder


@pytest.fixture
def optimizers(monkeypatch):
    """Every optimizer the training loops build, in build order."""
    built = []

    def recording_build(modules, config):
        optimizer, schedule = build_optimizer(modules, config)
        built.append(optimizer)
        return optimizer, schedule

    monkeypatch.setattr("repro.baselines.common.build_optimizer", recording_build)
    return built


def _optimizer_buffers(optimizer) -> list[np.ndarray]:
    return [
        buffer
        for value in vars(optimizer).values()
        if isinstance(value, list)
        for buffer in value
        if isinstance(buffer, np.ndarray)
    ]


def _assert_trained_in_float32(model, optimizer) -> None:
    """Every tensor ``model`` holds and every optimizer buffer is float32."""
    for tensor in _tensors(model):
        assert tensor.dtype == F32
    buffers = _optimizer_buffers(optimizer)
    assert len(buffers) == 2 * len(model.parameters())
    for buffer in buffers:
        assert buffer.dtype == F32


def test_trainer_dtype_alone_trains_text_cnn_and_tagger_in_float32(seen, optimizers):
    rng = np.random.default_rng(0)
    embeddings = rng.normal(size=(30, 6))
    tokens = rng.integers(0, 30, size=(8, 7))
    lengths = rng.integers(3, 8, size=8)
    config = _float32_config(epochs=2, batch_size=4)

    text_cnn = TextCNN(
        embeddings, TextCNNConfig(filter_windows=(2, 3), feature_maps=3), np.random.default_rng(1)
    )
    fit_classifier(text_cnn, config, np.random.default_rng(2), tokens, lengths,
                   rng.integers(0, 2, size=8))
    tagger = NERTagger(
        embeddings, NERTaggerConfig(conv_features=4, gru_hidden=3), np.random.default_rng(3)
    )
    fit_tagger(tagger, config, np.random.default_rng(4), tokens, lengths,
               rng.integers(0, 9, size=(8, 7)))

    assert seen.kinds() == {"conv1d_seq", "loss"}
    seen.assert_all_float32()
    assert len(optimizers) == 2
    for model, optimizer in zip((text_cnn, tagger), optimizers):
        _assert_trained_in_float32(model, optimizer)
        assert model.logits(tokens, lengths).dtype == F32


@pytest.mark.parametrize("name", MODELS)
def test_float64_cast_copies_nothing(name):
    model = _build(name, np.random.default_rng(0).normal(size=(20, 5)))
    before = [(tensor, tensor.data) for tensor in _tensors(model)]
    build_optimizer([model], TrainerConfig())
    for tensor, data in before:
        assert tensor.data is data


@pytest.mark.parametrize("name", MODELS)
def test_cast_model_holds_the_weights_of_a_float32_build(name):
    # Initializers draw in float64 and cast, so casting a float64 build
    # gives, bit for bit, the model built from float32 draws.
    embeddings = np.random.default_rng(0).normal(size=(20, 5))
    cast = _build(name, embeddings).cast("float32")
    with default_dtype("float32"):
        native = _build(name, embeddings.astype(np.float32))
    for ours, theirs in zip(_tensors(cast), _tensors(native), strict=True):
        assert ours.dtype == theirs.dtype == F32
        np.testing.assert_array_equal(ours.data, theirs.data)


def test_crowd_layer_classifier_follows_trainer_dtype(sentiment_task, seen):
    model = TextCNN(
        sentiment_task.embeddings, TextCNNConfig(filter_windows=(2, 3), feature_maps=4),
        np.random.default_rng(0),
    )
    seen.watch(model, "logits", "logits")
    seen.watch(_CrowdLayer, "annotator_scores", "scores")
    method = CrowdLayerClassifier(
        model, "MW", _float32_config(optimizer="adadelta", learning_rate=1.0),
        np.random.default_rng(1), pretrain_epochs=1,
    )
    method.fit(sentiment_task.train)
    assert seen.kinds() == {"conv1d_seq", "logits", "scores", "loss"}
    seen.assert_all_float32()
    assert method.layer.matrix.dtype == F32
    assert method.inference_posterior().dtype == F32


def test_crowd_layer_tagger_follows_trainer_dtype(ner_task, seen):
    model = NERTagger(
        ner_task.embeddings, NERTaggerConfig(conv_width=3, conv_features=8, gru_hidden=4),
        np.random.default_rng(0),
    )
    seen.watch(model, "logits", "logits")
    seen.watch(_CrowdLayer, "annotator_scores", "scores")
    method = CrowdLayerSequenceTagger(
        model, "MW", _float32_config(), np.random.default_rng(1), pretrain_epochs=1
    )
    method.fit(ner_task.train)
    assert seen.kinds() == {"conv1d_seq", "logits", "scores", "loss"}
    seen.assert_all_float32()
    assert method.layer.matrix.dtype == F32


def test_forward_correction_follows_trainer_dtype(sentiment_task, seen):
    train = replace(
        sentiment_task.train, crowd=as_single_source_crowd(sentiment_task.train.labels, 2)
    )
    model = TextCNN(
        sentiment_task.embeddings, TextCNNConfig(filter_windows=(2,), feature_maps=4),
        np.random.default_rng(0),
    )
    seen.watch(model, "logits", "logits")
    transition = np.array([[0.8, 0.2], [0.2, 0.8]])
    forward_correction_baseline(
        model, _float32_config(), np.random.default_rng(1), train, transition,
        dev=sentiment_task.dev,
    )
    assert seen.kinds() == {"conv1d_seq", "logits", "loss"}
    seen.assert_all_float32()


def _assert_float64_distributions(rows: np.ndarray) -> None:
    assert rows.dtype == F64
    assert np.isfinite(rows).all()
    np.testing.assert_allclose(rows.sum(axis=-1), 1.0, rtol=0, atol=1e-9)


def test_sentiment_paper_config_trains_logic_lncl_in_float32(sentiment_task, seen, optimizers):
    model = TextCNN(
        sentiment_task.embeddings, TextCNNConfig(filter_windows=(2, 3), feature_maps=4),
        np.random.default_rng(0),
    )
    trainer = LogicLNCLClassifier(
        model, sentiment_paper_config(epochs=2), np.random.default_rng(1),
        rule=ButRule(sentiment_task.but_id),
    )
    trainer.fit(sentiment_task.train, dev=sentiment_task.dev)
    assert seen.kinds() == {"conv1d_seq", "loss"}
    seen.assert_all_float32()
    assert len(optimizers) == 1
    _assert_trained_in_float32(model, optimizers[0])
    assert trainer.confusions_.dtype == F64
    for posterior in (trainer.qa_, trainer.qb_, trainer.qf_):
        _assert_float64_distributions(posterior)


def test_ner_paper_config_trains_logic_lncl_in_float32(ner_task, seen, optimizers):
    model = NERTagger(
        ner_task.embeddings, NERTaggerConfig(conv_features=8, gru_hidden=4),
        np.random.default_rng(0),
    )
    trainer = LogicLNCLSequenceTagger(
        model, ner_paper_config(epochs=2), np.random.default_rng(1),
        rules=bio_transition_rules(CONLL_LABELS),
    )
    trainer.fit(ner_task.train, dev=ner_task.dev)
    assert seen.kinds() == {"conv1d_seq", "loss"}
    seen.assert_all_float32()
    assert len(optimizers) == 1
    _assert_trained_in_float32(model, optimizers[0])
    assert trainer.confusions_.dtype == F64
    for posterior in (trainer.qa_, trainer.qb_, trainer.qf_):
        assert len(posterior) == len(ner_task.train)
        _assert_float64_distributions(np.concatenate(posterior, axis=0))


def test_pseudo_e_step_computes_in_float64_from_float32_probabilities():
    rng = np.random.default_rng(0)
    K, lengths = 3, np.array([3, 1, 2])
    confusions = rng.dirichlet(np.ones(K), size=(2, K))
    crowd = CrowdLabelMatrix(rng.integers(-1, K, size=(5, 2)), K)
    sequence_crowd = SequenceCrowdLabels(
        [rng.integers(0, K, size=(int(t), 2)) for t in lengths], K, 2
    )

    def proba(*shape) -> np.ndarray:
        return rng.dirichlet(np.ones(K), size=shape).astype(np.float32)

    qa = posterior_qa(proba(5), crowd, confusions)
    qb = distill_posterior(proba(5), rng.random((5, K)).astype(np.float32), C=5.0)
    sequence_qa = sequence_posterior_qa([proba(int(t)) for t in lengths], sequence_crowd, confusions)
    marginals = chain_marginals(
        proba(3, 3), lengths, rng.random((K, K)).astype(np.float32),
        rng.random(K).astype(np.float32) + 0.1,
    )
    for posterior in (qa, qb, *sequence_qa):
        _assert_float64_distributions(posterior)
    _assert_float64_distributions(marginals[np.arange(3)[None, :] < lengths[:, None]])
