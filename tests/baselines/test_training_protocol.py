"""Every trainer runs the one training protocol of ``repro.baselines.common``.

The seven trainers — ``fit_classifier``, ``fit_tagger``, both Logic-LNCL
instantiations, both CrowdLayer variants and forward correction — share
one mini-batch loop (``run_epoch``) and one early-stopped epoch loop
(``fit_epochs``). So each must clip its gradients to ``grad_clip`` and
each must stop, and restore its best epoch, by the same rule.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.autodiff.optim import SGD
from repro.baselines import CrowdLayerClassifier, CrowdLayerSequenceTagger, TrainerConfig
from repro.baselines.common import fit_classifier, fit_tagger
from repro.core import LogicLNCLClassifier, LogicLNCLConfig, LogicLNCLSequenceTagger, constant
from repro.data import CONLL_LABELS
from repro.logic import ButRule, bio_transition_rules
from repro.models import NERTagger, NERTaggerConfig, TextCNN, TextCNNConfig
from repro.noisy_labels import as_single_source_crowd, forward_correction_baseline

TRAINERS = [
    "fit_classifier",
    "fit_tagger",
    "logic_lncl_classifier",
    "logic_lncl_tagger",
    "crowd_layer_classifier",
    "crowd_layer_tagger",
    "forward_correction",
]
TAGGERS = {"fit_tagger", "logic_lncl_tagger", "crowd_layer_tagger"}
LOGIC_LNCL = {"logic_lncl_classifier", "logic_lncl_tagger"}


def _setup(name, sentiment_task, ner_task, **overrides):
    """A fresh model of trainer ``name`` and its ``fit(dev) -> history``.

    Returns ``(model, trainer, fit)``; ``trainer`` is the Logic-LNCL or
    CrowdLayer object (None for the function trainers). CrowdLayer skips
    pre-training, so every optimizer step is a step of the joint phase.
    """
    settings = dict(
        epochs=3, batch_size=64, optimizer="adam", learning_rate=1e-2,
        lr_decay_every=None, patience=5,
    )
    settings.update(overrides)
    if name in LOGIC_LNCL:
        config = LogicLNCLConfig(**settings, C=5.0, imitation=constant(0.4))
    else:
        config = TrainerConfig(**settings)
    rng = np.random.default_rng(7)
    if name in TAGGERS:
        task = ner_task
        model = NERTagger(
            task.embeddings, NERTaggerConfig(conv_width=3, conv_features=8, gru_hidden=4),
            np.random.default_rng(0),
        )
    else:
        task = sentiment_task
        model = TextCNN(
            task.embeddings, TextCNNConfig(filter_windows=(2, 3), feature_maps=4),
            np.random.default_rng(0),
        )
    train = task.train
    trainer = None
    if name == "fit_classifier":
        def fit(dev):
            return fit_classifier(
                model, config, rng, train.tokens, train.lengths, train.labels, dev
            )
    elif name == "fit_tagger":
        def fit(dev):
            return fit_tagger(
                model, config, rng, train.tokens, train.lengths, train.padded_tags(), dev
            )
    elif name == "forward_correction":
        single = replace(train, crowd=as_single_source_crowd(train.labels, 2))
        transition = np.array([[0.8, 0.2], [0.2, 0.8]])

        def fit(dev):
            return forward_correction_baseline(model, config, rng, single, transition, dev=dev)
    else:
        if name == "logic_lncl_classifier":
            trainer = LogicLNCLClassifier(model, config, rng, rule=ButRule(task.but_id))
        elif name == "logic_lncl_tagger":
            trainer = LogicLNCLSequenceTagger(
                model, config, rng, rules=bio_transition_rules(CONLL_LABELS)
            )
        elif name == "crowd_layer_classifier":
            trainer = CrowdLayerClassifier(model, "MW", config, rng, pretrain_epochs=0)
        else:
            trainer = CrowdLayerSequenceTagger(model, "MW", config, rng, pretrain_epochs=0)

        def fit(dev):
            return trainer.fit(train, dev)
    return model, trainer, fit


class _SGDSteps:
    """Counts ``SGD.step`` calls and keeps the parameters before the first.

    The snapshot is taken after any output-bias initialization, so it is
    the point the optimizer started from.
    """

    def __init__(self, monkeypatch) -> None:
        self.steps = 0
        self.parameters: list = []
        self.start: list[np.ndarray] = []
        step = SGD.step

        def counted(optimizer):
            if not self.steps:
                self.parameters = optimizer.parameters
                self.start = [parameter.data.copy() for parameter in optimizer.parameters]
            self.steps += 1
            step(optimizer)

        monkeypatch.setattr(SGD, "step", counted)

    def distance(self) -> float:
        """Global L2 distance of the parameters from the starting point."""
        return float(np.sqrt(sum(
            ((parameter.data - start) ** 2).sum()
            for parameter, start in zip(self.parameters, self.start, strict=True)
        )))


@pytest.mark.parametrize("name", TRAINERS)
def test_every_trainer_clips_gradients(name, sentiment_task, ner_task, monkeypatch):
    # With plain SGD at lr 1, each step moves the parameters by the
    # clipped gradient, whose global norm is at most grad_clip.
    grad_clip = 1e-4
    recorder = _SGDSteps(monkeypatch)
    _, trainer, fit = _setup(
        name, sentiment_task, ner_task,
        epochs=1, optimizer="sgd", learning_rate=1.0, grad_clip=grad_clip,
    )
    fit(None)
    assert recorder.steps >= 2
    if trainer is not None and hasattr(trainer, "layer"):
        layer_parameters = {id(parameter) for parameter in trainer.layer.parameters()}
        assert layer_parameters <= {id(parameter) for parameter in recorder.parameters}
    assert recorder.distance() <= recorder.steps * 1.0 * grad_clip * (1 + 1e-9)


def _scripted_predict(model, dev, snapshots):
    """``model.predict`` scoring perfectly at epoch 1 and at zero after it.

    Dev scoring is the only caller of ``predict`` in the trainers; each
    call also snapshots the weights it scores.
    """

    def predict(tokens, lengths):
        snapshots.append(model.state_dict())
        if len(snapshots) == 1:
            return dev.tags if hasattr(dev, "tags") else dev.labels
        if hasattr(dev, "tags"):
            return [np.zeros(int(n), dtype=np.int64) for n in lengths]   # all "O"
        return 1 - dev.labels

    return predict


def _assert_same_arrays(ours, theirs):
    if isinstance(ours, list):
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            np.testing.assert_array_equal(a, b)
    else:
        np.testing.assert_array_equal(ours, theirs)


@pytest.mark.parametrize("name", TRAINERS)
def test_every_trainer_restores_its_best_epoch(name, sentiment_task, ner_task, monkeypatch):
    dev = ner_task.dev if name in TAGGERS else sentiment_task.dev
    model, trainer, fit = _setup(name, sentiment_task, ner_task, epochs=6, patience=1)
    snapshots: list[dict] = []
    monkeypatch.setattr(model, "predict", _scripted_predict(model, dev, snapshots))
    history = fit(dev)

    # Improves at epoch 1, falls at epoch 2: patience 1 stops there.
    assert len(history["loss"]) == 2
    assert history["dev_score"] == [1.0, 0.0]
    assert history["best_dev_score"] == 1.0
    assert len(snapshots) == 2

    # The same trainer stopped by its epoch budget after one epoch.
    reference_model, reference, reference_fit = _setup(
        name, sentiment_task, ner_task, epochs=1
    )
    reference_fit(None)
    epoch_one = reference_model.state_dict()
    assert any(
        not np.array_equal(value, snapshots[1][key]) for key, value in epoch_one.items()
    ), "epoch 2 did not move the weights, so nothing needed restoring"
    for key, value in epoch_one.items():
        np.testing.assert_array_equal(snapshots[0][key], value)
        np.testing.assert_array_equal(model.state_dict()[key], value)
    if name in LOGIC_LNCL:
        for attribute in ("confusions_", "qa_", "qb_", "qf_"):
            _assert_same_arrays(getattr(trainer, attribute), getattr(reference, attribute))
