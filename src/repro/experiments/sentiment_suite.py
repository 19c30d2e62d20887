"""Sentiment experiment suite: data assembly and the Table II method zoo.

One place builds the (simulated) Sentiment Polarity (MTurk) benchmark and
runs every compared method with the paper's hyper-parameters, so Table II,
the Table IV ablations, Fig. 6 and the sample-efficiency experiment all
share identical plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines import (
    CrowdLayerClassifier,
    RaykarClassifier,
    TrainerConfig,
    TwoStageClassifier,
    train_gold_classifier,
)
from ..core import LogicLNCLClassifier, sentiment_paper_config
from ..crowd import sample_annotator_pool, simulate_classification_crowd
from ..data import SentimentCorpusConfig, SentimentTask, make_sentiment_task
from ..eval import accuracy, posterior_accuracy
from ..inference import build_method_table, get_method
from ..logic import ButRule
from ..models import TextCNN, TextCNNConfig

__all__ = [
    "SentimentBenchConfig",
    "build_sentiment_data",
    "run_sentiment_method",
    "sentiment_inference_table",
    "SENTIMENT_METHODS",
    "SENTIMENT_INFERENCE_METHODS",
    "PAPER_TABLE2",
]

# Paper Table II (accuracy %, averaged over 50 runs).
PAPER_TABLE2: dict[str, dict[str, float]] = {
    "MV-Classifier": {"prediction": 78.08, "inference": 88.58},
    "GLAD-Classifier": {"prediction": 78.45, "inference": 91.76},
    "Raykar": {"inference": 91.48},
    "AggNet": {"prediction": 78.47, "inference": 91.63},
    "CL (VW)": {"prediction": 78.22, "inference": 88.00},
    "CL (VW-B)": {"prediction": 78.04, "inference": 87.51},
    "CL (MW)": {"prediction": 78.28, "inference": 88.30},
    "Logic-LNCL-student": {"prediction": 78.85, "inference": 91.82},
    "Logic-LNCL-teacher": {"prediction": 79.22, "inference": 91.82},
    "MV": {"inference": 88.58},
    "DS": {"inference": 91.48},
    "GLAD": {"inference": 91.76},
    "PM": {"inference": 89.66},
    "CATD": {"inference": 91.49},
    "Gold": {"prediction": 79.26, "inference": 100.0},
}


@dataclass
class SentimentBenchConfig:
    """Scaled-down benchmark sizes (DESIGN.md §4 scaling policy).

    The paper uses 4,999 train sentences, 203 annotators, 30 epochs, 50
    seeds on a V100; defaults here run the whole Table II suite in minutes
    on CPU. Method-defining hyper-parameters (C, k(t), optimizer families,
    patience) stay at paper values via :func:`sentiment_paper_config`.
    """

    num_train: int = 1200
    num_dev: int = 300
    num_test: int = 300
    num_annotators: int = 60
    mean_labels_per_instance: float = 5.55
    epochs: int = 15
    feature_maps: int = 32
    embedding_dim: int = 32
    seeds: tuple[int, ...] = (0, 1, 2)
    corpus: SentimentCorpusConfig | None = field(default=None, repr=False)

    def corpus_config(self) -> SentimentCorpusConfig:
        if self.corpus is not None:
            return self.corpus
        return SentimentCorpusConfig(
            num_train=self.num_train,
            num_dev=self.num_dev,
            num_test=self.num_test,
            embedding_dim=self.embedding_dim,
        )


def build_sentiment_data(seed: int, config: SentimentBenchConfig) -> SentimentTask:
    """Corpus + simulated MTurk crowd for one seed."""
    rng = np.random.default_rng(seed)
    task = make_sentiment_task(rng, config.corpus_config())
    pool = sample_annotator_pool(rng, config.num_annotators, 2)
    task.train.crowd = simulate_classification_crowd(
        rng, task.train.labels, pool, config.mean_labels_per_instance
    )
    return task


def _cnn(task: SentimentTask, config: SentimentBenchConfig, seed: int) -> TextCNN:
    return TextCNN(
        task.embeddings,
        TextCNNConfig(feature_maps=config.feature_maps),
        np.random.default_rng(seed + 1000),
    )


def _trainer_config(config: SentimentBenchConfig) -> TrainerConfig:
    """The baselines' trainer: the paper config's optimizer, schedule and
    precision, so every Table II row trains at Logic-LNCL's dtype."""
    paper = sentiment_paper_config(epochs=config.epochs)
    return TrainerConfig(
        epochs=paper.epochs,
        batch_size=paper.batch_size,
        optimizer=paper.optimizer,
        learning_rate=paper.learning_rate,
        lr_decay_every=paper.lr_decay_every,
        lr_decay_factor=paper.lr_decay_factor,
        patience=paper.patience,
        dtype=paper.dtype,
    )


def _score_two_stage(method: TwoStageClassifier, task: SentimentTask) -> dict[str, float]:
    test = task.test
    return {
        "prediction": accuracy(test.labels, method.predict(test.tokens, test.lengths)),
        "inference": posterior_accuracy(task.train.labels, method.inference_posterior()),
    }


def run_sentiment_method(
    name: str, task: SentimentTask, config: SentimentBenchConfig, seed: int
) -> dict[str, float]:
    """Train and score one Table II method on one seeded dataset.

    Returns a metric dict with ``prediction`` (test accuracy) and/or
    ``inference`` (training-set truth-estimate accuracy), as in Table II.
    """
    rng = np.random.default_rng(seed + 2000)
    test, train, dev = task.test, task.train, task.dev
    lncl_config = sentiment_paper_config(epochs=config.epochs)

    if name == "MV-Classifier":
        method = TwoStageClassifier(_cnn(task, config, seed), get_method("MV"), _trainer_config(config), rng)
        method.fit(train, dev)
        return _score_two_stage(method, task)
    if name == "GLAD-Classifier":
        method = TwoStageClassifier(_cnn(task, config, seed), get_method("GLAD"), _trainer_config(config), rng)
        method.fit(train, dev)
        return _score_two_stage(method, task)
    if name == "Raykar":
        method = RaykarClassifier(task.embeddings, 2, lncl_config, rng)
        method.fit(train, dev)
        # Paper reports inference only for Raykar.
        return {"inference": posterior_accuracy(train.labels, method.inference_posterior())}
    if name == "AggNet":
        method = LogicLNCLClassifier(_cnn(task, config, seed), lncl_config, rng, rule=None)
        method.fit(train, dev)
        return {
            "prediction": accuracy(test.labels, method.predict_student(test.tokens, test.lengths)),
            "inference": posterior_accuracy(train.labels, method.inference_posterior()),
        }
    if name.startswith("CL ("):
        variant = name[4:-1]
        method = CrowdLayerClassifier(
            _cnn(task, config, seed), variant, _trainer_config(config), rng, pretrain_epochs=5
        )
        method.fit(train, dev)
        return {
            "prediction": accuracy(test.labels, method.predict(test.tokens, test.lengths)),
            "inference": posterior_accuracy(train.labels, method.inference_posterior()),
        }
    if name in ("Logic-LNCL-student", "Logic-LNCL-teacher"):
        method = LogicLNCLClassifier(
            _cnn(task, config, seed), lncl_config, rng, rule=ButRule(task.but_id)
        )
        method.fit(train, dev)
        predict = method.predict_teacher if name.endswith("teacher") else method.predict_student
        return {
            "prediction": accuracy(test.labels, predict(test.tokens, test.lengths)),
            "inference": posterior_accuracy(train.labels, method.inference_posterior()),
        }
    if name == "Gold":
        model = _cnn(task, config, seed)
        train_gold_classifier(model, _trainer_config(config), rng, train, dev)
        return {
            "prediction": accuracy(test.labels, model.predict(test.tokens, test.lengths)),
            "inference": 1.0,
        }
    raise KeyError(f"unknown sentiment method {name!r}")


def sentiment_inference_table() -> dict[str, object]:
    """The Table II truth-inference block, built from the registry."""
    return build_method_table(SENTIMENT_INFERENCE_METHODS, kind="classification")


def run_sentiment_inference_method(name: str, task: SentimentTask) -> dict[str, float]:
    """Score one pure truth-inference method (Table II lower block).

    Methods resolve through :mod:`repro.inference.registry`; any name in
    ``available_methods("classification")`` works here.
    """
    result = get_method(name, kind="classification").infer(task.train.crowd)
    return {"inference": posterior_accuracy(task.train.labels, result.posterior)}


SENTIMENT_METHODS = [
    "MV-Classifier",
    "GLAD-Classifier",
    "Raykar",
    "AggNet",
    "CL (VW)",
    "CL (VW-B)",
    "CL (MW)",
    "Logic-LNCL-student",
    "Logic-LNCL-teacher",
    "Gold",
]

SENTIMENT_INFERENCE_METHODS = ["MV", "DS", "GLAD", "PM", "CATD"]
