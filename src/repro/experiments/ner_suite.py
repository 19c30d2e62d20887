"""NER experiment suite: data assembly and the Table III method zoo."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines import (
    CrowdLayerSequenceTagger,
    TrainerConfig,
    TwoStageSequenceTagger,
    train_gold_tagger,
)
from ..core import LogicLNCLSequenceTagger, ner_paper_config
from ..crowd import sample_ner_pool, simulate_ner_crowd
from ..data import CONLL_LABELS, NERCorpusConfig, NERTask, make_ner_task
from ..eval import span_f1_score
from ..inference import build_method_table, get_method
from ..logic import bio_transition_rules
from ..models import NERTagger, NERTaggerConfig

__all__ = [
    "NERBenchConfig",
    "build_ner_data",
    "run_ner_method",
    "run_ner_inference_method",
    "ner_inference_table",
    "NER_METHODS",
    "NER_INFERENCE_METHODS",
    "NER_INFERENCE_OVERRIDES",
    "PAPER_TABLE3",
]

# Paper Table III (%, averaged over 30 runs). P/R/F1 for prediction and
# inference. Entries marked in the paper as reported-from-other-work are
# included for reference display only.
PAPER_TABLE3: dict[str, dict[str, float]] = {
    "MV-Classifier": {"precision": 65.14, "recall": 45.98, "f1": 53.89,
                      "inf_precision": 79.12, "inf_recall": 58.50, "inf_f1": 67.27},
    "AggNet": {"precision": 61.67, "recall": 58.64, "f1": 60.09,
               "inf_precision": 77.19, "inf_recall": 73.02, "inf_f1": 75.04},
    "CL (VW, 5)": {"precision": 69.37, "recall": 52.11, "f1": 59.32,
                   "inf_precision": 79.19, "inf_recall": 71.72, "inf_f1": 75.25},
    "CL (VW-B, 5)": {"precision": 58.23, "recall": 59.92, "f1": 58.97,
                     "inf_precision": 75.27, "inf_recall": 73.41, "inf_f1": 74.30},
    "CL (MW, 5)": {"precision": 62.98, "recall": 61.57, "f1": 62.19,
                   "inf_precision": 78.37, "inf_recall": 75.14, "inf_f1": 76.70},
    "CL (MW, 1)": {"precision": 53.75, "recall": 44.70, "f1": 48.19,
                   "inf_precision": 61.93, "inf_recall": 50.21, "inf_f1": 54.42},
    "Logic-LNCL-student": {"precision": 66.53, "recall": 59.29, "f1": 62.69,
                           "inf_precision": 84.90, "inf_recall": 74.11, "inf_f1": 79.14},
    "Logic-LNCL-teacher": {"precision": 70.10, "recall": 58.99, "f1": 64.06,
                           "inf_precision": 84.90, "inf_recall": 74.11, "inf_f1": 79.14},
    "MV": {"inf_precision": 79.12, "inf_recall": 58.50, "inf_f1": 67.27},
    "DS": {"inf_precision": 79.0, "inf_recall": 70.4, "inf_f1": 74.4},
    "IBCC": {"inf_precision": 79.0, "inf_recall": 70.4, "inf_f1": 74.4},
    "BSC-seq": {"inf_precision": 80.3, "inf_recall": 74.8, "inf_f1": 77.4},
    "HMM-Crowd": {"inf_precision": 77.40, "inf_recall": 72.29, "inf_f1": 74.76},
    "Gold": {"precision": 72.52, "recall": 73.51, "f1": 72.98,
             "inf_precision": 100.0, "inf_recall": 100.0, "inf_f1": 100.0},
}


@dataclass
class NERBenchConfig:
    """Scaled-down NER benchmark (paper: 5,985 sentences, 47 annotators)."""

    num_train: int = 500
    num_dev: int = 150
    num_test: int = 150
    num_annotators: int = 25
    mean_labels_per_instance: float = 4.0
    epochs: int = 12
    conv_features: int = 64
    gru_hidden: int = 32
    embedding_dim: int = 32
    learning_rate: float = 1e-2
    seeds: tuple[int, ...] = (0, 1)
    corpus: NERCorpusConfig | None = field(default=None, repr=False)

    def corpus_config(self) -> NERCorpusConfig:
        if self.corpus is not None:
            return self.corpus
        return NERCorpusConfig(
            num_train=self.num_train,
            num_dev=self.num_dev,
            num_test=self.num_test,
            embedding_dim=self.embedding_dim,
        )


def build_ner_data(seed: int, config: NERBenchConfig) -> NERTask:
    """Corpus + simulated MTurk crowd for one seed."""
    rng = np.random.default_rng(seed)
    task = make_ner_task(rng, config.corpus_config())
    pool = sample_ner_pool(rng, config.num_annotators)
    task.train.crowd = simulate_ner_crowd(
        rng, task.train.tags, pool, config.mean_labels_per_instance
    )
    return task


def _tagger(task: NERTask, config: NERBenchConfig, seed: int) -> NERTagger:
    return NERTagger(
        task.embeddings,
        NERTaggerConfig(conv_features=config.conv_features, gru_hidden=config.gru_hidden),
        np.random.default_rng(seed + 1000),
    )


def _trainer_config(config: NERBenchConfig) -> TrainerConfig:
    """The baselines' trainer: Logic-LNCL's optimizer, schedule and
    precision, so every Table III row trains at the paper config's dtype."""
    paper = _lncl_config(config)
    return TrainerConfig(
        epochs=paper.epochs,
        batch_size=paper.batch_size,
        optimizer=paper.optimizer,
        learning_rate=paper.learning_rate,
        lr_decay_every=paper.lr_decay_every,
        patience=paper.patience,
        dtype=paper.dtype,
    )


def _lncl_config(config: NERBenchConfig):
    lncl = ner_paper_config(epochs=config.epochs)
    lncl.learning_rate = config.learning_rate  # scaled task trains faster at 1e-2
    return lncl


def _prf(truth, predictions, prefix="") -> dict[str, float]:
    score = span_f1_score(truth, predictions)
    return {
        f"{prefix}precision": score.precision,
        f"{prefix}recall": score.recall,
        f"{prefix}f1": score.f1,
    }


def run_ner_method(
    name: str, task: NERTask, config: NERBenchConfig, seed: int
) -> dict[str, float]:
    """Train and score one Table III method on one seeded dataset."""
    rng = np.random.default_rng(seed + 2000)
    train, dev, test = task.train, task.dev, task.test
    rules = bio_transition_rules(CONLL_LABELS)

    if name == "MV-Classifier":
        method = TwoStageSequenceTagger(
            _tagger(task, config, seed), get_method("MV", kind="sequence"),
            _trainer_config(config), rng,
        )
        method.fit(train, dev)
        out = _prf(test.tags, method.predict(test.tokens, test.lengths))
        out.update(
            _prf(train.tags, [p.argmax(axis=1) for p in method.inference_posteriors()], "inf_")
        )
        return out
    if name == "AggNet":
        method = LogicLNCLSequenceTagger(_tagger(task, config, seed), _lncl_config(config), rng, rules=None)
        method.fit(train, dev)
        out = _prf(test.tags, method.predict_student(test.tokens, test.lengths))
        out.update(_prf(train.tags, [q.argmax(axis=1) for q in method.inference_posterior()], "inf_"))
        return out
    if name.startswith("CL ("):
        variant, pretrain = name[4:-1].split(", ")
        method = CrowdLayerSequenceTagger(
            _tagger(task, config, seed), variant, _trainer_config(config), rng,
            pretrain_epochs=int(pretrain),
        )
        method.fit(train, dev)
        out = _prf(test.tags, method.predict(test.tokens, test.lengths))
        out.update(
            _prf(train.tags, [p.argmax(axis=1) for p in method.inference_posteriors()], "inf_")
        )
        return out
    if name in ("Logic-LNCL-student", "Logic-LNCL-teacher"):
        method = LogicLNCLSequenceTagger(
            _tagger(task, config, seed), _lncl_config(config), rng, rules=rules
        )
        method.fit(train, dev)
        predict = method.predict_teacher if name.endswith("teacher") else method.predict_student
        out = _prf(test.tags, predict(test.tokens, test.lengths))
        out.update(_prf(train.tags, [q.argmax(axis=1) for q in method.inference_posterior()], "inf_"))
        return out
    if name == "Gold":
        model = _tagger(task, config, seed)
        train_gold_tagger(model, _trainer_config(config), rng, train, dev)
        out = _prf(test.tags, model.predict(test.tokens, test.lengths))
        out.update({"inf_precision": 1.0, "inf_recall": 1.0, "inf_f1": 1.0})
        return out
    raise KeyError(f"unknown NER method {name!r}")


# Suite-level iteration budgets for the sequential methods (bench scale).
NER_INFERENCE_OVERRIDES = {
    "BSC-seq": {"max_iterations": 15},
    "HMM-Crowd": {"max_iterations": 15},
}


def ner_inference_table() -> dict[str, object]:
    """The Table III truth-inference block, built from the registry."""
    return build_method_table(
        NER_INFERENCE_METHODS, kind="sequence", overrides=NER_INFERENCE_OVERRIDES
    )


def run_ner_inference_method(name: str, task: NERTask) -> dict[str, float]:
    """Score one sequence truth-inference method (Table III lower block).

    Methods resolve through :mod:`repro.inference.registry`; any name in
    ``available_methods("sequence")`` works here.
    """
    method = get_method(name, kind="sequence", **NER_INFERENCE_OVERRIDES.get(name, {}))
    result = method.infer(task.train.crowd)
    return _prf(task.train.tags, result.hard_labels(), "inf_")


NER_METHODS = [
    "MV-Classifier",
    "AggNet",
    "CL (VW, 5)",
    "CL (VW-B, 5)",
    "CL (MW, 5)",
    "CL (MW, 1)",
    "Logic-LNCL-student",
    "Logic-LNCL-teacher",
    "Gold",
]

NER_INFERENCE_METHODS = ["MV", "DS", "IBCC", "BSC-seq", "HMM-Crowd"]
