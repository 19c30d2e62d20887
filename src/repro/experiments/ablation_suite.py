"""Table IV ablation suite.

Variants (paper §VI-B "Ablation study"):

* **MV-Rule / GLAD-Rule** — distill the same rules, but from a *static*
  truth posterior (MV / GLAD; AggNet stands in for GLAD on NER, as in the
  paper) instead of the iteratively refined ``qa``;
* **w/o-Rule** — ablate the distillation entirely (the EM baseline);
* **MV-t** — plain MV-Classifier whose test predictions get the Eq. 15
  teacher adaptation;
* **our-other-rules** — deliberately weaker/wrong rules: "however" instead
  of "but" for sentiment; only the Eq. 18 transition rule (at full weight)
  for NER;
* **Logic-LNCL-{student, teacher}** — the full method.
"""

from __future__ import annotations

import numpy as np

from ..baselines import TwoStageClassifier, TwoStageSequenceTagger
from ..core import LogicLNCLClassifier, LogicLNCLSequenceTagger, sentiment_paper_config
from ..data import CONLL_LABELS
from ..eval import accuracy, posterior_accuracy, span_f1_score
from ..inference import get_method, majority_vote_posterior
from ..logic import ButRule, bio_transition_rules
from .ner_suite import NERBenchConfig, _lncl_config, _tagger, _trainer_config as _ner_trainer_config
from .sentiment_suite import SentimentBenchConfig, _cnn, _trainer_config as _sent_trainer_config

__all__ = [
    "ABLATION_METHODS",
    "PAPER_TABLE4",
    "run_sentiment_ablation",
    "run_ner_ablation",
]

# Paper Table IV: sentiment prediction/inference, NER prediction/inference (%).
PAPER_TABLE4: dict[str, dict[str, float]] = {
    "MV-Rule": {"sent_prediction": 78.41, "sent_inference": 88.96,
                "ner_prediction": 47.66, "ner_inference": 61.63},
    "GLAD-Rule": {"sent_prediction": 78.62, "sent_inference": 91.74,
                  "ner_prediction": 61.65, "ner_inference": 77.52},
    "w/o-Rule": {"sent_prediction": 78.47, "sent_inference": 91.63,
                 "ner_prediction": 60.11, "ner_inference": 75.28},
    "MV-t": {"sent_prediction": 78.83, "sent_inference": 88.58,
             "ner_prediction": 46.77, "ner_inference": 67.27},
    "our-other-rules-student": {"sent_prediction": 78.79, "sent_inference": 91.72,
                                "ner_prediction": 50.71, "ner_inference": 75.07},
    "our-other-rules-teacher": {"sent_prediction": 78.79, "sent_inference": 91.72,
                                "ner_prediction": 1.23, "ner_inference": 75.07},
    "Logic-LNCL-student": {"sent_prediction": 78.85, "sent_inference": 91.82,
                           "ner_prediction": 62.69, "ner_inference": 79.14},
    "Logic-LNCL-teacher": {"sent_prediction": 79.22, "sent_inference": 91.82,
                           "ner_prediction": 64.06, "ner_inference": 79.14},
}

ABLATION_METHODS = list(PAPER_TABLE4)


def run_sentiment_ablation(
    name: str, task, config: SentimentBenchConfig, seed: int
) -> dict[str, float]:
    """One Table IV variant on the sentiment task → prediction/inference."""
    rng = np.random.default_rng(seed + 3000)
    train, dev, test = task.train, task.dev, task.test
    lncl_config = sentiment_paper_config(epochs=config.epochs)
    but_rule = ButRule(task.but_id)

    def scored(method: LogicLNCLClassifier, teacher: bool) -> dict[str, float]:
        method.fit(train, dev)
        predict = method.predict_teacher if teacher else method.predict_student
        return {
            "prediction": accuracy(test.labels, predict(test.tokens, test.lengths)),
            "inference": posterior_accuracy(train.labels, method.inference_posterior()),
        }

    if name == "MV-Rule":
        fixed = majority_vote_posterior(train.crowd)
        return scored(
            LogicLNCLClassifier(_cnn(task, config, seed), lncl_config, rng,
                                rule=but_rule, fixed_qa=fixed),
            teacher=False,
        )
    if name == "GLAD-Rule":
        fixed = get_method("GLAD").infer(train.crowd).posterior
        return scored(
            LogicLNCLClassifier(_cnn(task, config, seed), lncl_config, rng,
                                rule=but_rule, fixed_qa=fixed),
            teacher=False,
        )
    if name == "w/o-Rule":
        return scored(
            LogicLNCLClassifier(_cnn(task, config, seed), lncl_config, rng, rule=None),
            teacher=False,
        )
    if name == "MV-t":
        method = TwoStageClassifier(
            _cnn(task, config, seed), get_method("MV"), _sent_trainer_config(config), rng,
            test_rule=but_rule, C=lncl_config.C,
        )
        method.fit(train, dev)
        return {
            "prediction": accuracy(
                test.labels, method.predict_proba(test.tokens, test.lengths).argmax(axis=1)
            ),
            "inference": posterior_accuracy(train.labels, method.inference_posterior()),
        }
    if name.startswith("our-other-rules"):
        however_rule = ButRule(task.however_id)
        return scored(
            LogicLNCLClassifier(_cnn(task, config, seed), lncl_config, rng, rule=however_rule),
            teacher=name.endswith("teacher"),
        )
    if name in ("Logic-LNCL-student", "Logic-LNCL-teacher"):
        return scored(
            LogicLNCLClassifier(_cnn(task, config, seed), lncl_config, rng, rule=but_rule),
            teacher=name.endswith("teacher"),
        )
    raise KeyError(f"unknown ablation {name!r}")


def run_ner_ablation(name: str, task, config: NERBenchConfig, seed: int) -> dict[str, float]:
    """One Table IV variant on the NER task → prediction/inference (F1)."""
    rng = np.random.default_rng(seed + 3000)
    train, dev, test = task.train, task.dev, task.test
    lncl_config = _lncl_config(config)
    rules = bio_transition_rules(CONLL_LABELS)

    def scored(method: LogicLNCLSequenceTagger, teacher: bool) -> dict[str, float]:
        method.fit(train, dev)
        predict = method.predict_teacher if teacher else method.predict_student
        prediction = span_f1_score(test.tags, predict(test.tokens, test.lengths)).f1
        inference = span_f1_score(
            train.tags, [q.argmax(axis=1) for q in method.inference_posterior()]
        ).f1
        return {"prediction": prediction, "inference": inference}

    if name == "MV-Rule":
        fixed = [
            posterior
            for posterior in get_method("MV", kind="sequence").infer(train.crowd).posteriors
        ]
        return scored(
            LogicLNCLSequenceTagger(_tagger(task, config, seed), lncl_config, rng,
                                    rules=rules, fixed_qa=fixed),
            teacher=False,
        )
    if name == "GLAD-Rule":
        # GLAD is binary-only; the paper substitutes AggNet's posterior on NER.
        aggnet = LogicLNCLSequenceTagger(
            _tagger(task, config, seed + 7), lncl_config, np.random.default_rng(seed + 7000),
            rules=None,
        )
        aggnet.fit(train, dev)
        return scored(
            LogicLNCLSequenceTagger(_tagger(task, config, seed), lncl_config, rng,
                                    rules=rules, fixed_qa=aggnet.inference_posterior()),
            teacher=False,
        )
    if name == "w/o-Rule":
        return scored(
            LogicLNCLSequenceTagger(_tagger(task, config, seed), lncl_config, rng, rules=None),
            teacher=False,
        )
    if name == "MV-t":
        method = TwoStageSequenceTagger(
            _tagger(task, config, seed), get_method("MV", kind="sequence"),
            _ner_trainer_config(config), rng, test_rules=rules, C=lncl_config.C,
        )
        method.fit(train, dev)
        prediction = span_f1_score(test.tags, method.predict(test.tokens, test.lengths)).f1
        inference = span_f1_score(
            train.tags, [p.argmax(axis=1) for p in method.inference_posteriors()]
        ).f1
        return {"prediction": prediction, "inference": inference}
    if name.startswith("our-other-rules"):
        bad_rules = bio_transition_rules(CONLL_LABELS, only_begin_rule=True)
        return scored(
            LogicLNCLSequenceTagger(_tagger(task, config, seed), lncl_config, rng, rules=bad_rules),
            teacher=name.endswith("teacher"),
        )
    if name in ("Logic-LNCL-student", "Logic-LNCL-teacher"):
        return scored(
            LogicLNCLSequenceTagger(_tagger(task, config, seed), lncl_config, rng, rules=rules),
            teacher=name.endswith("teacher"),
        )
    raise KeyError(f"unknown ablation {name!r}")
