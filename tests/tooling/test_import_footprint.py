"""``import repro`` and the paper's pipelines never load ``scipy.stats``.

Importing :mod:`scipy.stats` costs ~1 s and ~44 MiB in every process, and
the library needs it only inside the two §VI-B significance helpers
(:mod:`repro.eval.statistics`), which import it when called. CATD takes
its chi-square bound from :mod:`scipy.special`.

The check runs in a subprocess (a fresh interpreter, as in
``test_bench_hotpaths.py``): ``import repro`` alone, then a tiny run of
what the end-to-end workloads call — one Logic-LNCL fit on TextCNN with
the ButRule and one on the CNN+GRU tagger with the BIO rules, every
``"classification"`` and ``"sequence"`` registry method built through
``build_method_table``, and a ``CrowdService`` update, checkpoint and
query. Only then are the significance helpers called, and they must
return the closed-form values and load ``scipy.stats``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import stdtr

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

PAIRED = ([0.81, 0.84, 0.79, 0.86, 0.83, 0.85], [0.78, 0.80, 0.79, 0.81, 0.80, 0.79])
WELCH = ([0.91, 0.88, 0.93, 0.90, 0.92], [0.84, 0.86, 0.83, 0.87, 0.85, 0.82, 0.86])
CORRELATED = ([0.2, 0.5, 0.4, 0.9, 0.7, 0.3], [0.25, 0.45, 0.5, 0.85, 0.6, 0.35])

SCRIPT = """
import json
import sys

import repro  # noqa: F401

observed = {"after_import": "scipy.stats" in sys.modules}

import numpy as np

from repro.core import (
    LogicLNCLClassifier,
    LogicLNCLSequenceTagger,
    ner_paper_config,
    sentiment_paper_config,
)
from repro.data import CONLL_LABELS
from repro.eval import one_sided_t_test, pearson_correlation
from repro.experiments.ner_suite import NER_INFERENCE_OVERRIDES, NERBenchConfig, build_ner_data
from repro.experiments.sentiment_suite import SentimentBenchConfig, build_sentiment_data
from repro.experiments.streaming_suite import stream_crowd_in_batches
from repro.inference import available_methods, build_method_table
from repro.logic import ButRule, bio_transition_rules
from repro.models import NERTagger, NERTaggerConfig, TextCNN, TextCNNConfig
from repro.serving import CrowdService

root, samples = sys.argv[1], json.loads(sys.argv[2])

sentiment = build_sentiment_data(0, SentimentBenchConfig(
    num_train=40, num_dev=10, num_test=10, num_annotators=6, epochs=1, feature_maps=4,
    embedding_dim=8,
))
classifier = LogicLNCLClassifier(
    TextCNN(sentiment.embeddings, TextCNNConfig(feature_maps=4), np.random.default_rng(1)),
    sentiment_paper_config(epochs=1), np.random.default_rng(2), rule=ButRule(sentiment.but_id),
)
classifier.fit(sentiment.train, dev=sentiment.dev)

ner = build_ner_data(0, NERBenchConfig(
    num_train=20, num_dev=6, num_test=6, num_annotators=6, epochs=1, conv_features=8,
    gru_hidden=4, embedding_dim=8,
))
tagger = LogicLNCLSequenceTagger(
    NERTagger(ner.embeddings, NERTaggerConfig(conv_features=8, gru_hidden=4),
              np.random.default_rng(1)),
    ner_paper_config(epochs=1), np.random.default_rng(2), rules=bio_transition_rules(CONLL_LABELS),
)
tagger.fit(ner.train, dev=ner.dev)

tables = (
    (sentiment.train.crowd, build_method_table(
        available_methods("classification"), kind="classification")),
    (ner.train.crowd, build_method_table(
        available_methods("sequence"), kind="sequence", overrides=NER_INFERENCE_OVERRIDES)),
)
observed["methods"] = []
for crowd, table in tables:
    for name, method in table.items():
        method.infer(crowd)
        observed["methods"].append(name)

service = CrowdService(root, method="DS")
for batch in stream_crowd_in_batches(sentiment.train.crowd, [20, 20]):
    service.partial_fit("ds", batch)
service.checkpoint()
service.query("ds")
observed["after_workloads"] = "scipy.stats" in sys.modules
observed["scipy_modules"] = sorted(name for name in sys.modules if name.startswith("scipy."))

paired = one_sided_t_test(*samples["paired"])
welch = one_sided_t_test(*samples["welch"], paired=False)
observed["paired"] = [paired.t_value, paired.p_value]
observed["welch"] = [welch.t_value, welch.p_value]
observed["pearson"] = pearson_correlation(*samples["correlated"])
observed["after_statistics"] = "scipy.stats" in sys.modules
print(json.dumps(observed))
"""


def _one_sided(t_value: float, df: float) -> list[float]:
    """``[t, P(T_df > t)]`` from the Student-t CDF."""
    return [t_value, float(stdtr(df, -t_value))]


def _paired_expected(a, b) -> list[float]:
    d = np.subtract(a, b)
    t_value = d.mean() / (d.std(ddof=1) / np.sqrt(d.size))
    return _one_sided(t_value, d.size - 1)


def _welch_expected(a, b) -> list[float]:
    a, b = np.asarray(a), np.asarray(b)
    va, vb = a.var(ddof=1) / a.size, b.var(ddof=1) / b.size
    t_value = (a.mean() - b.mean()) / np.sqrt(va + vb)
    df = (va + vb) ** 2 / (va**2 / (a.size - 1) + vb**2 / (b.size - 1))
    return _one_sided(t_value, df)


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    samples = {"paired": PAIRED, "welch": WELCH, "correlated": CORRELATED}
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path_factory.mktemp("service")), json.dumps(samples)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert completed.returncode == 0, (
        f"footprint script failed\nstdout:\n{completed.stdout}\nstderr:\n{completed.stderr}"
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_import_repro_does_not_load_scipy_stats(observed):
    assert not observed["after_import"]


def test_workload_calls_do_not_load_scipy_stats(observed):
    # CATD's chi-square bound and the VB methods' digamma use scipy.special.
    assert {"CATD", "IBCC", "BSC-seq"} <= set(observed["methods"])
    assert not observed["after_workloads"], [
        name for name in observed["scipy_modules"] if name.startswith("scipy.stats")
    ]


def test_significance_helpers_load_scipy_stats_and_stay_correct(observed):
    assert observed["after_statistics"]
    assert observed["paired"] == pytest.approx(_paired_expected(*PAIRED), rel=1e-9)
    assert observed["welch"] == pytest.approx(_welch_expected(*WELCH), rel=1e-9)
    assert observed["pearson"] == pytest.approx(np.corrcoef(*CORRELATED)[0, 1], rel=1e-12)
