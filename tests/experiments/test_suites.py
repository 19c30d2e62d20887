"""Tests for the experiment suites that power the benchmark harness.

Runs every method-runner at micro scale to guarantee the benches cannot
fail on plumbing, and checks the reporting primitives.
"""

import numpy as np
import pytest

from repro.baselines.common import build_optimizer
from repro.core import ner_paper_config, sentiment_paper_config
from repro.experiments import (
    ABLATION_METHODS,
    NER_INFERENCE_METHODS,
    NER_METHODS,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    SENTIMENT_INFERENCE_METHODS,
    SENTIMENT_METHODS,
    NERBenchConfig,
    Row,
    SentimentBenchConfig,
    Table,
    aggregate_runs,
    bench_scale,
    build_ner_data,
    build_sentiment_data,
    run_ner_ablation,
    run_ner_inference_method,
    run_ner_method,
    run_sentiment_ablation,
    run_sentiment_inference_method,
    run_sentiment_method,
)


@pytest.fixture(scope="module")
def micro_sentiment():
    config = SentimentBenchConfig(
        num_train=120, num_dev=40, num_test=40, num_annotators=10,
        epochs=2, feature_maps=6, embedding_dim=16, seeds=(0,),
    )
    return config, build_sentiment_data(0, config)


@pytest.fixture(scope="module")
def micro_ner():
    config = NERBenchConfig(
        num_train=60, num_dev=20, num_test=20, num_annotators=6,
        epochs=2, conv_features=16, gru_hidden=8, embedding_dim=16, seeds=(0,),
    )
    return config, build_ner_data(0, config)


@pytest.fixture
def trained_dtypes(monkeypatch):
    """The ``dtype`` of every trainer config an optimizer is built for."""
    dtypes = []

    def recording_build(modules, config):
        dtypes.append(config.dtype)
        return build_optimizer(modules, config)

    monkeypatch.setattr("repro.baselines.common.build_optimizer", recording_build)
    return dtypes


class TestReporting:
    def test_bench_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert bench_scale() == 2.5

    def test_bench_scale_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "zero")
        with pytest.raises(ValueError):
            bench_scale()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "-1")
        with pytest.raises(ValueError):
            bench_scale()

    def test_aggregate_runs(self):
        mean, std = aggregate_runs([{"a": 0.5, "b": 1.0}, {"a": 0.7}])
        assert mean["a"] == pytest.approx(0.6)
        assert std["a"] == pytest.approx(0.1)
        assert mean["b"] == pytest.approx(1.0)

    def test_table_render_contains_rows_and_paper_values(self):
        table = Table("demo", metrics=["prediction"])
        table.add(Row("m", {"prediction": 0.5}, {"prediction": 0.01}, {"prediction": 78.0}))
        text = table.render()
        assert "demo" in text
        assert "50.00" in text
        assert "78.00" in text

    def test_table_lookup(self):
        table = Table("demo", metrics=["x"])
        table.add(Row("m", {"x": 0.4}))
        assert table.measured("m", "x") == 0.4
        with pytest.raises(KeyError):
            table.row("other")
        with pytest.raises(KeyError):
            table.measured("m", "y")


class TestSentimentSuite:
    def test_build_attaches_crowd(self, micro_sentiment):
        _, task = micro_sentiment
        assert task.train.crowd is not None
        assert task.train.crowd.num_annotators == 10

    @pytest.mark.parametrize("name", SENTIMENT_METHODS)
    def test_every_method_runs(self, micro_sentiment, name, trained_dtypes):
        config, task = micro_sentiment
        result = run_sentiment_method(name, task, config, seed=0)
        # Every row of Table II trains at the paper config's precision.
        assert trained_dtypes and set(trained_dtypes) == {sentiment_paper_config().dtype}
        for value in result.values():
            assert 0.0 <= value <= 1.0
        if name != "Raykar":
            assert "prediction" in result
        assert "inference" in result

    @pytest.mark.parametrize("name", SENTIMENT_INFERENCE_METHODS)
    def test_every_inference_method_runs(self, micro_sentiment, name):
        _, task = micro_sentiment
        result = run_sentiment_inference_method(name, task)
        assert 0.0 <= result["inference"] <= 1.0

    def test_unknown_method_rejected(self, micro_sentiment):
        config, task = micro_sentiment
        with pytest.raises(KeyError):
            run_sentiment_method("nope", task, config, 0)
        with pytest.raises(KeyError):
            run_sentiment_inference_method("nope", task)

    def test_paper_reference_covers_all_methods(self):
        for name in SENTIMENT_METHODS + SENTIMENT_INFERENCE_METHODS:
            assert name in PAPER_TABLE2, name


class TestNERSuite:
    @pytest.mark.parametrize("name", NER_METHODS)
    def test_every_method_runs(self, micro_ner, name, trained_dtypes):
        config, task = micro_ner
        result = run_ner_method(name, task, config, seed=0)
        assert trained_dtypes and set(trained_dtypes) == {ner_paper_config().dtype}
        assert {"precision", "recall", "f1", "inf_precision", "inf_recall", "inf_f1"} <= set(result)
        for value in result.values():
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("name", NER_INFERENCE_METHODS)
    def test_every_inference_method_runs(self, micro_ner, name):
        _, task = micro_ner
        result = run_ner_inference_method(name, task)
        assert 0.0 <= result["inf_f1"] <= 1.0

    def test_unknown_method_rejected(self, micro_ner):
        config, task = micro_ner
        with pytest.raises(KeyError):
            run_ner_method("nope", task, config, 0)

    def test_paper_reference_covers_all_methods(self):
        for name in NER_METHODS + NER_INFERENCE_METHODS:
            assert name in PAPER_TABLE3, name


class TestAblationSuite:
    @pytest.mark.parametrize("name", ABLATION_METHODS)
    def test_sentiment_ablations_run(self, micro_sentiment, name, trained_dtypes):
        config, task = micro_sentiment
        result = run_sentiment_ablation(name, task, config, seed=0)
        assert trained_dtypes and set(trained_dtypes) == {sentiment_paper_config().dtype}
        assert set(result) == {"prediction", "inference"}

    @pytest.mark.parametrize(
        "name", [m for m in ABLATION_METHODS if m not in ("GLAD-Rule",)]
    )
    def test_ner_ablations_run(self, micro_ner, name, trained_dtypes):
        # GLAD-Rule trains an extra AggNet pass; covered by the bench itself.
        config, task = micro_ner
        result = run_ner_ablation(name, task, config, seed=0)
        assert trained_dtypes and set(trained_dtypes) == {ner_paper_config().dtype}
        assert set(result) == {"prediction", "inference"}

    def test_paper_reference_covers_all_ablations(self):
        assert set(ABLATION_METHODS) == set(PAPER_TABLE4)

    def test_unknown_ablation_rejected(self, micro_sentiment):
        config, task = micro_sentiment
        with pytest.raises(KeyError):
            run_sentiment_ablation("nope", task, config, 0)
