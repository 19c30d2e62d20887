"""The four benchmark workloads.

Each workload drives the library's public entry points the way a user
does, from one client thread:

* ``setup(seed)`` generates the inputs from the seed and constructs the
  model or service — everything up to the first timed call;
* ``gate(inputs)`` runs the once-per-run output checks that are not part
  of a job (the serving recovery check; ``gated`` says whether there is one);
* ``job(inputs, tracer)`` runs one timed unit of work — a ``fit()``, a
  pass over the method tables, a replay of the schedule — checks its
  outputs and returns a :class:`Job`.

With a tracer, a job wraps its timed calls in root spans named by
``timed_roots``; the per-layer numbers count only spans under those roots.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import (
    LogicLNCLClassifier,
    LogicLNCLSequenceTagger,
    ner_paper_config,
    sentiment_paper_config,
)
from repro.crowd import ner_simulation, sample_annotator_pool, sample_ner_pool, simulation
from repro.data import CONLL_LABELS, NERCorpusConfig, make_ner_task
from repro.eval import accuracy, posterior_accuracy, span_f1_score
from repro.experiments.ner_suite import NER_INFERENCE_OVERRIDES, NERBenchConfig, build_ner_data
from repro.experiments.sentiment_suite import SentimentBenchConfig, build_sentiment_data
from repro.experiments.streaming_suite import StreamScenarioConfig
from repro.inference import available_methods, build_method_table
from repro.inference.streaming import StreamingDawidSkene
from repro.logic import ButRule, bio_transition_rules
from repro.models import NERTagger, NERTaggerConfig, TextCNN, TextCNNConfig
from repro.serving import CrowdService, ServingEvent, ServingWorkload, build_serving_workload

__all__ = ["Job", "Workload", "WORKLOADS", "hot_cold_schedule"]

clock = time.perf_counter


@dataclass
class Job:
    """One timed unit of work and what its checks found."""

    seconds: float
    attempted: int
    failures: list[str] = field(default_factory=list)
    quality: float = float("nan")
    report: dict = field(default_factory=dict)


def _posterior_failures(label: str, posterior: np.ndarray) -> list[str]:
    """Rows must be finite probability distributions."""
    if posterior.size and not np.isfinite(posterior).all():
        return [f"{label}: non-finite posterior"]
    drift = np.abs(posterior.sum(axis=1) - 1.0).max(initial=0.0)
    if drift > 1e-9:
        return [f"{label}: rows sum to 1 within {drift:.2e}, need 1e-9"]
    return []


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


class Workload:
    """Defaults shared by the workloads; ``workdir`` holds files a run writes."""

    gated = False

    def __init__(self, tiny: bool = False, workdir: Path | None = None) -> None:
        self.tiny = tiny
        self.workdir = Path(workdir) if workdir is not None else Path(tempfile.gettempdir())

    def gate(self, inputs) -> list[str]:
        return []

    def close(self, inputs) -> None:
        pass

    def layer_extras(self, jobs: list[Job]) -> dict:
        return {}


# --------------------------------------------------------------------- #
# Logic-LNCL pipelines
# --------------------------------------------------------------------- #
# Fixed epoch budget of both fits. Every epoch does the same work, so a
# shorter budget than the suites' 15 / 12 keeps the layer split while
# fitting enough fits into one run for a steady median.
EPOCHS = 6


class _LogicLNCL(Workload):
    """Shared shape of the two Logic-LNCL workloads.

    The fit runs a fixed epoch budget: patience exceeds the epoch count,
    so early stopping never ends a fit, while dev scoring (and the restore
    of the best epoch) stays on. Quality floors sit below the lowest
    scores of the seed commit's runs (seeds 1-10) with a margin; a fit
    under them is a failed operation.
    """

    timed_roots = ("core.fit",)
    sequence = False

    def setup(self, seed: int) -> dict:
        task = self.build_data(seed)
        return {"seed": seed, "task": task, "trainer": self.trainer(task, seed)}

    def lncl_config(self):
        config = self.paper_config()
        config.patience = config.epochs + 1
        return config

    def job(self, inputs: dict, tracer=None) -> Job:
        task, seed = inputs["task"], inputs["seed"]
        trainer = inputs.pop("trainer", None) or self.trainer(task, seed)
        fit = trainer.fit if tracer is None else tracer.wrap("core.fit", trainer.fit)
        start = clock()
        history = fit(task.train, dev=task.dev)
        seconds = clock() - start

        failures = []
        epochs = len(history["loss"])
        if epochs != self.config.epochs:
            failures.append(f"fit ran {epochs} epochs, budget is {self.config.epochs}")
        for label in ("qa_", "qb_", "qf_"):
            posterior = getattr(trainer, label)
            if self.sequence:
                posterior = np.concatenate(posterior, axis=0)
            failures += _posterior_failures(label.rstrip("_"), posterior)
        prediction, inference = self.score(trainer, task)
        prediction_floor, inference_floor = (0.0, 0.0) if self.tiny else self.floors
        if not prediction >= prediction_floor:
            failures.append(f"teacher {self.prediction_name} {prediction:.4f} < {prediction_floor}")
        if not inference >= inference_floor:
            failures.append(f"{self.inference_name} {inference:.4f} < {inference_floor}")
        return Job(
            seconds=seconds,
            attempted=1,
            failures=failures,
            quality=inference,
            report={"epochs": epochs, self.prediction_name: prediction, self.inference_name: inference},
        )

    def text_metrics(self, jobs: list[Job]) -> list[tuple[str, float, str]]:
        return [
            ("fit_s", _median([job.seconds for job in jobs]), "s"),
            (self.prediction_name, _median([job.report[self.prediction_name] for job in jobs]), "fraction"),
            (self.inference_name, _median([job.report[self.inference_name] for job in jobs]), "fraction"),
        ]



class LnclSentiment(_LogicLNCL):
    """Logic-LNCL with a TextCNN and the ButRule at the Table II suite's shapes."""

    name = "lncl-sentiment"
    prediction_name = "prediction_accuracy"
    inference_name = "inference_accuracy"
    floors = (0.65, 0.85)

    def __init__(self, tiny: bool = False, workdir: Path | None = None) -> None:
        super().__init__(tiny, workdir)
        self.config = (
            SentimentBenchConfig(
                num_train=60, num_dev=20, num_test=20, num_annotators=10,
                epochs=2, feature_maps=4, embedding_dim=8,
            )
            if tiny
            else SentimentBenchConfig(epochs=EPOCHS)
        )

    def build_data(self, seed: int):
        return build_sentiment_data(seed, self.config)

    def paper_config(self):
        return sentiment_paper_config(epochs=self.config.epochs)

    def trainer(self, task, seed: int) -> LogicLNCLClassifier:
        model = TextCNN(
            task.embeddings,
            TextCNNConfig(feature_maps=self.config.feature_maps),
            np.random.default_rng(seed + 1000),
        )
        return LogicLNCLClassifier(
            model, self.lncl_config(), np.random.default_rng(seed + 2000), rule=ButRule(task.but_id)
        )

    def score(self, trainer, task) -> tuple[float, float]:
        test = task.test
        prediction = accuracy(test.labels, trainer.predict_teacher(test.tokens, test.lengths))
        return prediction, posterior_accuracy(task.train.labels, trainer.inference_posterior())


class LnclNer(_LogicLNCL):
    """Logic-LNCL with the CNN+GRU tagger and the BIO transition rules."""

    name = "lncl-ner"
    sequence = True
    prediction_name = "prediction_f1"
    inference_name = "inference_f1"
    floors = (0.30, 0.80)

    def __init__(self, tiny: bool = False, workdir: Path | None = None) -> None:
        super().__init__(tiny, workdir)
        self.config = (
            NERBenchConfig(
                num_train=30, num_dev=10, num_test=10, num_annotators=8,
                epochs=2, conv_features=8, gru_hidden=4, embedding_dim=8,
            )
            if tiny
            else NERBenchConfig(epochs=EPOCHS)
        )

    def build_data(self, seed: int):
        return build_ner_data(seed, self.config)

    def paper_config(self):
        config = ner_paper_config(epochs=self.config.epochs)
        config.learning_rate = self.config.learning_rate  # as the Table III suite trains
        return config

    def trainer(self, task, seed: int) -> LogicLNCLSequenceTagger:
        model = NERTagger(
            task.embeddings,
            NERTaggerConfig(conv_features=self.config.conv_features, gru_hidden=self.config.gru_hidden),
            np.random.default_rng(seed + 1000),
        )
        return LogicLNCLSequenceTagger(
            model, self.lncl_config(), np.random.default_rng(seed + 2000),
            rules=bio_transition_rules(CONLL_LABELS),
        )

    def score(self, trainer, task) -> tuple[float, float]:
        test = task.test
        prediction = span_f1_score(test.tags, trainer.predict_teacher(test.tokens, test.lengths)).f1
        inferred = [q.argmax(axis=1) for q in trainer.inference_posterior()]
        return prediction, span_f1_score(task.train.tags, inferred).f1


# --------------------------------------------------------------------- #
# Truth inference: the Table II / Table III inference blocks
# --------------------------------------------------------------------- #
class TruthInference(Workload):
    """Every classification method on a binary crowd, every sequence
    method (with the Table III iteration budgets) on an NER crowd."""

    name = "truth-inference"
    timed_roots = ("inference.cls.", "inference.seq.")

    def __init__(self, tiny: bool = False, workdir: Path | None = None) -> None:
        super().__init__(tiny, workdir)
        self.instances, self.sentences, self.annotators = (300, 40, 10) if tiny else (10000, 1000, 47)

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        truth = rng.integers(0, 2, size=self.instances)
        pool = sample_annotator_pool(rng, self.annotators, 2)
        crowd = simulation.simulate_classification_crowd(rng, truth, pool, 5.55)
        task = make_ner_task(
            rng, NERCorpusConfig(num_train=self.sentences, num_dev=10, num_test=10, embedding_dim=8)
        )
        ner_pool = sample_ner_pool(rng, self.annotators)
        ner_crowd = ner_simulation.simulate_ner_crowd(rng, task.train.tags, ner_pool, 4.0)
        return {"truth": truth, "crowd": crowd, "tags": task.train.tags, "ner_crowd": ner_crowd,
                "tables": self.tables()}

    @staticmethod
    def tables():
        return (
            ("cls", build_method_table(available_methods("classification"), kind="classification")),
            ("seq", build_method_table(
                available_methods("sequence"), kind="sequence", overrides=NER_INFERENCE_OVERRIDES
            )),
        )

    def job(self, inputs: dict, tracer=None) -> Job:
        tables = inputs.pop("tables", None) or self.tables()
        seconds, failures, methods = 0.0, [], {}
        for kind, table in tables:
            data = inputs["crowd"] if kind == "cls" else inputs["ner_crowd"]
            for name, method in table.items():
                infer = method.infer if tracer is None else tracer.wrap(f"inference.{kind}.{name}", method.infer)
                start = clock()
                result = infer(data)
                seconds += clock() - start
                if kind == "cls":
                    posterior = result.posterior
                    score = posterior_accuracy(inputs["truth"], posterior)
                else:
                    posterior = np.concatenate(result.posteriors, axis=0)
                    score = span_f1_score(inputs["tags"], result.hard_labels()).f1
                failures += _posterior_failures(f"{kind} {name}", posterior)
                methods[kind, name] = (score, int(result.extras.get("iterations", 0)))
        mean_accuracy = float(np.mean([s for (kind, _), (s, _) in methods.items() if kind == "cls"]))
        mean_f1 = float(np.mean([s for (kind, _), (s, _) in methods.items() if kind == "seq"]))
        return Job(
            seconds=seconds,
            attempted=len(methods),
            failures=failures,
            quality=(mean_accuracy + mean_f1) / 2.0,
            report={"methods": methods, "inference_accuracy": mean_accuracy, "inference_f1": mean_f1},
        )

    def text_metrics(self, jobs: list[Job]) -> list[tuple[str, float, str]]:
        last = jobs[-1].report
        rows = [
            ("infer_s", _median([job.seconds for job in jobs]), "s"),
            ("inference_accuracy", last["inference_accuracy"], "fraction"),
            ("inference_f1", last["inference_f1"], "fraction"),
        ]
        for (kind, name), (score, iterations) in last["methods"].items():
            rows.append((f"{kind}.{name}.{'accuracy' if kind == 'cls' else 'span_f1'}", score, "fraction"))
            rows.append((f"{kind}.{name}.iterations", iterations, "count"))
        return rows

    def layer_extras(self, jobs: list[Job]) -> dict:
        return {
            f"inference.{kind}.{name}.iterations": iterations
            for (kind, name), (_, iterations) in jobs[-1].report["methods"].items()
        }


# --------------------------------------------------------------------- #
# Serving: hot/cold CrowdService traffic, closed loop
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class HotColdSizes:
    hot_datasets: int = 2
    hot_instances: int = 6000
    cold_datasets: int = 12
    cold_instances: int = 250
    annotators: int = 20
    batch_size: int = 10
    max_resident: int = 6


def hot_cold_schedule(seed: int, sizes: HotColdSizes) -> ServingWorkload:
    """Skewed many-dataset traffic built from two library schedules.

    A few hot datasets with long streams and a tail of small cold ones are
    each generated by :func:`repro.serving.build_serving_workload` (burst
    arrival sizes, simulated crowds, Poisson queries against started
    datasets). The two event streams are then merged uniformly at random,
    keeping each stream's order, so updates and queries carry the same
    hot/cold skew.
    """
    hot_seed, cold_seed, mix_seed = np.random.default_rng(seed).integers(0, 2**31, size=3)
    parts = []
    for prefix, part_seed, datasets, instances in (
        ("hot-", hot_seed, sizes.hot_datasets, sizes.hot_instances),
        ("cold-", cold_seed, sizes.cold_datasets, sizes.cold_instances),
    ):
        part = build_serving_workload(
            seed=int(part_seed),
            datasets=datasets,
            config=StreamScenarioConfig(
                instances=instances, annotators=sizes.annotators, batch_size=sizes.batch_size
            ),
            queries_per_update=1.0,
        )
        events = [ServingEvent(e.kind, prefix + e.dataset_id, e.batch) for e in part.events]
        truths = {prefix + key: value for key, value in part.truths.items()}
        parts.append((events, truths, part.config))
    (hot, hot_truths, config), (cold, cold_truths, _) = parts
    mix = np.random.default_rng(int(mix_seed))
    merged, i, j = [], 0, 0
    while i < len(hot) or j < len(cold):
        if mix.random() * (len(hot) - i + len(cold) - j) < len(hot) - i:
            merged.append(hot[i])
            i += 1
        else:
            merged.append(cold[j])
            j += 1
    truths = {**hot_truths, **cold_truths}
    return ServingWorkload(events=merged, truths=truths, datasets=tuple(truths), config=config)


class ServingHotCold(Workload):
    """One client replays a hot/cold schedule against a CrowdService."""

    name = "serving-hotcold"
    timed_roots = ("serving.update", "serving.query")
    gated = True
    overrides = {"inner_sweeps": 1}

    def __init__(self, tiny: bool = False, workdir: Path | None = None) -> None:
        super().__init__(tiny, workdir)
        self.sizes = (
            HotColdSizes(hot_instances=120, cold_datasets=4, cold_instances=30,
                         annotators=6, batch_size=5, max_resident=3)
            if tiny
            else HotColdSizes()
        )

    def _service(self, root: Path) -> CrowdService:
        return CrowdService(root, method="DS", max_resident=self.sizes.max_resident, **self.overrides)

    def _fresh_root(self) -> Path:
        self.workdir.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix="service-", dir=self.workdir))

    def setup(self, seed: int) -> dict:
        schedule = hot_cold_schedule(seed, self.sizes)
        root = self._fresh_root()
        return {"schedule": schedule, "roots": [root], "service": self._service(root)}

    def close(self, inputs) -> None:
        for root in inputs["roots"]:
            shutil.rmtree(root, ignore_errors=True)

    def gate(self, inputs: dict) -> list[str]:
        """Expected posteriors from independent per-dataset streams, then the
        recovery check: checkpoint mid-schedule, drop the service, restart
        it on the same root and replay each dataset's tail from its cursor."""
        schedule = inputs["schedule"]
        per_dataset = {ds: schedule.updates_for(ds) for ds in schedule.datasets}
        expected = {}
        for dataset_id, batches in per_dataset.items():
            stream = StreamingDawidSkene(**self.overrides)
            for batch in batches:
                stream.partial_fit(batch)
            expected[dataset_id] = stream.result().posterior
        inputs["expected"] = expected

        root = self._fresh_root()
        inputs["roots"].append(root)
        updates = [event for event in schedule.events if event.kind == "update"]
        service = self._service(root)
        for event in updates[: len(updates) // 2]:
            service.partial_fit(event.dataset_id, event.batch)
        service.checkpoint()
        del service  # crash: in-memory state gone, the files survive
        revived = self._service(root)
        known = revived.datasets()
        for dataset_id, batches in per_dataset.items():
            cursor = revived.cursor(dataset_id) if dataset_id in known else 0
            for batch in batches[cursor:]:
                revived.partial_fit(dataset_id, batch)
        return [
            f"recovery: {message}"
            for message in self._compare(revived, expected)
        ]

    @staticmethod
    def _compare(service: CrowdService, expected: dict) -> list[str]:
        failures = []
        for dataset_id, posterior in expected.items():
            diff = float(np.abs(service.query(dataset_id).posterior - posterior).max(initial=0.0))
            if not diff <= 1e-10:
                failures.append(f"{dataset_id} differs from its independent replay by {diff:.2e}")
        return failures

    def job(self, inputs: dict, tracer=None) -> Job:
        service = inputs.pop("service", None) or self._service(self._fresh_root())
        update, query = service.partial_fit, service.query
        if tracer is not None:
            update = tracer.wrap("serving.update", update)
            query = tracer.wrap("serving.query", query)
        update_s, query_s, failures = [], [], []
        start = clock()
        for event in inputs["schedule"].events:
            began = clock()
            try:
                if event.kind == "update":
                    update(event.dataset_id, event.batch)
                    update_s.append(clock() - began)
                else:
                    query(event.dataset_id)
                    query_s.append(clock() - began)
            except Exception as error:  # a failed call is counted, the replay goes on
                failures.append(f"{event.kind} {event.dataset_id}: {error!r}")
        seconds = clock() - start

        expected = inputs["expected"]
        failures += [f"end of replay: {message}" for message in self._compare(service, expected)]
        truths = inputs["schedule"].truths
        hits = sum(
            int((service.query(ds).posterior.argmax(axis=1) == truths[ds]).sum()) for ds in truths
        )
        quality = hits / sum(len(truth) for truth in truths.values())
        shutil.rmtree(service.root, ignore_errors=True)
        return Job(
            seconds=seconds,
            attempted=len(inputs["schedule"].events),
            failures=failures,
            quality=quality,
            report={"update_s": update_s, "query_s": query_s, "stats": dict(service.stats)},
        )

    @staticmethod
    def latency(jobs: list[Job]) -> dict:
        """Call latencies pooled over the run's replays."""
        update_ms = np.concatenate([job.report["update_s"] for job in jobs]) * 1e3
        query_ms = np.concatenate([job.report["query_s"] for job in jobs]) * 1e3
        calls = len(update_ms) + len(query_ms)
        return {
            "ops_per_s": calls / sum(job.seconds for job in jobs),
            "update_ms_p50": float(np.percentile(update_ms, 50)),
            "update_ms_p99": float(np.percentile(update_ms, 99)),
            "query_ms_p50": float(np.percentile(query_ms, 50)),
            "query_ms_p99": float(np.percentile(query_ms, 99)),
        }

    def text_metrics(self, jobs: list[Job]) -> list[tuple[str, float, str]]:
        rows = [("replay_s", _median([job.seconds for job in jobs]), "s")]
        rows += [(name, value, "ops/s" if name == "ops_per_s" else "ms")
                 for name, value in self.latency(jobs).items()]
        return rows + [
            ("replays", len(jobs), "count"),
            ("updates_per_replay", len(jobs[0].report["update_s"]), "count"),
            ("queries_per_replay", len(jobs[0].report["query_s"]), "count"),
        ]

    def layer_extras(self, jobs: list[Job]) -> dict:
        latency = self.latency(jobs)
        extras = {f"serving.{name}": latency[name] for name in
                  ("ops_per_s", "update_ms_p50", "update_ms_p99", "query_ms_p50", "query_ms_p99")}
        for counter in ("evictions", "rehydrations", "checkpoints"):
            extras[f"serving.{counter}"] = _median([job.report["stats"][counter] for job in jobs])
        return extras


WORKLOADS = {
    workload.name: workload for workload in (LnclSentiment, LnclNer, TruthInference, ServingHotCold)
}

