"""Dump every truth-inference and Logic-LNCL output to one ``.npz``, and
compare two dumps key by key.

A refactor that claims its outputs are bit-identical to its parent's is
checked by dumping both trees and comparing the files::

    git archive <parent-sha> | tar -x -C /tmp/parent
    cp benchmarks/dump_outputs.py /tmp/parent/benchmarks/
    python /tmp/parent/benchmarks/dump_outputs.py dump parent.npz
    python benchmarks/dump_outputs.py dump change.npz
    python benchmarks/dump_outputs.py compare parent.npz change.npz

The script imports ``src/`` and ``tests/`` from the tree it sits in
(it inserts its own paths, so it runs from any cwd), so the copy in the
parent tree dumps the parent's code.

``dump OUT.npz`` runs, on every case of
``tests/inference/equivalence_harness.py::crowd_cases()``:

* every registered method of every kind (classification, sequence,
  sharded over three shards, streaming) with the harness's
  ``METHOD_OVERRIDES``, saving the posterior(s), the confusions and every
  numeric extras entry;
* for the streaming kind, ``get_state()`` after each batch of
  ``random_batch_sizes``, then ``result()``, ``result(refresh=True)``,
  ``fit_to_convergence()`` and the state after it;
* Eq. 12 and Eq. 13 (``repro.core.em``) on seeded posteriors, at
  smoothing 0.01 and 0.0;
* every annotator's empirical ``annotator_confusion`` against a seeded
  truth;

and a two-epoch fit of each Logic-LNCL trainer (two seeds, confusion
smoothing 0.01 and 0.0), saving ``qa_``, ``qb_``, ``qf_`` and
``confusions_``. Where a method refuses a case, the exception's type
name is saved instead. Keys read ``kind/method/case/output``.

``compare A.npz B.npz`` prints every key that is missing on one side,
has another dtype on each side, or is not ``array_equal`` (NaN equals
NaN), and exits 1 if it printed any.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import LogicLNCLClassifier, LogicLNCLSequenceTagger  # noqa: E402
from repro.core.config import ner_paper_config, sentiment_paper_config  # noqa: E402
from repro.core.em import (  # noqa: E402
    posterior_qa,
    sequence_posterior_qa,
    sequence_update_confusions,
    update_confusions,
)
from repro.data import CONLL_LABELS  # noqa: E402
from repro.experiments.ner_suite import NERBenchConfig, build_ner_data  # noqa: E402
from repro.experiments.sentiment_suite import (  # noqa: E402
    SentimentBenchConfig,
    build_sentiment_data,
)
from repro.experiments.streaming_suite import stream_crowd_in_batches  # noqa: E402
from repro.inference import available_methods, get_method  # noqa: E402
from repro.inference.sharding import run_sharded  # noqa: E402
from repro.logic import ButRule, bio_transition_rules  # noqa: E402
from repro.models import NERTagger, NERTaggerConfig, TextCNN, TextCNNConfig  # noqa: E402
from tests.inference.equivalence_harness import (  # noqa: E402
    METHOD_OVERRIDES,
    crowd_cases,
    method_supports,
    random_batch_sizes,
)

__all__ = ["collect", "compare", "main"]

SMOOTHINGS = (0.01, 0.0)
TRAINER_SEEDS = (0, 1)


def _stacked(posteriors) -> np.ndarray:
    """One array for a classification posterior or a list of sentence blocks."""
    if isinstance(posteriors, np.ndarray):
        return posteriors
    return np.concatenate(posteriors, axis=0) if len(posteriors) else np.zeros((0, 0))


def _put_numeric(out: dict, key: str, value) -> None:
    """Store ``value`` under ``key`` if it is a number or a numeric array."""
    if value is None or isinstance(value, (str, dict)):
        return
    array = np.asarray(value)
    if array.dtype.kind in "biuf":
        out[key] = array


def _put_result(out: dict, prefix: str, result) -> None:
    posterior = getattr(result, "posterior", None)
    if posterior is None:
        posterior = result.posteriors
    out[f"{prefix}/posterior"] = _stacked(posterior)
    _put_numeric(out, f"{prefix}/confusions", result.confusions)
    for name in sorted(result.extras):
        _put_numeric(out, f"{prefix}/extras/{name}", result.extras[name])


def _put_state(out: dict, prefix: str, state: dict) -> None:
    for name in sorted(state):
        _put_numeric(out, f"{prefix}/{name}", state[name])


def _attempt(out: dict, prefix: str, run) -> bool:
    """Run ``run()``; on an exception store its type name and report False."""
    try:
        run()
    except Exception as exc:  # noqa: BLE001 - the refusal is the output
        out[f"{prefix}/error"] = np.array(type(exc).__name__)
        return False
    return True


def _stream(out: dict, prefix: str, name: str, crowd, seed: int) -> None:
    stream = get_method(name, kind="streaming", **METHOD_OVERRIDES.get(("streaming", name), {}))
    batches = stream_crowd_in_batches(crowd, random_batch_sizes(seed, crowd.num_instances))
    for index, batch in enumerate(batches):
        key = f"{prefix}/batch{index:03d}"
        if not _attempt(out, key, lambda: _put_state(out, key, stream.partial_fit(batch).get_state())):
            return
    steps = (
        ("result", _put_result, stream.result),
        ("refresh", _put_result, lambda: stream.result(refresh=True)),
        ("converged", _put_result, stream.fit_to_convergence),
        ("state", _put_state, stream.get_state),
    )
    for step, put, call in steps:
        key = f"{prefix}/{step}"
        if not _attempt(out, key, lambda: put(out, key, call())):
            return


def _methods(out: dict) -> None:
    for seed, case in enumerate(crowd_cases()):
        crowd = case.build()
        kinds = ("sequence",) if case.kind == "sequence" else ("classification", "sharded", "streaming")
        for kind in kinds:
            for name in available_methods(kind):
                if not method_supports(name, kind, crowd):
                    continue
                prefix = f"{kind}/{name}/{case.name}"
                params = METHOD_OVERRIDES.get((kind, name), {})
                if kind == "streaming":
                    _stream(out, prefix, name, crowd, seed)
                elif kind == "sharded":
                    _attempt(out, prefix, lambda: _put_result(
                        out, prefix, run_sharded(name, crowd.shards(3), **params)))
                else:
                    _attempt(out, prefix, lambda: _put_result(
                        out, prefix, get_method(name, kind=kind, **params).infer(crowd)))


def _eq12_eq13(out: dict) -> None:
    for seed, case in enumerate(crowd_cases()):
        crowd = case.build()
        rng = np.random.default_rng(seed)
        K = crowd.num_classes
        if case.kind == "sequence":
            lengths = [matrix.shape[0] for matrix in crowd.labels]
            qf = [rng.dirichlet(np.ones(K), size=t) for t in lengths]
            proba = [rng.dirichlet(np.ones(K), size=t) for t in lengths]
            update, posterior = sequence_update_confusions, sequence_posterior_qa
        else:
            qf = rng.dirichlet(np.ones(K), size=crowd.num_instances)
            proba = rng.dirichlet(np.ones(K), size=crowd.num_instances)
            update, posterior = update_confusions, posterior_qa
        for smoothing in SMOOTHINGS:
            prefix = f"em/eq12-eq13/{case.name}/smoothing={smoothing}"

            def run():
                confusions = update(qf, crowd, smoothing)
                out[f"{prefix}/confusions"] = confusions
                out[f"{prefix}/qa"] = _stacked(posterior(proba, crowd, confusions))

            _attempt(out, prefix, run)


def _annotator_confusions(out: dict) -> None:
    """Every annotator's empirical confusion against a seeded truth."""
    for seed, case in enumerate(crowd_cases()):
        crowd = case.build()
        rng = np.random.default_rng(seed)
        K = crowd.num_classes
        if case.kind == "sequence":
            truth = [rng.integers(K, size=matrix.shape[0]) for matrix in crowd.labels]
        else:
            truth = rng.integers(K, size=crowd.num_instances)
        key = f"crowd/annotator_confusion/{case.name}"

        def run():
            J = crowd.num_annotators
            out[key] = np.stack([crowd.annotator_confusion(truth, j) for j in range(J)])

        _attempt(out, key, run)


def _trainers(out: dict) -> None:
    sentiment = SentimentBenchConfig(
        num_train=60, num_dev=20, num_test=20, num_annotators=10,
        epochs=2, feature_maps=4, embedding_dim=8,
    )
    ner = NERBenchConfig(
        num_train=30, num_dev=10, num_test=10, num_annotators=8,
        epochs=2, conv_features=8, gru_hidden=4, embedding_dim=8,
    )
    for seed in TRAINER_SEEDS:
        sentiment_task = build_sentiment_data(seed, sentiment)
        ner_task = build_ner_data(seed, ner)
        for smoothing in SMOOTHINGS:
            config = sentiment_paper_config(epochs=2)
            config.confusion_smoothing = smoothing
            classifier = LogicLNCLClassifier(
                TextCNN(
                    sentiment_task.embeddings,
                    TextCNNConfig(feature_maps=sentiment.feature_maps),
                    np.random.default_rng(seed + 1000),
                ),
                config, np.random.default_rng(seed + 2000), rule=ButRule(sentiment_task.but_id),
            )
            config = ner_paper_config(epochs=2)
            config.learning_rate = ner.learning_rate
            config.confusion_smoothing = smoothing
            tagger = LogicLNCLSequenceTagger(
                NERTagger(
                    ner_task.embeddings,
                    NERTaggerConfig(conv_features=ner.conv_features, gru_hidden=ner.gru_hidden),
                    np.random.default_rng(seed + 1000),
                ),
                config, np.random.default_rng(seed + 2000),
                rules=bio_transition_rules(CONLL_LABELS),
            )
            for name, trainer, task in (
                ("classification", classifier, sentiment_task),
                ("sequence", tagger, ner_task),
            ):
                prefix = f"lncl/{name}/seed={seed}/smoothing={smoothing}"

                def run():
                    trainer.fit(task.train, dev=task.dev)
                    for attr in ("qa_", "qb_", "qf_", "confusions_"):
                        out[f"{prefix}/{attr.rstrip('_')}"] = _stacked(getattr(trainer, attr))

                _attempt(out, prefix, run)


def collect() -> dict[str, np.ndarray]:
    """Every output the dump holds, keyed ``kind/method/case/output``."""
    out: dict[str, np.ndarray] = {}
    _methods(out)
    _eq12_eq13(out)
    _annotator_confusions(out)
    _trainers(out)
    return out


def compare(first: dict, second: dict) -> dict[str, str]:
    """Why each differing key differs: ``only in first``, ``only in second``,
    ``dtype`` (the values may still be equal) or ``differs`` (not
    ``array_equal``, NaN equal to NaN)."""
    differing = {}
    for key in sorted(set(first) | set(second)):
        if key not in second:
            differing[key] = "only in first"
        elif key not in first:
            differing[key] = "only in second"
        else:
            a, b = np.asarray(first[key]), np.asarray(second[key])
            if a.dtype != b.dtype:
                differing[key] = "dtype"
            elif not np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"):
                differing[key] = "differs"
    return differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    dump = commands.add_parser("dump", help="write every output of this tree to OUT.npz")
    dump.add_argument("out", type=Path)
    check = commands.add_parser("compare", help="print the keys on which two dumps differ")
    check.add_argument("first", type=Path)
    check.add_argument("second", type=Path)
    args = parser.parse_args(argv)

    if args.command == "dump":
        outputs = collect()
        np.savez(args.out, **outputs)
        print(f"{len(outputs)} arrays -> {args.out}")
        return 0
    with np.load(args.first) as first, np.load(args.second) as second:
        a, b = dict(first), dict(second)
    differing = compare(a, b)
    for key, reason in differing.items():
        print(f"{reason}: {key}")
    print(f"{len(set(a) | set(b)) - len(differing)} equal, {len(differing)} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
