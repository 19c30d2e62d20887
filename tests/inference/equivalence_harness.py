"""Randomized new-vs-reference equivalence harness for truth inference.

The vectorization discipline that made PRs 1-3 safe, packaged: every
method registered in :mod:`repro.inference.registry` must have an entry in
:data:`REFERENCE_IMPLEMENTATIONS` (its seed executable specification from
``tests/oracles.py``), and :func:`assert_matches_reference` pins the
vectorized implementation to that spec at atol 1e-10 on seeded random
crowds — posterior(s), confusion matrices, the annotator-model extras
(PM/CATD weights, GLAD α/β, the HMM-Crowd/BSC-seq transition matrix and
HMM-Crowd's initial distribution), and the iteration count, so
convergence behaviour is pinned too. The oracles take plain label arrays
and share no kernel or container code with ``repro``;
:func:`reference_result` is the one place a crowd container becomes
those arrays.

Crowd generation covers the axes that historically break vectorized
rewrites: crowd size (I/J/K), sparsity (dense redundancy down to one label
per instance), adversarial annotators (systematically anti-correlated),
single-annotator and unanimous crowds, and empty/degenerate containers.
Degenerate cases the pre-refactor implementations crash on (empty crowds,
zero-length sentences) are marked ``reference_comparable=False`` and go
through :func:`assert_degenerate_ok` instead: the *new* code must handle
them gracefully even though the old code never did.

To vectorize another method:

1. move the old implementation into ``tests/oracles.py`` in array form
   (a label matrix, or a list of sentence matrices, in; numpy/scipy and
   the result containers only — ``tests/tooling/test_oracles.py`` refuses
   any other ``repro`` import);
2. point ``REFERENCE_IMPLEMENTATIONS[(kind, name)]`` at it, through a
   small adapter when it returns a tuple rather than a result container;
3. done — ``test_equivalence_harness.py`` parametrizes over
   ``available_methods()`` × :func:`crowd_cases`, so the new method is
   pinned on every case without hand-rolling fixtures. A meta-test fails
   if a registered method has no reference entry.

Streaming methods (kind ``"streaming"``) follow the same discipline with
a different contract: their ``REFERENCE_IMPLEMENTATIONS`` entry is the
*batch twin at convergence*, and :func:`assert_streaming_replay_matches`
pins the replay-equivalence contract of :mod:`repro.inference.streaming`
— feeding a crowd through ``partial_fit`` in seeded random batches with
decay disabled, then ``fit_to_convergence()``, must reproduce the batch
posterior at atol 1e-8. The meta-test covers this kind too, so a future
streaming variant cannot register without shipping its batch reference.

Sharded methods (kind ``"sharded"``, :mod:`repro.inference.sharding`)
follow the tightest contract of all: their reference is the batch twin of
the same name, and :func:`assert_sharded_matches_batch` pins posterior,
confusions, iteration count, and method extras (weights/α/β) at atol
1e-10 on every layout in :data:`SHARD_LAYOUTS` — one shard, 2, 7,
one-instance shards, layouts padded with empty shards, a lazily consumed
out-of-core generator of standalone COO shards, an
``iter_shards``-budgeted split, and the on-disk ``ShardHandle`` layouts
(one COO file plus picklable range descriptors, memmapped and eager) that
the process-based parallel map ships to workers. The contract holds
regardless of executor: ``assert_sharded_matches_batch`` forwards
``executor=``/``workers=`` so the same pin runs through thread and
process pools. The meta-test covers this kind too.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.autodiff.dtypes import equivalence_atol
from repro.crowd.sharding import save_shard_handles
from repro.crowd.types import MISSING, CrowdLabelMatrix, SequenceCrowdLabels
from repro.experiments.streaming_suite import stream_crowd_in_batches
from repro.inference import InferenceResult, SequenceInferenceResult, get_method
from repro.inference.sharding import run_sharded

from .. import oracles

__all__ = [
    "CrowdCase",
    "crowd_cases",
    "random_classification_crowd",
    "random_sequence_crowd",
    "random_batch_sizes",
    "REFERENCE_IMPLEMENTATIONS",
    "METHOD_OVERRIDES",
    "SHARD_LAYOUTS",
    "method_supports",
    "reference_result",
    "assert_matches_reference",
    "assert_degenerate_ok",
    "assert_streaming_replay_matches",
    "assert_sharded_matches_batch",
]


# --------------------------------------------------------------------- #
# Crowd generation
# --------------------------------------------------------------------- #
def random_classification_crowd(
    seed: int,
    instances: int,
    annotators: int,
    classes: int,
    mean_labels: float = 4.0,
    adversarial: int = 0,
) -> CrowdLabelMatrix:
    """Seeded random crowd with controllable sparsity and adversaries.

    Each instance draws ``Poisson(mean_labels - 1) + 1`` annotators (so the
    long tail of single-label instances appears at low means). Annotator
    accuracies are uniform in [0.55, 0.95] except the first
    ``adversarial`` annotators, who are anti-correlated (accuracy in
    [0.02, 0.2]) — the regime GLAD's negative-ability and PM/CATD's
    weighting must survive.
    """
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, classes, size=instances)
    accuracy = rng.uniform(0.55, 0.95, size=annotators)
    if adversarial:
        accuracy[:adversarial] = rng.uniform(0.02, 0.2, size=adversarial)
    labels = np.full((instances, annotators), MISSING, dtype=np.int64)
    for i in range(instances):
        count = min(int(rng.poisson(max(mean_labels - 1.0, 0.0))) + 1, annotators)
        chosen = rng.choice(annotators, size=count, replace=False)
        correct = rng.random(count) < accuracy[chosen]
        wrong = (truth[i] + rng.integers(1, classes, size=count)) % classes
        labels[i, chosen] = np.where(correct, truth[i], wrong)
    return CrowdLabelMatrix(labels, classes)


def random_sequence_crowd(
    seed: int,
    sentences: int,
    annotators: int,
    classes: int,
    t_max: int = 12,
    per_sentence: int = 3,
    allow_empty_sentences: bool = False,
) -> SequenceCrowdLabels:
    """Seeded random sequence crowd (each annotator labels whole sentences)."""
    rng = np.random.default_rng(seed)
    labels = []
    for index in range(sentences):
        low = 0 if allow_empty_sentences and index % 4 == 1 else 1
        t = int(rng.integers(low, t_max + 1))
        matrix = np.full((t, annotators), MISSING, dtype=np.int64)
        chosen = rng.choice(annotators, size=min(per_sentence, annotators), replace=False)
        for j in chosen:
            matrix[:, j] = rng.integers(0, classes, size=t)
        labels.append(matrix)
    return SequenceCrowdLabels(labels, classes, annotators)


def _unanimous_crowd(seed: int, instances: int, annotators: int, classes: int) -> CrowdLabelMatrix:
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, classes, size=instances)
    return CrowdLabelMatrix(np.repeat(truth[:, None], annotators, axis=1), classes)


def _single_annotator_crowd(seed: int, instances: int, classes: int) -> CrowdLabelMatrix:
    rng = np.random.default_rng(seed)
    return CrowdLabelMatrix(rng.integers(0, classes, size=(instances, 1)), classes)


@dataclass(frozen=True)
class CrowdCase:
    """One named crowd configuration the whole method matrix runs on."""

    name: str
    kind: str  # "classification" | "sequence"
    build: Callable[[], object]
    # False → the seed oracle cannot run this (e.g. empty crowds); the
    # new implementation is checked behaviourally instead.
    reference_comparable: bool = True


def crowd_cases(kind: str | None = None) -> list[CrowdCase]:
    """The harness's case matrix, optionally filtered by kind."""
    cases = [
        CrowdCase(
            "binary-dense", "classification",
            lambda: random_classification_crowd(11, instances=120, annotators=8, classes=2, mean_labels=5.0),
        ),
        CrowdCase(
            "binary-sparse-adversarial", "classification",
            lambda: random_classification_crowd(23, instances=150, annotators=20, classes=2,
                                                mean_labels=2.0, adversarial=5),
        ),
        CrowdCase(
            "multiclass-midsize", "classification",
            lambda: random_classification_crowd(37, instances=200, annotators=15, classes=4, mean_labels=4.0),
        ),
        CrowdCase(
            "multiclass-long-tail", "classification",
            lambda: random_classification_crowd(41, instances=90, annotators=40, classes=3, mean_labels=1.5),
        ),
        CrowdCase(
            "single-annotator", "classification",
            lambda: _single_annotator_crowd(53, instances=40, classes=2),
        ),
        CrowdCase(
            "unanimous", "classification",
            lambda: _unanimous_crowd(59, instances=60, annotators=5, classes=2),
        ),
        CrowdCase(
            "one-instance", "classification",
            lambda: random_classification_crowd(61, instances=1, annotators=6, classes=2, mean_labels=4.0),
        ),
        CrowdCase(
            # Binary so every classification method (including GLAD) runs it.
            "empty-crowd", "classification",
            lambda: CrowdLabelMatrix(np.zeros((0, 4), dtype=np.int64), 2),
            reference_comparable=False,
        ),
        CrowdCase(
            "seq-midsize", "sequence",
            lambda: random_sequence_crowd(67, sentences=25, annotators=6, classes=5),
        ),
        CrowdCase(
            "seq-binary-sparse", "sequence",
            lambda: random_sequence_crowd(71, sentences=30, annotators=10, classes=2, per_sentence=1),
        ),
        CrowdCase(
            "seq-empty-sentences", "sequence",
            lambda: random_sequence_crowd(73, sentences=16, annotators=5, classes=3,
                                          allow_empty_sentences=True),
            reference_comparable=False,
        ),
        CrowdCase(
            "seq-empty-crowd", "sequence",
            lambda: SequenceCrowdLabels([], num_classes=4, num_annotators=3),
            reference_comparable=False,
        ),
    ]
    if kind is not None:
        cases = [case for case in cases if case.kind == kind]
    return cases


# --------------------------------------------------------------------- #
# Reference registry
# --------------------------------------------------------------------- #
# Batch oracles share one signature: ``(labels, num_classes, **params) ->
# InferenceResult`` for classification, ``(labels, num_annotators,
# num_classes, **params) -> SequenceInferenceResult`` for sequences. The
# seed bodies return tuples; these adapters only repackage them, and
# ``functools.wraps`` records the oracle each one wraps.
@functools.wraps(oracles.seed_majority_vote_posterior)
def _majority_vote(labels, num_classes):
    return InferenceResult(oracles.seed_majority_vote_posterior(labels, num_classes))


@functools.wraps(oracles.seed_dawid_skene)
def _dawid_skene(labels, num_classes, **params):
    posterior, confusions, iterations = oracles.seed_dawid_skene(labels, num_classes, **params)
    return InferenceResult(posterior, confusions, extras={"iterations": iterations})


@functools.wraps(oracles.seed_glad)
def _glad(labels, num_classes, *, em_iterations, **params):
    # The seed GLAD has no tolerance: it always runs its whole EM budget.
    posterior, alpha, beta = oracles.seed_glad(labels, em_iterations=em_iterations, **params)
    return InferenceResult(
        posterior, extras={"alpha": alpha, "beta": beta, "iterations": em_iterations}
    )


def _weighted_vote(oracle: Callable) -> Callable:
    """Adapter for the PM/CATD oracles' ``(posterior, weights, iterations)``."""

    @functools.wraps(oracle)
    def run(labels, num_classes, **params):
        posterior, weights, iterations = oracle(labels, num_classes, **params)
        return InferenceResult(
            posterior, extras={"weights": weights, "iterations": iterations}
        )

    return run


def _token_level(classification_oracle: Callable) -> Callable:
    """Sequence twin of a classification oracle, as ``TokenLevelInference``
    runs it: stack the sentences into one token matrix, run, unstack."""

    @functools.wraps(classification_oracle)
    def run(labels, num_annotators, num_classes, **params):
        offsets = np.cumsum([0] + [matrix.shape[0] for matrix in labels])
        result = classification_oracle(np.concatenate(labels), num_classes, **params)
        return SequenceInferenceResult(
            posteriors=[result.posterior[a:b] for a, b in zip(offsets[:-1], offsets[1:])],
            confusions=result.confusions,
            extras=dict(result.extras),
        )

    return run


def _batch_at_convergence(name: str) -> Callable:
    """Reference for a streaming method: its batch twin run to convergence
    on the whole crowd — what a no-decay replay must reproduce."""

    def run(crowd: CrowdLabelMatrix, **params):
        return get_method(name, kind="classification", **params).infer(crowd)

    return run


# (kind, registered name) → executable specification: the seed oracle for
# batch methods (called through :func:`reference_result`), the batch twin
# at convergence for streaming and sharded methods (called on the crowd).
# Every name in available_methods() must appear here; the meta-test in
# test_equivalence_harness.py enforces it.
REFERENCE_IMPLEMENTATIONS: dict[tuple[str, str], Callable] = {
    ("classification", "MV"): _majority_vote,
    ("classification", "DS"): _dawid_skene,
    ("classification", "GLAD"): _glad,
    ("classification", "PM"): _weighted_vote(oracles.seed_pm),
    ("classification", "CATD"): _weighted_vote(oracles.seed_catd),
    ("classification", "IBCC"): oracles.seed_ibcc,
    ("sequence", "MV"): _token_level(_majority_vote),
    ("sequence", "DS"): _token_level(_dawid_skene),
    ("sequence", "IBCC"): _token_level(oracles.seed_ibcc),
    ("sequence", "BSC-seq"): oracles.seed_bsc_seq,
    ("sequence", "HMM-Crowd"): oracles.seed_hmm_crowd,
    ("streaming", "MV"): _batch_at_convergence("MV"),
    ("streaming", "DS"): _batch_at_convergence("DS"),
    ("streaming", "GLAD"): _batch_at_convergence("GLAD"),
    # Sharded twins: the reference is the batch method itself — any shard
    # layout must reproduce it at atol 1e-10.
    ("sharded", "MV"): _batch_at_convergence("MV"),
    ("sharded", "DS"): _batch_at_convergence("DS"),
    ("sharded", "IBCC"): _batch_at_convergence("IBCC"),
    ("sharded", "GLAD"): _batch_at_convergence("GLAD"),
    ("sharded", "PM"): _batch_at_convergence("PM"),
    ("sharded", "CATD"): _batch_at_convergence("CATD"),
}

# Constructor keywords applied to BOTH sides of a comparison (keeps the
# harness fast without loosening the pin; both signatures must accept them).
METHOD_OVERRIDES: dict[tuple[str, str], dict] = {
    ("classification", "GLAD"): {"em_iterations": 15, "gradient_steps": 15},
    ("sequence", "BSC-seq"): {"max_iterations": 10},
    ("sequence", "HMM-Crowd"): {"max_iterations": 10},
    ("streaming", "GLAD"): {"em_iterations": 15, "gradient_steps": 15},
    # Single-instance-shard layouts multiply the per-pass Python cost by
    # I; smaller (shared) budgets keep the sweep fast without loosening
    # the pin — both sides run the same budget and the iteration counts
    # are still compared.
    ("sharded", "GLAD"): {"em_iterations": 6, "gradient_steps": 6},
    ("sharded", "DS"): {"max_iterations": 25},
    ("sharded", "IBCC"): {"max_iterations": 25},
}


def method_supports(name: str, kind: str, crowd) -> bool:
    """Structural applicability (GLAD is binary-only, as in the paper)."""
    if name == "GLAD":
        return crowd.num_classes == 2
    return True


# --------------------------------------------------------------------- #
# Assertions
# --------------------------------------------------------------------- #
def _assert_posteriors_close(result, expected, kind: str, atol: float, context: str) -> None:
    if kind == "classification":
        np.testing.assert_allclose(
            result.posterior, expected.posterior, atol=atol, rtol=0,
            err_msg=f"posterior diverged from reference ({context})",
        )
    else:
        assert len(result.posteriors) == len(expected.posteriors), context
        for i, (new, old) in enumerate(zip(result.posteriors, expected.posteriors)):
            np.testing.assert_allclose(
                new, old, atol=atol, rtol=0,
                err_msg=f"sentence {i} posterior diverged from reference ({context})",
            )


def reference_result(name: str, kind: str, crowd, **params):
    """Run the ``(kind, name)`` batch oracle on ``crowd``.

    The one place a container becomes the plain arrays the oracles take:
    the ``(I, J)`` label matrix, or the list of ``(T_i, J)`` sentence
    matrices plus the annotator count.
    """
    oracle = REFERENCE_IMPLEMENTATIONS[(kind, name)]
    if kind == "sequence":
        return oracle(crowd.labels, crowd.num_annotators, crowd.num_classes, **params)
    return oracle(crowd.labels, crowd.num_classes, **params)


# Annotator-model extras pinned to the oracle wherever both sides report
# them. ``log_likelihood`` and ``last_change`` are not: the seed loops
# report them one sweep stale at convergence.
REFERENCE_EXTRAS = ("weights", "alpha", "beta", "transition", "initial")


def assert_matches_reference(
    name: str, kind: str, crowd, atol: float = equivalence_atol("float64")
) -> None:
    """Pin the registered method to its reference on one crowd.

    Compares posterior(s), confusion matrices when both sides model them,
    the :data:`REFERENCE_EXTRAS` both sides report, and the reported
    iteration count (convergence behaviour is part of the contract, not an
    implementation detail).
    """
    params = METHOD_OVERRIDES.get((kind, name), {})
    result = get_method(name, kind=kind, **params).infer(crowd)
    expected = reference_result(name, kind, crowd, **params)
    context = f"method={name} kind={kind}"
    _assert_posteriors_close(result, expected, kind, atol, context)
    if result.confusions is not None and expected.confusions is not None:
        np.testing.assert_allclose(
            result.confusions, expected.confusions, atol=atol, rtol=0,
            err_msg=f"confusions diverged from reference ({context})",
        )
    for key in REFERENCE_EXTRAS:
        if key in expected.extras and key in result.extras:
            np.testing.assert_allclose(
                result.extras[key], expected.extras[key], atol=atol, rtol=0,
                err_msg=f"extras[{key!r}] diverged from reference ({context})",
            )
    if "iterations" in expected.extras:
        assert result.extras.get("iterations") == expected.extras["iterations"], (
            f"iteration count diverged ({context}): "
            f"{result.extras.get('iterations')} != {expected.extras['iterations']}"
        )


def random_batch_sizes(seed: int, total: int) -> list[int]:
    """Seeded arrival pattern covering the awkward shapes: uneven batches,
    quiet ticks (empty batches), and single-instance dribbles."""
    rng = np.random.default_rng(seed)
    sizes: list[int] = []
    remaining = total
    while remaining > 0:
        if rng.random() < 0.2:
            sizes.append(0)
        size = int(rng.integers(1, max(total // 3, 2) + 1))
        size = min(size, remaining)
        sizes.append(size)
        remaining -= size
    if not sizes:
        sizes = [0]  # an empty crowd still streams one (empty) batch
    return sizes


def assert_streaming_replay_matches(name: str, crowd, seed: int, atol: float = 1e-8) -> None:
    """Pin the streaming replay-equivalence contract on one crowd.

    Feeds the crowd through ``partial_fit`` in a seeded random batch
    pattern (decay disabled), checks every intermediate result is
    well-formed, then requires ``fit_to_convergence()`` to reproduce the
    batch twin's posterior (and confusions, when both model them) at
    ``atol``. Majority vote is additionally pinned *incrementally*: its
    streaming posterior must equal the batch posterior after the final
    update with no convergence call at all.
    """
    params = METHOD_OVERRIDES.get(("streaming", name), {})
    stream = get_method(name, kind="streaming", **params)
    sizes = random_batch_sizes(seed, crowd.num_instances)
    for batch in stream_crowd_in_batches(crowd, sizes):
        stream.partial_fit(batch)
    context = f"method={name} kind=streaming"

    online = stream.result()
    assert online.posterior.shape == (crowd.num_instances, crowd.num_classes), context
    assert np.isfinite(online.posterior).all(), context
    if online.posterior.size:
        np.testing.assert_allclose(
            online.posterior.sum(axis=1), 1.0, atol=1e-8,
            err_msg=f"streaming posterior not normalized ({context})",
        )
    expected = REFERENCE_IMPLEMENTATIONS[("streaming", name)](crowd, **params)
    if name == "MV":
        np.testing.assert_allclose(
            online.posterior, expected.posterior, atol=atol, rtol=0,
            err_msg=f"incremental MV diverged from batch MV ({context})",
        )
    replay = stream.fit_to_convergence()
    np.testing.assert_allclose(
        replay.posterior, expected.posterior, atol=atol, rtol=0,
        err_msg=f"replayed stream diverged from batch twin ({context})",
    )
    if replay.confusions is not None and expected.confusions is not None:
        np.testing.assert_allclose(
            replay.confusions, expected.confusions, atol=atol, rtol=0,
            err_msg=f"replayed confusions diverged from batch twin ({context})",
        )
    if "iterations" in expected.extras:
        assert replay.extras.get("iterations") == expected.extras["iterations"], context


def _out_of_core_source(crowd: CrowdLabelMatrix, num_shards: int):
    """Callable yielding standalone COO shards lazily, one per iteration —
    the out-of-core form: nothing references the parent container."""

    def source():
        for shard in crowd.shards(num_shards):
            yield shard.to_sparse()

    return source


# Session-scoped scratch dir for the on-disk handle layouts. Each layout
# call writes a *fresh* file (handle caches key by path, and shard files
# are immutable while handles are live — see repro.inference.sharding).
_HANDLE_DIR = Path(tempfile.mkdtemp(prefix="repro-harness-handles-"))
atexit.register(shutil.rmtree, _HANDLE_DIR, ignore_errors=True)
_handle_counter = itertools.count()


def _handle_source(crowd: CrowdLabelMatrix, num_shards: int, mmap: bool):
    path = _HANDLE_DIR / f"crowd-{next(_handle_counter):05d}.npy"
    return save_shard_handles(crowd, path, num_shards, mmap=mmap)


# name → (crowd → shard source): the layout axis of the sharded contract.
# Covers the shard counts the tentpole names (1, 2, 7, one-instance,
# empty shards), both lazy source forms, and the on-disk ShardHandle
# layouts (one COO file + range descriptors, memmapped and eager).
SHARD_LAYOUTS: dict[str, Callable] = {
    "one-shard": lambda crowd: crowd.shards(1),
    "two-shards": lambda crowd: crowd.shards(2),
    "seven-shards": lambda crowd: crowd.shards(7),
    "single-instance-shards": lambda crowd: crowd.shards(max(crowd.num_instances, 1)),
    # array_split semantics pad the tail with empty shards when n > I.
    "with-empty-shards": lambda crowd: crowd.shards(crowd.num_instances + 3),
    "out-of-core-generator": lambda crowd: _out_of_core_source(crowd, 5),
    "observation-budgeted": lambda crowd: (lambda: crowd.iter_shards(16)),
    "on-disk-handles": lambda crowd: _handle_source(crowd, 4, mmap=True),
    "on-disk-handles-eager": lambda crowd: _handle_source(crowd, 3, mmap=False),
}


def assert_sharded_matches_batch(
    name: str, crowd, make_source: Callable, atol: float = equivalence_atol("float64"),
    executor=None, workers: int | None = None,
) -> None:
    """Pin one sharded method to its batch twin on one crowd and layout.

    Compares the posterior, confusion matrices (when both model them), the
    iteration count, and the per-annotator / per-instance extras the
    method family reports (weights, α, β) — convergence behaviour and the
    annotator model are part of the contract, not just the posterior.
    ``executor`` / ``workers`` forward to :func:`run_sharded`, so the same
    pin can be taken through a thread or process pool.
    """
    params = METHOD_OVERRIDES.get(("sharded", name), {})
    expected = get_method(name, kind="classification", **params).infer(crowd)
    result = run_sharded(
        name, make_source(crowd), executor=executor, workers=workers, **params
    )
    context = f"method={name} kind=sharded"
    np.testing.assert_allclose(
        result.posterior, expected.posterior, atol=atol, rtol=0,
        err_msg=f"posterior diverged from batch twin ({context})",
    )
    if result.confusions is not None and expected.confusions is not None:
        np.testing.assert_allclose(
            result.confusions, expected.confusions, atol=atol, rtol=0,
            err_msg=f"confusions diverged from batch twin ({context})",
        )
    if "iterations" in expected.extras:
        assert result.extras.get("iterations") == expected.extras["iterations"], (
            f"iteration count diverged ({context}): "
            f"{result.extras.get('iterations')} != {expected.extras['iterations']}"
        )
    for key in ("weights", "alpha", "beta"):
        if key in expected.extras and key in result.extras:
            np.testing.assert_allclose(
                result.extras[key], expected.extras[key], atol=atol, rtol=0,
                err_msg=f"extras[{key!r}] diverged from batch twin ({context})",
            )


def assert_degenerate_ok(name: str, kind: str, crowd) -> None:
    """Behavioural contract on crowds the pre-refactor code crashed on:
    the method must run and return well-formed, finite, normalized output."""
    params = METHOD_OVERRIDES.get((kind, name), {})
    result = get_method(name, kind=kind, **params).infer(crowd)
    if kind == "classification":
        posteriors = [result.posterior]
        assert result.posterior.shape == (crowd.num_instances, crowd.num_classes)
    else:
        posteriors = result.posteriors
        assert len(posteriors) == crowd.num_instances
    for posterior in posteriors:
        assert np.isfinite(posterior).all()
        if posterior.size:
            np.testing.assert_allclose(posterior.sum(axis=1), 1.0, atol=1e-8)
