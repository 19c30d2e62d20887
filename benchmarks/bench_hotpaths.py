"""Hot-path microbenchmarks with a tracked JSON trajectory.

Times the runtime-dominating kernels of the crowd tracks against their
frozen seed-commit implementations, the executable specifications in
``tests/oracles.py``:

* **gru** — one training step (forward + backward through a squared loss)
  of the fused packed GRU layer vs. the seed per-gate time loop, identical
  weights and data, at the paper's tagger scale (B=32, T=50, H=50,
  D=conv features).
* **sequence_em** — one Logic-LNCL pseudo-E/M round (token-level Eq. 12
  confusion update + Eq. 13 posterior) vectorized vs. the seed
  per-sentence/per-annotator loops, J=47 annotators as in the CoNLL AMT
  crowd.
* **dawid_skene** — classic DS EM on a synthetic classification crowd:
  sparse-COO kernels (``repro.inference.primitives``) vs. the seed's
  dense ``(I, J, K)`` one-hot einsums, at the paper's sentiment-crowd
  scale mapped to the NER tag set (I=2000, J=47, K=9).
* **forward_backward** — one HMM-Crowd/BSC-seq E-round: the batched
  length-masked forward–backward over padded ``(I, T_max, K)`` emissions
  vs. the seed per-chain Python loop (I=300, T≤50, K=9).
* **glad** — full GLAD EM (E-steps + inner gradient ascent) on the COO
  triples vs. the pre-PR-3 dense ``(I, J)`` masked scans, at the
  sentiment-crowd scale with the CoNLL AMT annotator count (I=2000,
  J=47, binary).
* **pm_catd** — one full PM run plus one full CATD run on the shared
  ``annotator_agreement``/``weighted_vote_scores`` kernels vs. the
  pre-PR-3 dense ``(I, J, K)`` one-hot einsums (I=2000, J=47, K=9).
* **conv1d** — one width-5 conv training step (forward + backward) via
  the width-loop variant vs. the pre-PR-3 im2col path that materializes
  the ``(B, T_out, width·D)`` window buffer, at the tagger's embedding
  scale (B=32, T=50, D=300). The headline here is the removed buffer
  (``buffer_bytes_avoided``), not the speedup.
* **streaming** — a label stream ingested end to end: stepwise-EM
  streaming DS (``partial_fit`` + result assembly per batch) vs. the
  naive seed-era loop that re-runs the full dense DS EM from scratch
  after every batch. Alongside the total-stream speedup it records
  first-vs-last per-update costs for both sides — the streaming side's
  update cost scales with the batch, the naive side's with everything
  seen so far. Equivalence: replaying the stream with no decay and
  converging must reproduce the full-crowd DS posterior (atol 1e-8, the
  streaming replay contract).

* **dtype** — float64 (reference) vs float32 (fast path) training epochs
  of the two paper networks: a Kim TextCNN sentiment epoch
  (``run_classification_epoch``) and a CNN+GRU tagger epoch
  (``run_sequence_epoch``). Both twins are built the same way and differ
  only in ``TrainerConfig.dtype``; the trainer's cast makes the float32
  model's weights exactly the rounded float64 ones. Reports epoch wall
  clock, ``tracemalloc`` peak memory for the training step (the tape +
  activations dominate), and the max abs initial-logits difference
  between the twins (gated at 1e-2 — a correctness check that the fast
  path computes the same network, not a tolerance for sloppiness).

* **sharded** — in-memory batch DS (``DawidSkene.infer``: the whole
  crowd as one shard) vs. *out-of-core* sharded DS (``infer_sharded`` on
  the same instance, ``repro.inference.sharding``): the label matrix lives on disk as COO
  triples, each EM round lazily materializes one
  ``SparseLabelShard`` at a time from a memmap, maps it to mergeable
  ``ShardStats``, and reduces before the global M-step. Reports wall
  clock both sides plus ``tracemalloc`` peak memory: the sharded side's
  peak is bounded by the largest shard (plus the O(I·K) posterior), not
  the whole crowd. Two scales: the headline entry runs at serving scale
  (I=20000), where the per-pass shard-rebuild tax amortizes to ~1.2× of
  batch wall clock; the nested ``paper_scale`` entry runs the paper's
  sentiment-crowd scale (I=2000), where numpy's fixed per-call overheads
  on shard-sized arrays dominate (~1.5× at 2 shards — recorded, not
  hidden). Equivalence: identical EM at atol 1e-9 (per-shard partial
  sums regroup floating-point additions; same contract the equivalence
  harness pins at 1e-10 on smaller crowds).

* **sharded_parallel** — multi-core sharded DS over *on-disk shard
  handles*: the crowd is written once as a row-sorted shard file,
  ``ShardHandle`` row ranges go to a ``ProcessPoolExecutor``, workers
  memmap the file themselves, and per-round model state is broadcast
  once per pass. Sweeps worker counts (``--workers``, default 1/2/4
  full) against in-memory batch DS and single-process sharded DS at
  I=1e5, where per-round compute dwarfs the submit/broadcast overhead.
  Every parallel run must be *bit-identical* to the serial sharded run
  (deterministic tree reduce), and serial sharded must match batch at
  1e-9. The >2×-vs-batch target assumes ≥4 physical cores; the payload
  records ``cpu_count`` so numbers from a smaller box read as what they
  are.

* **serving** — a :class:`~repro.serving.service.CrowdService` absorbing
  the bursty many-dataset schedule of :mod:`repro.serving.workload`
  (burst/dribble/quiet arrivals interleaved with Poisson query traffic)
  under a resident budget a fraction of the dataset count, so LRU
  eviction churn is part of the measured path. Reports sustained
  updates/sec plus p50/p99 query latency, and the service's
  eviction/rehydration/checkpoint counters. Unlike the other sections
  there is no seed twin — the subsystem is new — so the gate is the
  recovery contract instead: before anything is timed, a mid-schedule
  checkpoint + simulated crash + restart + per-dataset tail replay must
  reproduce uninterrupted per-dataset streams at 1e-10.

Both sides of each comparison run interleaved in the same process,
best-of-N, because this box's wall-clock is noisy. Sentence lengths are
drawn geometric with mean ≈14.5 tokens (CoNLL-2003-like) and padded to
T=50, which is the workload the packed GRU and masked losses actually see.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py            # full
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --smoke    # <30 s
    ... [--output BENCH_hotpaths.json] [--repeats N] [--tag pr2]

Writes ``BENCH_hotpaths.json`` at the repo root by default; with
``--tag <name>`` a full (non-smoke) run is also archived to
``benchmarks/history/<name>.json`` so the per-PR trend line survives the
next overwrite. Exits nonzero on any equivalence failure (before/after
disagreeing is a correctness bug, not a perf datum).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

# The repo root makes the test-side oracle module (``tests.oracles``)
# importable; ``src`` makes ``repro`` importable without installing it.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tests.oracles import (  # noqa: E402
    MISSING,
    SeedGRUCell,
    SeedTensor,
    seed_catd,
    seed_conv1d_train_step,
    seed_dawid_skene,
    seed_forward_backward,
    seed_glad,
    seed_gru_forward,
    seed_pm,
    seed_sequence_posterior_qa,
    seed_sequence_update_confusions,
    seed_streaming_full_recompute,
)

from repro.autodiff import Tensor, functional as F, no_grad  # noqa: E402
from repro.autodiff.nn.rnn import GRU  # noqa: E402
from repro.baselines.common import (  # noqa: E402
    TrainerConfig,
    build_optimizer,
    run_classification_epoch,
    run_sequence_epoch,
)
from repro.models import (  # noqa: E402
    NERTagger,
    NERTaggerConfig,
    TextCNN,
    TextCNNConfig,
)
from repro.core.em import (  # noqa: E402
    sequence_posterior_qa,
    sequence_update_confusions,
)
from repro.crowd.sharding import (  # noqa: E402
    SparseLabelShard,
    partition_bounds,
    save_shard_handles,
)
from repro.crowd.types import CrowdLabelMatrix, SequenceCrowdLabels  # noqa: E402
from repro.inference.catd import CATD  # noqa: E402
from repro.inference.dawid_skene import DawidSkene  # noqa: E402
from repro.inference.glad import GLAD  # noqa: E402
from repro.inference.pm import PM  # noqa: E402
from repro.experiments.streaming_suite import StreamScenarioConfig  # noqa: E402
from repro.inference.primitives import batched_forward_backward  # noqa: E402
from repro.inference.streaming import StreamingDawidSkene  # noqa: E402
from repro.serving import CrowdService, build_serving_workload  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
HISTORY_DIR = Path(__file__).resolve().parent / "history"


def conll_like_lengths(rng: np.random.Generator, n: int, t_max: int) -> np.ndarray:
    """Geometric lengths, mean ≈14.5 (CoNLL-2003), clipped to [1, t_max];
    one row pinned at t_max (batches are padded to their longest sentence)."""
    lengths = np.minimum(np.maximum(rng.geometric(1.0 / 14.5, size=n), 1), t_max)
    lengths[0] = t_max
    return lengths


def best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls (noise-robust)."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# --------------------------------------------------------------------- #
# GRU forward+backward
# --------------------------------------------------------------------- #
def bench_gru(batch, t_max, hidden, in_dim, repeats, rng) -> dict:
    gru = GRU(in_dim, hidden, np.random.default_rng(42))
    x = rng.normal(size=(batch, t_max, in_dim))
    lengths = conll_like_lengths(rng, batch, t_max)
    mask = np.arange(t_max)[None, :] < lengths[:, None]

    # Seed cell shares the fused weights, sliced per gate.
    H = hidden
    gates = {}
    for index, gate in enumerate("rzn"):
        gates[f"w_x{gate}"] = gru.w_x.data[:, index * H : (index + 1) * H].copy()
        gates[f"w_h{gate}"] = gru.w_h.data[:, index * H : (index + 1) * H].copy()
        gates[f"b_{gate}"] = gru.bias.data[index * H : (index + 1) * H].copy()
    seed_cell = SeedGRUCell(gates)

    def run_fused():
        out = gru(Tensor(x, requires_grad=True), mask=mask)
        (out**2).sum().backward()
        return out.numpy()

    def run_seed():
        for p in seed_cell.parameters():
            p.zero_grad()
        out = seed_gru_forward(seed_cell, SeedTensor(x, requires_grad=True), mask)
        (out**2).sum().backward()
        return out.data

    fused_out = run_fused()
    seed_out = run_seed()
    max_diff = float(np.abs(fused_out - seed_out).max())
    if max_diff > 1e-10:
        raise AssertionError(f"fused GRU diverged from seed GRU: {max_diff}")

    fused_s, seed_s = np.inf, np.inf
    for _ in range(repeats):  # interleave to share machine-noise windows
        fused_s = min(fused_s, best_of(run_fused, 1))
        seed_s = min(seed_s, best_of(run_seed, 1))
    return {
        "config": {"B": batch, "T": t_max, "H": hidden, "D": in_dim,
                   "lengths": "geometric(mean≈14.5) clipped to T"},
        "before_ms": seed_s * 1e3,
        "after_ms": fused_s * 1e3,
        "speedup": seed_s / fused_s,
        "max_abs_diff": max_diff,
    }


# --------------------------------------------------------------------- #
# Logic-LNCL sequence pseudo-E/M round
# --------------------------------------------------------------------- #
def make_sequence_crowd(rng, instances, annotators, classes, t_max, per_sentence):
    labels = []
    for _ in range(instances):
        t = int(np.minimum(np.maximum(rng.geometric(1.0 / 14.5), 1), t_max))
        matrix = np.full((t, annotators), MISSING, dtype=np.int64)
        chosen = rng.choice(annotators, size=per_sentence, replace=False)
        for j in chosen:
            matrix[:, j] = rng.integers(0, classes, size=t)
        labels.append(matrix)
    return SequenceCrowdLabels(labels, classes, annotators)


def bench_sequence_em(instances, annotators, classes, t_max, repeats, rng) -> dict:
    crowd = make_sequence_crowd(rng, instances, annotators, classes, t_max, per_sentence=5)
    qf = [rng.dirichlet(np.ones(classes), size=m.shape[0]) for m in crowd.labels]
    proba = [rng.dirichlet(np.ones(classes), size=m.shape[0]) for m in crowd.labels]

    def run_vectorized():
        confusions = sequence_update_confusions(qf, crowd)
        return confusions, sequence_posterior_qa(proba, crowd, confusions)

    def run_seed():
        confusions = seed_sequence_update_confusions(
            qf, crowd.labels, annotators, classes
        )
        return confusions, seed_sequence_posterior_qa(proba, crowd.labels, confusions)

    conf_new, post_new = run_vectorized()
    conf_old, post_old = run_seed()
    max_diff = float(
        max(
            np.abs(conf_new - conf_old).max(),
            max(np.abs(a - b).max() for a, b in zip(post_new, post_old)),
        )
    )
    if max_diff > 1e-10:
        raise AssertionError(f"vectorized EM diverged from seed loops: {max_diff}")

    vec_s, seed_s = np.inf, np.inf
    for _ in range(repeats):
        vec_s = min(vec_s, best_of(run_vectorized, 1))
        seed_s = min(seed_s, best_of(run_seed, 1))
    return {
        "config": {"I": instances, "J": annotators, "K": classes, "T_max": t_max,
                   "annotators_per_sentence": 5},
        "before_ms": seed_s * 1e3,
        "after_ms": vec_s * 1e3,
        "speedup": seed_s / vec_s,
        "max_abs_diff": max_diff,
    }


# --------------------------------------------------------------------- #
# Dawid–Skene EM: sparse COO kernels vs. seed dense one-hot einsums
# --------------------------------------------------------------------- #
def make_classification_labels(rng, instances, annotators, classes, per_instance=3):
    """Synthetic crowd at fixed redundancy, shared by the DS/GLAD/PM/CATD
    benches (3 labels per instance, 70% annotator accuracy)."""
    labels = np.full((instances, annotators), MISSING, dtype=np.int64)
    truth = rng.integers(0, classes, size=instances)
    for i in range(instances):
        chosen = rng.choice(annotators, size=per_instance, replace=False)
        noisy = np.where(
            rng.random(per_instance) < 0.7,
            truth[i],
            rng.integers(0, classes, size=per_instance),
        )
        labels[i, chosen] = noisy
    return labels


def bench_dawid_skene(instances, annotators, classes, iterations, repeats, rng) -> dict:
    labels = make_classification_labels(rng, instances, annotators, classes)
    crowd = CrowdLabelMatrix(labels, classes)
    method = DawidSkene(max_iterations=iterations, tolerance=0.0)

    def run_vectorized():
        return method.infer(crowd)

    def run_seed():
        return seed_dawid_skene(labels, classes, max_iterations=iterations, tolerance=0.0)

    result_new = run_vectorized()
    posterior_old, confusions_old, _ = run_seed()
    max_diff = float(
        max(
            np.abs(result_new.posterior - posterior_old).max(),
            np.abs(result_new.confusions - confusions_old).max(),
        )
    )
    if max_diff > 1e-10:
        raise AssertionError(f"vectorized DS diverged from seed DS: {max_diff}")

    vec_s, seed_s = np.inf, np.inf
    for _ in range(repeats):
        vec_s = min(vec_s, best_of(run_vectorized, 1))
        seed_s = min(seed_s, best_of(run_seed, 1))
    return {
        "config": {"I": instances, "J": annotators, "K": classes,
                   "iterations": iterations},
        "before_ms": seed_s * 1e3,
        "after_ms": vec_s * 1e3,
        "speedup": seed_s / vec_s,
        "max_abs_diff": max_diff,
    }


# --------------------------------------------------------------------- #
# HMM-Crowd/BSC-seq E-round: batched forward–backward vs. per-chain loop
# --------------------------------------------------------------------- #
def bench_forward_backward(instances, classes, t_max, repeats, rng) -> dict:
    lengths = conll_like_lengths(rng, instances, t_max)
    log_emissions = [np.log(rng.random((t, classes)) + 1e-3) for t in lengths]
    transition = rng.dirichlet(np.ones(classes), size=classes)
    initial = rng.dirichlet(np.ones(classes))
    log_transition = np.log(transition)
    log_initial = np.log(initial)

    def run_batched():
        # Padding is part of the E-round work the batched path really does.
        padded = np.zeros((instances, t_max, classes))
        for i, chain in enumerate(log_emissions):
            padded[i, : lengths[i]] = chain
        return batched_forward_backward(padded, log_transition, log_initial, lengths)

    def run_seed():
        gammas, xi_total, total_ll = [], np.zeros((classes, classes)), 0.0
        for chain in log_emissions:
            gamma, xi_sum, log_like = seed_forward_backward(chain, log_transition, log_initial)
            gammas.append(gamma)
            xi_total += xi_sum
            total_ll += log_like
        return gammas, xi_total, total_ll

    gamma_new, xi_new, ll_new = run_batched()
    gammas_old, xi_old, ll_old = run_seed()
    max_diff = float(
        max(
            max(
                np.abs(gamma_new[i, : lengths[i]] - gammas_old[i]).max()
                for i in range(instances)
            ),
            np.abs(xi_new.sum(axis=0) - xi_old).max(),
            abs(ll_new.sum() - ll_old),
        )
    )
    if max_diff > 1e-10:
        raise AssertionError(f"batched forward–backward diverged from seed: {max_diff}")

    batched_s, seed_s = np.inf, np.inf
    for _ in range(repeats):
        batched_s = min(batched_s, best_of(run_batched, 1))
        seed_s = min(seed_s, best_of(run_seed, 1))
    return {
        "config": {"I": instances, "K": classes, "T_max": t_max,
                   "lengths": "geometric(mean≈14.5) clipped to T_max"},
        "before_ms": seed_s * 1e3,
        "after_ms": batched_s * 1e3,
        "speedup": seed_s / batched_s,
        "max_abs_diff": max_diff,
    }


# --------------------------------------------------------------------- #
# GLAD / PM / CATD: sparse-COO kernels vs. pre-PR-3 dense scans
# --------------------------------------------------------------------- #
def bench_glad(instances, annotators, em_iterations, repeats, rng) -> dict:
    labels = make_classification_labels(rng, instances, annotators, classes=2)
    crowd = CrowdLabelMatrix(labels, 2)
    method = GLAD(em_iterations=em_iterations)

    def run_vectorized():
        return method.infer(crowd)

    def run_seed():
        return seed_glad(labels, em_iterations=em_iterations)

    result_new = run_vectorized()
    posterior_old, alpha_old, beta_old = run_seed()
    max_diff = float(
        max(
            np.abs(result_new.posterior - posterior_old).max(),
            np.abs(result_new.extras["alpha"] - alpha_old).max(),
            np.abs(result_new.extras["beta"] - beta_old).max(),
        )
    )
    if max_diff > 1e-10:
        raise AssertionError(f"vectorized GLAD diverged from seed GLAD: {max_diff}")

    vec_s, seed_s = np.inf, np.inf
    for _ in range(repeats):
        vec_s = min(vec_s, best_of(run_vectorized, 1))
        seed_s = min(seed_s, best_of(run_seed, 1))
    return {
        "config": {"I": instances, "J": annotators, "K": 2,
                   "em_iterations": em_iterations, "gradient_steps": 20},
        "before_ms": seed_s * 1e3,
        "after_ms": vec_s * 1e3,
        "speedup": seed_s / vec_s,
        "max_abs_diff": max_diff,
    }


def bench_pm_catd(instances, annotators, classes, repeats, rng) -> dict:
    labels = make_classification_labels(rng, instances, annotators, classes)
    crowd = CrowdLabelMatrix(labels, classes)
    pm = PM()
    catd = CATD()

    def run_vectorized():
        return pm.infer(crowd), catd.infer(crowd)

    def run_seed():
        return seed_pm(labels, classes), seed_catd(labels, classes)

    pm_new, catd_new = run_vectorized()
    (pm_post, pm_weights, pm_iters), (catd_post, catd_weights, catd_iters) = run_seed()
    if pm_new.extras["iterations"] != pm_iters or catd_new.extras["iterations"] != catd_iters:
        raise AssertionError(
            "vectorized PM/CATD convergence diverged from seed: "
            f"PM {pm_new.extras['iterations']} vs {pm_iters}, "
            f"CATD {catd_new.extras['iterations']} vs {catd_iters}"
        )
    max_diff = float(
        max(
            np.abs(pm_new.posterior - pm_post).max(),
            np.abs(pm_new.extras["weights"] - pm_weights).max(),
            np.abs(catd_new.posterior - catd_post).max(),
            np.abs(catd_new.extras["weights"] - catd_weights).max(),
        )
    )
    if max_diff > 1e-10:
        raise AssertionError(f"vectorized PM/CATD diverged from seed: {max_diff}")

    vec_s, seed_s = np.inf, np.inf
    for _ in range(repeats):
        vec_s = min(vec_s, best_of(run_vectorized, 1))
        seed_s = min(seed_s, best_of(run_seed, 1))
    return {
        "config": {"I": instances, "J": annotators, "K": classes,
                   "methods": "PM + CATD, one full run each"},
        "before_ms": seed_s * 1e3,
        "after_ms": vec_s * 1e3,
        "speedup": seed_s / vec_s,
        "max_abs_diff": max_diff,
    }


# --------------------------------------------------------------------- #
# Conv1d training step: width-loop accumulation vs. im2col materialization
# --------------------------------------------------------------------- #
def bench_conv1d(batch, t_max, dim, width, feats, repeats, rng) -> dict:
    x = rng.normal(size=(batch, t_max, dim))
    # Glorot-ish scale keeps activations O(1), as in the real models.
    weight = rng.normal(size=(width * dim, feats)) / np.sqrt(width * dim)
    bias = rng.normal(size=(feats,)) * 0.1

    def run_width_loop():
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(weight, requires_grad=True)
        bt = Tensor(bias, requires_grad=True)
        out = F.conv1d_seq(xt, wt, bt, width=width, pad="same", variant="width_loop")
        (out**2).sum().backward()
        return out.numpy(), xt.grad, wt.grad, bt.grad

    def run_seed():
        return seed_conv1d_train_step(x, weight, bias, width, pad="same")

    new = run_width_loop()
    old = run_seed()
    # The two paths split the width·D reduction differently, so agreement
    # is float64 round-off, not bit-for-bit (see test_conv1d_paths.py).
    max_diff = float(max(np.abs(a - b).max() for a, b in zip(new, old)))
    if max_diff > 1e-9:
        raise AssertionError(f"width-loop conv diverged from im2col conv: {max_diff}")

    loop_s, seed_s = np.inf, np.inf
    for _ in range(repeats):
        loop_s = min(loop_s, best_of(run_width_loop, 1))
        seed_s = min(seed_s, best_of(run_seed, 1))
    return {
        "config": {"B": batch, "T": t_max, "D": dim, "width": width, "F": feats,
                   "pad": "same"},
        "before_ms": seed_s * 1e3,
        "after_ms": loop_s * 1e3,
        "speedup": seed_s / loop_s,
        "max_abs_diff": max_diff,
        # The point of the variant: the (B, T_out, width*D) float64 window
        # buffer the im2col forward AND backward each materialize.
        "buffer_bytes_avoided": int(batch * t_max * width * dim * 8),
    }


# --------------------------------------------------------------------- #
# dtype: float64 reference vs float32 fast-path training epochs
# --------------------------------------------------------------------- #
def _measure_dtype_pair(build, repeats) -> dict:
    """Time one training epoch of ``build(dtype)`` at float64 vs float32.

    ``build`` returns ``(epoch_fn, initial_logits_fn)`` for a freshly
    constructed same-seed model; the logits gate runs on the untrained
    weights (eval mode), cast to the trainer's dtype, before any timing
    touches the parameters.
    """
    timings, peaks, logits = {}, {}, {}
    for dtype in ("float64", "float32"):
        epoch_fn, logits_fn = build(dtype)
        logits[dtype] = logits_fn()
        if logits[dtype].dtype != np.dtype(dtype):
            raise AssertionError(
                f"{dtype} twin computed its logits in {logits[dtype].dtype}"
            )
        epoch_fn()  # warm-up: BLAS paths, allocator pools
        best = np.inf
        for _ in range(repeats):
            best = min(best, best_of(epoch_fn, 1))
        timings[dtype] = best
        tracemalloc.start()
        epoch_fn()
        _, peaks[dtype] = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    max_diff = float(np.abs(logits["float64"] - logits["float32"]).max())
    if max_diff > 1e-2:
        raise AssertionError(
            f"float32 twin diverged from float64 reference at init: {max_diff}"
        )
    return {
        "before_ms": timings["float64"] * 1e3,
        "after_ms": timings["float32"] * 1e3,
        "speedup": timings["float64"] / timings["float32"],
        "before_peak_bytes": int(peaks["float64"]),
        "after_peak_bytes": int(peaks["float32"]),
        "max_abs_logit_diff": max_diff,
    }


def bench_dtype(text_cfg, crnn_cfg, repeats, rng) -> dict:
    """Float32 fast path vs float64 reference on both paper networks."""
    out = {}

    # --- Kim TextCNN sentiment epoch --------------------------------- #
    tc = text_cfg
    embeddings = rng.normal(size=(tc["vocab"], tc["dim"])) * 0.1
    tokens = rng.integers(0, tc["vocab"], size=(tc["instances"], tc["t_max"]))
    lengths = conll_like_lengths(rng, tc["instances"], tc["t_max"])
    targets = np.eye(tc["classes"])[rng.integers(0, tc["classes"], size=tc["instances"])]

    def build_text_cnn(dtype):
        config = TextCNNConfig(num_classes=tc["classes"], feature_maps=tc["feature_maps"])
        model = TextCNN(embeddings, config, np.random.default_rng(42))
        trainer = TrainerConfig(
            epochs=1, batch_size=tc["batch_size"], optimizer="adadelta",
            learning_rate=1.0, lr_decay_every=None, dtype=dtype,
        )

        def epoch():
            model.train()
            optimizer, _ = build_optimizer([model], trainer)
            run_classification_epoch(
                model, optimizer, tokens, lengths, targets,
                np.random.default_rng(7), trainer,
            )

        def initial_logits():
            build_optimizer([model], trainer)  # the trainer's cast, as epoch() runs it
            model.eval()
            with no_grad():
                return model.logits(tokens[: tc["batch_size"]],
                                    lengths[: tc["batch_size"]]).numpy()

        return epoch, initial_logits

    out["text_cnn"] = {
        "config": {"I": tc["instances"], "T": tc["t_max"], "V": tc["vocab"],
                   "D": tc["dim"], "feature_maps": tc["feature_maps"],
                   "K": tc["classes"], "batch_size": tc["batch_size"]},
        **_measure_dtype_pair(build_text_cnn, repeats),
    }

    # --- CNN+GRU tagger epoch ----------------------------------------- #
    nc = crnn_cfg
    ner_embeddings = rng.normal(size=(nc["vocab"], nc["dim"])) * 0.1
    ner_tokens = rng.integers(0, nc["vocab"], size=(nc["instances"], nc["t_max"]))
    ner_lengths = conll_like_lengths(rng, nc["instances"], nc["t_max"])
    ner_targets = np.eye(nc["classes"])[
        rng.integers(0, nc["classes"], size=(nc["instances"], nc["t_max"]))
    ]

    def build_crnn(dtype):
        config = NERTaggerConfig(
            num_classes=nc["classes"], conv_features=nc["conv_features"],
            gru_hidden=nc["gru_hidden"],
        )
        model = NERTagger(ner_embeddings, config, np.random.default_rng(42))
        trainer = TrainerConfig(
            epochs=1, batch_size=nc["batch_size"], optimizer="adam",
            learning_rate=1e-3, lr_decay_every=None, dtype=dtype,
        )

        def epoch():
            model.train()
            optimizer, _ = build_optimizer([model], trainer)
            run_sequence_epoch(
                model, optimizer, ner_tokens, ner_lengths, ner_targets,
                np.random.default_rng(7), trainer,
            )

        def initial_logits():
            build_optimizer([model], trainer)  # the trainer's cast, as epoch() runs it
            model.eval()
            with no_grad():
                return model.logits(ner_tokens[: nc["batch_size"]],
                                    ner_lengths[: nc["batch_size"]]).numpy()

        return epoch, initial_logits

    out["crnn"] = {
        "config": {"I": nc["instances"], "T": nc["t_max"], "V": nc["vocab"],
                   "D": nc["dim"], "conv_features": nc["conv_features"],
                   "gru_hidden": nc["gru_hidden"], "K": nc["classes"],
                   "batch_size": nc["batch_size"]},
        **_measure_dtype_pair(build_crnn, repeats),
    }
    return out


# --------------------------------------------------------------------- #
# Streaming truth inference: stepwise EM vs. naive full recompute per batch
# --------------------------------------------------------------------- #
def bench_streaming(instances, annotators, classes, batches, iterations, repeats, rng) -> dict:
    labels = make_classification_labels(rng, instances, annotators, classes)
    blocks = np.array_split(labels, batches, axis=0)

    def run_streaming():
        stream = StreamingDawidSkene(max_iterations=iterations, tolerance=1e-6)
        per_update = []
        for block in blocks:
            start = time.perf_counter()
            stream.partial_fit(CrowdLabelMatrix(block, classes))
            stream.result()  # posteriors over everything seen, every batch
            per_update.append(time.perf_counter() - start)
        return stream, per_update

    def run_seed():
        per_update, final = [], None
        recompute = seed_streaming_full_recompute(
            blocks, classes, max_iterations=iterations, tolerance=1e-6
        )
        for _ in range(batches):
            start = time.perf_counter()
            final = next(recompute)
            per_update.append(time.perf_counter() - start)
        return final, per_update

    # The replay contract: no-decay stream + convergence == full-crowd DS.
    stream, _ = run_streaming()
    converged = stream.fit_to_convergence()
    seed_posterior, seed_confusions, _ = seed_dawid_skene(
        labels, classes, max_iterations=iterations, tolerance=1e-6
    )
    max_diff = float(
        max(
            np.abs(converged.posterior - seed_posterior).max(),
            np.abs(converged.confusions - seed_confusions).max(),
        )
    )
    if max_diff > 1e-8:
        raise AssertionError(f"streaming replay diverged from full-crowd DS: {max_diff}")

    stream_s, seed_s = np.inf, np.inf
    stream_updates = seed_updates = None
    for _ in range(repeats):
        _, per_update = run_streaming()
        if sum(per_update) < stream_s:
            stream_s, stream_updates = sum(per_update), per_update
        _, per_update = run_seed()
        if sum(per_update) < seed_s:
            seed_s, seed_updates = sum(per_update), per_update
    return {
        "config": {"I": instances, "J": annotators, "K": classes,
                   "batches": batches, "iterations": iterations,
                   "stream": "whole crowd ingested batch by batch"},
        "before_ms": seed_s * 1e3,
        "after_ms": stream_s * 1e3,
        "speedup": seed_s / stream_s,
        "max_abs_diff": max_diff,
        # Per-update scaling: the naive side's last update re-runs EM over
        # the whole stream; the streaming side's stays batch-sized.
        "before_first_update_ms": seed_updates[0] * 1e3,
        "before_last_update_ms": seed_updates[-1] * 1e3,
        "after_first_update_ms": stream_updates[0] * 1e3,
        "after_last_update_ms": stream_updates[-1] * 1e3,
    }


# --------------------------------------------------------------------- #
# Sharded truth inference: out-of-core map-reduce DS vs. in-memory batch DS
# --------------------------------------------------------------------- #
def bench_sharded(instances, annotators, classes, iterations, shards, repeats, rng) -> dict:
    labels = make_classification_labels(rng, instances, annotators, classes)
    rows, cols = np.nonzero(labels != MISSING)
    # Observation-major (N, 3) layout: a shard is one contiguous row slice.
    coo = np.stack([rows, cols, labels[rows, cols]], axis=1).astype(np.int64)

    # Shard layout: near-equal contiguous row ranges, COO slice bounds
    # precomputed (rows are sorted, so each shard is one contiguous slice).
    row_bounds = partition_bounds(instances, shards)
    coo_bounds = [
        (int(np.searchsorted(rows, lo)), int(np.searchsorted(rows, hi)))
        for lo, hi in row_bounds
    ]
    largest_shard_coo_bytes = max((hi - lo) for lo, hi in coo_bounds) * 3 * 8

    with tempfile.TemporaryDirectory() as tmp:
        dense_path = Path(tmp) / "labels.npy"
        coo_path = Path(tmp) / "labels_coo.npy"
        np.save(dense_path, labels)
        np.save(coo_path, coo)

        method = DawidSkene(max_iterations=iterations, tolerance=0.0)

        def run_batch():
            # The in-memory path: the whole label matrix (and its cached
            # views) lives in RAM for the entire run.
            full = CrowdLabelMatrix(np.load(dense_path), classes)
            return method.infer(full)

        # The memmap handle is opened once; the data stays on disk and only
        # the active shard's triples are ever materialized in RAM per pass.
        on_disk = np.load(coo_path, mmap_mode="r")

        def shard_source():
            for (row_lo, row_hi), (lo, hi) in zip(row_bounds, coo_bounds):
                block = np.array(on_disk[lo:hi])
                yield SparseLabelShard(
                    block[:, 0] - row_lo, block[:, 1], block[:, 2],
                    num_instances=row_hi - row_lo,
                    num_annotators=annotators,
                    num_classes=classes,
                )

        def run_sharded_out_of_core():
            return method.infer_sharded(shard_source)

        result_batch = run_batch()
        result_sharded = run_sharded_out_of_core()
        max_diff = float(
            max(
                np.abs(result_sharded.posterior - result_batch.posterior).max(),
                np.abs(result_sharded.confusions - result_batch.confusions).max(),
            )
        )
        if max_diff > 1e-9:
            raise AssertionError(f"sharded DS diverged from batch DS: {max_diff}")
        if result_sharded.extras["iterations"] != result_batch.extras["iterations"]:
            raise AssertionError("sharded DS iteration count diverged from batch DS")

        batch_s, sharded_s = np.inf, np.inf
        for _ in range(repeats):
            batch_s = min(batch_s, best_of(run_batch, 1))
            sharded_s = min(sharded_s, best_of(run_sharded_out_of_core, 1))

        peaks = {}
        for label, fn in (("batch", run_batch), ("sharded", run_sharded_out_of_core)):
            tracemalloc.start()
            fn()
            _, peaks[label] = tracemalloc.get_traced_memory()
            tracemalloc.stop()

    return {
        "config": {"I": instances, "J": annotators, "K": classes,
                   "iterations": iterations, "shards": shards,
                   "layout": "contiguous COO shards memmapped from disk"},
        "before_ms": batch_s * 1e3,
        "after_ms": sharded_s * 1e3,
        "speedup": batch_s / sharded_s,
        "max_abs_diff": max_diff,
        # The memory story: the batch peak holds the whole crowd, the
        # sharded peak holds one shard plus the O(I·K) posterior blocks.
        "before_peak_bytes": int(peaks["batch"]),
        "after_peak_bytes": int(peaks["sharded"]),
        "crowd_label_bytes": int(labels.nbytes),
        "crowd_coo_bytes": int(coo.nbytes),
        "largest_shard_coo_bytes": int(largest_shard_coo_bytes),
        "posterior_bytes": int(instances * classes * 8),
    }


# --------------------------------------------------------------------- #
# Multi-core sharded DS: process-pool map over on-disk shard handles
# --------------------------------------------------------------------- #
def bench_sharded_parallel(
    instances, annotators, classes, iterations, shards, repeats, worker_counts, rng
) -> dict:
    labels = make_classification_labels(rng, instances, annotators, classes)
    crowd = CrowdLabelMatrix(labels, classes)

    method = DawidSkene(max_iterations=iterations, tolerance=0.0)

    with tempfile.TemporaryDirectory() as tmp:
        # One on-disk shard file + row-range handles; workers memmap the
        # file themselves, only the handles cross the pickle boundary.
        handles = save_shard_handles(crowd, Path(tmp) / "crowd.npy", shards)

        def run_batch():
            return method.infer(crowd)

        def run_serial_sharded():
            return method.infer_sharded(handles)

        # Equivalence gate before timing anything: serial sharded must
        # match batch, every process run must be bit-identical to serial.
        result_batch = run_batch()
        result_serial = run_serial_sharded()
        max_diff = float(
            max(
                np.abs(result_serial.posterior - result_batch.posterior).max(),
                np.abs(result_serial.confusions - result_batch.confusions).max(),
            )
        )
        if max_diff > 1e-9:
            raise AssertionError(f"sharded DS diverged from batch DS: {max_diff}")
        if result_serial.extras["iterations"] != result_batch.extras["iterations"]:
            raise AssertionError("sharded DS iteration count diverged from batch DS")

        batch_s, serial_s = np.inf, np.inf
        worker_s = {w: np.inf for w in worker_counts}
        for _ in range(repeats):
            batch_s = min(batch_s, best_of(run_batch, 1))
            serial_s = min(serial_s, best_of(run_serial_sharded, 1))
        for w in worker_counts:
            # One pool per worker count, reused across repeats: fork cost
            # and the workers' shard-handle caches amortize over the
            # repeats, as they would over the EM rounds of a real run.
            with ProcessPoolExecutor(max_workers=w) as pool:
                def run_parallel():
                    return method.infer_sharded(handles, executor=pool)

                result_parallel = run_parallel()
                if not np.array_equal(result_parallel.posterior, result_serial.posterior):
                    raise AssertionError(
                        f"{w}-worker sharded DS not bit-identical to serial sharded DS"
                    )
                for _ in range(repeats):
                    worker_s[w] = min(worker_s[w], best_of(run_parallel, 1))

    return {
        "config": {"I": instances, "J": annotators, "K": classes,
                   "iterations": iterations, "shards": shards,
                   "worker_counts": list(worker_counts),
                   "cpu_count": os.cpu_count(),
                   "layout": "on-disk row-range ShardHandles, one npy file"},
        "batch_ms": batch_s * 1e3,
        "serial_sharded_ms": serial_s * 1e3,
        "workers": {
            str(w): {
                "ms": worker_s[w] * 1e3,
                "speedup_vs_batch": batch_s / worker_s[w],
                "speedup_vs_serial_sharded": serial_s / worker_s[w],
            }
            for w in worker_counts
        },
        "max_abs_diff": max_diff,
        "note": "speedup_vs_batch > 2 expects >= 4 physical cores; "
                "cpu_count above records what this box actually has",
    }


# --------------------------------------------------------------------- #
# Serving: CrowdService under bursty many-dataset traffic with eviction
# --------------------------------------------------------------------- #
def bench_serving(datasets, config, queries_per_update, max_resident, repeats, seed) -> dict:
    workload = build_serving_workload(
        seed=seed, datasets=datasets, config=config, queries_per_update=queries_per_update
    )
    overrides = dict(inner_sweeps=1)

    # Recovery gate before any timing: checkpoint mid-schedule, crash,
    # restart on the same root, replay each dataset's tail from the
    # durable cursor — must match uninterrupted per-dataset streams.
    expected = {}
    for dataset_id in workload.datasets:
        stream = StreamingDawidSkene(**overrides)
        for batch in workload.updates_for(dataset_id):
            stream.partial_fit(batch)
        expected[dataset_id] = stream.result()
    updates = [event for event in workload.events if event.kind == "update"]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "gate"
        service = CrowdService(root, method="DS", max_resident=max_resident, **overrides)
        for event in updates[: len(updates) // 2]:
            service.partial_fit(event.dataset_id, event.batch)
        service.checkpoint()
        del service  # crash: in-memory state gone, the files survive
        revived = CrowdService(root, method="DS", max_resident=max_resident, **overrides)
        recovery_diff = 0.0
        for dataset_id in workload.datasets:
            cursor = (
                revived.cursor(dataset_id) if dataset_id in revived.datasets() else 0
            )
            for batch in workload.updates_for(dataset_id)[cursor:]:
                revived.partial_fit(dataset_id, batch)
        for dataset_id in workload.datasets:
            recovery_diff = max(
                recovery_diff,
                float(
                    np.abs(
                        revived.query(dataset_id).posterior
                        - expected[dataset_id].posterior
                    ).max(initial=0.0)
                ),
            )
        if recovery_diff > 1e-10:
            raise AssertionError(
                f"service recovery diverged from uninterrupted streams: {recovery_diff}"
            )

    def run_schedule():
        with tempfile.TemporaryDirectory() as run_tmp:
            service = CrowdService(
                Path(run_tmp), method="DS", max_resident=max_resident, **overrides
            )
            update_seconds = 0.0
            latencies = []
            for event in workload.events:
                start = time.perf_counter()
                if event.kind == "update":
                    service.partial_fit(event.dataset_id, event.batch)
                    update_seconds += time.perf_counter() - start
                else:
                    service.query(event.dataset_id)
                    latencies.append(time.perf_counter() - start)
            return update_seconds, latencies, dict(service.stats)

    update_s = np.inf
    all_latencies = []
    stats = {}
    for _ in range(repeats):
        update_seconds, latencies, stats = run_schedule()
        update_s = min(update_s, update_seconds)
        all_latencies.extend(latencies)  # pooled: more draws for the p99
    latency_ms = (
        np.asarray(all_latencies) * 1e3 if all_latencies else np.zeros(1)
    )
    return {
        "config": {
            "datasets": datasets,
            "I_per_dataset": config.instances,
            "J": config.annotators,
            "K": config.num_classes,
            "batch_size": config.batch_size,
            "queries_per_update": queries_per_update,
            "max_resident": max_resident,
            "method": "DS (inner_sweeps=1)",
            "arrivals": "burst/dribble/quiet ticks, random dataset per tick",
        },
        "update_count": workload.update_count,
        "query_count": workload.query_count,
        "updates_per_sec": workload.update_count / update_s,
        "update_total_ms": update_s * 1e3,
        "query_p50_ms": float(np.percentile(latency_ms, 50)),
        "query_p99_ms": float(np.percentile(latency_ms, 99)),
        "recovery_max_abs_diff": recovery_diff,
        "evictions": stats["evictions"],
        "rehydrations": stats["rehydrations"],
        "checkpoints": stats["checkpoints"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes + few repeats; finishes well under 30 s")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_hotpaths.json")
    parser.add_argument("--repeats", type=int, default=None,
                        help="override best-of-N repeat count")
    parser.add_argument("--tag", default=None,
                        help="also archive a full run to benchmarks/history/<tag>.json")
    parser.add_argument("--workers", type=int, nargs="+", default=None, metavar="N",
                        help="worker counts for the sharded_parallel sweep "
                             "(default: 1 2 4 full, 2 smoke)")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(20260729)
    if args.smoke:
        repeats = args.repeats or 3
        gru_cfg = dict(batch=16, t_max=30, hidden=32, in_dim=64)
        em_cfg = dict(instances=60, annotators=47, classes=9, t_max=30)
        ds_cfg = dict(instances=300, annotators=47, classes=9, iterations=10)
        fb_cfg = dict(instances=60, classes=9, t_max=30)
        glad_cfg = dict(instances=200, annotators=47, em_iterations=3)
        pm_catd_cfg = dict(instances=300, annotators=47, classes=9)
        conv_cfg = dict(batch=8, t_max=20, dim=64, width=5, feats=16)
        dtype_text_cfg = dict(instances=24, t_max=20, vocab=200, dim=32,
                              feature_maps=8, classes=5, batch_size=12)
        dtype_crnn_cfg = dict(instances=12, t_max=20, vocab=200, dim=32,
                              conv_features=32, gru_hidden=16, classes=9, batch_size=6)
        dtype_repeats = 2
        streaming_cfg = dict(instances=200, annotators=47, classes=3, batches=5, iterations=8)
        sharded_cfg = dict(instances=400, annotators=47, classes=9, iterations=8, shards=4)
        sharded_paper_cfg = dict(instances=200, annotators=47, classes=9, iterations=5, shards=2)
        parallel_cfg = dict(instances=400, annotators=47, classes=9, iterations=6,
                            shards=4, worker_counts=args.workers or [2])
        parallel_repeats = 1
        serving_cfg = dict(
            datasets=3,
            config=StreamScenarioConfig(
                instances=40, annotators=8, batch_size=10,
                mean_labels_per_instance=3.0,
            ),
            queries_per_update=1.0, max_resident=2, seed=11,
        )
        serving_repeats = 2
    else:
        repeats = args.repeats or 7
        # Paper scale: tagger batch 32, T=50, GRU hidden 50, conv width 512
        # features feeding the GRU; CoNLL AMT crowd has 47 annotators.
        gru_cfg = dict(batch=32, t_max=50, hidden=50, in_dim=512)
        em_cfg = dict(instances=300, annotators=47, classes=9, t_max=50)
        ds_cfg = dict(instances=2000, annotators=47, classes=9, iterations=50)
        fb_cfg = dict(instances=300, classes=9, t_max=50)
        glad_cfg = dict(instances=2000, annotators=47, em_iterations=10)
        pm_catd_cfg = dict(instances=2000, annotators=47, classes=9)
        # Tagger embedding scale: width-5 conv over 300-d GloVe vectors.
        conv_cfg = dict(batch=32, t_max=50, dim=300, width=5, feats=100)
        # Paper-scale epochs, instance counts trimmed so both dtype twins
        # finish in seconds: the per-step work (conv/GRU GEMM shapes) is
        # exactly the tagger/sentiment training step.
        dtype_text_cfg = dict(instances=200, t_max=50, vocab=5000, dim=300,
                              feature_maps=100, classes=5, batch_size=50)
        dtype_crnn_cfg = dict(instances=64, t_max=50, vocab=5000, dim=300,
                              conv_features=512, gru_hidden=50, classes=9, batch_size=32)
        dtype_repeats = 3
        # A day of label traffic arriving in 10 drops at sentiment scale.
        streaming_cfg = dict(instances=1500, annotators=47, classes=5, batches=10, iterations=30)
        # Out-of-core DS. Headline at serving scale (10× the paper's
        # sentiment crowd) where the per-pass shard rebuild amortizes;
        # the paper-scale config of the dawid_skene section is recorded
        # alongside under "paper_scale".
        sharded_cfg = dict(instances=20000, annotators=47, classes=9, iterations=20, shards=4)
        sharded_paper_cfg = dict(instances=2000, annotators=47, classes=9, iterations=50, shards=2)
        # Multi-core sweep at I >= 1e5, where per-round compute dwarfs the
        # per-pass broadcast/submit overhead. The >2x-vs-batch target needs
        # >= 4 physical cores; the payload records cpu_count so a 1-core
        # box's numbers read as what they are.
        parallel_cfg = dict(instances=100000, annotators=47, classes=9, iterations=20,
                            shards=4, worker_counts=args.workers or [1, 2, 4])
        parallel_repeats = 3
        # Twelve sentiment-scale datasets behind a 4-dataset resident
        # budget: two thirds of the traffic lands on evicted datasets, so
        # checkpoint/rehydrate churn is part of every measured number.
        serving_cfg = dict(
            datasets=12,
            config=StreamScenarioConfig(instances=400, annotators=20, batch_size=40),
            queries_per_update=2.0, max_resident=4, seed=11,
        )
        serving_repeats = 3

    started = time.time()
    results = {
        "bench": "hotpaths",
        "smoke": bool(args.smoke),
        "unix_time": int(started),
        "gru": bench_gru(repeats=repeats, rng=rng, **gru_cfg),
        "sequence_em": bench_sequence_em(repeats=repeats, rng=rng, **em_cfg),
        "dawid_skene": bench_dawid_skene(repeats=max(repeats // 2, 1), rng=rng, **ds_cfg),
        "forward_backward": bench_forward_backward(repeats=repeats, rng=rng, **fb_cfg),
        "glad": bench_glad(repeats=max(repeats // 2, 1), rng=rng, **glad_cfg),
        "pm_catd": bench_pm_catd(repeats=max(repeats // 2, 1), rng=rng, **pm_catd_cfg),
        "conv1d": bench_conv1d(repeats=repeats, rng=rng, **conv_cfg),
        "dtype": bench_dtype(dtype_text_cfg, dtype_crnn_cfg,
                             repeats=dtype_repeats, rng=rng),
        "streaming": bench_streaming(repeats=max(repeats // 2, 1), rng=rng, **streaming_cfg),
        # Full repeats here: the sharded comparison is the noisiest (two
        # allocation-heavy sides), so best-of needs more draws.
        "sharded": bench_sharded(repeats=repeats, rng=rng, **sharded_cfg),
    }
    results["sharded"]["paper_scale"] = bench_sharded(
        repeats=repeats, rng=rng, **sharded_paper_cfg
    )
    results["sharded_parallel"] = bench_sharded_parallel(
        repeats=parallel_repeats, rng=rng, **parallel_cfg
    )
    results["serving"] = bench_serving(repeats=serving_repeats, **serving_cfg)
    results["wall_seconds"] = round(time.time() - started, 2)

    args.output.write_text(json.dumps(results, indent=2) + "\n")
    for label, section in (
        ("GRU fwd+bwd", "gru"),
        ("sequence EM", "sequence_em"),
        ("Dawid–Skene", "dawid_skene"),
        ("forward–bwd", "forward_backward"),
        ("GLAD EM    ", "glad"),
        ("PM + CATD  ", "pm_catd"),
        ("conv1d step", "conv1d"),
        ("streaming  ", "streaming"),
        ("sharded DS ", "sharded"),
    ):
        entry = results[section]
        print(f"{label} : {entry['before_ms']:8.2f} ms → {entry['after_ms']:8.2f} ms "
              f"({entry['speedup']:.2f}x, diff {entry['max_abs_diff']:.1e})")
    for label, network in (("TextCNN", "text_cnn"), ("CRNN tagger", "crnn")):
        entry = results["dtype"][network]
        print(f"  dtype {label}: f64 {entry['before_ms']:.1f} ms → f32 "
              f"{entry['after_ms']:.1f} ms ({entry['speedup']:.2f}x), peak "
              f"{entry['before_peak_bytes'] / 2**20:.1f} → "
              f"{entry['after_peak_bytes'] / 2**20:.1f} MiB, "
              f"init-logit diff {entry['max_abs_logit_diff']:.1e}")
    entry = results["streaming"]
    print("  streaming per-update (first → last): "
          f"naive {entry['before_first_update_ms']:.2f} → {entry['before_last_update_ms']:.2f} ms, "
          f"stream {entry['after_first_update_ms']:.2f} → {entry['after_last_update_ms']:.2f} ms")
    entry = results["sharded"]
    print("  sharded peak memory: in-memory batch "
          f"{entry['before_peak_bytes'] / 1024:.0f} KiB → out-of-core "
          f"{entry['after_peak_bytes'] / 1024:.0f} KiB "
          f"(crowd {entry['crowd_label_bytes'] / 1024:.0f} KiB on disk, "
          f"largest shard {entry['largest_shard_coo_bytes'] / 1024:.0f} KiB)")
    paper = entry["paper_scale"]
    print("  sharded at paper scale (I="
          f"{paper['config']['I']}): {paper['before_ms']:.2f} ms → "
          f"{paper['after_ms']:.2f} ms, peak "
          f"{paper['before_peak_bytes'] / 1024:.0f} → "
          f"{paper['after_peak_bytes'] / 1024:.0f} KiB")
    entry = results["sharded_parallel"]
    sweep = ", ".join(
        f"{w}w {item['ms']:.0f} ms ({item['speedup_vs_batch']:.2f}x vs batch)"
        for w, item in entry["workers"].items()
    )
    print(f"  sharded parallel (I={entry['config']['I']}, "
          f"{entry['config']['cpu_count']} cores): "
          f"batch {entry['batch_ms']:.0f} ms, serial sharded "
          f"{entry['serial_sharded_ms']:.0f} ms, {sweep}")
    entry = results["serving"]
    print(f"  serving ({entry['config']['datasets']} datasets, resident "
          f"{entry['config']['max_resident']}): "
          f"{entry['updates_per_sec']:.0f} updates/s, query p50 "
          f"{entry['query_p50_ms']:.2f} ms / p99 {entry['query_p99_ms']:.2f} ms, "
          f"{entry['evictions']} evictions, recovery diff "
          f"{entry['recovery_max_abs_diff']:.1e}")
    print(f"wrote {args.output}")
    if args.tag:
        if args.smoke:
            print("--tag ignored for --smoke runs (history tracks full runs only)")
        else:
            HISTORY_DIR.mkdir(exist_ok=True)
            history_path = HISTORY_DIR / f"{args.tag}.json"
            history_path.write_text(json.dumps(results, indent=2) + "\n")
            print(f"archived {history_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
