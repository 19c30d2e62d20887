"""Truth-inference baselines (Tables II/III "Truth Inference" blocks).

Architecture — three layers over one sparse-crowd core:

1. **Primitives** (:mod:`~repro.inference.primitives`): vectorized kernels
   shared by every method — confusion-count scatter, emission
   log-likelihood gather, log-space normalization, and a batched
   length-masked forward–backward over padded ``(I, T_max, K)`` emissions.
   They run on the one cached ``SparseLabelShard`` each crowd container
   hands over (``flat_label_pairs`` + a sparse instance × (annotator,
   label) incidence), so each EM update is a sparse–dense matmul or one
   ``bincount`` over the triples — never a Python loop over instances or
   annotators. :mod:`repro.core.em` (Logic-LNCL's pseudo-E/M) reuses the
   same kernels.

2. **Methods**: each module implements one method on the primitives, with
   a shared convergence/diagnostics contract
   (:class:`~repro.inference.base.ConvergenceMonitor` → ``iterations``,
   ``last_change``, ``converged``, ``log_likelihood_trace`` in
   ``extras``). Their seed implementations live test-side, in
   ``tests/oracles.py``: executable specifications the equivalence tests
   pin every method to at atol 1e-10, timed as the "before" side in
   ``benchmarks/bench_hotpaths.py``.

   The classification methods with a per-instance E-step (MV, DS, IBCC,
   GLAD, PM, CATD) each define their EM loop once, map-reduce style
   (:mod:`~repro.inference.sharding`): every E/M round maps shards to
   mergeable :class:`~repro.inference.sharding.ShardStats` and reduces
   before one global M-step. ``infer(crowd)`` is the one-shard run;
   ``infer_sharded`` takes the
   :class:`~repro.crowd.sharding.SparseLabelShard` views of
   ``crowd.shards(n)``, lazily loaded out-of-core shards, or on-disk
   handles, so crowd-data memory is O(largest shard), and any layout
   reproduces the one-shard run at atol 1e-10.
   :mod:`~repro.inference.streaming` runs the same kernels
   *online*: label batches are ingested incrementally (``partial_fit``)
   with per-update cost O(new observations), under a replay-equivalence
   contract that pins the no-decay stream to the batch ``infer`` at
   convergence.

3. **Registry** (:mod:`~repro.inference.registry`): the single name →
   factory table the experiment suites and examples resolve through. To
   add a classification method that differs from an existing family only
   in its global step, subclass that family and override the one method:
   :class:`~repro.inference.dawid_skene.DawidSkene` and its
   ``_global_step`` (merged soft confusion counts → E-step parameters; IBCC
   is DS with a Dirichlet M-step), or :class:`~repro.inference.pm.PM` and
   its ``_global_step`` (merged label counts and agreement → annotator
   weights; CATD is PM with a χ² weight). Otherwise subclass
   :class:`~repro.inference.sharding.ShardedTruthInference` and implement
   ``_infer`` over its shard passes (mappers from a shard to
   :class:`~repro.inference.sharding.ShardStats`, then a global M-step
   from the merged stats) — ``infer`` and ``infer_sharded`` come with it.
   A method that cannot decompose over shards subclasses
   :class:`~repro.inference.base.TruthInferenceMethod` and implements
   ``infer`` directly. Then ``register("MyMethod", "classification",
   MyMethod)`` (and under ``"sharded"`` when it shards) — it immediately
   becomes available to every suite via ``get_method``/
   ``build_method_table``, and the interface-contract tests in
   ``tests/inference/test_registry.py`` cover it automatically. The
   equivalence harness refuses the registration until the method has an
   executable specification in ``tests/oracles.py``.
"""

from .base import (
    ConvergenceMonitor,
    InferenceResult,
    SequenceInferenceResult,
    TruthInferenceMethod,
)
from .bsc_seq import BSCSeq
from .catd import CATD
from .dawid_skene import DawidSkene
from .glad import GLAD
from .hmm_crowd import HMMCrowd
from .ibcc import IBCC
from .majority_vote import MajorityVote, majority_vote_posterior
from .pm import PM
from .primitives import (
    annotator_agreement,
    batched_forward_backward,
    confusion_counts,
    emission_log_likelihood,
    normalize_log_posterior,
    weighted_vote_scores,
)
from .registry import available_methods, build_method_table, get_method, register
from .sequence_utils import TokenLevelInference
from .sharding import (
    ShardedTruthInference,
    ShardStats,
    as_shard_source,
    run_sharded,
    tree_merge_shard_stats,
)
from .streaming import (
    StreamUpdateRejected,
    StreamingDawidSkene,
    StreamingGLAD,
    StreamingMajorityVote,
    StreamingTruthInference,
)

__all__ = [
    "InferenceResult",
    "SequenceInferenceResult",
    "TruthInferenceMethod",
    "ConvergenceMonitor",
    "MajorityVote",
    "majority_vote_posterior",
    "DawidSkene",
    "GLAD",
    "PM",
    "CATD",
    "IBCC",
    "HMMCrowd",
    "BSCSeq",
    "batched_forward_backward",
    "confusion_counts",
    "emission_log_likelihood",
    "normalize_log_posterior",
    "annotator_agreement",
    "weighted_vote_scores",
    "register",
    "get_method",
    "available_methods",
    "build_method_table",
    "TokenLevelInference",
    "StreamingTruthInference",
    "StreamUpdateRejected",
    "StreamingMajorityVote",
    "StreamingDawidSkene",
    "StreamingGLAD",
    "ShardStats",
    "tree_merge_shard_stats",
    "as_shard_source",
    "ShardedTruthInference",
    "run_sharded",
]
