"""Method registry: one place that names every truth-inference method.

The paper's Tables II/III each benchmark a block of truth-inference
methods ("MV", "DS", "GLAD", "PM", "CATD" on sentiment; "MV", "DS",
"IBCC", "BSC-seq", "HMM-Crowd" on NER). Before this registry existed,
every experiment suite and example hard-coded its own name → constructor
dict; now they all resolve through :func:`get_method`, and adding a method
to the comparison is one :func:`register` call.

Methods are registered under a *kind*:

* ``"classification"`` — operates on a :class:`~repro.crowd.types.\
  CrowdLabelMatrix`, returns an ``InferenceResult``;
* ``"sequence"`` — operates on a :class:`~repro.crowd.types.\
  SequenceCrowdLabels`, returns a ``SequenceInferenceResult``. The
  token-independent methods (MV/DS/IBCC) are registered here wrapped in
  :class:`~repro.inference.sequence_utils.TokenLevelInference`, exactly as
  the paper applies them to NER;
* ``"streaming"`` — online estimators from :mod:`~repro.inference.\
  streaming`: batches of new instances are ingested via ``partial_fit``
  instead of a one-shot ``infer``, under the replay-equivalence contract
  documented there (no decay + ``fit_to_convergence`` reproduces the
  kind-``"classification"`` method of the same name);
* ``"sharded"`` — the kind-``"classification"`` methods whose EM is
  written map-reduce style (:mod:`~repro.inference.sharding`), registered
  as the *same class*: ``infer(crowd)`` is the one-shard run, and
  ``infer_sharded(shard_source)`` runs the same EM on mergeable per-shard
  sufficient statistics (the :class:`~repro.crowd.sharding.SparseLabelShard`
  views of ``crowd.shards(n)``, lazily loaded out-of-core shards, or
  on-disk :class:`~repro.crowd.sharding.ShardHandle` files),
  reproducing the one-shard run at atol 1e-10 on any shard layout. The
  map stage runs serially, over a thread pool (``executor=``), or over a
  process pool (``workers=N`` or a ``ProcessPoolExecutor``) with
  bit-identical posteriors either way (deterministic tree reduce). Drive
  them through :func:`~repro.inference.sharding.run_sharded`.

Factories receive the caller's keyword overrides (e.g.
``get_method("HMM-Crowd", kind="sequence", max_iterations=15)``), so
suites can scale iteration budgets without bypassing the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bsc_seq import BSCSeq
from .catd import CATD
from .dawid_skene import DawidSkene
from .glad import GLAD
from .hmm_crowd import HMMCrowd
from .ibcc import IBCC
from .majority_vote import MajorityVote
from .pm import PM
from .sequence_utils import TokenLevelInference
from .streaming import StreamingDawidSkene, StreamingGLAD, StreamingMajorityVote

__all__ = ["MethodSpec", "register", "get_method", "available_methods", "build_method_table"]

KINDS = ("classification", "sequence", "streaming", "sharded")


@dataclass(frozen=True)
class MethodSpec:
    """One registry entry: paper name, task kind, and a factory."""

    name: str
    kind: str
    factory: Callable[..., object]
    description: str = ""


_REGISTRY: dict[tuple[str, str], MethodSpec] = {}


def register(
    name: str,
    kind: str,
    factory: Callable[..., object],
    description: str = "",
    overwrite: bool = False,
) -> MethodSpec:
    """Add a method under ``(kind, name)``; refuses silent redefinition."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    key = (kind, name)
    if key in _REGISTRY and not overwrite:
        raise ValueError(f"{name!r} already registered for kind {kind!r}")
    spec = MethodSpec(name=name, kind=kind, factory=factory, description=description)
    _REGISTRY[key] = spec
    return spec


def get_method(name: str, kind: str = "classification", **overrides):
    """Instantiate the registered method ``name`` for ``kind``.

    Keyword overrides are forwarded to the factory (and from there to the
    method constructor). Raises ``KeyError`` with the known names when the
    method is missing — the same contract the suites' hard-coded dicts had.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    spec = _REGISTRY.get((kind, name))
    if spec is None:
        known = ", ".join(available_methods(kind))
        raise KeyError(f"unknown truth-inference method {name!r} for kind {kind!r} (known: {known})")
    return spec.factory(**overrides)


def available_methods(kind: str | None = None) -> tuple[str, ...]:
    """Registered names (registration order), optionally filtered by kind.

    Without a kind filter, names registered for both kinds (MV/DS/IBCC)
    appear once.
    """
    names = {
        spec.name: None
        for (k, _), spec in _REGISTRY.items()
        if kind is None or k == kind
    }
    return tuple(names)


def build_method_table(names, kind: str, overrides: dict[str, dict] | None = None) -> dict:
    """Instantiate ``{name: method}`` for a suite's comparison block.

    ``overrides`` maps method names to constructor keyword overrides (e.g.
    ``{"HMM-Crowd": {"max_iterations": 15}}``).
    """
    overrides = overrides or {}
    return {name: get_method(name, kind=kind, **overrides.get(name, {})) for name in names}


def _token_level(method_cls):
    """Factory adapter: run a classification method independently per token."""

    def factory(**overrides):
        return TokenLevelInference(method_cls(**overrides))

    return factory


# --------------------------------------------------------------------- #
# Built-in registrations: the paper's Table II/III truth-inference blocks.
# --------------------------------------------------------------------- #
register("MV", "classification", MajorityVote, "soft majority voting")
register("DS", "classification", DawidSkene, "Dawid–Skene confusion-matrix EM")
register("GLAD", "classification", GLAD, "GLAD ability/difficulty model (binary)")
register("PM", "classification", PM, "iterative weighted voting")
register("CATD", "classification", CATD, "confidence-aware truth discovery")
register("IBCC", "classification", IBCC, "variational-Bayes IBCC")

register("MV", "sequence", _token_level(MajorityVote), "token-level majority voting")
register("DS", "sequence", _token_level(DawidSkene), "token-level Dawid–Skene")
register("IBCC", "sequence", _token_level(IBCC), "token-level IBCC")
register("BSC-seq", "sequence", BSCSeq, "Bayesian sequence combination (seq)")
register("HMM-Crowd", "sequence", HMMCrowd, "HMM with crowd emissions")

register("MV", "streaming", StreamingMajorityVote, "online majority voting")
register("DS", "streaming", StreamingDawidSkene, "stepwise-EM Dawid–Skene")
register("GLAD", "streaming", StreamingGLAD, "online GLAD (binary, SGD abilities)")

register("MV", "sharded", MajorityVote, "map-reduce majority voting")
register("DS", "sharded", DawidSkene, "map-reduce Dawid–Skene EM")
register("IBCC", "sharded", IBCC, "map-reduce variational-Bayes IBCC")
register("GLAD", "sharded", GLAD, "map-reduce GLAD (binary)")
register("PM", "sharded", PM, "map-reduce iterative weighted voting")
register("CATD", "sharded", CATD, "map-reduce confidence-aware truth discovery")
