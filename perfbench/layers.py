"""The layer boundaries the traced run wraps, and what each layer should show.

Every boundary is a public function or method of one of the repo's
modules. A wrapper goes on each name a caller actually uses: kernels are
imported by name (``inference/dawid_skene.py`` binds ``confusion_counts``,
``core/sequence_lncl.py`` binds ``chain_marginals``), so a function
boundary replaces every binding of the function object across the loaded
``repro`` modules. Methods are wrapped on the class that defines them,
and per-primitive backward time comes from wrapping the entries of
``vjps.VJP_TABLE`` and ``vjps.FUSED_TABLE``.

``inference.primitives`` kernels called from ``repro.inference.streaming``
stay unwrapped: the streaming layer owns that time, so the batch-inference
layer reads zero on the serving workload.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from .tracing import Patches, Tracer

__all__ = [
    "FUNCTIONS",
    "METHODS",
    "REQUEST_PREFIXES",
    "LAYERS",
    "layer_of",
    "traced",
    "ZERO_ON",
    "NONZERO_ON",
]


@dataclass(frozen=True)
class Boundary:
    module: str
    attr: str            # "name" for a function, "Class.method" for a method
    span: str
    skip: tuple[str, ...] = ()   # modules whose bindings stay unwrapped
    sizes_file: bool = False     # the function returns the path of a file it wrote


_KERNEL_SKIP = ("repro.inference.streaming",)
_PRIMITIVES = (
    "confusion_counts",
    "emission_log_likelihood",
    "normalize_log_posterior",
    "annotator_agreement",
    "weighted_vote_scores",
    "batched_forward_backward",
)

FUNCTIONS: tuple[Boundary, ...] = (
    Boundary("repro.autodiff.functional", "conv1d_seq", "autodiff.fwd.conv1d_seq"),
    Boundary("repro.autodiff.functional", "gru_sequence", "autodiff.fwd.gru_sequence"),
    Boundary("repro.baselines.common", "run_classification_epoch", "baselines.train_epoch"),
    Boundary("repro.baselines.common", "run_sequence_epoch", "baselines.train_epoch"),
    Boundary("repro.baselines.common", "predict_proba_batched", "baselines.predict"),
    Boundary("repro.baselines.common", "predict_sequence_proba_batched", "baselines.predict"),
    Boundary("repro.core.em", "update_confusions", "core.em.update_confusions"),
    Boundary("repro.core.em", "sequence_update_confusions", "core.em.update_confusions"),
    Boundary("repro.core.em", "posterior_qa", "core.em.posterior_qa"),
    Boundary("repro.core.em", "sequence_posterior_qa", "core.em.posterior_qa"),
    Boundary("repro.logic.distillation", "distill_posterior", "logic.distill_posterior"),
    Boundary("repro.logic.distillation", "chain_marginals", "logic.chain_marginals"),
    *(
        Boundary("repro.inference.primitives", name, f"inference.primitives.{name}", _KERNEL_SKIP)
        for name in _PRIMITIVES
    ),
    Boundary("repro.crowd.simulation", "simulate_classification_crowd", "crowd.simulate"),
    Boundary("repro.crowd.ner_simulation", "simulate_ner_crowd", "crowd.simulate"),
    Boundary("repro.serving.state", "save_stream_state", "serving.state.save_state",
             sizes_file=True),
    Boundary("repro.serving.state", "save_crowd", "serving.state.save_crowd",
             sizes_file=True),
    Boundary("repro.serving.state", "load_stream_state", "serving.state.load_state"),
    Boundary("repro.serving.state", "load_crowd", "serving.state.load_crowd"),
)

METHODS: tuple[Boundary, ...] = (
    Boundary("repro.autodiff.tensor", "Tensor.backward", "autodiff.backward"),
    Boundary("repro.autodiff.optim.optimizers", "SGD.step", "autodiff.optim_step"),
    Boundary("repro.autodiff.optim.optimizers", "Adam.step", "autodiff.optim_step"),
    Boundary("repro.autodiff.optim.optimizers", "Adadelta.step", "autodiff.optim_step"),
    Boundary("repro.models.base", "TextClassifier.predict", "baselines.predict"),
    Boundary("repro.models.base", "SequenceTagger.predict", "baselines.predict"),
    Boundary("repro.logic.sentiment_rules", "ButRule.penalties", "logic.rule_penalties"),
    Boundary("repro.crowd.types", "CrowdLabelMatrix.extend", "crowd.extend"),
    Boundary("repro.inference.streaming", "StreamingTruthInference.partial_fit",
             "inference.streaming.partial_fit"),
    Boundary("repro.inference.streaming", "StreamingTruthInference.result",
             "inference.streaming.result"),
)

# Spans that start a new request id: one per set-up, epoch, method run or
# schedule event.
REQUEST_PREFIXES = (
    "bench.setup",
    "baselines.train_epoch",
    "inference.cls.",
    "inference.seq.",
    "serving.update",
    "serving.query",
)

# Span-name prefix -> layer of the attribution table (longest prefix wins).
LAYERS = (
    ("autodiff.", "autodiff"),
    ("baselines.", "baselines.common"),
    ("core.em.", "core.em"),
    ("core.", "core"),
    ("logic.", "logic"),
    ("inference.primitives.", "inference.primitives"),
    ("inference.streaming.", "inference.streaming"),
    ("inference.", "inference"),
    ("crowd.", "crowd"),
    ("serving.state.", "serving.state"),
    ("serving.", "serving"),
    ("bench.", "bench"),
)


def layer_of(span: str) -> str:
    for prefix, layer in LAYERS:
        if span.startswith(prefix):
            return layer
    return "other"


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _install(tracer: Tracer, patches: Patches) -> None:
    from repro.autodiff import vjps

    modules = _repro_modules()
    for boundary in FUNCTIONS:
        original = getattr(importlib.import_module(boundary.module), boundary.attr)
        wrapper = tracer.wrap(boundary.span, original, boundary.sizes_file)
        bound = 0
        for module in modules:
            if module.__name__ in boundary.skip:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    patches.set_attr(module, attr, wrapper)
                    bound += 1
        if not bound:
            raise LookupError(f"no binding of {boundary.module}.{boundary.attr} found")
    for boundary in METHODS:
        owner_name, method = boundary.attr.split(".")
        owner = getattr(importlib.import_module(boundary.module), owner_name)
        patches.set_attr(owner, method, tracer.wrap(boundary.span, vars(owner)[method]))
    for primitive, fns in list(vjps.VJP_TABLE.items()):
        span = f"autodiff.vjp.{primitive}"
        patches.set_item(
            vjps.VJP_TABLE,
            primitive,
            tuple(None if fn is None else tracer.wrap(span, fn) for fn in fns),
        )
    for primitive, fn in list(vjps.FUSED_TABLE.items()):
        patches.set_item(vjps.FUSED_TABLE, primitive, tracer.wrap(f"autodiff.vjp.{primitive}", fn))


@contextmanager
def traced(tracer: Tracer):
    """Wrap every layer boundary for the duration of the block.

    Yields the :class:`~perfbench.tracing.Patches`; on exit every wrapped
    attribute and table entry is the original object again (verified).
    """
    patches = Patches()
    try:
        _install(tracer, patches)
        yield patches
    finally:
        patches.restore()


# The layer split each workload was chosen for (see README.md). A metric
# whose name starts with a prefix listed here must read zero on the named
# workloads, or above zero.
ZERO_ON = {
    "autodiff.": ("truth-inference", "serving-hotcold"),
    "baselines.": ("truth-inference", "serving-hotcold"),
    "logic.": ("truth-inference", "serving-hotcold"),
    "logic.chain_marginals": ("lncl-sentiment",),
    "core.em.": ("truth-inference", "serving-hotcold"),
    "inference.cls.": ("lncl-sentiment", "lncl-ner", "serving-hotcold"),
    "inference.seq.": ("lncl-sentiment", "lncl-ner", "serving-hotcold"),
    "inference.primitives.": ("serving-hotcold",),
    "inference.streaming.": ("lncl-sentiment", "lncl-ner", "truth-inference"),
    "crowd.extend": ("lncl-sentiment", "lncl-ner", "truth-inference"),
    "serving.": ("lncl-sentiment", "lncl-ner", "truth-inference"),
}
NONZERO_ON = {
    "autodiff.backward_s": ("lncl-sentiment", "lncl-ner"),
    "autodiff.vjp.conv1d_im2col_s": ("lncl-sentiment",),
    "autodiff.vjp.gru_sequence_s": ("lncl-ner",),
    "logic.rule_penalties_s": ("lncl-sentiment",),
    "logic.distill_posterior_s": ("lncl-sentiment",),
    "logic.chain_marginals_calls": ("lncl-ner",),
    "inference.cls.GLAD_s": ("truth-inference",),
    "inference.seq.HMM-Crowd_s": ("truth-inference",),
    "inference.primitives.batched_forward_backward_s": ("truth-inference",),
    "inference.streaming.partial_fit_s": ("serving-hotcold",),
    "crowd.extend_calls": ("serving-hotcold",),
    "crowd.simulate_s": ("lncl-sentiment", "lncl-ner", "truth-inference", "serving-hotcold"),
    "serving.state.save_state_s": ("serving-hotcold",),
    "serving.state.load_crowd_s": ("serving-hotcold",),
    "serving.rehydrations": ("serving-hotcold",),
}
