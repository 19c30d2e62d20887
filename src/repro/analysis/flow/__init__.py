"""repro.analysis.flow — the dataflow tier of the contract-lint engine.

PR 9's engine mechanized *syntactic* contracts (one AST walk per rule).
The contracts guarding the bit-identity and no-torn-read guarantees are
*semantic* — def-use and path-reachability properties a single walk
cannot see: "never mutate a borrowed zero-copy view", "never mutate an
object after publishing it into a snapshot", "never use an optional
field on a path no ``is not None`` check dominates". This package is the
machinery that makes those checkable:

* :mod:`~repro.analysis.flow.cfg` — a per-function control-flow graph
  over the engine's single-parse AST (statement-granular nodes, boolean
  short-circuit decomposed into condition-node chains, exception and
  ``finally`` edges);
* :mod:`~repro.analysis.flow.solver` — a generic forward worklist
  solver: any client analysis supplying ``join``/``transfer`` over a
  lattice of facts is run to fixpoint;
* :mod:`~repro.analysis.flow.facts` — the two concrete analyses the
  semantic rules consume ("borrowed"/"published" object taint with
  alias tracking, and must-"checked" optional-name facts), computed
  **once per file** via :meth:`repro.analysis.engine.SourceFile.flow`
  and shared by every rule.

Rules consuming these facts (``view-mutation``, ``publish-escape``, the
path-sensitive ``optional-guard``) plug into the existing registry /
suppression machinery unchanged — flow facts change what a rule can
*see*, not how findings are reported or waived.
"""

from __future__ import annotations

from .cfg import CFG, CFGNode, build_cfg, iter_functions
from .facts import FileFlow, FunctionFlow, Mutation, TruthinessTest, build_file_flow
from .solver import ForwardAnalysis, solve_forward

__all__ = [
    "CFG",
    "CFGNode",
    "build_cfg",
    "iter_functions",
    "ForwardAnalysis",
    "solve_forward",
    "FileFlow",
    "FunctionFlow",
    "Mutation",
    "TruthinessTest",
    "build_file_flow",
]
