"""Def-use, alias, and path facts the semantic contract rules consume.

Two analyses run over every function's CFG (built once per file, shared
by all rules via :meth:`repro.analysis.engine.SourceFile.flow`):

**Object taint (may-analysis).** An abstract object is allocated per
*allocation site* (call result, container/array-building expression,
function parameter); the lattice value of a local is the frozenset of
object ids it may point to, and the join is union — classic may-point-to
over reaching definitions. Three kinds of site matter:

* **borrowed** — results of the declared borrow-returning accessors
  (:data:`BORROWING_CALLS`: the zero-copy shard/COO-view surface of the
  crowd containers — the cached shard itself, ``as_shard()`` and
  ``token_shard()``, plus ``shards()``, ``iter_shards()``,
  ``flat_label_pairs()``, ``label_incidence()`` and
  ``vote_counts()``) plus ``SparseLabelShard.load(..., mmap=True)``
  (a memmap: writing through it corrupts the shard *file*) and the
  declared borrowed properties (:data:`BORROWING_ATTRS`). Mutating a
  borrowed object in place breaks the PR 5/6 bit-identity contract —
  shard views alias the parent's cached COO triples, and shard files
  are immutable while handles are live.
* **published** — objects stored into an attribute marked with a
  trailing ``# published`` comment, or matching the snapshot-swap
  pattern (attribute named ``snapshot``/``*_snapshot`` — the PR 8
  ``CrowdService`` idiom ``entry.snapshot = (version, result)``).
  Publication is a *program point*, so the published set rides in the
  flow state; mutating an object on a path after its publication is a
  torn read waiting for a reader.
* **fresh** — everything else. Any ordinary call returns fresh storage
  (this is what makes ``x = x.copy()`` launder a borrow), *except* the
  declared aliasing forms (:data:`ALIASING_CALLS`: ``np.asarray``,
  ``reshape``, ``ravel``, ... return views of their input) and
  subscripting (a numpy slice aliases its base buffer), which propagate
  the source ids.

Attribute loads propagate their base's ids (a field of a tainted
object is part of it — ``shard.rows.sort()`` on a memmap writes the
shard file), but an *untainted* base contributes nothing, so two loads
of ``self._buf`` are not aliased with each other — cross-attribute
escape is the lock-discipline rule's domain — and ``.T``-style view
properties of untainted arrays are untracked. Deliberate holes, both.

**Optional checkedness (must-analysis).** The state is the set of
names/attributes known non-None on *every* path into a node ("checked",
join = intersection) plus, per local, the set of attribute names its
value may originate from (join = union) — so ``clip = config.grad_clip``
followed by ``if clip:`` is attributable to the ``grad_clip`` field
across files, which the purely syntactic PR 9 rule could not do.
Checkedness is seeded by branch refinement along the CFG's labeled
edges (``x is not None`` true-edge, ``x is None`` false-edge, a truthy
test's true-edge, ``isinstance`` true-edge) — and because the CFG
decomposes boolean short-circuit into test-node chains,
``x is not None and x`` checks the second conjunct under the first's
refinement with no special cases. Assignment kills checkedness;
assigning a non-None constant or an already-checked name restores it.

The collected products are deliberately rule-agnostic:
:class:`Mutation` events (in-place writes whose target may be borrowed
or published) and :class:`TruthinessTest` records (every expression
position evaluated for truth, with the checked/origin facts at that
point). Rules filter them against their own vocabularies, so the
fixpoints run once per function regardless of how many rules consume
them.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from .cfg import CFG, CFGNode, build_cfg, iter_functions
from .solver import solve_forward

if TYPE_CHECKING:  # engine imports flow lazily; avoid the import cycle
    from ..engine import SourceFile

__all__ = [
    "BORROWING_CALLS",
    "BORROWING_ATTRS",
    "ALIASING_CALLS",
    "MUTATING_METHODS",
    "Mutation",
    "TruthinessTest",
    "FunctionFlow",
    "FileFlow",
    "build_file_flow",
    "describe_expr",
]

# --------------------------------------------------------------------- #
# Declared seeding vocabularies (the conventions the repo already has).
# --------------------------------------------------------------------- #

# Methods returning zero-copy views of container caches (crowd/types.py,
# crowd/sharding.py document each as read-only/borrowed).
BORROWING_CALLS = frozenset({
    "as_shard",
    "token_shard",
    "shards",
    "iter_shards",
    "flat_label_pairs",
    "label_incidence",
    "vote_counts",
})

# Properties returning views of parent/cached storage.
BORROWING_ATTRS = frozenset({"observed_mask"})

# Classes whose ``.load(path, mmap=True)`` memory-maps an immutable file.
_MMAP_LOADER_TYPES = frozenset({"SparseLabelShard"})

# Calls returning views/aliases of their input rather than fresh storage
# (np.asarray of an ndarray is the same object; reshape/ravel/squeeze
# return views when they can). Everything NOT listed here is assumed to
# return fresh storage — which is what makes ``.copy()`` launder taint.
ALIASING_CALLS = frozenset({
    "asarray",
    "asanyarray",
    "ascontiguousarray",
    "atleast_1d",
    "atleast_2d",
    "reshape",
    "ravel",
    "view",
    "squeeze",
    "swapaxes",
    "transpose",
})

# Methods that mutate their receiver in place: the ndarray in-place
# surface plus the dict/list/set mutators (publish-escape watches plain
# containers too — snapshots are (version, result-dict) tuples).
MUTATING_METHODS = frozenset({
    # ndarray
    "fill", "sort", "put", "partition", "itemset", "resize",
    "setflags", "setfield", "byteswap",
    # dict / list / set
    "update", "setdefault", "pop", "popitem", "clear",
    "append", "extend", "insert", "remove", "add", "discard",
})

_PUBLISH_COMMENT_RE = re.compile(r"#\s*published\b")
_SNAPSHOT_ATTR_RE = re.compile(r"(^|_)snapshot$")

_EMPTY: frozenset = frozenset()


def describe_expr(expr: ast.expr) -> str:
    """Compact human-readable form of a mutation target for messages."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return f"{describe_expr(expr.value)}.{expr.attr}"
    if isinstance(expr, ast.Subscript):
        return f"{describe_expr(expr.value)}[...]"
    if isinstance(expr, ast.Call):
        return f"{describe_expr(expr.func)}(...)"
    return "<expr>"


# --------------------------------------------------------------------- #
# Collected products.
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Mutation:
    """One in-place write whose target may be borrowed and/or published."""

    lineno: int
    target: str  # described mutated expression, e.g. "rows" / "pairs[...]"
    kind: str  # "subscript store" | "aug-assign" | "mutating call .x()" | "out= argument"
    borrowed_from: tuple[str, ...]  # borrow-site descriptions, () if none
    published_at: tuple[int, ...]  # publish-site line numbers, () if none


@dataclass(frozen=True)
class TruthinessTest:
    """One expression position evaluated for truth, with path facts."""

    lineno: int
    expr: ast.expr  # the tested Name or Attribute
    checked: frozenset[str]  # must-non-None keys at this point
    origins: frozenset[str]  # field names a tested Name may originate from


@dataclass
class FunctionFlow:
    """Per-function facts: the CFG plus both analyses' products."""

    func: ast.AST
    cfg: CFG
    mutations: list[Mutation]
    tests: list[TruthinessTest]


@dataclass
class FileFlow:
    functions: list[FunctionFlow] = field(default_factory=list)

    def mutations(self) -> Iterable[Mutation]:
        for fn in self.functions:
            yield from fn.mutations

    def tests(self) -> Iterable[TruthinessTest]:
        for fn in self.functions:
            yield from fn.tests


# --------------------------------------------------------------------- #
# Taint analysis: borrowed / published object ids with alias tracking.
# --------------------------------------------------------------------- #


@dataclass
class _TaintState:
    env: dict[str, frozenset]  # name -> may-point-to object ids
    published: frozenset  # object ids published at or before this point

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _TaintState)
            and self.env == other.env
            and self.published == other.published
        )


class _TaintAnalysis:
    """May-point-to + borrow/publish taint (see module docs)."""

    def __init__(self, source: "SourceFile") -> None:
        self.source = source
        self._site_ids: dict[int, int] = {}  # id(ast node) -> object id
        self._next_id = 0
        self.borrowed: dict[int, str] = {}  # object id -> borrow description
        self.publish_sites: dict[int, int] = {}  # object id -> publish lineno

    # -- sites ---------------------------------------------------------- #
    def _site(self, node: ast.AST) -> int:
        """Stable object id per allocation site (stable across the
        repeated transfer runs of the fixpoint iteration)."""
        key = id(node)
        oid = self._site_ids.get(key)
        if oid is None:
            oid = self._next_id
            self._next_id += 1
            self._site_ids[key] = oid
        return oid

    def _borrow_site(self, node: ast.AST, description: str) -> frozenset:
        oid = self._site(node)
        self.borrowed.setdefault(oid, description)
        return frozenset({oid})

    # -- expression evaluation ------------------------------------------ #
    def eval(self, expr: ast.expr, env: dict[str, frozenset]) -> frozenset:
        if isinstance(expr, ast.Name):
            return env.get(expr.id, _EMPTY)
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value, env)
        if isinstance(expr, ast.Tuple):
            out = _EMPTY
            for elt in expr.elts:
                out |= self.eval(elt, env)
            return out
        if isinstance(expr, (ast.List, ast.Set, ast.Dict)):
            # A fresh mutable container that may also hold its elements'
            # objects — publishing a list publishes what it contains.
            out = frozenset({self._site(expr)})
            elts = expr.values if isinstance(expr, ast.Dict) else expr.elts
            for elt in elts:
                if elt is not None:
                    out |= self.eval(elt, env)
            return out
        if isinstance(expr, ast.Subscript):
            return self.eval(expr.value, env)  # numpy slices alias the base
        if isinstance(expr, ast.IfExp):
            return self.eval(expr.body, env) | self.eval(expr.orelse, env)
        if isinstance(expr, ast.BoolOp):
            out = _EMPTY  # `x or default` evaluates to one of the operands
            for value in expr.values:
                out |= self.eval(value, env)
            return out
        if isinstance(expr, ast.NamedExpr):
            return self.eval(expr.value, env)
        if isinstance(expr, ast.Attribute):
            if expr.attr in BORROWING_ATTRS:
                return self._borrow_site(expr, f".{expr.attr} view")
            # A field of a tainted object is part of it: `shard.rows.sort()`
            # on a memmapped shard writes the shard file. Untainted bases
            # (locals with no ids, bare `self`) stay id-free.
            return self.eval(expr.value, env)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, (ast.BinOp, ast.UnaryOp)):
            return frozenset({self._site(expr)})  # fresh array result
        return _EMPTY  # constants, comparisons, f-strings, comprehensions

    def _eval_call(self, call: ast.Call, env: dict[str, frozenset]) -> frozenset:
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in BORROWING_CALLS:
                return self._borrow_site(call, f"{func.attr}()")
            if (
                func.attr == "load"
                and isinstance(func.value, ast.Name)
                and func.value.id in _MMAP_LOADER_TYPES
            ):
                mmap_kw = next(
                    (kw for kw in call.keywords if kw.arg == "mmap"), None
                )
                explicit_no_mmap = (
                    mmap_kw is not None
                    and isinstance(mmap_kw.value, ast.Constant)
                    and mmap_kw.value.value is False
                )
                if not explicit_no_mmap:  # mmap=True is the default
                    return self._borrow_site(
                        call, f"{func.value.id}.load(mmap=True)"
                    )
                return frozenset({self._site(call)})
            if func.attr in ALIASING_CALLS:
                out = self.eval(func.value, env)  # x.reshape(...) aliases x
                for arg in call.args:  # np.asarray(x) aliases x
                    out |= self.eval(arg, env)
                return out
        # Any other call returns fresh storage — .copy()/.astype()/
        # to_matrix()/np.array() all launder taint through this arm.
        return frozenset({self._site(call)})

    # -- solver interface ----------------------------------------------- #
    def initial(self, cfg: CFG) -> _TaintState:
        env: dict[str, frozenset] = {}
        arguments = getattr(cfg.func, "args", None)
        if arguments is not None:
            for arg in (
                list(arguments.posonlyargs)
                + list(arguments.args)
                + list(arguments.kwonlyargs)
                + [a for a in (arguments.vararg, arguments.kwarg) if a]
            ):
                env[arg.arg] = frozenset({self._site(arg)})
        return _TaintState(env, _EMPTY)

    def join(self, old: _TaintState | None, new: _TaintState) -> _TaintState:
        if old is None:
            return new
        env = dict(old.env)
        for name, ids in new.env.items():
            merged = env.get(name, _EMPTY) | ids
            if merged != env.get(name):
                env[name] = merged
        published = old.published | new.published
        if env == old.env and published == old.published:
            return old
        return _TaintState(env, published)

    def transfer(self, node: CFGNode, state: _TaintState) -> _TaintState:
        if node.kind != "stmt":
            return state
        stmt = node.node
        env = state.env
        published = state.published

        def bind(target: ast.expr, ids: frozenset) -> None:
            nonlocal env
            if isinstance(target, ast.Name):
                env = dict(env)
                env[target.id] = ids
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    bind(elt, ids)
            elif isinstance(target, ast.Starred):
                bind(target.value, ids)

        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value = stmt.value
            if value is not None:
                ids = self.eval(value, env)
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if self._is_publish_target(target, stmt):
                        for oid in ids:
                            self.publish_sites.setdefault(oid, stmt.lineno)
                        published = published | ids
                    bind(target, ids)
        elif isinstance(stmt, ast.AugAssign):
            pass  # in-place: the target keeps its ids
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            bind(stmt.target, self.eval(stmt.iter, env))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    bind(item.optional_vars, self.eval(item.context_expr, env))
        elif isinstance(stmt, ast.ExceptHandler):
            if stmt.name:
                env = dict(env)
                env[stmt.name] = _EMPTY
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id in env:
                    env = dict(env)
                    del env[target.id]
        if env is state.env and published is state.published:
            return state
        return _TaintState(env, published)

    def _is_publish_target(self, target: ast.expr, stmt: ast.stmt) -> bool:
        comment_marked = any(
            (comment := self.source.comments.get(line)) is not None
            and _PUBLISH_COMMENT_RE.search(comment)
            for line in range(stmt.lineno, (stmt.end_lineno or stmt.lineno) + 1)
        )
        if isinstance(target, ast.Attribute):
            return comment_marked or bool(_SNAPSHOT_ATTR_RE.search(target.attr))
        if isinstance(target, ast.Subscript):
            return comment_marked  # store into a `# published` container
        return False

    # -- mutation collection -------------------------------------------- #
    def collect(self, cfg: CFG, entry_states: dict[int, object]) -> list[Mutation]:
        mutations: list[Mutation] = []
        for node in cfg.nodes:
            state = entry_states.get(node.index)
            if state is None:
                continue  # unreachable — no path, no path contract
            region = _node_expressions(node)
            if region is None:
                continue
            record = lambda base, kind, lineno: self._record(  # noqa: E731
                base, kind, lineno, state, mutations
            )
            stmt = node.node
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    self._collect_store_targets(target, record)
            elif isinstance(stmt, ast.AugAssign):
                target = stmt.target
                if isinstance(target, ast.Name):
                    record(target, "aug-assign", target.lineno)
                elif isinstance(target, ast.Subscript):
                    record(target.value, "aug-assign", target.lineno)
            for sub in region:
                for call in ast.walk(sub):
                    if not isinstance(call, ast.Call):
                        continue
                    for kw in call.keywords:
                        if kw.arg == "out":
                            for name in self._out_names(kw.value):
                                record(name, "out= argument", call.lineno)
                    func = call.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in MUTATING_METHODS
                    ):
                        record(
                            func.value, f"mutating call .{func.attr}()", call.lineno
                        )
        return mutations

    @staticmethod
    def _collect_store_targets(
        target: ast.expr, record: Callable[[ast.expr, str, int], None]
    ) -> None:
        if isinstance(target, ast.Subscript):
            record(target.value, "subscript store", target.lineno)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                _TaintAnalysis._collect_store_targets(elt, record)

    @staticmethod
    def _out_names(value: ast.expr) -> list[ast.expr]:
        if isinstance(value, ast.Tuple):
            return list(value.elts)
        return [value]

    def _record(
        self,
        base: ast.expr,
        kind: str,
        lineno: int,
        state: _TaintState,
        mutations: list[Mutation],
    ) -> None:
        ids = self.eval(base, state.env)
        if not ids:
            return
        borrowed = tuple(
            sorted({self.borrowed[oid] for oid in ids if oid in self.borrowed})
        )
        published = tuple(
            sorted(
                {
                    self.publish_sites[oid]
                    for oid in ids & state.published
                    if oid in self.publish_sites
                }
            )
        )
        if borrowed or published:
            mutations.append(
                Mutation(lineno, describe_expr(base), kind, borrowed, published)
            )


_TRY_STMT_TYPES = (ast.Try, ast.TryStar) if hasattr(ast, "TryStar") else (ast.Try,)


def _node_expressions(node: CFGNode) -> list[ast.expr] | None:
    """The expressions a CFG node itself evaluates (None: nothing).

    Compound statements contribute only their *header* expressions — their
    bodies are separate CFG nodes, and scanning them here would double-
    count. Nested function/class definitions are opaque (their bodies get
    their own CFGs and scopes).
    """
    if node.kind == "test":
        return [node.node]
    if node.kind != "stmt":
        return None
    stmt = node.node
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(
        stmt,
        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.ExceptHandler),
    ):
        return None
    if isinstance(stmt, _TRY_STMT_TYPES):
        return None  # the synthetic finally join node
    return [
        child for child in ast.iter_child_nodes(stmt) if isinstance(child, ast.expr)
    ]


# --------------------------------------------------------------------- #
# Optional checkedness: must-non-None keys + value origins.
# --------------------------------------------------------------------- #


@dataclass
class _OptionalState:
    checked: frozenset[str]  # keys non-None on every path here
    origins: dict[str, frozenset[str]]  # local -> field names it may hold

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _OptionalState)
            and self.checked == other.checked
            and self.origins == other.origins
        )


def _key(expr: ast.expr) -> str | None:
    """Checkedness key: bare name, or ``.attr`` for any attribute access
    (objectless, matching the syntactic rule's name-level matching)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return f".{expr.attr}"
    return None


class _OptionalAnalysis:
    """Must-checked non-None facts with branch refinement (see module docs)."""

    def initial(self, cfg: CFG) -> _OptionalState:
        return _OptionalState(_EMPTY, {})

    def join(self, old: _OptionalState | None, new: _OptionalState) -> _OptionalState:
        if old is None:
            return new
        checked = old.checked & new.checked
        origins = dict(old.origins)
        for name, fields in new.origins.items():
            merged = origins.get(name, _EMPTY) | fields
            if merged != origins.get(name):
                origins[name] = merged
        if checked == old.checked and origins == old.origins:
            return old
        return _OptionalState(checked, origins)

    # -- assumption refinement ------------------------------------------ #
    def refine(self, node: CFGNode, state: _OptionalState, label: object) -> _OptionalState:
        if label not in (True, False):
            return state
        return self._assume(node.node, bool(label), state)

    def _assume(
        self, expr: ast.expr, truth: bool, state: _OptionalState
    ) -> _OptionalState:
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
            return self._assume(expr.operand, not truth, state)
        if isinstance(expr, ast.BoolOp):
            # Embedded bool-ops (inside `x = a or b` scans): conjunct facts
            # hold when an `and` is true / an `or` is false.
            if (isinstance(expr.op, ast.And) and truth) or (
                isinstance(expr.op, ast.Or) and not truth
            ):
                for value in expr.values:
                    state = self._assume(value, truth, state)
            return state
        if isinstance(expr, ast.Compare) and len(expr.ops) == 1:
            left, op, right = expr.left, expr.ops[0], expr.comparators[0]
            is_none = isinstance(right, ast.Constant) and right.value is None
            if is_none:
                key = _key(left)
                if key is not None:
                    if isinstance(op, ast.IsNot) and truth:
                        return self._check(state, key)
                    if isinstance(op, ast.Is) and not truth:
                        return self._check(state, key)
            return state
        if isinstance(expr, (ast.Name, ast.Attribute)):
            if truth:  # truthy implies non-None
                key = _key(expr)
                if key is not None:
                    return self._check(state, key)
            return state
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id == "isinstance"
            and truth
            and expr.args
        ):
            key = _key(expr.args[0])
            if key is not None:
                return self._check(state, key)
        return state

    @staticmethod
    def _check(state: _OptionalState, key: str) -> _OptionalState:
        if key in state.checked:
            return state
        return _OptionalState(state.checked | {key}, state.origins)

    # -- transfer -------------------------------------------------------- #
    def transfer(self, node: CFGNode, state: _OptionalState) -> _OptionalState:
        if node.kind != "stmt":
            return state
        stmt = node.node
        checked = state.checked
        origins = state.origins

        def assign(name: str, value: ast.expr | None) -> None:
            nonlocal checked, origins
            checked = checked - {name}
            new_origins = self._value_origins(value, origins)
            if origins.get(name, _EMPTY) != new_origins:
                origins = dict(origins)
                if new_origins:
                    origins[name] = new_origins
                else:
                    origins.pop(name, None)
            if value is not None and self._definitely_not_none(value, checked):
                checked = checked | {name}

        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for name_node in self._target_names(target):
                    assign(name_node.id, stmt.value if len(targets) == 1 else None)
                if isinstance(target, ast.Attribute):
                    checked = checked - {f".{target.attr}"}
                    if stmt.value is not None and self._definitely_not_none(
                        stmt.value, checked
                    ):
                        checked = checked | {f".{target.attr}"}
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            for name_node in self._target_names(stmt.target):
                assign(name_node.id, None)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    for name_node in self._target_names(item.optional_vars):
                        # a context manager's __enter__ result is non-None
                        # in every idiom this repo uses; stay neutral:
                        assign(name_node.id, None)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    checked = checked - {target.id}
        if checked is state.checked and origins is state.origins:
            return state
        return _OptionalState(checked, origins)

    @staticmethod
    def _target_names(target: ast.expr) -> list[ast.Name]:
        if isinstance(target, ast.Name):
            return [target]
        if isinstance(target, (ast.Tuple, ast.List)):
            out: list[ast.Name] = []
            for elt in target.elts:
                out.extend(_OptionalAnalysis._target_names(elt))
            return out
        if isinstance(target, ast.Starred):
            return _OptionalAnalysis._target_names(target.value)
        return []

    def _value_origins(
        self, value: ast.expr | None, origins: dict[str, frozenset[str]]
    ) -> frozenset[str]:
        if value is None:
            return _EMPTY
        if isinstance(value, ast.Attribute):
            return frozenset({value.attr})
        if isinstance(value, ast.Name):
            return origins.get(value.id, _EMPTY)
        if isinstance(value, ast.IfExp):
            return self._value_origins(value.body, origins) | self._value_origins(
                value.orelse, origins
            )
        if isinstance(value, ast.BoolOp):
            out = _EMPTY
            for part in value.values:
                out |= self._value_origins(part, origins)
            return out
        return _EMPTY

    def _definitely_not_none(self, value: ast.expr, checked: frozenset[str]) -> bool:
        if isinstance(value, ast.Constant):
            return value.value is not None
        key = _key(value)
        return key is not None and key in checked

    # -- truthiness-test collection -------------------------------------- #
    def collect(
        self, cfg: CFG, entry_states: dict[int, object]
    ) -> list[TruthinessTest]:
        tests: list[TruthinessTest] = []

        def record(expr: ast.expr, state: _OptionalState) -> None:
            origins = _EMPTY
            if isinstance(expr, ast.Name):
                origins = state.origins.get(expr.id, _EMPTY)
            tests.append(
                TruthinessTest(expr.lineno, expr, state.checked, origins)
            )

        for node in cfg.nodes:
            state = entry_states.get(node.index)
            if state is None:
                continue
            if node.kind == "test":
                self._scan(node.node, state, True, record)
            elif node.kind == "stmt":
                for expr in _node_expressions(node) or ():
                    self._scan(expr, state, False, record)
        return tests

    def _scan(
        self,
        expr: ast.expr,
        state: _OptionalState,
        is_condition: bool,
        record: Callable[[ast.expr, _OptionalState], None],
    ) -> None:
        """Record every truthiness position in ``expr``, refining facts
        left-to-right through embedded short-circuit operators."""
        if isinstance(expr, ast.BoolOp):
            current = state
            for value in expr.values:
                self._scan(value, current, True, record)
                current = self._assume(
                    value, isinstance(expr.op, ast.And), current
                )
            return
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
            self._scan(expr.operand, state, True, record)
            return
        if isinstance(expr, ast.IfExp):
            self._scan(expr.test, state, True, record)
            self._scan(expr.body, self._assume(expr.test, True, state), False, record)
            self._scan(
                expr.orelse, self._assume(expr.test, False, state), False, record
            )
            return
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in expr.generators:
                self._scan(generator.iter, state, False, record)
                for if_clause in generator.ifs:
                    self._scan(if_clause, state, True, record)
                    state = self._assume(if_clause, True, state)
            if isinstance(expr, ast.DictComp):
                self._scan(expr.key, state, False, record)
                self._scan(expr.value, state, False, record)
            else:
                self._scan(expr.elt, state, False, record)
            return
        if is_condition and isinstance(expr, (ast.Name, ast.Attribute)):
            record(expr, state)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._scan(child, state, False, record)


# --------------------------------------------------------------------- #
# Per-file assembly (cached on SourceFile by the engine).
# --------------------------------------------------------------------- #


def build_file_flow(source: "SourceFile") -> FileFlow:
    """Both analyses over every function — the once-per-file product."""
    flow = FileFlow()
    for func in iter_functions(source.tree):
        cfg = build_cfg(func)
        taint = _TaintAnalysis(source)
        taint_states = solve_forward(cfg, taint)
        optional = _OptionalAnalysis()
        optional_states = solve_forward(cfg, optional)
        flow.functions.append(
            FunctionFlow(
                func=func,
                cfg=cfg,
                mutations=taint.collect(cfg, taint_states),
                tests=optional.collect(cfg, optional_states),
            )
        )
    return flow
