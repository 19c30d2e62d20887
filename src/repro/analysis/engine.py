"""The contract-lint engine: single-parse AST analysis with a rule registry.

Eight PRs of growth produced contracts the test suite cannot see directly:
only :mod:`repro.autodiff.dtypes` may name a dtype, optional numeric config
is guarded with ``is not None`` (never truthily), ``CrowdService``'s shared
registry state stays under its lock, callables crossing the executor pickle
boundary pickle by name, broad ``except`` clauses justify themselves, and
test tolerances are explicit tiers. Each rule in :mod:`repro.analysis.rules`
mechanizes one of those contracts; this module is the machinery they share.

Design, mirroring :mod:`repro.inference.registry`:

* every rule registers itself under a unique ``rule_id`` via
  :func:`register_rule` (duplicate registration raises — same contract as
  the method registry), and is resolved by :func:`get_rule` /
  :func:`available_rules`;
* each analyzed file is parsed **once** into a :class:`SourceFile`
  (AST + tokenized comments) and dispatched to every rule, so adding a
  rule costs one AST walk, not one parse;
* findings on a line can be waived inline with ``# lint: ok(rule-id)``
  (comma-separated ids allowed). A suppression that matches no finding is
  itself reported under :data:`UNUSED_SUPPRESSION_ID`, so waivers cannot
  go stale silently;
* every rule holds at zero findings over ``src/`` and ``tests/``: the CLI
  (``python -m repro.analysis``) exits 1 on any finding, and
  ``tests/tooling/test_analysis.py`` gates tier-1 on an empty run.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

if TYPE_CHECKING:
    from .flow import FileFlow

__all__ = [
    "Finding",
    "SourceFile",
    "Rule",
    "register_rule",
    "get_rule",
    "available_rules",
    "registered_rules",
    "collect_files",
    "analyze_sources",
    "analyze_paths",
    "UNUSED_SUPPRESSION_ID",
    "SYNTAX_ERROR_ID",
]

# ``lint: ok(rule-a)`` / ``lint: ok(rule-a, rule-b)`` after a hash — the
# only suppression syntax; it must sit on the exact line the finding
# anchors to. (The examples here omit their own hash so this comment is
# not itself tokenized as a stale suppression.)
_SUPPRESSION_RE = re.compile(r"#\s*lint:\s*ok\(([^)]*)\)")
_RULE_ID_RE = re.compile(r"^[a-z][a-z0-9]*(-[a-z0-9]+)*$")

UNUSED_SUPPRESSION_ID = "unused-suppression"
SYNTAX_ERROR_ID = "syntax-error"


@dataclass(frozen=True, order=True)
class Finding:
    """One violation: where (repo-relative ``file:line``), which rule, why."""

    file: str
    line: int
    rule_id: str
    message: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule_id}] {self.message}"


class SourceFile:
    """One parsed module: AST, raw lines, comments, and inline suppressions.

    Built once per file per analysis run; every rule receives the same
    instance, so no rule re-parses or re-tokenizes. ``rel`` is the
    repo-relative posix path — it is what rules scope on (``src/`` vs
    ``tests/``) and what findings are keyed by, so fixture tests
    can fabricate sources at any virtual location via :meth:`from_source`.
    """

    def __init__(self, rel: str, text: str, path: Path | None = None) -> None:
        self.rel = rel.replace("\\", "/")
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=self.rel)
        self.comments: dict[int, str] = {}
        try:
            for token in tokenize.generate_tokens(io.StringIO(text).readline):
                if token.type == tokenize.COMMENT:
                    self.comments[token.start[0]] = token.string
        except tokenize.TokenError:
            pass  # ast.parse accepted the file; comments stay best-effort
        self._flow: "FileFlow | None" = None
        self.suppressions: dict[int, set[str]] = {}
        for lineno, comment in self.comments.items():
            match = _SUPPRESSION_RE.search(comment)
            if match:
                ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
                if ids:
                    self.suppressions[lineno] = ids

    @classmethod
    def parse(cls, path: Path, root: Path) -> "SourceFile":
        path = Path(path)
        try:
            rel = str(path.resolve().relative_to(Path(root).resolve()))
        except ValueError:
            rel = str(path)
        return cls(rel, path.read_text(), path=path)

    @classmethod
    def from_source(cls, text: str, rel: str = "src/repro/_fixture.py") -> "SourceFile":
        """Build from a source string at a virtual path (rule fixtures)."""
        return cls(rel, text)

    def flow(self) -> "FileFlow":
        """Per-function dataflow facts (CFGs, borrow/publish taint,
        optional-checkedness), computed lazily on first request and cached
        — so the fixpoints run once per file no matter how many rules
        consume them, the same single-parse economics as the AST itself.
        """
        cached = self._flow
        if cached is None:
            from .flow import build_file_flow  # deferred: flow imports us

            cached = self._flow = build_file_flow(self)
        return cached

    def comment_on(self, lineno: int) -> str | None:
        return self.comments.get(lineno)

    def has_justifying_comment(self, start: int, stop: int) -> bool:
        """Any non-suppression comment on lines ``start..stop`` inclusive?

        Suppression comments are deliberately excluded: ``# lint: ok(...)``
        waives a finding through the suppression machinery (and is tracked
        for staleness there); it is not a justification that prevents the
        finding from existing.
        """
        for lineno in range(start, stop + 1):
            comment = self.comments.get(lineno)
            if comment and not _SUPPRESSION_RE.search(comment):
                return True
        return False


@runtime_checkable
class Rule(Protocol):
    """One mechanized contract.

    ``check`` receives every :class:`SourceFile` in the run (scoping on
    ``source.rel`` is the rule's job) and yields findings. Rules needing
    cross-file context (e.g. optional-field annotations declared in one
    module, guarded in another) may implement ``prepare(sources)``, called
    once per run before any ``check``.
    """

    rule_id: str
    description: str

    def check(self, source: SourceFile) -> Iterable[Finding]: ...


_REGISTRY: dict[str, Rule] = {}


def register_rule(rule: Rule, overwrite: bool = False) -> Rule:
    """Add a rule under its ``rule_id``; refuses silent redefinition."""
    rule_id = getattr(rule, "rule_id", None)
    if not rule_id or not _RULE_ID_RE.match(rule_id):
        raise ValueError(
            f"rule_id must be kebab-case ([a-z0-9-]), got {rule_id!r}"
        )
    if rule_id in (UNUSED_SUPPRESSION_ID, SYNTAX_ERROR_ID):
        raise ValueError(f"rule_id {rule_id!r} is reserved for the engine")
    if rule_id in _REGISTRY and not overwrite:
        raise ValueError(f"rule {rule_id!r} already registered")
    _REGISTRY[rule_id] = rule
    return rule


def get_rule(rule_id: str) -> Rule:
    """Resolve a registered rule; ``KeyError`` names the known ids."""
    rule = _REGISTRY.get(rule_id)
    if rule is None:
        known = ", ".join(available_rules()) or "none"
        raise KeyError(f"unknown lint rule {rule_id!r} (known: {known})")
    return rule


def available_rules() -> tuple[str, ...]:
    """Registered rule ids, in registration order."""
    return tuple(_REGISTRY)


def registered_rules() -> tuple[Rule, ...]:
    return tuple(_REGISTRY.values())


def collect_files(paths: Iterable[Path | str], root: Path) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated ``*.py`` list."""
    seen: dict[Path, None] = {}
    root = Path(root)
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            for module in sorted(path.rglob("*.py")):
                seen.setdefault(module.resolve(), None)
        elif path.suffix == ".py":
            seen.setdefault(path.resolve(), None)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(seen)


def analyze_sources(
    sources: Iterable[SourceFile],
    rules: Iterable[Rule] | None = None,
    timings: dict[str, float] | None = None,
) -> list[Finding]:
    """Run ``rules`` (default: the full registry) over parsed sources.

    Per file: every rule checks the same parsed tree, suppressions on the
    findings' lines consume them, and leftover suppressions for *active*
    rules — plus suppressions naming rule ids the registry has never heard
    of — come back as :data:`UNUSED_SUPPRESSION_ID` findings.

    Pass a dict as ``timings`` to accumulate per-rule wall time (seconds,
    summed across ``prepare`` and every ``check``) — the CLI's
    ``--profile`` view. Note the shared flow-fact fixpoints are charged to
    whichever rule touches a file's :meth:`SourceFile.flow` first.
    """
    sources = list(sources)
    rules = registered_rules() if rules is None else list(rules)
    active_ids = {rule.rule_id for rule in rules}

    def charge(rule_id: str, started: float) -> None:
        if timings is not None:
            timings[rule_id] = timings.get(rule_id, 0.0) + (
                time.perf_counter() - started
            )

    for rule in rules:
        prepare = getattr(rule, "prepare", None)
        if prepare is not None:
            started = time.perf_counter()
            prepare(sources)
            charge(rule.rule_id, started)

    findings: list[Finding] = []
    for source in sources:
        raw: list[Finding] = []
        for rule in rules:
            started = time.perf_counter()
            raw.extend(rule.check(source))
            charge(rule.rule_id, started)
        used: set[tuple[int, str]] = set()
        for finding in raw:
            if finding.rule_id in source.suppressions.get(finding.line, ()):
                used.add((finding.line, finding.rule_id))
            else:
                findings.append(finding)
        for lineno in sorted(source.suppressions):
            for rule_id in sorted(source.suppressions[lineno]):
                if (lineno, rule_id) in used:
                    continue
                if rule_id in active_ids:
                    reason = "matches no finding on this line — stale waiver, remove it"
                elif rule_id not in _REGISTRY:
                    reason = f"names a rule that does not exist (known: {', '.join(available_rules())})"
                else:
                    continue  # rule exists but was excluded from this run
                findings.append(
                    Finding(
                        file=source.rel,
                        line=lineno,
                        rule_id=UNUSED_SUPPRESSION_ID,
                        message=f"suppression 'lint: ok({rule_id})' {reason}",
                    )
                )
    return sorted(findings)


def analyze_paths(
    paths: Iterable[Path | str],
    root: Path | str,
    rules: Iterable[Rule] | None = None,
    timings: dict[str, float] | None = None,
) -> list[Finding]:
    """Parse every ``*.py`` under ``paths`` once and run the rules.

    Files that do not parse come back as :data:`SYNTAX_ERROR_ID` findings
    instead of aborting the run — a lint engine that dies on the file it
    should be reporting on is useless in CI.
    """
    root = Path(root)
    sources: list[SourceFile] = []
    broken: list[Finding] = []
    for path in collect_files(paths, root):
        try:
            sources.append(SourceFile.parse(path, root))
        except SyntaxError as exc:
            try:
                rel = str(path.resolve().relative_to(root.resolve()))
            except ValueError:
                rel = str(path)
            broken.append(
                Finding(
                    file=rel.replace("\\", "/"),
                    line=exc.lineno or 1,
                    rule_id=SYNTAX_ERROR_ID,
                    message=f"file does not parse: {exc.msg}",
                )
            )
    return sorted(analyze_sources(sources, rules, timings=timings) + broken)
