"""repro.analysis — the AST contract-lint engine (see ``engine`` docs).

Run it as ``python -m repro.analysis [paths...]`` (defaults to
``src tests``; exits 1 if there is any finding), or drive it
programmatically::

    from repro.analysis import analyze_paths, available_rules
    findings = analyze_paths(["src", "tests"], root=repo_root)

Importing the package registers the built-in rule catalog
(:mod:`repro.analysis.rules`).
"""

from __future__ import annotations

from .engine import (
    Finding,
    Rule,
    SourceFile,
    SYNTAX_ERROR_ID,
    UNUSED_SUPPRESSION_ID,
    analyze_paths,
    analyze_sources,
    available_rules,
    collect_files,
    get_rule,
    register_rule,
    registered_rules,
)
from . import rules as _rules  # noqa: F401  (import populates the registry)

__all__ = [
    "Finding",
    "Rule",
    "SourceFile",
    "SYNTAX_ERROR_ID",
    "UNUSED_SUPPRESSION_ID",
    "analyze_paths",
    "analyze_sources",
    "available_rules",
    "collect_files",
    "get_rule",
    "register_rule",
    "registered_rules",
]
