"""CLI: ``python -m repro.analysis [paths...]``.

Lints ``src tests`` by default (run from the repo root) and prints every
finding as ``file:line: [rule-id] message``; exits 1 if there is any,
0 if there is none. Every rule holds at zero, so a finding is fixed or
waived on its own line with ``# lint: ok(rule-id)``. A path that is not
a python file or directory is a usage error (exit 2, like a bad flag),
so a typo in a CI invocation does not read as a lint failure.

``--format json`` emits findings, per-rule counts, and elapsed seconds as
one machine-readable object for CI artifacts; ``--profile`` adds per-rule
wall time (the shared dataflow fixpoints are charged to whichever rule
touches a file's flow facts first). ``--list-rules`` prints the catalog.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .engine import analyze_paths, available_rules, get_rule


def _as_json(findings, elapsed: float, timings: dict[str, float] | None) -> str:
    by_rule: dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
    payload = {
        "findings": [
            {
                "file": f.file,
                "line": f.line,
                "rule_id": f.rule_id,
                "message": f.message,
            }
            for f in findings
        ],
        "counts_by_rule": dict(sorted(by_rule.items())),
        "total": len(findings),
        "elapsed_seconds": round(elapsed, 3),
    }
    if timings is not None:
        payload["rule_seconds"] = {
            rule_id: round(seconds, 4)
            for rule_id, seconds in sorted(
                timings.items(), key=lambda item: -item[1]
            )
        }
    return json.dumps(payload, indent=2, sort_keys=False)


def _print_profile(timings: dict[str, float]) -> None:
    print("per-rule wall time (shared flow fixpoints charged to first taker):")
    for rule_id, seconds in sorted(timings.items(), key=lambda item: -item[1]):
        print(f"  {rule_id:20s} {seconds * 1000.0:8.1f} ms")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST contract lint for the repro codebase",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--root", default=".",
        help="repo root findings are keyed relative to (default: cwd)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json: findings + per-rule counts + elapsed)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="report per-rule wall time",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in available_rules():
            print(f"{rule_id:18s} {get_rule(rule_id).description}")
        return 0

    timings: dict[str, float] | None = {} if args.profile else None
    started = time.perf_counter()
    try:
        findings = analyze_paths(
            args.paths, root=Path(args.root).resolve(), timings=timings
        )
    except FileNotFoundError as exc:
        parser.error(str(exc))
    elapsed = time.perf_counter() - started

    if args.format == "json":
        print(_as_json(findings, elapsed, timings))
    else:
        for finding in findings:
            print(finding)
        print(
            f"{len(findings)} finding(s) in {elapsed:.2f}s "
            f"({len(available_rules())} rules)"
        )
        if timings is not None:
            _print_profile(timings)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
