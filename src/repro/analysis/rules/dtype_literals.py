"""S1 — ``dtype-literal``: only ``repro.autodiff.dtypes`` may name a dtype.

Migrated from ``tests/tooling/test_no_float64_literals.py`` (PR 7), whose
rationale carries over verbatim: hard-coded ``np.float64`` / ``np.float32``
(or ``"float64"`` string literals, or ``from numpy import float64``) bypass
the precision policy — exactly the bug PR 7 fixed in ``Embedding``, where a
float32 pretrained matrix was silently doubled to float64. Comments and
docstrings are free to *talk about* dtypes; only attribute accesses, exact
string constants, imports, and bare names are banned.

The scope is wider than the original test: all of ``src/repro`` (not just
the autodiff package), because the two-precision system only pays off if
the rest of the stack routes through :func:`repro.autodiff.dtypes.
coerce_array` / :func:`~repro.autodiff.dtypes.resolve_dtype` too. The
rule holds at zero findings: the casts the EM, crowd and logic layers
make to float64 by design name :data:`repro.autodiff.dtypes.
REFERENCE_DTYPE`, and the paper configs' fast path names
:data:`~repro.autodiff.dtypes.FAST_DTYPE`.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..engine import Finding, SourceFile

__all__ = ["DtypeLiteralRule"]

_BANNED_NAMES = frozenset({"float32", "float64"})  # lint: ok(dtype-literal)
_POLICY_MODULE = "src/repro/autodiff/dtypes.py"


class DtypeLiteralRule:
    rule_id = "dtype-literal"
    description = (
        "raw float32/float64 literals outside the precision-policy module "
        "(route through repro.autodiff.dtypes)"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if not source.rel.startswith("src/") or source.rel == _POLICY_MODULE:
            return
        for node in ast.walk(source.tree):
            what = self._violation(node)
            if what is not None:
                yield Finding(
                    file=source.rel,
                    line=node.lineno,
                    rule_id=self.rule_id,
                    message=(
                        f"{what} names a dtype outside repro.autodiff.dtypes; "
                        "use resolve_dtype/coerce_array/get_default_dtype"
                    ),
                )

    @staticmethod
    def _violation(node: ast.AST) -> str | None:
        # np.float64, numpy.float32, xp.float64, ... — any attribute access
        if isinstance(node, ast.Attribute) and node.attr in _BANNED_NAMES:
            return f"attribute .{node.attr}"
        # dtype="float64" style string literals (exact match only, so
        # docstrings mentioning dtypes stay legal)
        if isinstance(node, ast.Constant) and node.value in _BANNED_NAMES:
            return f"string literal {node.value!r}"
        # from numpy import float64
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in _BANNED_NAMES:
                    return f"import of {alias.name}"
        # bare float64 name (e.g. after a star import)
        if isinstance(node, ast.Name) and node.id in _BANNED_NAMES:
            return f"bare name {node.id}"
        return None
