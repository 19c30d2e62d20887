"""T1 — ``allclose-atol``: test tolerances are explicit tiers, not defaults.

``np.testing.assert_allclose`` defaults to ``rtol=1e-7, atol=0`` — a
tolerance nobody chose. The repo's discipline (ROADMAP, Precision policy)
is explicit tiers via :func:`repro.autodiff.dtypes.equivalence_atol`:
float64 contracts pin at 1e-10, float32 twins at 1e-4, and anything
looser is a per-site decision that should be visible at the call site.
An ``assert_allclose`` without ``atol=`` near zero is also vacuous for
values that straddle 0 (pure-relative tolerance around 0 is infinite
strictness or a crash, never what was meant).

Mechanization: every ``assert_allclose`` call in ``tests/`` must pass an
explicit ``atol=`` keyword. Calls that forward ``**kwargs`` are assumed
compliant (the tolerance decision was made by the caller being wrapped).
The rule holds at zero findings. The calls that predate it state
``atol=0``, numpy's default, so each kept exactly the check it had.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, SourceFile

__all__ = ["AssertAllcloseAtolRule"]


class AssertAllcloseAtolRule:
    rule_id = "allclose-atol"
    description = (
        "assert_allclose without an explicit atol= tier "
        "(use repro.autodiff.dtypes.equivalence_atol)"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if not source.rel.startswith("tests/"):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name != "assert_allclose":
                continue
            # kw.arg is None for **kwargs forwarding — treat as explicit.
            if any(kw.arg == "atol" or kw.arg is None for kw in node.keywords):
                continue
            yield Finding(
                file=source.rel,
                line=node.lineno,
                rule_id=self.rule_id,
                message=(
                    "assert_allclose without atol= relies on the default "
                    "rtol-only tolerance; pass an explicit tier "
                    "(equivalence_atol(...) or a justified literal)"
                ),
            )
