"""S6 — ``view-mutation``: never mutate a borrowed zero-copy view in place.

The bit-identity contract: a container's cached ``SparseLabelShard``
(``as_shard()``/``token_shard()``) is the one kernel surface, the views
that ``shards()``/``iter_shards()`` return alias its COO triples
(``flat_label_pairs``/``label_incidence`` return the cached arrays
themselves), and
``SparseLabelShard.load(..., mmap=True)`` maps the shard *file* —
so an in-place write through any of them corrupts shared state that
every other consumer (and the tree-reduce determinism guarantee) relies
on. The sanctioned idiom is to launder first: ``.copy()`` /
``.astype(...)`` / ``to_matrix()`` all allocate fresh storage.

Mechanization: the flow tier's taint analysis
(:mod:`repro.analysis.flow.facts`) seeds "borrowed" object ids at the
declared accessor sites, propagates them through assignments, tuple
unpacking, subscripting, and the view-returning numpy calls
(``asarray``/``reshape``/...), and treats every other call result as
fresh — which is exactly what makes an intervening ``.copy()`` silence
the rule. Any collected in-place write (subscript store, aug-assign,
``out=`` keyword, mutating method) whose target may point to a borrowed
id is flagged. Path-sensitivity comes for free: a write only reachable
after laundering re-binds the name to a fresh id on that path.
"""

from __future__ import annotations

from typing import Iterator

from ..engine import Finding, SourceFile

__all__ = ["ViewMutationRule"]


class ViewMutationRule:
    rule_id = "view-mutation"
    description = (
        "in-place write to a borrowed zero-copy view/memmap "
        "(corrupts shared caches) — `.copy()` first"
    )
    uses_flow = True  # meta-test: must ship a guarded/laundered good fixture

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for mutation in source.flow().mutations():
            if not mutation.borrowed_from:
                continue
            origin = ", ".join(mutation.borrowed_from)
            yield Finding(
                file=source.rel,
                line=mutation.lineno,
                rule_id=self.rule_id,
                message=(
                    f"{mutation.kind} on {mutation.target!r}, which may be a "
                    f"borrowed view ({origin}) — in-place writes corrupt the "
                    "shared cache/shard file; `.copy()` before mutating"
                ),
            )
