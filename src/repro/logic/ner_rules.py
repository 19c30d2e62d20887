"""BIO label-transition rules for sequence tagging (paper Eq. 18–19).

For every entity type X the paper introduces two weighted implications::

    equal(t_i, I-X) => equal(t_{i-1}, B-X)     (weight 0.8)
    equal(t_i, I-X) => equal(t_{i-1}, I-X)     (weight 0.2)

Grounded on a pair of adjacent labels these have hard truth values, so the
aggregate Eq. 15 penalty for a transition ``prev → cur`` is

    penalty(prev, cur) = Σ_l w_l (1 - v_l(prev, cur))

which is zero unless ``cur`` is an I-X label, and for ``cur = I-X`` equals::

    0.2   if prev == B-X       (rule 19 violated)
    0.8   if prev == I-X       (rule 18 violated)
    1.0   otherwise            (both violated)

These penalties form a K×K matrix used as the pairwise potential
``exp(-C·penalty)`` of the chain DP in
:func:`repro.logic.distillation.chain_marginals`, which every sentence of
a pseudo-E-step sweep shares: the sweep is one batched DP call. A
companion *initial* penalty vector encodes that a sentence cannot begin
with I-X.

The ablation "our-other-rules" keeps only Eq. 18 at full weight (the paper's
"unrealistic assumption that each label type should be preceded by the same
label type and without other possibilities").
"""

from __future__ import annotations

import numpy as np

from .formula import Atom
from .rules import Rule, RuleSet

__all__ = ["TransitionRules", "bio_transition_rules"]


class TransitionRules:
    """Compiled BIO transition rules for one label vocabulary.

    Parameters
    ----------
    labels:
        Label names, e.g. ``["O", "B-PER", "I-PER", ...]``. Inside labels
        must start with ``"I-"`` and begin labels with ``"B-"``; everything
        else is treated as outside.
    begin_weight:
        Weight of the "preceded by B-X" rule (paper: 0.8).
    inside_weight:
        Weight of the "preceded by I-X" rule (paper: 0.2).
    """

    def __init__(
        self,
        labels: list[str],
        begin_weight: float = 0.8,
        inside_weight: float = 0.2,
    ) -> None:
        for weight in (begin_weight, inside_weight):
            if not 0.0 <= weight <= 1.0:
                raise ValueError(f"rule weights must be in [0, 1], got {weight}")
        self.labels = list(labels)
        self.begin_weight = float(begin_weight)
        self.inside_weight = float(inside_weight)
        self._index = {name: i for i, name in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise ValueError("duplicate label names")
        self.penalty_matrix = self._build_penalty_matrix()
        self.initial_penalty = self._build_initial_penalty()

    # ------------------------------------------------------------------ #
    def _inside_pairs(self) -> list[tuple[int, int | None, int | None]]:
        """For each I-X label: (its index, index of B-X, index of I-X)."""
        pairs = []
        for name, idx in self._index.items():
            if not name.startswith("I-"):
                continue
            entity = name[2:]
            begin_idx = self._index.get(f"B-{entity}")
            pairs.append((idx, begin_idx, idx))
        return pairs

    def _build_penalty_matrix(self) -> np.ndarray:
        K = len(self.labels)
        penalty = np.zeros((K, K))
        for inside_idx, begin_idx, self_idx in self._inside_pairs():
            # Both rules violated by default...
            penalty[:, inside_idx] = self.begin_weight + self.inside_weight
            # ...the begin rule is satisfied when prev == B-X,
            if begin_idx is not None:
                penalty[begin_idx, inside_idx] = self.inside_weight
            # ...the inside rule when prev == I-X.
            penalty[self_idx, inside_idx] = self.begin_weight
        return penalty

    def _build_initial_penalty(self) -> np.ndarray:
        """Sentence-initial I-X violates both rules (no previous token)."""
        K = len(self.labels)
        initial = np.zeros(K)
        for inside_idx, _, _ in self._inside_pairs():
            initial[inside_idx] = self.begin_weight + self.inside_weight
        return initial

    # ------------------------------------------------------------------ #
    def pairwise_potential(self, C: float) -> np.ndarray:
        """``exp(-C · penalty)`` transition potential for the chain DP."""
        if C < 0:
            raise ValueError(f"C must be non-negative, got {C}")
        return np.exp(-C * self.penalty_matrix)

    def initial_potential(self, C: float) -> np.ndarray:
        """``exp(-C · initial_penalty)`` first-token potential."""
        if C < 0:
            raise ValueError(f"C must be non-negative, got {C}")
        return np.exp(-C * self.initial_penalty)

    def as_rule_set(self) -> RuleSet:
        """Export the transitions as generic PSL rules (for inspection).

        Atoms are named ``cur=<label>`` / ``prev=<label>``; interpretations
        assign hard 0/1 truths. Used by tests to cross-check the compiled
        penalty matrix against the generic engine.
        """
        rules = RuleSet()
        for name in self.labels:
            if not name.startswith("I-"):
                continue
            entity = name[2:]
            cur = Atom(f"cur={name}")
            begin_name = f"B-{entity}"
            if begin_name in self._index:
                rules.add(
                    Rule(
                        f"{name}->prev={begin_name}",
                        cur >> Atom(f"prev={begin_name}"),
                        weight=self.begin_weight,
                    )
                )
            rules.add(
                Rule(
                    f"{name}->prev={name}",
                    cur >> Atom(f"prev={name}"),
                    weight=self.inside_weight,
                )
            )
        return rules

    def interpretation(self, prev_label: str, cur_label: str) -> dict[str, float]:
        """Hard interpretation of one grounded transition (for as_rule_set)."""
        interp: dict[str, float] = {}
        for name in self.labels:
            interp[f"cur={name}"] = 1.0 if name == cur_label else 0.0
            interp[f"prev={name}"] = 1.0 if name == prev_label else 0.0
        return interp


def bio_transition_rules(
    labels: list[str],
    begin_weight: float = 0.8,
    inside_weight: float = 0.2,
    only_begin_rule: bool = False,
) -> TransitionRules:
    """Build :class:`TransitionRules`, optionally in the ablation variant.

    Parameters
    ----------
    only_begin_rule:
        When true, keep only the Eq. 18 rule ("I-X must be preceded by B-X")
        at weight 1.0 — the paper's "our-other-rules" NER ablation.
    """
    if only_begin_rule:
        return TransitionRules(labels, begin_weight=1.0, inside_weight=0.0)
    return TransitionRules(labels, begin_weight=begin_weight, inside_weight=inside_weight)
