"""Crowd-annotation simulator for NER (substitution S2, sequence version).

The paper (§VI-A1) describes three error types crowd annotators make on the
CoNLL-2003 NER (MTurk) dataset:

  (i)   *ignore errors* — an entity is not annotated at all;
  (ii)  *boundary errors* — right entity type, wrong span boundaries;
  (iii) *span type errors* — right span, wrong entity type.

We simulate annotators as per-annotator rates for those three error types,
plus a small token-level noise rate that produces the stray invalid tags
(e.g. bare ``I-X``) the transition rules of Eq. 18–19 are designed to fix.
Annotator quality spans the paper's reported range (per-annotator F1 from
17.6% to 89.1%); annotator activity is heavy-tailed like the sentiment
crowd.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff.dtypes import REFERENCE_DTYPE
from ..data.bio import CONLL_LABELS, bio_from_spans, spans_from_bio
from .types import MISSING, SequenceCrowdLabels

__all__ = ["NERAnnotatorProfile", "NERAnnotatorPool", "sample_ner_pool", "simulate_ner_crowd"]


@dataclass
class NERAnnotatorProfile:
    """Error-rate profile of one simulated NER annotator."""

    ignore_rate: float
    boundary_rate: float
    type_rate: float
    token_noise_rate: float

    def __post_init__(self) -> None:
        for field_name in ("ignore_rate", "boundary_rate", "type_rate", "token_noise_rate"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {value}")


@dataclass
class NERAnnotatorPool:
    """A simulated NER crowd: profiles plus activity weights."""

    profiles: list[NERAnnotatorProfile]
    activity: np.ndarray

    def __post_init__(self) -> None:
        self.activity = np.asarray(self.activity, dtype=REFERENCE_DTYPE)
        if self.activity.shape != (len(self.profiles),):
            raise ValueError("activity must have one weight per annotator")
        if np.any(self.activity <= 0):
            raise ValueError("activity weights must be positive")

    @property
    def num_annotators(self) -> int:
        return len(self.profiles)


_NER_QUALITY_MIXTURE = (
    # (probability, ignore, boundary, type, token_noise) ranges — tuned so
    # per-annotator F1 spans roughly 0.15..0.9 like the paper reports.
    (0.20, (0.02, 0.10), (0.02, 0.10), (0.02, 0.08), (0.000, 0.005)),  # experts
    (0.40, (0.10, 0.30), (0.05, 0.20), (0.05, 0.15), (0.002, 0.010)),  # good
    (0.25, (0.30, 0.55), (0.10, 0.30), (0.10, 0.25), (0.005, 0.020)),  # mediocre
    (0.15, (0.55, 0.85), (0.20, 0.40), (0.20, 0.40), (0.010, 0.040)),  # poor
)


def sample_ner_pool(
    rng: np.random.Generator,
    num_annotators: int,
    zipf_exponent: float = 1.0,
) -> NERAnnotatorPool:
    """Sample a heterogeneous pool of NER annotators."""
    if num_annotators < 1:
        raise ValueError(f"need at least one annotator, got {num_annotators}")
    probabilities = np.array([component[0] for component in _NER_QUALITY_MIXTURE])
    components = rng.choice(len(_NER_QUALITY_MIXTURE), size=num_annotators, p=probabilities)
    profiles = []
    for component in components:
        _, ignore, boundary, span_type, noise = _NER_QUALITY_MIXTURE[component]
        profiles.append(
            NERAnnotatorProfile(
                ignore_rate=rng.uniform(*ignore),
                boundary_rate=rng.uniform(*boundary),
                type_rate=rng.uniform(*span_type),
                token_noise_rate=rng.uniform(*noise),
            )
        )
    ranks = rng.permutation(num_annotators) + 1
    activity = ranks.astype(REFERENCE_DTYPE) ** (-zipf_exponent)
    return NERAnnotatorPool(profiles=profiles, activity=activity)


def _entity_types(labels: list[str]) -> list[str]:
    return sorted({name[2:] for name in labels if name.startswith("B-")})


def corrupt_tags(
    rng: np.random.Generator,
    tags: np.ndarray,
    profile: NERAnnotatorProfile,
    labels: list[str] = CONLL_LABELS,
) -> np.ndarray:
    """Apply one annotator's error profile to a gold tag sequence."""
    length = len(tags)
    spans = spans_from_bio(tags, labels)
    types = _entity_types(labels)
    kept: list[tuple[str, int, int]] = []
    for entity, start, end in spans:
        if rng.random() < profile.ignore_rate:
            continue  # (i) ignore error: entity vanishes
        if rng.random() < profile.type_rate and len(types) > 1:
            # (iii) span type error: swap to another entity type.
            others = [t for t in types if t != entity]
            entity = others[rng.integers(len(others))]
        if rng.random() < profile.boundary_rate:
            # (ii) boundary error: jitter one of the boundaries by one token.
            if rng.random() < 0.5:
                start = max(0, min(start + int(rng.integers(-1, 2)), end - 1))
            else:
                end = min(length, max(end + int(rng.integers(-1, 2)), start + 1))
        kept.append((entity, start, end))
    noisy = bio_from_spans(kept, length, labels)
    if profile.token_noise_rate > 0:
        flip = rng.random(length) < profile.token_noise_rate
        if flip.any():
            noisy = noisy.copy()
            noisy[flip] = rng.integers(0, len(labels), size=int(flip.sum()))
    return noisy


def simulate_ner_crowd(
    rng: np.random.Generator,
    true_tags: list[np.ndarray],
    pool: NERAnnotatorPool,
    mean_labels_per_instance: float = 4.0,
    min_labels_per_instance: int = 1,
    labels: list[str] = CONLL_LABELS,
) -> SequenceCrowdLabels:
    """Simulate token-level crowd labels for a tagged corpus.

    Each sentence is assigned a Poisson number of annotators (clipped to
    ``[min, J]``, probability proportional to activity); each assigned
    annotator labels every token of the sentence through
    :func:`corrupt_tags`.
    """
    if mean_labels_per_instance < min_labels_per_instance:
        raise ValueError("mean labels per instance below the minimum")
    J = pool.num_annotators
    K = len(labels)
    selection_probability = pool.activity / pool.activity.sum()
    out: list[np.ndarray] = []
    for tags in true_tags:
        tags = np.asarray(tags)
        count = int(
            np.clip(
                rng.poisson(mean_labels_per_instance - min_labels_per_instance)
                + min_labels_per_instance,
                min_labels_per_instance,
                J,
            )
        )
        annotators = rng.choice(J, size=count, replace=False, p=selection_probability)
        matrix = np.full((len(tags), J), MISSING, dtype=np.int64)
        for j in annotators:
            matrix[:, j] = corrupt_tags(rng, tags, pool.profiles[j], labels)
        out.append(matrix)
    return SequenceCrowdLabels(out, num_classes=K, num_annotators=J)
