"""Synthetic CoNLL-style NER corpus (substitution S2, sequence version).

Reproduces the structural properties the paper's NER evaluation relies on:

* 9 BIO classes over four entity types (PER, LOC, ORG, MISC);
* multi-token entities (1–3 tokens), so the Eq. 18–19 transition rules
  have real work to do (I-X tags are frequent);
* type-specific name lexicons with a controllable fraction of *ambiguous*
  tokens shared between types (a "washington" can be a person or a
  location), which keeps the Gold tagger comfortably below 100% F1;
* filler words between entities.

Sentences are built from a simple slot grammar: alternating filler runs and
entity mentions, 1–3 entities per sentence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff.dtypes import REFERENCE_DTYPE
from .bio import CONLL_LABELS, label_index
from .datasets import SequenceTaggingDataset, pad_sequences
from .embeddings import PrototypeEmbeddings
from .vocab import Vocabulary

__all__ = ["NERCorpusConfig", "NERTask", "make_ner_task", "ENTITY_TYPES"]

ENTITY_TYPES = ["PER", "LOC", "ORG", "MISC"]


@dataclass
class NERCorpusConfig:
    """Knobs of the synthetic NER corpus."""

    num_train: int = 800
    num_dev: int = 250
    num_test: int = 250
    tokens_per_type: int = 40
    num_filler_words: int = 120
    ambiguous_fraction: float = 0.15
    min_entities: int = 1
    max_entities: int = 3
    min_filler_run: int = 1
    max_filler_run: int = 4
    max_entity_tokens: int = 3
    # Mention-length distribution p(1), p(2), p(3), ... — skewed short like
    # CoNLL-2003 (most mentions are 1-2 tokens). With (0.55, 0.35, 0.10)
    # the empirical ratio of B-X→I-X to I-X→I-X transitions is ≈0.8:0.2,
    # i.e. exactly the weights the paper assigns to the Eq. 18/19 rules
    # ("set through ... lightweight sample statistics").
    entity_length_weights: tuple[float, ...] = (0.55, 0.35, 0.10)
    embedding_dim: int = 50
    embedding_noise: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.ambiguous_fraction <= 1.0:
            raise ValueError("ambiguous_fraction must be in [0, 1]")
        if self.min_entities < 1 or self.max_entities < self.min_entities:
            raise ValueError("invalid entity count range")
        if self.max_entity_tokens < 1:
            raise ValueError("entities need at least one token")
        if self.min_filler_run < 1 or self.max_filler_run < self.min_filler_run:
            raise ValueError("invalid filler run range")
        if len(self.entity_length_weights) != self.max_entity_tokens:
            raise ValueError(
                "entity_length_weights must have max_entity_tokens entries"
            )
        if any(w < 0 for w in self.entity_length_weights) or sum(self.entity_length_weights) <= 0:
            raise ValueError("entity_length_weights must be non-negative and sum > 0")


@dataclass
class NERTask:
    """Everything the NER experiments need."""

    train: SequenceTaggingDataset
    dev: SequenceTaggingDataset
    test: SequenceTaggingDataset
    embeddings: np.ndarray
    vocab: Vocabulary
    label_names: list[str]
    config: NERCorpusConfig = field(repr=False, default=None)


class _Gazetteer:
    """Per-type token pools with a shared ambiguous sub-pool."""

    def __init__(self, vocab: Vocabulary, config: NERCorpusConfig, rng: np.random.Generator) -> None:
        self.pools: dict[str, list[int]] = {}
        self.roles: dict[int, list[str]] = {}
        ambiguous_count = int(config.tokens_per_type * config.ambiguous_fraction)
        for entity_type in ENTITY_TYPES:
            own = [
                vocab.add(f"{entity_type.lower()}tok{i}")
                for i in range(config.tokens_per_type - ambiguous_count)
            ]
            for token_id in own:
                self.roles[token_id] = [entity_type.lower()]
            self.pools[entity_type] = own
        # Ambiguous tokens: each belongs to two types' pools.
        for pair_index in range(ambiguous_count * len(ENTITY_TYPES) // 2):
            first, second = rng.choice(len(ENTITY_TYPES), size=2, replace=False)
            type_a, type_b = ENTITY_TYPES[first], ENTITY_TYPES[second]
            token_id = vocab.add(f"amb{pair_index}")
            self.roles[token_id] = [type_a.lower(), type_b.lower()]
            self.pools[type_a].append(token_id)
            self.pools[type_b].append(token_id)
        self.fillers = [vocab.add(f"w{i}") for i in range(config.num_filler_words)]
        for token_id in self.fillers:
            self.roles[token_id] = ["filler"]

    def entity_mention(
        self,
        rng: np.random.Generator,
        entity_type: str,
        length_weights: tuple[float, ...],
    ) -> list[int]:
        weights = np.asarray(length_weights, dtype=REFERENCE_DTYPE)
        length = int(rng.choice(len(weights), p=weights / weights.sum())) + 1
        pool = self.pools[entity_type]
        return [pool[rng.integers(len(pool))] for _ in range(length)]

    def filler_run(self, rng: np.random.Generator, low: int, high: int) -> list[int]:
        length = int(rng.integers(low, high + 1))
        return [self.fillers[rng.integers(len(self.fillers))] for _ in range(length)]


def _generate_sentence(
    rng: np.random.Generator, gazetteer: _Gazetteer, config: NERCorpusConfig, index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    tokens: list[int] = []
    tags: list[int] = []
    num_entities = int(rng.integers(config.min_entities, config.max_entities + 1))
    tokens.extend(gazetteer.filler_run(rng, config.min_filler_run, config.max_filler_run))
    tags.extend([index["O"]] * len(tokens))
    for _ in range(num_entities):
        entity_type = ENTITY_TYPES[rng.integers(len(ENTITY_TYPES))]
        mention = gazetteer.entity_mention(rng, entity_type, config.entity_length_weights)
        tokens.extend(mention)
        tags.append(index[f"B-{entity_type}"])
        tags.extend([index[f"I-{entity_type}"]] * (len(mention) - 1))
        filler = gazetteer.filler_run(rng, config.min_filler_run, config.max_filler_run)
        tokens.extend(filler)
        tags.extend([index["O"]] * len(filler))
    return np.array(tokens, dtype=np.int64), np.array(tags, dtype=np.int64)


def _generate_split(rng, gazetteer, config, n, vocab) -> SequenceTaggingDataset:
    index = label_index(CONLL_LABELS)
    token_seqs: list[np.ndarray] = []
    tag_seqs: list[np.ndarray] = []
    for _ in range(n):
        tokens, tags = _generate_sentence(rng, gazetteer, config, index)
        token_seqs.append(tokens)
        tag_seqs.append(tags)
    tokens_padded, lengths = pad_sequences(token_seqs, pad_id=vocab.pad_id)
    return SequenceTaggingDataset(
        tokens=tokens_padded,
        lengths=lengths,
        tags=tag_seqs,
        vocab=vocab,
        label_names=list(CONLL_LABELS),
    )


def make_ner_task(rng: np.random.Generator, config: NERCorpusConfig | None = None) -> NERTask:
    """Generate the corpus, splits, and prototype embeddings.

    Crowd labels are attached separately via
    :func:`repro.crowd.simulate_ner_crowd`.
    """
    config = config or NERCorpusConfig()
    vocab = Vocabulary()
    gazetteer = _Gazetteer(vocab, config, rng)

    train = _generate_split(rng, gazetteer, config, config.num_train, vocab)
    dev = _generate_split(rng, gazetteer, config, config.num_dev, vocab)
    test = _generate_split(rng, gazetteer, config, config.num_test, vocab)

    factory = PrototypeEmbeddings(config.embedding_dim, config.embedding_noise, rng)
    roles: list[str | list[str] | None] = [None] * len(vocab)
    for token_id, role_list in gazetteer.roles.items():
        roles[token_id] = role_list
    embeddings = factory.build_matrix(roles)

    return NERTask(
        train=train,
        dev=dev,
        test=test,
        embeddings=embeddings,
        vocab=vocab,
        label_names=list(CONLL_LABELS),
        config=config,
    )
