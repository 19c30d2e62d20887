"""Logic-LNCL: the paper's primary contribution.

Public surface::

    from repro.core import (
        LogicLNCLClassifier, LogicLNCLSequenceTagger,
        LogicLNCLConfig, sentiment_paper_config, ner_paper_config,
        constant, exponential_ramp,
    )

Performance: the sequence pseudo-E/M steps are array-at-a-time. Ragged
per-sentence crowd labels are flattened once into cached ``(ΣT_i, J)``
token matrices (plus a sparse token × (annotator, label) incidence), so
the Eq. 12 confusion update and Eq. 13 posterior are a handful of NumPy /
sparse-matmul calls rather than per-sentence Python loops — see
:mod:`repro.core.em` (the original loops live on as executable
specifications in ``tests/oracles.py`` and anchor the equivalence
tests). The Eq. 15 projection
of every sentence is likewise one batched chain DP per sweep
(:func:`repro.logic.chain_marginals`). The matching ``semantics
unchanged`` argument for the fused GRU lives in
:mod:`repro.autodiff.functional.gru_sequence`.
"""

from .config import LogicLNCLConfig, ner_paper_config, sentiment_paper_config
from .em import (
    posterior_qa,
    sequence_posterior_qa,
    sequence_update_confusions,
    update_confusions,
)
from .logic_lncl import LogicLNCLClassifier
from .schedules import ImitationSchedule, constant, exponential_ramp
from .sequence_lncl import LogicLNCLSequenceTagger

__all__ = [
    "LogicLNCLClassifier",
    "LogicLNCLSequenceTagger",
    "LogicLNCLConfig",
    "sentiment_paper_config",
    "ner_paper_config",
    "ImitationSchedule",
    "constant",
    "exponential_ramp",
    "update_confusions",
    "posterior_qa",
    "sequence_update_confusions",
    "sequence_posterior_qa",
]
