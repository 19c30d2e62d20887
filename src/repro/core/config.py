"""Logic-LNCL configuration (paper Table I).

``sentiment_paper_config`` and ``ner_paper_config`` encode the exact
hyper-parameters of Table I; benches reuse them with smaller epoch budgets
but identical method-defining values (C, k(t), optimizer family, patience).

Both train in the autodiff engine's fast path,
:data:`repro.autodiff.dtypes.FAST_DTYPE` (float32): the pseudo-M-step,
training the network on ``qf``, is where Logic-LNCL spends its time. The
pseudo-E-step (Eq. 12–15) casts the network's probabilities to float64,
so ``qa``/``qb``/``qf`` and the confusions stay float64. ``TrainerConfig``
itself defaults to float64, the reference path every equivalence test is
pinned to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..autodiff.dtypes import FAST_DTYPE
from ..baselines.common import TrainerConfig
from .schedules import ImitationSchedule, exponential_ramp

__all__ = ["LogicLNCLConfig", "sentiment_paper_config", "ner_paper_config"]


@dataclass
class LogicLNCLConfig(TrainerConfig):
    """Training + distillation hyper-parameters.

    Attributes
    ----------
    C:
        Posterior-regularization strength of Eq. 14/15 (paper: 5.0 on both
        datasets).
    imitation:
        Schedule for the mixing weight ``k`` of Eq. 9.
    confusion_smoothing:
        Laplace pseudo-count in the Eq. 12 confusion update, keeping rows
        proper for annotators with few labels.
    """

    C: float = 5.0
    imitation: ImitationSchedule = field(default_factory=lambda: exponential_ramp(1.0, 0.94))
    confusion_smoothing: float = 0.01

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.C < 0:
            raise ValueError(f"C must be non-negative, got {self.C}")
        if self.confusion_smoothing < 0:
            raise ValueError("confusion smoothing must be non-negative")


def sentiment_paper_config(epochs: int = 30) -> LogicLNCLConfig:
    """Table I, sentiment column: Adadelta lr 1.0 halved every 5 epochs,
    batch 50, k(t) = min{1, 1-0.94^t}, C = 5, patience 5, unweighted loss
    (Eq. 6/8). Trains the TextCNN in float32 (:data:`FAST_DTYPE`)."""
    return LogicLNCLConfig(
        epochs=epochs,
        batch_size=50,
        optimizer="adadelta",
        learning_rate=1.0,
        lr_decay_every=5,
        lr_decay_factor=0.5,
        patience=5,
        weighted_loss=False,
        C=5.0,
        imitation=exponential_ramp(1.0, 0.94),
        dtype=FAST_DTYPE,
    )


def ner_paper_config(epochs: int = 30) -> LogicLNCLConfig:
    """Table I, NER column: Adam 1e-3, batch 64, k(t) = min{0.8, 1-0.90^t},
    C = 5, patience 5, annotation-weighted loss (Eq. 5/10). Trains the
    CNN+GRU tagger in float32 (:data:`FAST_DTYPE`)."""
    return LogicLNCLConfig(
        epochs=epochs,
        batch_size=64,
        optimizer="adam",
        learning_rate=1e-3,
        lr_decay_every=None,
        patience=5,
        weighted_loss=True,
        C=5.0,
        imitation=exponential_ramp(0.8, 0.90),
        dtype=FAST_DTYPE,
    )
