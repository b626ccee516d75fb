"""CLDet baseline (Vinay et al. [3]).

Self-supervised SimCLR pre-training of an LSTM session encoder with the
session-reordering augmentation, followed by a classifier head trained
with plain (noise-sensitive) cross-entropy on the noisy labels.

This is exactly the framework CLFD's label corrector adapts — the
corrector's single change is swapping the cross-entropy head loss for
mixup-GCE — so the implementation reuses :class:`repro.core.LabelCorrector`
with ``classifier_loss="cce"``.
"""

from __future__ import annotations

import numpy as np

from ..core.label_corrector import LabelCorrector
from ..data.sessions import SessionDataset
from ..train import TrainRun
from .base import BaselineConfig, BaselineModel

__all__ = ["CLDetModel"]


class CLDetModel(BaselineModel):
    """SimCLR pre-training + cross-entropy classifier (noise-agnostic)."""

    name = "CLDet"

    def __init__(self, config: BaselineConfig | None = None,
                 ssl_epochs: int = 4, classifier_epochs: int = 100):
        super().__init__(config)
        self.ssl_epochs = ssl_epochs
        self.classifier_epochs = classifier_epochs
        self._corrector: LabelCorrector | None = None

    def _fit(self, train: SessionDataset, rng: np.random.Generator,
             run: TrainRun) -> None:
        self._corrector = LabelCorrector(
            self.config.stage_config(
                ssl_epochs=self.ssl_epochs,
                classifier_epochs=self.classifier_epochs,
                classifier_loss="cce"),  # CLDet's noise-sensitive loss
            self.vectorizer, rng)
        self._corrector.fit(train, run=run)

    def _predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        return self._corrector.predict_proba(dataset)
