"""CTRR baseline — contrastive regularization (Yi et al. [9]).

CTRR trains the encoder and classifier jointly: a cross-entropy term on
the noisy labels plus a *contrastive regularization* that pulls together
representations of sample pairs the model currently predicts into the
same class with high confidence.  The regularizer limits how much label
noise can dominate representation learning, but (as with Sel-CL) its
confident-pair selection relies on sample similarity, which session
diversity undermines on fraud data.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.stage import Stage
from ..data.sessions import SessionDataset, iter_batches
from ..losses import sup_con_loss
from ..train import TrainRun
from .base import BaselineConfig, BaselineModel, stage_probs

__all__ = ["CTRRModel"]


class CTRRModel(BaselineModel):
    """Joint CE + confident-pair contrastive regularization."""

    name = "CTRR"

    def __init__(self, config: BaselineConfig | None = None,
                 reg_weight: float = 1.0, confidence: float = 0.8,
                 temperature: float = 1.0):
        super().__init__(config)
        self.reg_weight = reg_weight
        self.confidence = confidence
        self.temperature = temperature
        self.net: Stage | None = None

    def _fit(self, train: SessionDataset, rng: np.random.Generator,
             run: TrainRun) -> None:
        config = self.config
        net = self.net = Stage(config.stage_config(), self.vectorizer, rng)
        optimizer = nn.Adam(net.parameters(), lr=config.lr)
        noisy = train.noisy_labels()

        def batches(batch_rng: np.random.Generator):
            return iter_batches(train, config.batch_size, batch_rng)

        def step(batch: np.ndarray):
            if batch.size < 2:
                return None
            x, lengths = self.vectorizer.transform(train, indices=batch)
            z = net.encoder(x, lengths)
            logits = net.classifier(z)
            loss = nn.cross_entropy(logits, noisy[batch])

            # Contrastive regularization over confident predictions:
            # pairs predicted into the same class with confidence
            # above the threshold are pulled together.
            with nn.no_grad():
                probs = nn.softmax(logits, axis=-1).data
            pred = probs.argmax(axis=1)
            confident = probs.max(axis=1) > self.confidence
            if confident.sum() >= 2:
                reg = sup_con_loss(
                    z[np.flatnonzero(confident)], pred[confident],
                    temperature=self.temperature, variant="unweighted",
                )
                loss = loss + reg * self.reg_weight
            return loss

        trainer = run.trainer(
            "joint", {"encoder": net.encoder, "classifier": net.classifier},
            optimizer, grad_clip=config.grad_clip)
        trainer.fit(batches, step, epochs=config.epochs, rng=rng)

    def _predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        return stage_probs(self.net, dataset)
