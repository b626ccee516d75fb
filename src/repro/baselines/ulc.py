"""ULC baseline — uncertainty-aware label correction (Huang et al. [10]).

ULC tracks each sample's prediction uncertainty across training and
corrects labels only where the model is confidently in disagreement with
the given label.  This implementation keeps the method's two pillars:

* an **exponential moving average of per-sample predictions** across
  epochs as the (epistemic) uncertainty proxy — samples whose EMA
  prediction is both stable and contradicts the noisy label are flagged;
* a **correction + retrain** phase on the corrected labels.

Designed for (balanced) image benchmarks, its correction rule keys on
per-sample confidence, which extreme imbalance and session diversity
destabilise — the behaviour Tables I/II report.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.stage import Stage
from ..data.sessions import SessionDataset, iter_batches
from ..train import TrainRun
from .base import BaselineConfig, BaselineModel, stage_probs

__all__ = ["ULCModel"]


class ULCModel(BaselineModel):
    """EMA-confidence label correction with co-teaching-style retrain."""

    name = "ULC"

    def __init__(self, config: BaselineConfig | None = None,
                 warmup_epochs: int = 3, ema_decay: float = 0.7,
                 correction_confidence: float = 0.8):
        super().__init__(config)
        self.warmup_epochs = warmup_epochs
        self.ema_decay = ema_decay
        self.correction_confidence = correction_confidence
        self.net: Stage | None = None
        self.corrected_labels: np.ndarray | None = None

    def _fit(self, train: SessionDataset, rng: np.random.Generator,
             run: TrainRun) -> None:
        # Only the word2vec phase checkpoints: the EMA of predictions
        # carried between epochs is not in a Trainer snapshot, so the
        # epoch loop cannot resume.
        del run
        config = self.config
        self.net = Stage(config.stage_config(), self.vectorizer, rng)
        optimizer = nn.Adam(self.net.parameters(), lr=config.lr)
        noisy = train.noisy_labels()
        ema = np.full((len(train), 2), 0.5)

        warm = min(self.warmup_epochs, config.epochs)
        for _ in range(warm):
            self._train_epoch(train, noisy, optimizer, rng)
            ema = (self.ema_decay * ema
                   + (1 - self.ema_decay)
                   * stage_probs(self.net, train))

        # Uncertainty-aware correction: flip labels the EMA confidently
        # contradicts; keep everything else.
        ema_label = ema.argmax(axis=1)
        ema_conf = ema.max(axis=1)
        confident_disagree = (ema_label != noisy) & \
            (ema_conf > self.correction_confidence)
        corrected = np.where(confident_disagree, ema_label, noisy)
        self.corrected_labels = corrected.astype(np.int64)

        for _ in range(max(config.epochs - warm, 1)):
            self._train_epoch(train, self.corrected_labels, optimizer, rng)

    def _train_epoch(self, train: SessionDataset, labels: np.ndarray,
                     optimizer: nn.Adam, rng: np.random.Generator) -> None:
        config = self.config
        for batch in iter_batches(train, config.batch_size, rng):
            if batch.size < 2:
                continue
            x, lengths = self.vectorizer.transform(train, indices=batch)
            logits = self.net.classifier(self.net.encoder(x, lengths))
            loss = nn.cross_entropy(logits, labels[batch])
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(self.net.parameters(), config.grad_clip)
            optimizer.step()

    def _predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        return stage_probs(self.net, dataset)
