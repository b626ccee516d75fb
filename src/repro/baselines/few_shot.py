"""Few-Shot insider threat detection baseline (Yuan et al. [2]).

The original uses a BERT sentence encoder with a classification head,
trained on the few labelled malicious sessions.  Following the paper's
adaptation rules (§IV-A3) and the PyTorch→NumPy substitution, the BERT
encoder is a compact transformer built on :mod:`repro.nn`.  The model is
*not* noise-aware: it trains with plain cross-entropy on the noisy
labels, which is exactly why it degrades at high noise rates in
Tables I/II.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.encoder import SoftmaxClassifier
from ..data.sessions import SessionDataset, iter_batches
from ..train import TrainRun
from .base import BaselineConfig, BaselineModel

__all__ = ["FewShotModel"]


class FewShotModel(BaselineModel):
    """Transformer (BERT-style) session classifier on noisy labels."""

    name = "Few-Shot"

    def __init__(self, config: BaselineConfig | None = None,
                 num_heads: int = 4, num_layers: int = 2):
        super().__init__(config)
        self.num_heads = num_heads
        self.num_layers = num_layers
        self.encoder: nn.TransformerEncoder | None = None
        self.head: SoftmaxClassifier | None = None

    def _fit(self, train: SessionDataset, rng: np.random.Generator,
             run: TrainRun) -> None:
        config = self.config
        self.encoder = nn.TransformerEncoder(
            dim=config.embedding_dim, num_heads=self.num_heads,
            ff_dim=2 * config.embedding_dim, num_layers=self.num_layers,
            rng=rng, max_len=max(self.vectorizer.max_len, 8),
        )
        self.head = SoftmaxClassifier(config.embedding_dim, rng)
        optimizer = nn.Adam(self.encoder.parameters() + self.head.parameters(),
                            lr=config.lr)
        labels = train.noisy_labels()

        def batches(batch_rng: np.random.Generator):
            return iter_batches(train, config.batch_size, batch_rng)

        def step(batch: np.ndarray):
            if batch.size < 2:
                return None
            x, lengths = self.vectorizer.transform(train, indices=batch)
            pooled = self.encoder.mean_pool(nn.Tensor(x), lengths)
            return nn.cross_entropy(self.head(pooled), labels[batch])

        trainer = run.trainer(
            "classifier", {"encoder": self.encoder, "head": self.head},
            optimizer, grad_clip=config.grad_clip)
        trainer.fit(batches, step, epochs=config.epochs, rng=rng)

    def _predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        all_probs = []
        for batch in iter_batches(dataset, 256):
            x, lengths = self.vectorizer.transform(dataset, indices=batch)
            with nn.no_grad():
                pooled = self.encoder.mean_pool(nn.Tensor(x), lengths)
                all_probs.append(self.head.probs(pooled).data)
        return np.concatenate(all_probs, axis=0)
