"""CLFD's label corrector (§III-A): CLDet adapted with mixup-GCE.

Two stages:

1. **Self-supervised pre-training** — an LSTM session encoder trained
   with the SimCLR NT-Xent loss over session-reordering augmentations.
   Because this stage never reads labels, the learned representations
   are unaffected by label noise.
2. **Noise-robust classification** — a two-layer FCNN trained on the
   frozen representations with the mixup-GCE loss (the paper's change
   versus CLDet, whose classifier used plain cross-entropy).

After training, :meth:`correct` re-labels every training session and
reports a confidence ``cᵢ = max(f₀(vᵢ), f₁(vᵢ))`` used to weight the
fraud detector's supervised contrastive loss.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..augment import reorder_ids
from ..data.pipeline import SessionVectorizer
from ..data.sessions import SessionDataset, iter_batches
from ..losses import nt_xent_loss
from ..train import TrainRun
from .config import CLFDConfig
from .stage import Stage

__all__ = ["LabelCorrector"]


class LabelCorrector(Stage):
    """Self-supervised pre-training + mixup-GCE classifier."""

    def __init__(self, config: CLFDConfig, vectorizer: SessionVectorizer,
                 rng: np.random.Generator):
        super().__init__(config, vectorizer, rng)
        self.ssl_loss_history: list[float] = []

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, train: SessionDataset,
            run: TrainRun | None = None) -> "LabelCorrector":
        """Run both training stages on the noisy training set."""
        run = run or TrainRun()
        self.pretrain_ssl(train, run)
        self.fit_head(self.inference_forward().encode_dataset(train),
                      train.noisy_labels(), run=run)
        self._fitted = True
        return self

    def pretrain_ssl(self, train: SessionDataset, run: TrainRun) -> None:
        """SimCLR pre-training of the encoder with session-reordering
        views, as Trainer scope ``"ssl"`` (Sel-CL's warm-up too)."""
        config = self.config
        optimizer = nn.Adam(self.encoder.parameters(), lr=config.lr)
        ids, lengths = self.vectorizer.transform_token_ids(train)

        def batches(rng: np.random.Generator):
            return iter_batches(train, config.batch_size, rng)

        def step(batch: np.ndarray):
            if batch.size < 2:
                return None
            view_a = self._augmented_view(ids[batch], lengths[batch])
            view_b = self._augmented_view(ids[batch], lengths[batch])
            z_a = self.encoder(view_a, lengths[batch])
            z_b = self.encoder(view_b, lengths[batch])
            return nt_xent_loss(z_a, z_b, temperature=config.temperature)

        trainer = run.trainer("ssl", self.encoder, optimizer,
                              grad_clip=config.grad_clip)
        self.ssl_loss_history = trainer.fit(
            batches, step, epochs=config.ssl_epochs, rng=self._rng)

    def _augmented_view(self, ids: np.ndarray,
                        lengths: np.ndarray) -> np.ndarray:
        """Embed a batch after session-reordering each row."""
        augmented = np.empty_like(ids)
        for row in range(ids.shape[0]):
            augmented[row] = reorder_ids(
                ids[row], self._rng, sub_len=self.config.reorder_sub_len,
                length=int(lengths[row]),
            )
        return self.vectorizer.model.embed_ids(augmented)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def correct(self, dataset: SessionDataset) -> tuple[np.ndarray, np.ndarray]:
        """Return (corrected labels ŷ, confidences c) for every session."""
        probs = self.predict_proba(dataset)
        return probs.argmax(axis=1), probs.max(axis=1)
