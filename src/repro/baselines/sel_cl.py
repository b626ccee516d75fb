"""Sel-CL baseline — selective supervised contrastive learning (Li et al. [8]).

The pipeline, adapted to sessions per §IV-A3:

1. **SimCLR warm-up** of an LSTM encoder with session-reordering views
   (the paper substitutes this for Sel-CL's image augmentations) — the
   pre-training of CLFD's :class:`~repro.core.LabelCorrector`, whose
   encoder and head this model trains;
2. **nearest-neighbour label correction** in representation space;
3. **confident-sample selection** — sessions whose corrected label
   agrees with the given noisy label;
4. **supervised contrastive training** restricted to confident pairs;
5. a classifier head trained with cross-entropy on the confident subset.

The known weakness on fraud data (and the reason it trails CLFD in
Tables I/II): step 2 assumes same-class samples are neighbours, which
the session-diversity property breaks.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.label_corrector import LabelCorrector
from ..data.sessions import SessionDataset, iter_batches
from ..losses import sup_con_loss
from ..train import TrainRun
from .base import BaselineConfig, BaselineModel, stage_probs

__all__ = ["SelCLModel", "knn_correct_labels"]


def knn_correct_labels(features: np.ndarray, labels: np.ndarray,
                       k: int = 10) -> np.ndarray:
    """Correct each label by majority vote of its k nearest neighbours
    (cosine distance), excluding the sample itself."""
    normed = features / (np.linalg.norm(features, axis=1, keepdims=True)
                         + 1e-12)
    sims = normed @ normed.T
    np.fill_diagonal(sims, -np.inf)
    k = min(k, len(labels) - 1)
    neighbours = np.argsort(-sims, axis=1)[:, :k]
    votes = labels[neighbours].mean(axis=1)
    return (votes > 0.5).astype(np.int64)


class SelCLModel(BaselineModel):
    """SimCLR warm-up → kNN correction → confident-pair sup-con."""

    name = "Sel-CL"

    def __init__(self, config: BaselineConfig | None = None,
                 ssl_epochs: int = 4, supcon_epochs: int = 3,
                 classifier_epochs: int = 60, knn: int = 5,
                 reorder_sub_len: int = 3, temperature: float = 1.0):
        super().__init__(config)
        self.ssl_epochs = ssl_epochs
        self.supcon_epochs = supcon_epochs
        self.classifier_epochs = classifier_epochs
        self.knn = knn
        self.reorder_sub_len = reorder_sub_len
        self.temperature = temperature
        self.corrector: LabelCorrector | None = None
        self.confident_mask: np.ndarray | None = None
        self.corrected_labels: np.ndarray | None = None

    def _fit(self, train: SessionDataset, rng: np.random.Generator,
             run: TrainRun) -> None:
        # CLFD's label corrector: its SimCLR pre-training is the warm-up,
        # and its head trains with plain cross-entropy.
        corrector = LabelCorrector(
            self.config.stage_config(
                ssl_epochs=self.ssl_epochs,
                classifier_epochs=self.classifier_epochs,
                temperature=self.temperature,
                reorder_sub_len=self.reorder_sub_len,
                classifier_loss="cce"),
            self.vectorizer, rng)
        corrector.pretrain_ssl(train, run)

        features = corrector.inference_forward().encode_dataset(train)
        noisy = train.noisy_labels()
        corrected = knn_correct_labels(features, noisy, k=self.knn)
        confident = corrected == noisy
        # Degenerate guard: if agreement selects (almost) nothing or only
        # one class, fall back to all samples.
        if confident.sum() < 4 or len(np.unique(corrected[confident])) < 2:
            confident = np.ones(len(train), dtype=bool)
        self.corrected_labels = corrected
        self.confident_mask = confident

        self._supcon_on_confident(corrector, train, corrected, confident,
                                  rng, run)
        features = corrector.inference_forward().encode_dataset(train)
        corrector.fit_head(features[confident], corrected[confident],
                           run=run)
        self.corrector = corrector

    def _supcon_on_confident(self, corrector: LabelCorrector,
                             train: SessionDataset, corrected: np.ndarray,
                             confident: np.ndarray,
                             rng: np.random.Generator, run: TrainRun) -> None:
        """Supervised contrastive training of the encoder on the
        confident sessions' corrected labels, as Trainer scope
        ``"supcon"``."""
        config = self.config
        encoder = corrector.encoder
        optimizer = nn.Adam(encoder.parameters(), lr=config.lr)
        pool = np.flatnonzero(confident)
        subset = train[pool]

        def batches(batch_rng: np.random.Generator):
            return iter_batches(subset, config.batch_size, batch_rng)

        def step(batch: np.ndarray):
            if batch.size < 2:
                return None
            rows = pool[batch]
            x, lengths = self.vectorizer.transform(train, indices=rows)
            return sup_con_loss(encoder(x, lengths), corrected[rows],
                                temperature=self.temperature,
                                variant="unweighted")

        trainer = run.trainer("supcon", encoder, optimizer,
                              grad_clip=config.grad_clip)
        trainer.fit(batches, step, epochs=self.supcon_epochs, rng=rng)

    def _predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        return stage_probs(self.corrector, dataset)
