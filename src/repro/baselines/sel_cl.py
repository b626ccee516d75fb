"""Sel-CL baseline — selective supervised contrastive learning (Li et al. [8]).

The pipeline, adapted to sessions per §IV-A3:

1. **SimCLR warm-up** of an LSTM encoder with session-reordering views
   (the paper substitutes this for Sel-CL's image augmentations);
2. **nearest-neighbour label correction** in representation space;
3. **confident-sample selection** — sessions whose corrected label
   agrees with the given noisy label;
4. **supervised contrastive training** restricted to confident pairs;
5. a classifier head trained on the confident subset.

The known weakness on fraud data (and the reason it trails CLFD in
Tables I/II): step 2 assumes same-class samples are neighbours, which
the session-diversity property breaks.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..augment import reorder_ids
from ..data.sessions import SessionDataset, iter_batches
from ..losses import nt_xent_loss, sup_con_loss
from ..train import TrainRun
from .base import BaselineConfig, BaselineModel
from ..core.encoder import SessionEncoder, SoftmaxClassifier
from ..core.training import train_classifier_head

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
        self.encoder: SessionEncoder | None = None
        self.head: SoftmaxClassifier | None = None
        self.confident_mask: np.ndarray | None = None
        self.corrected_labels: np.ndarray | None = None

    def _fit(self, train: SessionDataset, rng: np.random.Generator,
             run: TrainRun) -> None:
        # Multi-stage loop; only the word2vec phase checkpoints here.
        del run
        config = self.config
        self.encoder = SessionEncoder(config.embedding_dim,
                                      config.hidden_size, rng,
                                      num_layers=config.lstm_layers)
        self.head = SoftmaxClassifier(config.hidden_size, rng)
        self._simclr_warmup(train, rng)

        features = self._encode(train)
        noisy = train.noisy_labels()
        corrected = knn_correct_labels(features, noisy, k=self.knn)
        confident = corrected == noisy
        # Degenerate guard: if agreement selects (almost) nothing or only
        # one class, fall back to all samples.
        if confident.sum() < 4 or len(np.unique(corrected[confident])) < 2:
            confident = np.ones(len(train), dtype=bool)
        self.corrected_labels = corrected
        self.confident_mask = confident

        self._supcon_on_confident(train, corrected, confident, rng)
        features = self._encode(train)
        train_classifier_head(
            self.head, features[confident], corrected[confident], rng,
            loss="cce", epochs=self.classifier_epochs,
            batch_size=config.batch_size, lr=config.lr,
            grad_clip=config.grad_clip,
        )

    def _simclr_warmup(self, train: SessionDataset,
                       rng: np.random.Generator) -> None:
        config = self.config
        optimizer = nn.Adam(self.encoder.parameters(), lr=config.lr)
        ids, lengths = self.vectorizer.transform_token_ids(train)
        for _ in range(self.ssl_epochs):
            for batch in iter_batches(train, config.batch_size, rng):
                if batch.size < 2:
                    continue
                views = []
                for _ in range(2):
                    augmented = np.empty_like(ids[batch])
                    for i, row in enumerate(batch):
                        augmented[i] = reorder_ids(
                            ids[row], rng, sub_len=self.reorder_sub_len,
                            length=int(lengths[row]),
                        )
                    views.append(self.vectorizer.model.embed_ids(augmented))
                z_a = self.encoder(views[0], lengths[batch])
                z_b = self.encoder(views[1], lengths[batch])
                loss = nt_xent_loss(z_a, z_b, temperature=self.temperature)
                optimizer.zero_grad()
                loss.backward()
                nn.clip_grad_norm(self.encoder.parameters(), config.grad_clip)
                optimizer.step()

    def _supcon_on_confident(self, train: SessionDataset,
                             corrected: np.ndarray, confident: np.ndarray,
                             rng: np.random.Generator) -> None:
        config = self.config
        optimizer = nn.Adam(self.encoder.parameters(), lr=config.lr)
        pool = np.flatnonzero(confident)
        subset = train[pool]
        for _ in range(self.supcon_epochs):
            for batch in iter_batches(subset, config.batch_size, rng):
                if batch.size < 2:
                    continue
                rows = pool[batch]
                x, lengths = self.vectorizer.transform(train, indices=rows)
                z = self.encoder(x, lengths)
                loss = sup_con_loss(z, corrected[rows],
                                    temperature=self.temperature,
                                    variant="unweighted")
                optimizer.zero_grad()
                loss.backward()
                nn.clip_grad_norm(self.encoder.parameters(), config.grad_clip)
                optimizer.step()

    def _encode(self, dataset: SessionDataset) -> np.ndarray:
        outputs = []
        for batch in iter_batches(dataset, 256):
            x, lengths = self.vectorizer.transform(dataset, indices=batch)
            outputs.append(self.encoder.encode_numpy(x, lengths))
        return np.concatenate(outputs, axis=0)

    def _predict(self, dataset: SessionDataset) -> tuple[np.ndarray, np.ndarray]:
        features = self._encode(dataset)
        labels, scores = self.head.predict_numpy(features)
        return labels, scores

    def _predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        return self.head.probs_numpy(self._encode(dataset))
