"""CLFD's fraud detector (§III-B, Algorithm 1).

Stage 1 — *supervised pre-training*: a fresh LSTM session encoder is
trained with the confidence-weighted supervised contrastive loss
(Eq. 5–6).  Every batch S of R sessions is joined by an auxiliary batch
S¹ of M corrected-malicious sessions so the minority class is always
represented among the contrast candidates.

Stage 2 — *mixup-based classifier training*: a two-layer FCNN is trained
with mixup-GCE over the frozen encoded representations, supervised by
the corrected labels.  The FCNN performs test-time inference; a
centroid-proximity alternative implements the "w/o classifier" ablation.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.pipeline import SessionVectorizer
from ..data.sessions import MALICIOUS, NORMAL, SessionDataset, iter_batches
from ..losses import sup_con_loss
from ..train import TrainRun
from .config import CLFDConfig
from .stage import Stage

__all__ = ["FraudDetector"]


class FraudDetector(Stage):
    """Weighted sup-con encoder + mixup-GCE FCNN (Algorithm 1)."""

    def __init__(self, config: CLFDConfig, vectorizer: SessionVectorizer,
                 rng: np.random.Generator):
        super().__init__(config, vectorizer, rng)
        self.supcon_loss_history: list[float] = []
        self.centroids: np.ndarray | None = None

    def state_dict(self) -> dict:
        """The stage's arrays plus the class ``"centroids"`` once fitted."""
        state = super().state_dict()
        if self.centroids is not None:
            state["centroids"] = self.centroids
        return state

    def load_state_dict(self, state: dict, *,
                        copy: bool = True) -> "FraudDetector":
        centroids = state.get("centroids")
        if centroids is not None and copy:
            centroids = centroids.copy()
        self.centroids = centroids
        return super().load_state_dict(state, copy=copy)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, train: SessionDataset, corrected_labels: np.ndarray,
            confidences: np.ndarray,
            run: TrainRun | None = None) -> "FraudDetector":
        """Run Algorithm 1 given the label corrector's outputs."""
        run = run or TrainRun()
        corrected_labels = np.asarray(corrected_labels, dtype=np.int64)
        confidences = np.asarray(confidences, dtype=np.float64)
        if corrected_labels.shape != (len(train),):
            raise ValueError("corrected_labels must cover the training set")
        if confidences.shape != (len(train),):
            raise ValueError("confidences must cover the training set")

        # Embed the whole training set once; every sup-con batch of
        # every epoch then slices the cached array.
        self.vectorizer.precompute(train)
        try:
            self._pretrain_supcon(train, corrected_labels, confidences, run)
            features = self.inference_forward().encode_dataset(train)
        finally:
            self.vectorizer.evict(train)
        self.fit_head(features, corrected_labels, run=run)
        self.fit_centroids(features, corrected_labels)
        return self

    def _pretrain_supcon(self, train: SessionDataset,
                         labels: np.ndarray, confidences: np.ndarray,
                         run: TrainRun | None = None) -> None:
        run = run or TrainRun()
        config = self.config
        optimizer = nn.Adam(self.encoder.parameters(), lr=config.lr)
        malicious_pool = np.flatnonzero(labels == MALICIOUS)

        def batches(rng: np.random.Generator):
            return iter_batches(train, config.batch_size, rng)

        def step(batch: np.ndarray):
            if batch.size < 2:
                return None
            rows = batch
            if malicious_pool.size:
                aux = self._rng.choice(
                    malicious_pool,
                    size=min(config.aux_batch_size, malicious_pool.size),
                    replace=False,
                )
                rows = np.concatenate([batch, aux])
            x, lengths = self.vectorizer.transform(train, indices=rows)
            z = self.encoder(x, lengths)
            return sup_con_loss(
                z, labels[rows], temperature=config.temperature,
                confidences=confidences[rows],
                num_anchors=batch.size,
                variant=config.supcon_variant,
                threshold=config.filter_threshold,
            )

        trainer = run.trainer("supcon", self.encoder, optimizer,
                              grad_clip=config.grad_clip)
        self.supcon_loss_history = trainer.fit(
            batches, step, epochs=config.supcon_epochs, rng=self._rng)

    def fit_centroids(self, features: np.ndarray,
                      labels: np.ndarray) -> None:
        """Class centers in representation space ("w/o classifier" path).

        The detector's last fitting step, so it marks the detector
        fitted.
        """
        centroids = np.zeros((2, features.shape[1]))
        for cls in (NORMAL, MALICIOUS):
            members = features[labels == cls]
            if members.size:
                centroids[cls] = members.mean(axis=0)
        self.centroids = centroids
        self._fitted = True

    def _scoring(self) -> dict:
        """For ``inference="centroid"`` (the "w/o classifier" ablation)
        score by the softmin over the two centroid distances
        (:func:`~repro.core.encoder.centroid_scores`)."""
        return {"centroid": self.config.inference == "centroid",
                "centroids": self.centroids}
